"""Generating-function expressions: parsing, Fourier modes, built-in catalog.

Two disjoint generator families are supported, matching the two families for
which closed-form harmonic continuations exist:

* polynomial generators, compiled to :class:`~trapnet.algebra.Poly2`;
* periodic trig-polynomial generators, compiled to :class:`FourierGen`,
  a Hermitian set of complex Fourier modes on a rectangular period cell.

Expression grammar (both families share it)::

    expr    := ("+"|"-")? term (("+"|"-") term)*
    term    := factor ("*" factor)*
    factor  := base ("^" uint)?
    base    := number | name | "x" | "y" | "pi" | "(" expr ")"
             | ("cos"|"sin") "(" linform ")"
    linform := expr that reduces to a*x + b*y + d with numeric a, b, d

The parser builds no syntax tree: each family supplies its leaves (numbers,
x, y, cos/sin) and every operator is applied in source order by the values'
own arithmetic (``Poly2``, a list of plane waves, or a trig argument
a*x + b*y + d that must stay linear), so the first error in source order is
reported.  Trig calls are rejected in polynomial mode; bare x/y are rejected
in Fourier mode (only constants may appear outside trig arguments).

A text is compiled once per family, set of parameter names and periods, and
kept in a bounded memo.  A text without parameters compiles to its generator.
Otherwise it compiles to a program: every value that depends on no parameter
is computed once, and a parameter leaf and each operation above it are
replayed in source order whenever values are bound.  Those are the same
float operations on the same operands as a parse with the values bound, so
a bound program gives the same bits and the same first error.  A text whose
build raises keeps the steps recorded before the error and then raises a
copy of it, so it is tokenized and parsed once too.
"""

from __future__ import annotations

import cmath
import copy
import json
import math
import operator
import re
import threading
from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np

from .algebra import Poly2, X, Y, check_order

__all__ = [
    "GeneratorError",
    "ParseError",
    "FourierMode",
    "FourierGen",
    "mode_sum",
    "GeneratorSpec",
    "parse_polynomial",
    "parse_fourier",
    "catalog",
    "catalog_names",
    "load_spec",
]

# relative tolerance when matching a wavevector to the period lattice
COMMENSURATE_RTOL = 1e-9
# deepest nesting of parentheses and cos/sin arguments an expression may
# have; only the parser recurses, once per level of nesting (flat operator
# chains are folded in loops), so the cap keeps it inside Python's default
# recursion limit
MAX_NESTING = 100
# largest exponent, and most plane waves one product may expand to: both
# are expanded term by term, so their cost grows with these counts
MAX_EXPONENT = 64
MAX_WAVES = 2**18
# highest degree a polynomial product or power may reach: expanding three
# dense linear factors to degree 64, 128 or 192 took about 0.1, 1 or 11 s
# (Python 3.11 on a 2-vCPU Xeon)
MAX_DEGREE = 128
# most weight the memo of compiled texts and wave tables keeps (_weight,
# mode_sum): filled with generators, programs or tables of any one kind it
# held 0.5-2.4 MB (tracemalloc, Python 3.11)
_MEMO_WEIGHT = 2**14


class GeneratorError(ValueError):
    """Invalid generator definition (bad expression, parameters, or modes)."""


class ParseError(GeneratorError):
    """Syntax or semantic error in an expression, with source position."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.message = message
        self.pos = pos

    def __reduce__(self):  # so that copy and pickle build it again from both
        return type(self), (self.message, self.pos)


# ----------------------------------------------------------------------
# tokenizer and recursive-descent parser
# ----------------------------------------------------------------------

_NUMBER = re.compile(r"(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?")
_NAME = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")


@dataclass(frozen=True)
class _Token:
    kind: str  # "num" | "name" | one of "+-*^()" | "end"
    text: str
    pos: int


def _tokenize(src: str) -> list[_Token]:
    tokens = []
    pos = 0
    while pos < len(src):
        ch = src[pos]
        if ch.isspace():
            pos += 1
            continue
        if ch in "+-*^()":
            tokens.append(_Token(ch, ch, pos))
            pos += 1
            continue
        m = _NUMBER.match(src, pos)
        if m:
            tokens.append(_Token("num", m.group(), pos))
            pos = m.end()
            continue
        m = _NAME.match(src, pos)
        if m:
            tokens.append(_Token("name", m.group(), pos))
            pos = m.end()
            continue
        raise ParseError(f"unexpected character {ch!r}", pos)
    tokens.append(_Token("end", "", len(src)))
    return tokens


class _Parser:
    """Recursive-descent parser that compiles as it goes; ``family`` makes the
    leaves and the values' own ``+ - * ** unary-`` apply the operators, each
    through :meth:`apply`.  A parameter in ``names``, and each operation with
    an operand that depends on one, is recorded in ``steps`` instead, in
    source order, for a :class:`_Program`."""

    def __init__(self, src: str, family, names):
        self.tokens = _tokenize(src)
        self.i = 0
        self.depth = 0
        self.family = family
        self.names = names
        self.steps = []
        self.fixed_waves = True  # no parameter inside a trig argument

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def advance(self) -> _Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(f"expected {kind!r}, found {tok.text or 'end of input'!r}", tok.pos)
        return self.advance()

    def parse(self):
        value = self.expr()
        tok = self.peek()
        if tok.kind != "end":
            raise ParseError(f"unexpected {tok.text!r}", tok.pos)
        return value

    def expr(self):
        tok = self.peek()
        if tok.kind in "+-":
            # leading sign; needed so pretty-printed polynomials reparse
            self.advance()
            value = self.term()
            if tok.kind == "-":
                value = self.apply(operator.neg, value)
        else:
            value = self.term()
        while self.peek().kind in "+-":
            op = self.advance()
            rhs = self.term()
            value = self.apply(operator.add if op.kind == "+" else operator.sub, value, rhs)
        return value

    def term(self):
        value = self.factor()
        while self.peek().kind == "*":
            op = self.advance()
            value = self.apply(self.product, op, value, self.factor())
        return value

    def factor(self):
        value = self.base()
        if self.peek().kind == "^":
            caret = self.advance()
            tok = self.peek()
            if tok.kind != "num":
                raise ParseError("exponent must be a nonnegative integer literal", tok.pos)
            exponent = self.finite(float(tok.text), tok)
            if exponent != int(exponent):
                raise ParseError(f"exponent {tok.text!r} is not an integer", tok.pos)
            if exponent > MAX_EXPONENT:
                raise ParseError(
                    f"exponent {tok.text!r} exceeds the limit of {MAX_EXPONENT}", tok.pos)
            self.advance()
            value = self.apply(self.product, caret, value, int(exponent))
        return value

    @staticmethod
    def product(op: _Token, lhs, rhs):
        """``lhs * rhs``, or ``lhs ** rhs`` after a caret."""
        if isinstance(lhs, Poly2):  # refused before it is expanded
            degree = lhs.degree * rhs if op.kind == "^" else lhs.degree + rhs.degree
            if degree > MAX_DEGREE:
                raise ParseError(f"the result has degree {degree}, more than the limit "
                                 f"of {MAX_DEGREE}", op.pos)
        try:
            return lhs ** rhs if op.kind == "^" else lhs * rhs
        except _Refused as exc:
            raise ParseError(str(exc), op.pos) from None
        except OverflowError:  # a float power raises where a product gives inf
            raise ParseError("result is out of range", op.pos) from None

    @staticmethod
    def finite(value: float, tok: _Token) -> float:
        if not math.isfinite(value):
            raise ParseError(f"{tok.text!r} is not a finite number", tok.pos)
        return value

    def base(self):
        tok = self.advance()
        if tok.kind == "num":
            return self.family.number(self.finite(float(tok.text), tok))
        if tok.kind == "(":
            value = self.nested(tok, self.family)
            self.expect(")")
            return value
        if tok.kind != "name":
            raise ParseError(f"expected a value, found {tok.text or 'end of input'!r}", tok.pos)
        if tok.text in ("x", "y"):
            return self.family.variable(tok)
        if tok.text in ("cos", "sin"):
            family = self.family.argument(tok)
            self.expect("(")
            arg = self.nested(tok, family)
            self.expect(")")
            return self.apply(self.family.call, tok, arg)
        if tok.text == "pi":
            return self.family.number(math.pi)
        if tok.text in self.names:
            return self.parameter(tok)
        raise ParseError(f"unbound parameter {tok.text!r}", tok.pos)

    def apply(self, fn, *args):
        if any(type(a) is _Slot for a in args):
            return self.step(fn, args)
        return fn(*args)

    def parameter(self, tok: _Token):
        if self.family is _Linear:
            self.fixed_waves = False
        return self.step(_number, (self.family.number, tok, _PARAMS))

    def step(self, fn, args) -> _Slot:
        self.steps.append((fn, args))
        return _Slot(len(self.steps) - 1)

    def nested(self, opener: _Token, family):
        """Compile the expression inside parentheses, one nesting level down."""
        if self.depth >= MAX_NESTING:
            raise ParseError("nesting too deep", opener.pos)
        outer, self.family = self.family, family
        self.depth += 1
        value = self.expr()
        self.depth -= 1
        self.family = outer
        return value


# ----------------------------------------------------------------------
# value families: leaves, and operators where Poly2 does not supply them
# ----------------------------------------------------------------------

class _Polynomial:
    """Leaves of a polynomial generator, compiled to Poly2."""

    number = staticmethod(Poly2.const)

    @staticmethod
    def variable(tok: _Token) -> Poly2:
        return X if tok.text == "x" else Y

    @staticmethod
    def argument(tok: _Token):
        raise ParseError(f"{tok.text} is not allowed in a polynomial generator", tok.pos)


class _Refused(Exception):
    """A product or power its value family will not build, and why."""


_NONLINEAR = "trig argument must be linear in x and y"


class _Linear:
    """A trig argument a*x + b*y + d; products and powers must stay linear."""

    __slots__ = ("a", "b", "d")

    def __init__(self, a: float, b: float, d: float):
        self.a, self.b, self.d = a, b, d

    @classmethod
    def number(cls, value: float) -> "_Linear":
        return cls(0.0, 0.0, value)

    @classmethod
    def variable(cls, tok: _Token) -> "_Linear":
        return cls(1.0, 0.0, 0.0) if tok.text == "x" else cls(0.0, 1.0, 0.0)

    @staticmethod
    def argument(tok: _Token):
        raise ParseError("nested trig functions are not allowed", tok.pos)

    def __neg__(self) -> "_Linear":
        return _Linear(-self.a, -self.b, -self.d)

    def __add__(self, other: "_Linear") -> "_Linear":
        return _Linear(self.a + other.a, self.b + other.b, self.d + other.d)

    def __sub__(self, other: "_Linear") -> "_Linear":
        return _Linear(self.a - other.a, self.b - other.b, self.d - other.d)

    def __mul__(self, other: "_Linear") -> "_Linear":
        if (self.a, self.b) == (0.0, 0.0):
            return _Linear(self.d * other.a, self.d * other.b, self.d * other.d)
        if (other.a, other.b) == (0.0, 0.0):
            return _Linear(other.d * self.a, other.d * self.b, other.d * self.d)
        raise _Refused(_NONLINEAR)

    def __pow__(self, n: int) -> "_Linear":
        if n == 1:
            return self
        if n and (self.a, self.b) != (0.0, 0.0):
            raise _Refused(_NONLINEAR)
        return _Linear(0.0, 0.0, self.d ** n)


class _Waves(list):
    """A sum of plane waves (a, b, amp), each amp * exp(i*(a*x + b*y)).

    Real input expressions always give conjugate-symmetric lists, so the
    compiled generator is real.  Products keep every pair of waves; equal
    wavevectors are merged only when :func:`parse_fourier` maps them to modes.
    """

    @classmethod
    def number(cls, value: float) -> "_Waves":
        return cls([(0.0, 0.0, complex(value))])

    @staticmethod
    def variable(tok: _Token):
        raise ParseError(
            f"bare {tok.text!r} is not allowed in a periodic generator "
            "(only constants may appear outside cos/sin)", tok.pos)

    @staticmethod
    def argument(tok: _Token) -> type:
        return _Linear

    @classmethod
    def call(cls, tok: _Token, arg: _Linear) -> "_Waves":
        a, b = arg.a, arg.b
        if not all(map(math.isfinite, (a, b, arg.d))):
            raise ParseError(f"{tok.text} argument is not finite", tok.pos)
        phase = cmath.exp(1j * arg.d)
        if tok.text == "cos":
            return cls([(a, b, phase / 2), (-a, -b, phase.conjugate() / 2)])
        return cls([(a, b, phase / 2j), (-a, -b, -phase.conjugate() / 2j)])

    def __neg__(self) -> "_Waves":
        return _Waves([(a, b, -c) for a, b, c in self])

    def __add__(self, other: "_Waves") -> "_Waves":
        return _Waves([*self, *other])

    def __sub__(self, other: "_Waves") -> "_Waves":
        return self + -other

    def __mul__(self, other: "_Waves") -> "_Waves":
        _check_waves(len(self) * len(other))
        return _Waves([(la + ra, lb + rb, lc * rc)
                       for la, lb, lc in self for ra, rb, rc in other])

    def __pow__(self, n: int) -> "_Waves":
        _check_waves(len(self) ** n)
        out = _Waves([(0.0, 0.0, 1.0 + 0.0j)])
        for _ in range(n):
            out = out * self
        return out


def _check_waves(count: int):
    if count > MAX_WAVES:
        raise _Refused(
            f"the product expands to {count} plane waves, more than the limit of {MAX_WAVES}")


@dataclass(frozen=True, order=True)
class FourierMode:
    """One plane-wave mode: amplitude of exp(i*(2*pi*m/Lx*x + 2*pi*n/Ly*y))."""

    m: int
    n: int
    amp: complex = field(compare=False)


class FourierGen:
    """Periodic plane generator as a Hermitian set of Fourier modes.

    The mode set always contains the conjugate of every mode, so real-space
    values are real.  Mode (0, 0), when present, carries the mean value and
    has a purely real amplitude.
    """

    __slots__ = ("_periods", "_modes", "_waves")

    def __init__(self, periods: tuple[float, float], modes):
        lx, ly = float(periods[0]), float(periods[1])
        if lx <= 0 or ly <= 0:
            raise GeneratorError(f"periods must be positive, got {(lx, ly)}")
        merged: dict[tuple[int, int], complex] = {}
        for mode in modes:
            key = (mode.m, mode.n)
            merged[key] = merged.get(key, 0.0 + 0.0j) + complex(mode.amp)
        merged = {k: v for k, v in merged.items() if v != 0.0}
        if not all(map(cmath.isfinite, merged.values())):
            raise GeneratorError("mode amplitudes must be finite")
        scale = max((abs(v) for v in merged.values()), default=0.0)
        for (m, n), amp in merged.items():
            partner = merged.get((-m, -n))
            if partner is None or abs(partner - amp.conjugate()) > 1e-13 * max(scale, 1.0):
                raise GeneratorError(
                    f"mode set is not Hermitian: ({m}, {n}) has no conjugate partner")
        if (0, 0) in merged:
            amp = merged[(0, 0)]
            merged[(0, 0)] = complex(amp.real, 0.0)
        # exact conjugate symmetry: keep one representative per +/- pair
        for (m, n) in list(merged):
            if (m, n) > (-m, -n):
                merged[(m, n)] = merged[(-m, -n)].conjugate()
        self._periods = (lx, ly)
        # tuples from lists, for the free lists (mode_sum)
        self._modes = tuple([FourierMode(m, n, merged[(m, n)]) for (m, n) in sorted(merged)])
        self._waves = tuple([(2 * math.pi * mode.m / lx, 2 * math.pi * mode.n / ly, mode.amp)
                             for mode in self._modes])

    @property
    def periods(self) -> tuple[float, float]:
        return self._periods

    @property
    def modes(self) -> tuple[FourierMode, ...]:
        return self._modes

    @property
    def waves(self) -> tuple[tuple[float, float, complex], ...]:
        """Wavevector (kx, ky) = 2*pi*(m/Lx, n/Ly) and amplitude of each mode."""
        return self._waves

    def amplitude(self, m: int, n: int) -> complex:
        for mode in self._modes:
            if (mode.m, mode.n) == (m, n):
                return mode.amp
        return 0.0 + 0.0j

    def cosine_amplitudes(self) -> dict[tuple[int, int], float]:
        """Real cosine amplitudes keyed by one representative of each +/- pair.

        The representative is the (m, n) with m > 0, or m == 0 and n >= 0.
        Raises if any mode pair carries a sine component (imaginary part).
        """
        out: dict[tuple[int, int], float] = {}
        scale = max((abs(mode.amp) for mode in self._modes), default=1.0)
        for mode in self._modes:
            if (mode.m, mode.n) < (0, 0):
                continue
            if abs(mode.amp.imag) > 1e-13 * scale:
                raise GeneratorError(
                    f"mode ({mode.m}, {mode.n}) has a sine component; "
                    "cosine amplitudes are not defined")
            if (mode.m, mode.n) == (0, 0):
                out[(0, 0)] = mode.amp.real
            else:
                out[(mode.m, mode.n)] = 2.0 * mode.amp.real
        return out

    def partials(self, orders, x, y):
        """Analytic partial derivatives, one per (nx, ny) order; real-valued.

        Each mode's plane wave is computed once and shared by every order.
        """
        return mode_sum(self._waves, orders, x, y)

    def eval(self, x, y):
        """Real-space value; accepts scalars or numpy arrays."""
        return self.partials(((0, 0),), x, y)[0]

    def deriv(self, nx: int, ny: int, x, y):
        """Analytic partial derivative of order (nx, ny); real-valued."""
        return self.partials(((nx, ny),), x, y)[0]

    def __eq__(self, other) -> bool:
        if not isinstance(other, FourierGen):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def _key(self) -> tuple:
        # FourierMode compares (m, n) only, for its order; equality needs the amplitudes
        return self._periods, tuple((m.m, m.n, m.amp) for m in self._modes)

    def __repr__(self) -> str:
        return f"FourierGen(periods={self._periods}, modes={self._modes!r})"


def _phase(kx: float, ky: float, x, y):
    """``kx*x + ky*y``, computed over only the axes the wave varies along.

    An axial wave takes ``kx*x`` or ``ky*y``: at a finite point the term it
    drops is +-0.0, which can change only the sign of a zero phase:
    ``exp(1j*(+-0.0))`` is the same 1+0j, and ``sin(+-0.0)`` a zero term,
    whose sign a sum from +0.0 drops.  A scalar coordinate beside an array
    keeps the full form, so that the wave stays an array: numpy's array complex
    product can differ in the last bit from its scalar one.
    """
    if ky == 0.0 and (getattr(x, "ndim", 0) or not getattr(y, "ndim", 0)):
        return kx * x
    if kx == 0.0 and (getattr(y, "ndim", 0) or not getattr(x, "ndim", 0)):
        return ky * y
    return kx * x + ky * y


def mode_sum(waves, orders, x, y, kernel=None) -> list:
    """Real part of the sum of amp * (i kx)**nx * (i ky)**ny * exp(i (kx x + ky y))
    over ``waves`` of (kx, ky, amp), one per order (nx, ny, ...).

    A sum is a float at a scalar point, and 0.0 where no wave contributes; on
    arrays it takes the broadcast shape of the axes its waves vary along.
    ``kernel(kx, ky, order)``, when given, multiplies each term between its
    coefficient c and its wave; it may depend on ``order[2:]`` only, and is
    called once per wave and distinct ``order[2:]``.  Each term's real part is
    added into a float sum from +0.0, which is the real part of the complex
    sum bit for bit.  Every order is checked by
    :func:`~trapnet.algebra.check_order` first, and its counts are taken as
    Python ints: a numpy integer count gives the bits of the equal int.

    Each wave's factors ``(1j*kx)**nx * (1j*ky)**ny`` come from one table per
    wavevectors and orders (:class:`_PointTable`), kept in the memo, and the
    coefficients ``c = amp * factor`` from one complex array, which the loop
    over waves and the point pass both read; a zero factor's term is left out
    (``0 * inf`` is nan).  Every term is the real part of numpy's array complex
    product ``c * K * exp(1j*phase)``, which the loop forms as ``(c.real * K) *
    cos(phase)`` or ``(-c.imag * K) * sin(phase)`` for a real or imaginary c
    where c and K are finite: those round as it does, but for the sign of a
    zero term, which a sum from +0.0 drops.  At a point, scalar or 0-d x and y,
    the sums are formed in one array pass over the waves (:func:`_point_sum`),
    so a point has the bits of the same point as 1-element arrays.  The kernel
    is then called with arrays of the waves' kx and ky, and anything but one
    value per wave, such as None for an array of z, leaves the sums to the loop.
    """
    # each tuple is built from a list: the interpreter sizes it once, where
    # tuple(map(...)) resizes it, and a resized tuple, once freed, stays on a
    # free list until the next full garbage collection
    orders = tuple([tuple(order) for order in orders])
    if not all(type(n) is int and n >= 0 for order in orders for n in order):
        for order in orders:
            check_order(order)
        orders = tuple([tuple([int(n) for n in order]) for order in orders])
    key = (_PointTable, tuple([_WAVEVECTOR(wave) for wave in waves]), orders)
    table = _MEMO.get(key)
    if table is None:
        table = _PointTable(key[1], orders)
        _MEMO.put(key, table, len(waves) + len(orders) + table.f.size)
    coefs = np.array([waves[w][2] for w in table.rows], dtype=complex)[:, None] * table.f
    if np.ndim(x) == np.ndim(y) == 0:
        sums = _point_sum(table, coefs, x, y, kernel)
        if sums is not None:
            return sums
    accs = [0.0] * len(orders)
    for w, terms, row in zip(table.rows, table.terms, coefs.tolist()):
        kx, ky, _ = waves[w]
        phase = _phase(kx, ky, x, y)
        parts, kernels = {}, {}  # cos, sin or exp of the phase; kernel by order[2:]
        for i, order in terms:
            c = row[i]
            if kernel is not None and order[2:] not in kernels:
                k = kernel(kx, ky, order)
                kernels[order[2:]] = k, bool(np.isfinite(k).all())
            k, finite = kernels.get(order[2:], (1.0, True))
            if finite and cmath.isfinite(c) and (c.imag == 0 or c.real == 0):
                f, scale = (np.cos, c.real) if c.imag == 0 else (np.sin, -c.imag)
                if f not in parts:
                    parts[f] = f(phase)
                term = (scale * k) * parts[f]
            else:
                if np.exp not in parts:
                    parts[np.exp] = np.exp(1j * phase)
                term = (c * parts[np.exp] if kernel is None
                        else c * k * parts[np.exp]).real
            # an array sum adds in place: the same additions, without a fresh
            # grid and its fresh pages per term; a term that broadens the sum
            # is added into a new array
            try:
                accs[i] += term
            except ValueError:
                accs[i] = accs[i] + term
    return [float(r) if np.ndim(r) == 0 else r for r in accs]


class _PointTable:
    """What a mode sum needs of its wavevectors and orders, at points and on arrays,
    kept in the memo by :func:`mode_sum`.

    ``rows`` are the waves with a nonzero factor ``(1j*kx)**nx * (1j*ky)**ny``
    at some order, ``f`` holds each row's factor at every order, and
    ``terms`` the (index, order) of each row's nonzero ones.  ``kx`` and
    ``ky`` are the rows' wavevectors, ``kernel_orders`` the first order of
    each distinct ``order[2:]``, and ``columns`` the index of each order's.
    """

    __slots__ = ("rows", "terms", "f", "kx", "ky", "kernel_orders", "columns")

    def __init__(self, wavevectors, orders):
        self.rows, self.terms, dense = [], [], []
        for w, (kx, ky) in enumerate(wavevectors):
            try:
                row = [(1j * kx) ** order[0] * (1j * ky) ** order[1] for order in orders]
            except OverflowError:  # Python's power raises where a product gives inf or nan
                row = [math.prod([1j * kx] * order[0] + [1j * ky] * order[1]) for order in orders]
            if any(row):
                self.rows.append(w)
                self.terms.append([(i, order) for i, (f, order) in enumerate(zip(row, orders))
                                   if f != 0])
                dense.append(row)
        self.f = np.array(dense, dtype=complex).reshape(len(self.rows), len(orders))
        self.kx = np.array([wavevectors[w][0] for w in self.rows], dtype=float)
        self.ky = np.array([wavevectors[w][1] for w in self.rows], dtype=float)
        first = {}
        for order in orders:
            first.setdefault(order[2:], order)
        index = {key: i for i, key in enumerate(first)}
        self.kernel_orders = list(first.values())
        self.columns = np.array([index[order[2:]] for order in orders], dtype=np.intp)


_WAVEVECTOR = operator.itemgetter(0, 1)


def _point_sum(table: _PointTable, coefs, x, y, kernel) -> list | None:
    """``mode_sum`` at one point in one array pass, or None where the kernel
    gives no value per wave."""
    if not table.rows:
        return [0.0] * table.f.shape[1]
    if kernel is not None:
        k = [kernel(table.kx, table.ky, order) for order in table.kernel_orders]
        if any(np.shape(v) != table.kx.shape for v in k):
            return None
        coefs = coefs * np.stack(k, axis=-1)[:, table.columns]
    # _phase's rule: an axial wave takes the product of its own axis only
    px, py = table.kx * x, table.ky * y
    phase = np.where(table.ky == 0.0, px, np.where(table.kx == 0.0, py, px + py))
    terms = np.where(table.f != 0, (coefs * np.exp(1j * phase)[:, None]).real, 0.0)
    # in wave order, as the loop adds them; plus 0.0, the loop's sum from +0.0
    return (np.add.accumulate(terms)[-1] + 0.0).tolist()


# ----------------------------------------------------------------------
# programs: a text compiled once for its parameter names
# ----------------------------------------------------------------------

def _number(number, tok: _Token, params: dict):
    """The leaf of parameter ``tok`` with its value in ``params``."""
    return number(_Parser.finite(float(params[tok.text]), tok))


class _Slot(int):
    """An operand that depends on a parameter: the index of the step that gives it."""


_PARAMS = object()  # the operand a parameter step takes its values from


def _raise(error: GeneratorError):
    """Raise a fresh copy of a kept build error: its type, message, ``pos`` and
    whether it hides the exception it was raised while handling."""
    fresh = copy.copy(error)
    fresh.__suppress_context__ = error.__suppress_context__
    raise fresh


class _Program:
    """The steps of a text that depend on its parameters, with every operand
    that does not computed once.

    :meth:`bind` replays the steps in source order: the same operations on the
    same operands as a parse with the parameters bound would apply, so the
    same bits and the same first error.  When no wavevector depends on a
    parameter, ``keys`` keeps the mode of each wave after the first bind.
    """

    __slots__ = ("steps", "fixed_waves", "keys")

    def __init__(self, steps: list, fixed_waves: bool):
        self.steps = steps
        self.fixed_waves = fixed_waves
        self.keys = None

    def bind(self, params: dict):
        values = []
        for fn, args in self.steps:
            values.append(fn(*[values[a] if type(a) is _Slot else params if a is _PARAMS else a
                               for a in args]))
        return values[-1]


class _Memo:
    """Least recently used entries, kept while their weights add up to at most ``budget``."""

    def __init__(self, budget: int):
        self.budget = budget
        self.weight = 0
        self._entries: OrderedDict = OrderedDict()  # key -> (value, weight)
        self._lock = threading.Lock()

    def get(self, key):
        """The value kept for ``key``, or None."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                return None
            self._entries.move_to_end(key)
            return entry[0]

    def put(self, key, value, weight: int) -> None:
        """Keep ``value`` for ``key``, evicting the least recently used entries;
        an entry heavier than the whole budget is not kept."""
        with self._lock:
            old = self._entries.pop(key, None)
            if old is not None:
                self.weight -= old[1]
            if weight > self.budget:
                return
            self._entries[key] = value, weight
            self.weight += weight
            while self.weight > self.budget:
                self.weight -= self._entries.popitem(last=False)[1][1]


# programs, generators and wave tables (see mode_sum), by text or wavevectors
_MEMO = _Memo(_MEMO_WEIGHT)


def _weight(expr: str, entry) -> int:
    """What a compiled entry keeps: its text, and its steps, plane waves,
    polynomial terms, modes and wave modes, one each."""
    if isinstance(entry, _Program):
        return (len(expr) + len(entry.steps) + len(entry.keys or ())
                + sum(_size(a) for _, args in entry.steps for a in args))
    return len(expr) + _size(entry)


def _size(value) -> int:
    if isinstance(value, Poly2):
        return len(value.terms)
    if isinstance(value, FourierGen):
        return len(value.modes)
    return len(value) if isinstance(value, _Waves) else 0


def _compile(expr: str, family, params: dict, periods=None):
    """The generator of ``expr`` with ``params`` bound, through the memo.

    A text is built once per family, parameter names and periods: to its
    generator when it uses no parameter and builds, otherwise to a
    :class:`_Program`.  The program of a text whose build raises keeps the
    steps recorded before the error, then a step that raises a copy of it,
    so every call replays the earlier steps first and reports the first
    error in source order.
    """
    key = (family, expr, frozenset(params), periods)
    entry = _MEMO.get(key)
    if entry is None:
        entry = _build(expr, family, key[2], periods)
        _MEMO.put(key, entry, _weight(expr, entry))
    if not isinstance(entry, _Program):
        return entry
    known = entry.keys is not None
    generator = _finish(entry.bind(params), periods, entry)
    if not known and entry.keys is not None:  # the memo weighs the kept modes too
        _MEMO.put(key, entry, _weight(expr, entry))
    return generator


def _build(expr: str, family, names, periods):
    """The generator or program of a text; a program whose build raised ends
    in a step that raises a copy of the error.  The kept error drops its
    traceback, whose frames would keep the parser and its tokens, and context."""
    steps = []
    try:
        parser = _Parser(expr, family, names)
        steps = parser.steps
        value = parser.parse()
        if steps:
            return _Program(steps, parser.fixed_waves)
        return _finish(value, periods)
    except GeneratorError as exc:
        exc.__traceback__ = exc.__context__ = None
        return _Program([*steps, (_raise, (exc,))], False)


def _finish(value, periods, program: _Program | None = None):
    """The generator of a parsed value: a Poly2 whose coefficients are finite
    when ``periods`` is None, else the FourierGen of a list of waves."""
    if periods is None:
        if not all(map(math.isfinite, value.terms.values())):
            raise GeneratorError("a polynomial coefficient overflows")
        return value
    lx, ly = float(periods[0]), float(periods[1])
    keys = program.keys if program is not None else None
    if keys is None:
        keys = _wave_modes(value, lx, ly)
        if program is not None and program.fixed_waves:
            program.keys = keys
    sums: dict[tuple[int, int], complex] = {}
    for key, (_, _, amp) in zip(keys, value):
        # FourierGen's own sum, in wave order; from +0.0 it is never -0.0,
        # so FourierGen adding it to 0j leaves every bit
        sums[key] = sums.get(key, 0.0 + 0.0j) + complex(amp)
    return FourierGen((lx, ly), [FourierMode(m, n, amp) for (m, n), amp in sums.items()])


def _wave_modes(waves, lx: float, ly: float) -> list[tuple[int, int]]:
    """The mode (m, n) of each wave; each distinct wavevector is checked once."""
    indices: dict[tuple[float, float], tuple[int, int]] = {}
    keys = []
    for a, b, _ in waves:
        key = indices.get((a, b))
        if key is None:
            m = a * lx / (2 * math.pi)
            n = b * ly / (2 * math.pi)
            if not all(math.isfinite(v)
                       and abs(v - round(v)) <= COMMENSURATE_RTOL * max(1.0, abs(v))
                       for v in (m, n)):
                raise GeneratorError(
                    f"wavevector ({a:g}, {b:g}) is incommensurate with periods "
                    f"({lx:g}, {ly:g}): mode indices ({m:g}, {n:g}) are not integers")
            key = indices[(a, b)] = (round(m), round(n))
        keys.append(key)
    return keys


def parse_polynomial(expr: str, params: dict | None = None) -> Poly2:
    """Compile a polynomial expression in x and y to a sparse polynomial.

    Parameter names in ``params`` are bound before expansion.  Trig calls,
    negative exponents, unbound names and numbers that are not finite raise
    :class:`ParseError` with the offending position; a coefficient that
    overflows raises :class:`GeneratorError`.
    """
    return _compile(expr, _Polynomial, params or {})


def parse_fourier(expr: str, periods: tuple[float, float],
                  params: dict | None = None) -> FourierGen:
    """Compile a periodic trig-polynomial expression to a Fourier mode set.

    Products and powers of cos/sin are expanded into plane waves; every
    resulting wavevector must sit on the integer lattice (2*pi*m/Lx,
    2*pi*n/Ly) within a relative tolerance of 1e-9, otherwise the mode is
    rejected as incommensurate with the declared periods.  Each distinct
    wavevector is checked once, and the amplitudes of waves on one mode are
    summed in wave order, the sums :class:`FourierGen` would form.
    """
    return _compile(expr, _Waves, params or {}, tuple(periods))


# ----------------------------------------------------------------------
# generator specs and the built-in catalog
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class GeneratorSpec:
    """A generator definition: family, expression text, bound parameters."""

    kind: str  # "polynomial" | "fourier"
    expr: str
    params: dict = field(default_factory=dict)
    periods: tuple[float, float] | None = None

    def __post_init__(self):
        if self.kind not in ("polynomial", "fourier"):
            raise GeneratorError(f"unknown generator kind {self.kind!r}")
        if self.kind == "fourier" and self.periods is None:
            raise GeneratorError("fourier generators require periods")

    def with_params(self, overrides: dict) -> "GeneratorSpec":
        merged = dict(self.params)
        merged.update(overrides)
        return GeneratorSpec(self.kind, self.expr, merged, self.periods)

    def compile(self):
        """Build the Poly2 or FourierGen this spec describes."""
        if self.kind == "polynomial":
            return parse_polynomial(self.expr, self.params)
        return parse_fourier(self.expr, self.periods, self.params)

    def to_dict(self) -> dict:
        out = {"kind": self.kind, "expr": self.expr, "params": dict(self.params)}
        if self.periods is not None:
            out["periods"] = list(self.periods)
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "GeneratorSpec":
        try:
            kind = data["kind"]
            expr = data["expr"]
        except (KeyError, TypeError) as exc:
            raise GeneratorError(f"generator spec is missing field {exc}") from None
        if not isinstance(expr, str):
            raise GeneratorError("generator spec 'expr' must be a string")
        params = data.get("params", {})
        if not isinstance(params, dict):
            raise GeneratorError("generator spec 'params' must be an object")
        if not all(type(v) in (int, float) for v in params.values()):
            raise GeneratorError("generator spec 'params' values must be numbers")
        periods = data.get("periods")
        if periods is not None:
            if not (isinstance(periods, (list, tuple)) and len(periods) == 2
                    and all(type(v) in (int, float) for v in periods)):
                raise GeneratorError("generator spec 'periods' must be [Lx, Ly]")
            periods = (float(periods[0]), float(periods[1]))
        return cls(kind, expr, dict(params), periods)


def load_spec(path) -> GeneratorSpec:
    """Read a generator spec from a JSON file."""
    with open(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise GeneratorError(f"invalid generator spec {path}: {exc}") from None
    return GeneratorSpec.from_dict(data)


# Built-in generators.  Defaults follow the standard demonstrations: a
# straight four-wire guide, the cusp curve at unit steepness, the rounded
# square lattice at the connectivity threshold, and a plain two-line
# crossing used as a test fixture.
_CATALOG: dict[str, GeneratorSpec] = {
    "linear": GeneratorSpec("polynomial", "x"),
    "cusp": GeneratorSpec("polynomial", "y^2 - alpha^2*x^3", {"alpha": 1.0}),
    "round": GeneratorSpec(
        "fourier",
        "cos(pi*x) + cos(pi*y) + c*((cos(pi*x) - cos(pi*y))^2 - 4)",
        {"c": 0.25},
        periods=(2.0, 2.0),
    ),
    "cross": GeneratorSpec("polynomial", "x*y"),
}


def catalog_names() -> list[str]:
    return sorted(_CATALOG)


def catalog(name: str, params: dict | None = None) -> GeneratorSpec:
    """Fetch a built-in generator, optionally overriding its parameters."""
    try:
        spec = _CATALOG[name]
    except KeyError:
        raise GeneratorError(
            f"unknown generator {name!r}; available: {', '.join(catalog_names())}") from None
    if params:
        unknown = set(params) - set(spec.params)
        if unknown:
            raise GeneratorError(
                f"generator {name!r} has no parameter(s) {sorted(unknown)}")
        spec = spec.with_params(params)
    return spec
