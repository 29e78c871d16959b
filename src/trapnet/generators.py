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

Expressions are compiled while they are parsed, with no syntax tree: each
family supplies its leaves (numbers, x, y, cos/sin) and every operator is
applied in source order by the values' own arithmetic (``Poly2``, a list of
plane waves, or a trig argument a*x + b*y + d that must stay linear), so the
first error in source order is reported.  Trig calls are rejected in
polynomial mode; bare x/y are rejected in Fourier mode (only constants may
appear outside trig arguments).  Parameter names are substituted numerically.
"""

from __future__ import annotations

import cmath
import json
import math
import re
from dataclasses import dataclass, field

import numpy as np

from .algebra import Poly2, X, Y

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


class GeneratorError(ValueError):
    """Invalid generator definition (bad expression, parameters, or modes)."""


class ParseError(GeneratorError):
    """Syntax or semantic error in an expression, with source position."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


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
    """Recursive-descent parser that compiles as it goes; ``family`` makes
    the leaves and the values' own ``+ - * ** unary-`` apply the operators."""

    def __init__(self, src: str, family, params: dict):
        self.tokens = _tokenize(src)
        self.i = 0
        self.depth = 0
        self.family = family
        self.params = params

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
                value = -value
        else:
            value = self.term()
        while self.peek().kind in "+-":
            op = self.advance()
            rhs = self.term()
            value = value + rhs if op.kind == "+" else value - rhs
        return value

    def term(self):
        value = self.factor()
        while self.peek().kind == "*":
            op = self.advance()
            value = self.product(op, value, self.factor())
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
            self.advance()
            value = self.product(caret, value, int(exponent))
        return value

    def product(self, op: _Token, lhs, rhs):
        """``lhs * rhs``, or ``lhs ** rhs`` after a caret."""
        try:
            return lhs ** rhs if op.kind == "^" else lhs * rhs
        except _NonLinear:
            raise ParseError("trig argument must be linear in x and y", op.pos) from None
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
            return self.family.call(tok, arg)
        if tok.text == "pi":
            return self.family.number(math.pi)
        if tok.text in self.params:
            return self.family.number(self.finite(float(self.params[tok.text]), tok))
        raise ParseError(f"unbound parameter {tok.text!r}", tok.pos)

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


class _NonLinear(Exception):
    """A product or power inside a trig argument is not linear in x and y."""


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
        raise _NonLinear

    def __pow__(self, n: int) -> "_Linear":
        if n == 1:
            return self
        if n and (self.a, self.b) != (0.0, 0.0):
            raise _NonLinear
        return _Linear(0.0, 0.0, self.d ** n)


class _Waves(list):
    """A sum of plane waves (a, b, amp), each amp * exp(i*(a*x + b*y)).

    Real input expressions always give conjugate-symmetric lists, so the
    compiled generator is real.  Products keep every pair of waves; equal
    wavevectors are merged only by :class:`FourierGen`.
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
        return _Waves([(la + ra, lb + rb, lc * rc)
                       for la, lb, lc in self for ra, rb, rc in other])

    def __pow__(self, n: int) -> "_Waves":
        out = _Waves([(0.0, 0.0, 1.0 + 0.0j)])
        for _ in range(n):
            out = out * self
        return out


def parse_polynomial(expr: str, params: dict | None = None) -> Poly2:
    """Compile a polynomial expression in x and y to a sparse polynomial.

    Parameter names in ``params`` are substituted numerically before
    expansion.  Trig calls, negative exponents, unbound names and numbers
    that are not finite raise :class:`ParseError` with the offending
    position; a coefficient that overflows raises :class:`GeneratorError`.
    """
    poly = _Parser(expr, _Polynomial, params or {}).parse()
    if not all(map(math.isfinite, poly.terms.values())):
        raise GeneratorError("a polynomial coefficient overflows")
    return poly


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
        self._modes = tuple(FourierMode(m, n, merged[(m, n)]) for (m, n) in sorted(merged))
        self._waves = tuple((2 * math.pi * mode.m / lx, 2 * math.pi * mode.n / ly, mode.amp)
                            for mode in self._modes)

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
        return self._periods == other._periods and self._modes == other._modes

    def __hash__(self) -> int:
        return hash((self._periods, tuple((m.m, m.n, m.amp) for m in self._modes)))

    def __repr__(self) -> str:
        return f"FourierGen(periods={self._periods}, modes={self._modes!r})"


def mode_sum(waves, orders, x, y, kernel=None) -> list:
    """Real part of the sum of amp * (i kx)**nx * (i ky)**ny * exp(i (kx x + ky y))
    over ``waves`` of (kx, ky, amp), one per order (nx, ny, ...).

    A sum is a float at a scalar point, and 0.0 where no wave contributes.
    ``kernel(kx, ky, order)``, when given, multiplies each term between its
    coefficient and its wave.  Each wave is computed once for all orders.
    """
    accs = [0.0] * len(orders)
    for kx, ky, amp in waves:
        coeffs = []
        for i, order in enumerate(orders):
            factor = (1j * kx) ** order[0] * (1j * ky) ** order[1]
            if factor != 0:
                coeffs.append((i, amp * factor, order))
        if not coeffs:
            continue
        # one reference per order: the last order holds the only one, so
        # numpy reuses the wave's buffer for its product and frees it
        wave = [np.exp(1j * (kx * x + ky * y))] * len(coeffs)
        for i, coeff, order in coeffs:
            accs[i] = accs[i] + (coeff * wave.pop() if kernel is None
                                 else coeff * kernel(kx, ky, order) * wave.pop())
    return [float(r) if np.ndim(r) == 0 else r for r in map(np.real, accs)]


def parse_fourier(expr: str, periods: tuple[float, float],
                  params: dict | None = None) -> FourierGen:
    """Compile a periodic trig-polynomial expression to a Fourier mode set.

    Products and powers of cos/sin are expanded into plane waves; every
    resulting wavevector must sit on the integer lattice (2*pi*m/Lx,
    2*pi*n/Ly) within a relative tolerance of 1e-9, otherwise the mode is
    rejected as incommensurate with the declared periods.
    """
    waves = _Parser(expr, _Waves, params or {}).parse()
    lx, ly = float(periods[0]), float(periods[1])
    modes = []
    for a, b, amp in waves:
        m = a * lx / (2 * math.pi)
        n = b * ly / (2 * math.pi)
        if not all(math.isfinite(v) and abs(v - round(v)) <= COMMENSURATE_RTOL * max(1.0, abs(v))
                   for v in (m, n)):
            raise GeneratorError(
                f"wavevector ({a:g}, {b:g}) is incommensurate with periods "
                f"({lx:g}, {ly:g}): mode indices ({m:g}, {n:g}) are not integers")
        modes.append(FourierMode(round(m), round(n), amp))
    return FourierGen((lx, ly), modes)


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
