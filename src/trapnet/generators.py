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

Trig calls are rejected in polynomial mode; bare x/y powers are rejected in
Fourier mode (only constants may appear outside trig arguments).  Parameter
names are substituted numerically before any expansion.
"""

from __future__ import annotations

import cmath
import json
import math
import re
from dataclasses import dataclass, field

import numpy as np

from .algebra import ONE, Poly2, X, Y

__all__ = [
    "GeneratorError",
    "ParseError",
    "FourierMode",
    "FourierGen",
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
# have; the parser and the compilers recurse once per level of nesting (flat
# operator chains are walked in loops), so the cap keeps them inside Python's
# default recursion limit
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


@dataclass(frozen=True)
class _Num:
    value: float
    pos: int


@dataclass(frozen=True)
class _Name:
    ident: str
    pos: int


@dataclass(frozen=True)
class _Neg:
    arg: object
    pos: int


@dataclass(frozen=True)
class _Bin:
    op: str  # "+", "-", "*"
    left: object
    right: object
    pos: int


@dataclass(frozen=True)
class _Pow:
    base: object
    exponent: int
    pos: int


@dataclass(frozen=True)
class _Trig:
    fn: str  # "cos" | "sin"
    arg: object
    pos: int


class _Parser:
    def __init__(self, src: str):
        self.tokens = _tokenize(src)
        self.i = 0
        self.depth = 0

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
        node = self.expr()
        tok = self.peek()
        if tok.kind != "end":
            raise ParseError(f"unexpected {tok.text!r}", tok.pos)
        return node

    def expr(self):
        tok = self.peek()
        if tok.kind in "+-":
            # leading sign; needed so pretty-printed polynomials reparse
            self.advance()
            node = self.term()
            if tok.kind == "-":
                node = _Neg(node, tok.pos)
        else:
            node = self.term()
        while self.peek().kind in "+-":
            op = self.advance()
            rhs = self.term()
            node = _Bin(op.kind, node, rhs, op.pos)
        return node

    def term(self):
        node = self.factor()
        while self.peek().kind == "*":
            op = self.advance()
            rhs = self.factor()
            node = _Bin("*", node, rhs, op.pos)
        return node

    def factor(self):
        node = self.base()
        if self.peek().kind == "^":
            caret = self.advance()
            tok = self.peek()
            if tok.kind != "num":
                raise ParseError("exponent must be a nonnegative integer literal", tok.pos)
            value = float(tok.text)
            if value != int(value):
                raise ParseError(f"exponent {tok.text!r} is not an integer", tok.pos)
            self.advance()
            node = _Pow(node, int(value), caret.pos)
        return node

    def base(self):
        tok = self.advance()
        if tok.kind == "num":
            return _Num(float(tok.text), tok.pos)
        if tok.kind == "(":
            node = self.nested(tok)
            self.expect(")")
            return node
        if tok.kind == "name":
            if tok.text in ("cos", "sin"):
                self.expect("(")
                arg = self.nested(tok)
                self.expect(")")
                return _Trig(tok.text, arg, tok.pos)
            return _Name(tok.text, tok.pos)
        raise ParseError(f"expected a value, found {tok.text or 'end of input'!r}", tok.pos)

    def nested(self, opener: _Token):
        """Parse the expression inside parentheses, one nesting level down."""
        if self.depth >= MAX_NESTING:
            raise ParseError("nesting too deep", opener.pos)
        self.depth += 1
        node = self.expr()
        self.depth -= 1
        return node


# ----------------------------------------------------------------------
# polynomial compilation
# ----------------------------------------------------------------------

def _resolve_constant(node: _Name, params: dict) -> float:
    if node.ident == "pi":
        return math.pi
    if node.ident in params:
        return float(params[node.ident])
    raise ParseError(f"unbound parameter {node.ident!r}", node.pos)


def _left_spine(node: _Bin) -> list[_Bin]:
    """The operator nodes down the left edge of a chain, innermost first.

    The parser builds ``a + b - c`` as ``((a + b) - c)``; the compilers fold
    such a chain in a loop over this list rather than by recursion, so a long
    flat sum or product stays inside Python's recursion limit.
    """
    spine = []
    while isinstance(node, _Bin):
        spine.append(node)
        node = node.left
    return spine[::-1]


def _to_poly(node, params: dict) -> Poly2:
    if isinstance(node, _Num):
        return Poly2.const(node.value)
    if isinstance(node, _Name):
        if node.ident == "x":
            return X
        if node.ident == "y":
            return Y
        return Poly2.const(_resolve_constant(node, params))
    if isinstance(node, _Neg):
        return -_to_poly(node.arg, params)
    if isinstance(node, _Bin):
        spine = _left_spine(node)
        acc = _to_poly(spine[0].left, params)
        for step in spine:
            rhs = _to_poly(step.right, params)
            if step.op == "+":
                acc = acc + rhs
            elif step.op == "-":
                acc = acc - rhs
            else:
                acc = acc * rhs
        return acc
    if isinstance(node, _Pow):
        return _to_poly(node.base, params) ** node.exponent
    if isinstance(node, _Trig):
        raise ParseError(f"{node.fn} is not allowed in a polynomial generator", node.pos)
    raise AssertionError(f"unhandled node {node!r}")


def parse_polynomial(expr: str, params: dict | None = None) -> Poly2:
    """Compile a polynomial expression in x and y to a sparse polynomial.

    Parameter names in ``params`` are substituted numerically before
    expansion.  Trig calls, negative exponents and unbound names raise
    :class:`ParseError` with the offending position.
    """
    return _to_poly(_Parser(expr).parse(), dict(params or {}))


# ----------------------------------------------------------------------
# Fourier compilation
#
# Intermediate value: a list of plane waves (a, b, amp) standing for
# amp * exp(i*(a*x + b*y)).  Real input expressions always produce
# conjugate-symmetric wave lists, so the compiled generator is real.
# ----------------------------------------------------------------------

_Waves = list[tuple[float, float, complex]]


def _linform(node, params: dict) -> tuple[float, float, float]:
    """Reduce a trig argument to coefficients (a, b, d) of a*x + b*y + d."""
    if isinstance(node, _Num):
        return (0.0, 0.0, node.value)
    if isinstance(node, _Name):
        if node.ident == "x":
            return (1.0, 0.0, 0.0)
        if node.ident == "y":
            return (0.0, 1.0, 0.0)
        return (0.0, 0.0, _resolve_constant(node, params))
    if isinstance(node, _Neg):
        a, b, d = _linform(node.arg, params)
        return (-a, -b, -d)
    if isinstance(node, _Bin):
        spine = _left_spine(node)
        la, lb, ld = _linform(spine[0].left, params)
        for step in spine:
            ra, rb, rd = _linform(step.right, params)
            if step.op == "+":
                la, lb, ld = (la + ra, lb + rb, ld + rd)
            elif step.op == "-":
                la, lb, ld = (la - ra, lb - rb, ld - rd)
            elif (la, lb) == (0.0, 0.0):
                la, lb, ld = (ld * ra, ld * rb, ld * rd)
            elif (ra, rb) == (0.0, 0.0):
                la, lb, ld = (rd * la, rd * lb, rd * ld)
            else:
                raise ParseError("trig argument must be linear in x and y", step.pos)
        return (la, lb, ld)
    if isinstance(node, _Pow):
        if node.exponent == 0:
            return (0.0, 0.0, 1.0)
        a, b, d = _linform(node.base, params)
        if node.exponent == 1:
            return (a, b, d)
        if (a, b) == (0.0, 0.0):
            return (0.0, 0.0, d ** node.exponent)
        raise ParseError("trig argument must be linear in x and y", node.pos)
    if isinstance(node, _Trig):
        raise ParseError("nested trig functions are not allowed", node.pos)
    raise AssertionError(f"unhandled node {node!r}")


def _wave_mul(lhs: _Waves, rhs: _Waves) -> _Waves:
    return [(la + ra, lb + rb, lc * rc)
            for la, lb, lc in lhs for ra, rb, rc in rhs]


def _to_waves(node, params: dict) -> _Waves:
    if isinstance(node, _Num):
        return [(0.0, 0.0, complex(node.value))]
    if isinstance(node, _Name):
        if node.ident in ("x", "y"):
            raise ParseError(
                f"bare {node.ident!r} is not allowed in a periodic generator "
                "(only constants may appear outside cos/sin)", node.pos)
        return [(0.0, 0.0, complex(_resolve_constant(node, params)))]
    if isinstance(node, _Neg):
        return [(a, b, -c) for a, b, c in _to_waves(node.arg, params)]
    if isinstance(node, _Bin):
        spine = _left_spine(node)
        acc = _to_waves(spine[0].left, params)
        for step in spine:
            rhs = _to_waves(step.right, params)
            if step.op == "+":
                acc = acc + rhs
            elif step.op == "-":
                acc = acc + [(a, b, -c) for a, b, c in rhs]
            else:
                acc = _wave_mul(acc, rhs)
        return acc
    if isinstance(node, _Pow):
        base = _to_waves(node.base, params)
        out: _Waves = [(0.0, 0.0, 1.0 + 0.0j)]
        for _ in range(node.exponent):
            out = _wave_mul(out, base)
        return out
    if isinstance(node, _Trig):
        a, b, d = _linform(node.arg, params)
        phase = cmath.exp(1j * d)
        if node.fn == "cos":
            return [(a, b, phase / 2), (-a, -b, phase.conjugate() / 2)]
        return [(a, b, phase / 2j), (-a, -b, -phase.conjugate() / 2j)]
    raise AssertionError(f"unhandled node {node!r}")


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

    __slots__ = ("_periods", "_modes")

    def __init__(self, periods: tuple[float, float], modes):
        lx, ly = float(periods[0]), float(periods[1])
        if lx <= 0 or ly <= 0:
            raise GeneratorError(f"periods must be positive, got {(lx, ly)}")
        merged: dict[tuple[int, int], complex] = {}
        for mode in modes:
            key = (mode.m, mode.n)
            merged[key] = merged.get(key, 0.0 + 0.0j) + complex(mode.amp)
        merged = {k: v for k, v in merged.items() if v != 0.0}
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

    @property
    def periods(self) -> tuple[float, float]:
        return self._periods

    @property
    def modes(self) -> tuple[FourierMode, ...]:
        return self._modes

    def wavevector(self, mode: FourierMode) -> tuple[float, float]:
        return (2 * math.pi * mode.m / self._periods[0],
                2 * math.pi * mode.n / self._periods[1])

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
        accs = [0.0] * len(orders)
        for mode in self._modes:
            kx, ky = self.wavevector(mode)
            coeffs = []
            for i, (nx, ny) in enumerate(orders):
                factor = (1j * kx) ** nx * (1j * ky) ** ny
                if factor != 0:
                    coeffs.append((i, mode.amp * factor))
            if not coeffs:
                continue
            # one reference per order: the last order holds the only one, so
            # numpy reuses the wave's buffer for its product and frees it
            waves = [np.exp(1j * (kx * x + ky * y))] * len(coeffs)
            for i, coeff in coeffs:
                accs[i] = accs[i] + coeff * waves.pop()
        return [float(r) if np.ndim(r) == 0 else r for r in map(np.real, accs)]

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


def parse_fourier(expr: str, periods: tuple[float, float],
                  params: dict | None = None) -> FourierGen:
    """Compile a periodic trig-polynomial expression to a Fourier mode set.

    Products and powers of cos/sin are expanded into plane waves; every
    resulting wavevector must sit on the integer lattice (2*pi*m/Lx,
    2*pi*n/Ly) within a relative tolerance of 1e-9, otherwise the mode is
    rejected as incommensurate with the declared periods.
    """
    waves = _to_waves(_Parser(expr).parse(), dict(params or {}))
    lx, ly = float(periods[0]), float(periods[1])
    modes = []
    for a, b, amp in waves:
        m = a * lx / (2 * math.pi)
        n = b * ly / (2 * math.pi)
        mi, ni = round(m), round(n)
        if abs(m - mi) > COMMENSURATE_RTOL * max(1.0, abs(m)) or \
           abs(n - ni) > COMMENSURATE_RTOL * max(1.0, abs(n)):
            raise GeneratorError(
                f"wavevector ({a:g}, {b:g}) is incommensurate with periods "
                f"({lx:g}, {ly:g}): mode indices ({m:g}, {n:g}) are not integers")
        modes.append(FourierMode(mi, ni, amp))
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
        params = data.get("params", {})
        if not isinstance(params, dict):
            raise GeneratorError("generator spec 'params' must be an object")
        periods = data.get("periods")
        if periods is not None:
            if len(periods) != 2:
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
