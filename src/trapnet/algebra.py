"""Sparse bivariate polynomial calculus and finite z-power series.

A plane polynomial is stored as a sparse map from exponent pairs to float
coefficients; a potential that is polynomial in the plane coordinates is
stored as a finite stack of plane polynomials, one per z-order.  Both types
are immutable and every operation returns a new value, so they are safe to
share between threads.

Coefficients are double-precision floats.  Zero coefficients are pruned
exactly (``== 0.0``); no epsilon thresholding happens inside the algebra,
tolerance policy belongs to the callers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

__all__ = [
    "Poly2",
    "ZSeries",
    "Partials",
    "check_order",
    "SymMat2",
    "X",
    "Y",
    "ONE",
]


def _float64(c):
    """``c`` with numpy integer and bool values as float64: numpy's integer
    powers wrap around, where a Python int's are exact."""
    if isinstance(c, (np.ndarray, np.generic)) and c.dtype.kind in "biu":
        return c.astype(np.float64)
    return c


class _Powers(dict):
    """Lazy map n -> ``base ** n`` for one call, each power computed once.

    ``base ** n`` is the expression a term-by-term loop evaluates, so the
    bits are the same.  On a grid the table holds one array per exponent.
    """

    __slots__ = ("_base",)

    def __init__(self, base):
        self._base = _float64(base)

    def __missing__(self, n):
        value = self[n] = self._base ** n
        return value


class Poly2:
    """Sparse real polynomial in the two plane variables x and y.

    Terms are keyed by exponent pairs ``(i, j)`` meaning ``x**i * y**j``.
    The zero polynomial has no terms and degree -1 by convention.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms=None):
        clean: dict[tuple[int, int], float] = {}
        if terms:
            for key, coeff in terms.items():
                i, j = key
                if i < 0 or j < 0 or i != int(i) or j != int(j):
                    raise ValueError(f"exponent pair {key!r} is not a pair of nonnegative integers")
                c = float(coeff)
                if c != 0.0:
                    clean[(int(i), int(j))] = c
        self._terms = clean

    @property
    def terms(self):
        """Read-only view of the term map."""
        return MappingProxyType(self._terms)

    @classmethod
    def const(cls, value) -> "Poly2":
        return cls({(0, 0): value})

    def coeff(self, i: int, j: int) -> float:
        return self._terms.get((i, j), 0.0)

    @property
    def degree(self) -> int:
        if not self._terms:
            return -1
        return max(i + j for i, j in self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    # ------------------------------------------------------------------
    # arithmetic
    # ------------------------------------------------------------------

    def __add__(self, other) -> "Poly2":
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self._terms)
        for key, c in other._terms.items():
            out[key] = out.get(key, 0.0) + c
        return Poly2(out)

    __radd__ = __add__

    def __neg__(self) -> "Poly2":
        return Poly2({k: -c for k, c in self._terms.items()})

    def __sub__(self, other) -> "Poly2":
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "Poly2":
        return _as_poly(other) + (-self)

    def __mul__(self, other) -> "Poly2":
        if isinstance(other, (int, float)):
            return Poly2({k: c * other for k, c in self._terms.items()})
        if not isinstance(other, Poly2):
            return NotImplemented
        out: dict[tuple[int, int], float] = {}
        for (i1, j1), c1 in self._terms.items():
            for (i2, j2), c2 in other._terms.items():
                key = (i1 + i2, j1 + j2)
                out[key] = out.get(key, 0.0) + c1 * c2
        return Poly2(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Poly2":
        if n < 0 or n != int(n):
            raise ValueError("polynomial powers must be nonnegative integers")
        out = ONE
        for _ in range(int(n)):
            out = out * self
        return out

    # ------------------------------------------------------------------
    # calculus
    # ------------------------------------------------------------------

    def diff(self, axis: str) -> "Poly2":
        """Exact partial derivative along ``"x"`` or ``"y"``."""
        if axis == "x":
            return Poly2({(i - 1, j): c * i for (i, j), c in self._terms.items() if i > 0})
        if axis == "y":
            return Poly2({(i, j - 1): c * j for (i, j), c in self._terms.items() if j > 0})
        raise ValueError(f"axis must be 'x' or 'y', got {axis!r}")

    def laplacian(self) -> "Poly2":
        """In-plane Laplacian: second x-derivative plus second y-derivative."""
        return self.diff("x").diff("x") + self.diff("y").diff("y")

    def eval(self, x, y):
        """Evaluate at a point; accepts scalars or numpy arrays."""
        return self._evaluate(_Powers(x).__getitem__, _Powers(y).__getitem__)

    def _evaluate(self, xpow, ypow):
        """Sum of ``c * x**i * y**j`` in sorted term order; ``xpow(i)`` is ``x**i``."""
        acc = 0.0
        for (i, j), c in sorted(self._terms.items()):
            acc = acc + c * xpow(i) * ypow(j)
        return acc

    def substitute(self, px: "Poly2", py: "Poly2") -> "Poly2":
        """Compose: return q(x, y) = self(px(x, y), py(x, y)) exactly."""
        max_i = max((i for i, _ in self._terms), default=0)
        max_j = max((j for _, j in self._terms), default=0)
        xpow = [ONE]
        for _ in range(max_i):
            xpow.append(xpow[-1] * px)
        ypow = [ONE]
        for _ in range(max_j):
            ypow.append(ypow[-1] * py)
        out = Poly2()
        for (i, j) in sorted(self._terms):
            out = out + self._terms[(i, j)] * xpow[i] * ypow[j]
        return out

    def taylor_shift(self, x0: float, y0: float) -> "Poly2":
        """Recenter: return q with q(u, v) = self(x0 + u, y0 + v)."""
        return self.substitute(Poly2({(0, 0): x0, (1, 0): 1.0}),
                               Poly2({(0, 0): y0, (0, 1): 1.0}))

    # ------------------------------------------------------------------
    # comparison and formatting
    # ------------------------------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, float)):
            other = Poly2.const(other)
        if not isinstance(other, Poly2):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    def allclose(self, other: "Poly2", tol: float = 1e-12) -> bool:
        """Coefficient-wise closeness, relative to the largest coefficient."""
        keys = set(self._terms) | set(other._terms)
        scale = max((abs(c) for c in self._terms.values()), default=0.0)
        scale = max(scale, max((abs(c) for c in other._terms.values()), default=0.0), 1.0)
        return all(abs(self.coeff(*k) - other.coeff(*k)) <= tol * scale for k in keys)

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        # highest total degree first; ties broken by x-exponent
        for (i, j) in sorted(self._terms, key=lambda k: (-(k[0] + k[1]), -k[0])):
            c = self._terms[(i, j)]
            mono = "*".join(s for s in (_pow_str("x", i), _pow_str("y", j)) if s)
            if not mono:
                body = repr(abs(c))
            elif abs(c) == 1.0:
                body = mono
            else:
                body = f"{abs(c)!r}*{mono}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"{'+' if c > 0 else '-'} {body}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"Poly2({self._terms!r})"


def _pow_str(var: str, e: int) -> str:
    if e == 0:
        return ""
    return var if e == 1 else f"{var}^{e}"


def _as_poly(value):
    if isinstance(value, Poly2):
        return value
    if isinstance(value, (int, float)):
        return Poly2.const(value)
    return NotImplemented


X = Poly2({(1, 0): 1.0})
Y = Poly2({(0, 1): 1.0})
ONE = Poly2({(0, 0): 1.0})


class ZSeries:
    """Finite z-power series of plane polynomials.

    Layer n holds the n-th z-derivative of the represented function on the
    plane z=0, so the value is ``sum_n z**n / n! * layer_n(x, y)``.  Layers
    that are identically zero are not stored.
    """

    __slots__ = ("_layers",)

    def __init__(self, layers=None):
        clean: dict[int, Poly2] = {}
        if layers:
            for n, p in layers.items():
                if n < 0 or n != int(n):
                    raise ValueError(f"z-order {n!r} is not a nonnegative integer")
                if not isinstance(p, Poly2):
                    raise TypeError(f"layer {n} is not a Poly2")
                if not p.is_zero():
                    clean[int(n)] = p
        self._layers = clean

    @property
    def layers(self):
        return MappingProxyType(self._layers)

    def layer(self, n: int) -> Poly2:
        return self._layers.get(n, Poly2())

    def is_zero(self) -> bool:
        return not self._layers

    def eval(self, x, y, z):
        return self._evaluate(_Powers(x).__getitem__, _Powers(y).__getitem__, _float64(z))

    def _evaluate(self, xpow, ypow, z):
        """Sum of ``z**n / n! * layer_n(x, y)`` in order of n."""
        acc = 0.0
        for n, layer in sorted(self._layers.items()):
            acc = acc + z**n / math.factorial(n) * layer._evaluate(xpow, ypow)
        return acc

    def diff(self, axis: str) -> "ZSeries":
        """Exact symbolic derivative along ``"x"``, ``"y"`` or ``"z"``."""
        if axis in ("x", "y"):
            return ZSeries({n: p.diff(axis) for n, p in self._layers.items()})
        if axis == "z":
            # d/dz of z**n/n! is z**(n-1)/(n-1)!: layers shift down by one
            return ZSeries({n - 1: p for n, p in self._layers.items() if n >= 1})
        raise ValueError(f"axis must be 'x', 'y' or 'z', got {axis!r}")

    def laplacian3(self) -> "ZSeries":
        """Symbolic three-dimensional Laplacian as a new series.

        Layer n of the result is ``laplacian(layer_n) + layer_{n+2}``, which
        vanishes identically for any harmonic continuation.
        """
        orders = set(self._layers)
        orders |= {n - 2 for n in self._layers if n >= 2}
        return ZSeries({n: self.layer(n).laplacian() + self.layer(n + 2)
                        for n in orders if n >= 0})

    def __add__(self, other: "ZSeries") -> "ZSeries":
        if not isinstance(other, ZSeries):
            return NotImplemented
        orders = set(self._layers) | set(other._layers)
        return ZSeries({n: self.layer(n) + other.layer(n) for n in orders})

    def __mul__(self, scalar):
        if not isinstance(scalar, (int, float)):
            return NotImplemented
        return ZSeries({n: p * scalar for n, p in self._layers.items()})

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        if not isinstance(other, ZSeries):
            return NotImplemented
        return self._layers == other._layers

    def allclose(self, other: "ZSeries", tol: float = 1e-12) -> bool:
        orders = set(self._layers) | set(other._layers)
        return all(self.layer(n).allclose(other.layer(n), tol) for n in orders)

    def __repr__(self) -> str:
        inner = ", ".join(f"{n}: {p}" for n, p in sorted(self._layers.items()))
        return f"ZSeries({{{inner}}})"


def check_order(counts) -> None:
    """Raise ValueError unless every derivative count of an order is an integer >= 0."""
    for n in counts:
        if not (isinstance(n, (int, np.integer)) and n >= 0):
            raise ValueError(f"derivative counts must be non-negative integers, got {counts}")


class Partials:
    """Exact partial derivatives of a Poly2 or ZSeries, each derived once.

    An order is a tuple of per-axis derivative counts in axis order x, y
    (and z for a series).  The first request for an order differentiates
    its memoized lower order along the last axis it counts, so each order
    takes the same path from the base: x, then y, then z.  A new order is
    checked by :func:`check_order` before it is derived.
    """

    __slots__ = ("_base", "_memo")

    def __init__(self, base):
        self._base = base
        self._memo = {}

    def partials(self, orders, *coords):
        """Value of each requested partial derivative at the given point.

        Each power of x and y is computed once and shared by every order and
        every layer of a series; the bits are those ``eval`` gives.
        """
        x, y, *z = map(_float64, coords)
        xpow, ypow = _Powers(x).__getitem__, _Powers(y).__getitem__
        return [self.derivative(counts)._evaluate(xpow, ypow, *z) for counts in orders]

    def derivative(self, counts):
        """The partial derivative of the base for one order, derived once."""
        d = self._memo.get(counts)
        return self._derive(counts) if d is None else d

    def _derive(self, counts):
        check_order(counts)
        memo = self._memo
        path = []
        while counts not in memo:
            axis = max((a for a, n in enumerate(counts) if n > 0), default=None)
            if axis is None:
                memo[counts] = self._base
                break
            path.append((counts, "xyz"[axis]))
            counts = counts[:axis] + (counts[axis] - 1,) + counts[axis + 1:]
        d = memo[counts]
        for counts, axis in reversed(path):
            d = memo[counts] = d.diff(axis)
        return d


@dataclass(frozen=True)
class SymMat2:
    """Symmetric 2x2 matrix stored by its independent entries."""

    xx: float
    xy: float
    yy: float

    def as_array(self) -> np.ndarray:
        return np.array([[self.xx, self.xy], [self.xy, self.yy]])

    def eigenvalues(self) -> np.ndarray:
        """Eigenvalues in ascending order."""
        return np.linalg.eigvalsh(self.as_array())
