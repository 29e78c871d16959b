"""Harmonic continuation of planar data and the ponderomotive potential.

A plane source term P(x, y) is continued into three dimensions so that the
result solves Laplace's equation.  For polynomial data the continuation is a
finite z-power series built from the recursion ``layer_{n+2} = -lap(layer_n)``;
for periodic data each Fourier mode picks up a sinh(k z)/k kernel.  The odd
continuation vanishes on the plane z=0 and has normal derivative P there, so
the in-plane RF null set is exactly the zero set of P.

The ponderomotive potential of a charge in the oscillating field is
``U = kappa * |grad(phi)|**2`` with ``kappa = Q**2 / (4 * M * Omega**2)``;
its gradient and Hessian are assembled from analytic derivatives of the
potential, never from finite differences.

Each family has one derivative engine, ``partials(orders, *coords)``, which
returns every requested partial derivative in one pass: memoized exact
series derivatives for polynomials (:class:`~trapnet.algebra.Partials`), and
for periodic data one plane wave per mode shared by all orders.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .algebra import Partials, Poly2, ZSeries, _float64
from .generators import FourierGen, FourierMode, mode_sum

__all__ = [
    "TrapParams",
    "FourierField",
    "Field",
    "odd_extend",
    "even_extend",
    "cauchy_extend",
    "odd_extend_fourier",
    "synthesize",
]

# below this |k*z| the sinh kernel switches to its series to avoid losing
# accuracy right on the z=0 plane, the primary evaluation locus
_SMALL_KZ = 1e-4


@dataclass(frozen=True)
class TrapParams:
    """Drive parameters fixing the pseudopotential prefactor.

    With charge Q [C], mass M [kg] and RF angular frequency Omega [rad/s],
    the prefactor is kappa = Q**2 / (4 M Omega**2).  The default instance is
    normalized (kappa = 1); geometry results never need SI values.
    """

    charge: float | None = None
    mass: float | None = None
    omega: float | None = None

    def __post_init__(self):
        given = (self.charge, self.mass, self.omega)
        if all(v is None for v in given):
            return
        if not all(v is not None for v in given):
            raise ValueError("charge, mass and omega must be given together")
        if not all(math.isfinite(v) for v in given):
            raise ValueError(f"charge, mass and omega must be finite, got {given}")
        if self.mass <= 0:
            raise ValueError("mass must be positive")
        if self.omega <= 0:
            raise ValueError("omega must be positive")
        try:
            kappa = self.kappa
        except ArithmeticError:  # a Python float power or quotient out of range
            kappa = math.inf
        if not math.isfinite(kappa) or (kappa == 0.0 and self.charge != 0.0):
            raise ValueError(f"kappa = charge^2 / (4 mass omega^2) is out of float range for {given}")

    @property
    def kappa(self) -> float:
        if self.charge is None:
            return 1.0
        return self.charge**2 / (4.0 * self.mass * self.omega**2)


# ----------------------------------------------------------------------
# polynomial continuations
# ----------------------------------------------------------------------

def _continue(q: Poly2, first: int) -> ZSeries:
    """Series whose layer first+2m is (-1)**m * lap**m applied to q."""
    layers: dict[int, Poly2] = {}
    n = first
    while not q.is_zero():
        layers[n] = q
        q = -q.laplacian()
        n += 2
    return ZSeries(layers)


def odd_extend(p: Poly2) -> ZSeries:
    """Odd harmonic continuation of a plane polynomial source term.

    Layer 2m+1 is (-1)**m * lap**m applied to p; the series terminates after
    at most floor(deg/2)+1 layers.  The result vanishes on z=0 and has
    z-derivative p there.
    """
    return _continue(p, 1)


def even_extend(phi0: Poly2) -> ZSeries:
    """Even harmonic continuation with prescribed plane value phi0."""
    return _continue(phi0, 0)


def cauchy_extend(phi0: Poly2, phi1: Poly2) -> ZSeries:
    """Harmonic continuation of full Cauchy data (plane value, z-slope)."""
    return even_extend(phi0) + odd_extend(phi1)


# ----------------------------------------------------------------------
# periodic continuation
# ----------------------------------------------------------------------

def _sinh_kernel(k, z, order: int):
    """order-th z-derivative of sinh(k z)/k, stable near the plane.

    Even orders give k**(order-1) * sinh(k z), odd orders
    k**(order-1) * cosh(k z).  ``k`` is a float, or an array of them at a
    scalar z; its powers are Python float powers either way.
    """
    z = np.asarray(z, dtype=float)
    kz = k * z
    if order % 2 == 1:
        return _python_powers(k, order - 1) * np.cosh(kz)
    if order == 0:
        out = np.asarray(np.sinh(kz) / k)
        # the series only where it is used: z**3 is a libm pow per element
        small = np.abs(kz) < _SMALL_KZ
        if np.ndim(k):  # the same series of each element, picked where it is used
            out[small] = (z + k * k * z ** 3 / 6.0)[small]
        else:
            zs = z[small]
            out[small] = zs + k * k * zs ** 3 / 6.0
        return out
    return _python_powers(k, order - 1) * np.sinh(kz)


def _python_powers(k, n: int):
    """Python's float power ``k ** n`` for k >= 0, inf where it overflows; per element on arrays."""
    try:
        return np.array([v ** n for v in k.tolist()]) if np.ndim(k) else k ** n
    except OverflowError:  # Python's float power raises where numpy's gives inf
        return np.array([_python_powers(v, n) for v in k.tolist()]) if np.ndim(k) else math.inf


class FourierField:
    """Periodic harmonic potential with a sinh kernel per mode.

    The value is ``p00*z + sum_k amp_k * sinh(k z)/k * exp(i k.r)`` over the
    nonzero modes of the generator, whose (0, 0) amplitude is p00.  It
    vanishes identically on z=0 and its z-derivative there reproduces the
    generator.
    """

    __slots__ = ("_gen", "_p00", "_waves")

    def __init__(self, gen: FourierGen):
        self._gen = gen
        self._p00 = gen.amplitude(0, 0).real
        # the mean mode has no sinh kernel: p00 is added after the mode sum; a
        # tuple from a list, for the free lists (generators.mode_sum)
        self._waves = tuple([wave for mode, wave in zip(gen.modes, gen.waves)
                             if (mode.m, mode.n) != (0, 0)])

    @property
    def gen(self) -> FourierGen:
        return self._gen

    @property
    def p00(self) -> float:
        return self._p00

    def is_zero(self) -> bool:
        return not any(mode.amp for mode in self._gen.modes)

    def partials(self, orders, x, y, z):
        """Analytic partial derivatives, one per (nx, ny, nz) order.

        Each mode's plane wave is computed once and shared by every order.
        """
        def kernel(kx, ky, order):
            if isinstance(kx, np.ndarray):  # mode_sum's point pass: one value per wave
                if np.ndim(z):
                    return None  # the loop forms the sums
                k = np.array(list(map(math.hypot, kx.tolist(), ky.tolist())))
                return _sinh_kernel(k, z, order[2])
            return _sinh_kernel(math.hypot(kx, ky), z, order[2])

        out = mode_sum(self._waves, orders, x, y, kernel)
        for i, (nx, ny, nz) in enumerate(orders):
            if nx == ny == 0 and nz < 2:  # the mean mode's p00 * z and its slope
                acc = out[i] + (self._p00 * np.asarray(z, dtype=float) if nz == 0 else self._p00)
                out[i] = float(acc) if np.ndim(acc) == 0 else acc
        return out

    def __repr__(self) -> str:
        return f"FourierField({self._gen!r})"


def odd_extend_fourier(gen: FourierGen) -> FourierField:
    """Odd harmonic continuation of a periodic generator, mode by mode."""
    return FourierField(gen)


# ----------------------------------------------------------------------
# unified field interface
# ----------------------------------------------------------------------

_GRADIENT = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
# sorted indices of the symmetric tensors, and the (nx, ny, nz) order of each
_PAIRS = tuple(itertools.combinations_with_replacement(range(3), 2))
_TRIPLES = tuple(itertools.combinations_with_replacement(range(3), 3))
_HESSIAN, _THIRD = (tuple(tuple(index.count(axis) for axis in range(3)) for index in indices)
                    for indices in (_PAIRS, _TRIPLES))


def _symmetric(indices, values) -> np.ndarray:
    """Symmetric tensor holding ``values`` at every permutation of ``indices``."""
    out = np.zeros((3,) * len(indices[0]))
    for index, value in zip(indices, values):
        for perm in itertools.permutations(index):
            out[perm] = value
    return out


def _open(c):
    """A float64 ndarray cut to length 1 along every axis on which its bits are constant.

    Elements compare as int64 bits, so -0.0 and +0.0 never merge and equal
    nans do.  Each axis compares its slice 1 with slice 0 first, so a varying
    axis is rejected at the cost of one slice.  A cut keeps ``ndim`` and comes
    back as a contiguous copy; anything else, an ndarray subclass or another
    dtype included, comes back as it is.
    """
    if type(c) is not np.ndarray or c.dtype != np.float64:
        return c
    bits = c.view(np.int64)
    for axis, n in enumerate(c.shape):
        if n > 1:
            lead = (slice(None),) * axis
            first = bits[lead + (slice(0, 1),)]
            if (bits[lead + (slice(1, 2),)] == first).all() and (bits == first).all():
                bits = first
    return c if bits.shape == c.shape else bits.view(np.float64).copy()


def _on_open_axes(evaluate, *coords) -> list:
    """``evaluate(*coords)``, a list of values, on arrays of the points' broadcast shape.

    Every front end of ``Field`` and ``PlanarJet`` evaluates here, through
    ``Field.partials``, ``Field.pseudopotential`` or ``PlanarJet.partials``.
    Array coordinates are cut to their open axes first (:func:`_open`), so a
    dense grid costs what its sparse ``np.meshgrid`` axes cost.  Evaluation is
    elementwise, and numpy's ufuncs give an element the same bits at any array
    length or stride, so the results are the dense grid's bit for bit.

    A coordinate that is not an array goes in as a 0-d float64 array, so that a
    point takes numpy's array arithmetic (a polynomial's array power, a float32's
    float64 value) as a grid does, and a point's values come back as floats.
    """
    # float64 before the cut, which takes float64 only
    coords = [_float64(c) if isinstance(c, np.ndarray) else np.asarray(c, dtype=np.float64)
              for c in coords]
    # a point is checked first: np.broadcast_shapes costs microseconds
    if not any(c.ndim for c in coords):
        return [float(v) for v in evaluate(*coords)]
    shape = np.broadcast_shapes(*(c.shape for c in coords))
    values = evaluate(*(_open(c) for c in coords))
    return [np.broadcast_to(v, shape) for v in values]


class Field:
    """A harmonic potential plus trap parameters.

    Wraps either a polynomial continuation (ZSeries) or a periodic one
    (FourierField) and exposes analytic value, gradient, Hessian and third
    derivatives, plus the ponderomotive potential built from them.
    """

    def __init__(self, potential, params: TrapParams | None = None):
        if isinstance(potential, ZSeries):
            self._engine = Partials(potential)
        elif isinstance(potential, FourierField):
            self._engine = potential
        else:
            raise TypeError(f"unsupported potential type {type(potential).__name__}")
        self.potential = potential
        self.params = params or TrapParams()

    @property
    def kappa(self) -> float:
        return self.params.kappa

    @functools.cached_property
    def _unit_scaled(self) -> "Field":
        """The field of a nonzero potential times the power of two that puts its
        largest coefficient, or part of a Fourier amplitude, in [0.5, 1), exactly."""
        p = self.potential
        if isinstance(p, ZSeries):
            e = math.frexp(max(abs(c) for q in p.layers.values() for c in q.terms.values()))[1]
            return Field(ZSeries({n: Poly2({ij: math.ldexp(c, -e) for ij, c in q.terms.items()})
                                  for n, q in p.layers.items()}))
        e = math.frexp(max(max(abs(m.amp.real), abs(m.amp.imag)) for m in p.gen.modes))[1]
        return synthesize(FourierGen(p.gen.periods, [FourierMode(
            m.m, m.n, complex(math.ldexp(m.amp.real, -e), math.ldexp(m.amp.imag, -e)))
            for m in p.gen.modes]))

    def partials(self, orders, x, y, z) -> list:
        """Analytic partial derivatives, one per (nx, ny, nz) order (:func:`_on_open_axes`)."""
        return _on_open_axes(lambda *p: self._engine.partials(orders, *p), x, y, z)

    def _at_point(self, method: str, orders, x, y, z) -> list:
        """``partials`` at one point, for the methods that build tensors of one point."""
        if any(np.ndim(c) for c in (x, y, z)):
            raise ValueError(f"Field.{method} takes one point (x, y, z), not arrays")
        return self.partials(orders, x, y, z)

    def derivative(self, nx: int, ny: int, nz: int, x, y, z):
        """Analytic partial derivative of the potential at the points."""
        return self.partials(((nx, ny, nz),), x, y, z)[0]

    def value(self, x, y, z):
        """Potential at the points."""
        return self.partials(((0, 0, 0),), x, y, z)[0]

    def gradient(self, x, y, z) -> np.ndarray:
        """Gradient at the points, shape (3,) plus their broadcast shape."""
        return np.array(self.partials(_GRADIENT, x, y, z))

    def hessian(self, x, y, z) -> np.ndarray:
        """Symmetric Hessian at a point, shape (3, 3)."""
        return _symmetric(_PAIRS, self._at_point("hessian", _HESSIAN, x, y, z))

    def third(self, x, y, z) -> np.ndarray:
        """Symmetric third-derivative tensor at a point, shape (3, 3, 3)."""
        return _symmetric(_TRIPLES, self._at_point("third", _THIRD, x, y, z))

    # ------------------------------------------------------------------
    # ponderomotive potential
    # ------------------------------------------------------------------

    def pseudopotential(self, x, y, z):
        """kappa * |grad(phi)|**2, formed on the arrays' open axes (:func:`_on_open_axes`)."""
        def upp(*p):
            gx, gy, gz = self._engine.partials(_GRADIENT, *p)
            return [self.kappa * (gx * gx + gy * gy + gz * gz)]
        return _on_open_axes(upp, x, y, z)[0]

    def pseudopotential_gradient(self, x, y, z) -> np.ndarray:
        d = self._at_point("pseudopotential_gradient", _GRADIENT + _HESSIAN, x, y, z)
        g = np.array(d[:3])
        h = _symmetric(_PAIRS, d[3:])
        return 2.0 * self.kappa * h @ g

    def pseudopotential_hessian(self, x, y, z) -> np.ndarray:
        """Symmetric Hessian of the pseudopotential at a point, shape (3, 3)."""
        d = self._at_point("pseudopotential_hessian", _GRADIENT + _HESSIAN + _THIRD, x, y, z)
        g = np.array(d[:3])
        h = _symmetric(_PAIRS, d[3:9])
        t = _symmetric(_TRIPLES, d[9:])
        return 2.0 * self.kappa * (h @ h + np.tensordot(t, g, axes=([2], [0])))


def synthesize(generator, params: TrapParams | None = None) -> Field:
    """Build the odd-continued field of a plane generator (Poly2 or FourierGen)."""
    if isinstance(generator, Poly2):
        return Field(odd_extend(generator), params)
    if isinstance(generator, FourierGen):
        return Field(odd_extend_fourier(generator), params)
    raise TypeError(f"unsupported generator type {type(generator).__name__}")
