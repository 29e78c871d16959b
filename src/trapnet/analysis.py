"""Geometry of the field-free network defined by a plane generator.

The guide network is the zero set of the generator P(x, y).  This module
extracts that set as polylines (marching squares), finds and classifies its
nodes (critical points of P lying on the zero set), measures local crossing
angles and multipole order of the continued potential, and evaluates the
transverse confinement along regular guide-line points.  Derivatives come
from ``partials`` calls, which evaluate every requested order in one pass.
Every sampling grid (marching squares, Newton seeds, ``trapnet sample``) is
built and checked by :func:`grid_axes`.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import bisect

from .algebra import Partials, Poly2, SymMat2
from .extension import Field, synthesize
from .generators import FourierGen

__all__ = [
    "AnalysisError",
    "NotANodeError",
    "NotALinePointError",
    "NoTransitionError",
    "Polyline",
    "CriticalPoint",
    "NodeReport",
    "PlanarJet",
    "validate_window",
    "grid_axes",
    "null_lines",
    "critical_points",
    "quadratic_part",
    "classify_node",
    "multipole_order",
    "transverse_confinement",
    "threshold_scan",
]

log = logging.getLogger(__name__)

NODE_P_TOL = 1e-8
NODE_GRAD_TOL = 1e-8
LINE_GRAD_FLOOR = 1e-6
GRAD_REFINE_TOL = 1e-10
DEDUP_TOL = 1e-6
NEWTON_MAX_ITER = 120
DEGENERATE_TOL = 1e-9
MULTIPOLE_MAX_ORDER = 4
MULTIPOLE_TOL = 1e-9
THRESHOLD_XTOL = 1e-6


class AnalysisError(ValueError):
    """A network-analysis precondition failed."""


class NotANodeError(AnalysisError):
    """The queried point is not a node (P=0 and grad P=0) of the network."""


class NotALinePointError(AnalysisError):
    """The queried point is not a regular guide-line point."""


class NoTransitionError(AnalysisError):
    """No classification change inside the scanned parameter range."""


@dataclass
class Polyline:
    """Ordered chain of plane points approximating a null line.

    For closed chains the first point is not repeated at the end.
    """

    points: list[tuple[float, float]]
    closed: bool = False


@dataclass(frozen=True)
class CriticalPoint:
    """A refined zero of grad P; a node when P vanishes there too."""

    x: float
    y: float
    value: float
    grad_norm: float
    is_node: bool


@dataclass(frozen=True)
class NodeReport:
    """Local classification of a network node.

    ``kind`` is "crossing" (quadratic form with eigenvalues of opposite
    sign; ``angle`` holds the angle between the two null-line asymptotes,
    reported in [0, pi/2]), "isolated" (definite form) or "degenerate"
    (an eigenvalue within tolerance of zero; ``angle`` is None).
    """

    x: float
    y: float
    value: float
    gradient: tuple[float, float]
    q2: SymMat2
    kind: str
    angle: float | None
    multipole_order: int | None


class PlanarJet:
    """Value, gradient and Hessian of a plane generator at arbitrary points.

    Uniform front end over the two generator families; all derivatives are
    analytic (exact polynomial differentiation or differentiated mode sums)
    and every call evaluates the orders it needs in one pass.
    """

    def __init__(self, generator):
        if isinstance(generator, Poly2):
            self._engine = Partials(generator)
        elif isinstance(generator, FourierGen):
            self._engine = generator
        else:
            raise TypeError(f"unsupported generator type {type(generator).__name__}")

    def partials(self, orders, x, y) -> list:
        """Analytic partial derivatives, one per (nx, ny) order."""
        return self._engine.partials(orders, x, y)

    def deriv(self, nx: int, ny: int, x, y):
        return self._engine.partials(((nx, ny),), x, y)[0]

    def value(self, x, y):
        return self._engine.partials(((0, 0),), x, y)[0]

    def grad(self, x, y) -> np.ndarray:
        return np.array(self._engine.partials(((1, 0), (0, 1)), x, y))

    def hess(self, x, y) -> np.ndarray:
        hxx, hxy, hyy = self._engine.partials(((2, 0), (1, 1), (0, 2)), x, y)
        return np.array([[hxx, hxy], [hxy, hyy]])


def validate_window(window, axes: int) -> tuple[float, ...]:
    """Return a window of (lo, hi) bounds per axis as floats, checked.

    Raises ValueError unless there are ``axes`` pairs, every bound is finite
    and hi > lo on every axis.
    """
    bounds = tuple(float(v) for v in window)
    if len(bounds) != 2 * axes:
        raise ValueError(f"window needs {2 * axes} bounds, got {len(bounds)}")
    if not all(math.isfinite(v) for v in bounds):
        raise ValueError(f"window bounds must be finite, got {bounds}")
    if not all(hi > lo for lo, hi in zip(bounds[::2], bounds[1::2])):
        raise ValueError(f"window ranges must be non-degenerate (hi > lo), got {bounds}")
    return bounds


def grid_axes(window, counts) -> list[np.ndarray]:
    """Sample axes of a grid: ``np.linspace`` over each (lo, hi) window pair.

    ``window`` holds one (lo, hi) pair per count and is checked by
    :func:`validate_window`; each count must be a whole number >= 2.
    Raises ValueError otherwise.
    """
    bounds = validate_window(window, len(counts))
    if not all(float(c).is_integer() and c >= 2 for c in counts):
        raise ValueError(f"grid counts must be whole numbers >= 2, got {tuple(counts)}")
    return [np.linspace(lo, hi, int(c))
            for lo, hi, c in zip(bounds[::2], bounds[1::2], counts)]


# ----------------------------------------------------------------------
# null-line extraction (marching squares)
# ----------------------------------------------------------------------

# cell corners: c0=(i,j) c1=(i+1,j) c2=(i+1,j+1) c3=(i,j+1); bit set = value < 0
# cell edges:   e0 bottom (c0-c1), e1 right (c1-c2), e2 top (c3-c2), e3 left (c0-c3)
_CASES: dict[int, list[tuple[int, int]]] = {
    1: [(3, 0)], 14: [(3, 0)],
    2: [(0, 1)], 13: [(0, 1)],
    3: [(3, 1)], 12: [(3, 1)],
    4: [(1, 2)], 11: [(1, 2)],
    6: [(0, 2)], 9: [(0, 2)],
    7: [(3, 2)], 8: [(3, 2)],
}
# masks 5 (c0,c2 negative) and 10 (c1,c3 negative) are saddle-ambiguous:
# a connected negative diagonal separates the two positive corners
_SADDLE = {
    5: {True: [(0, 1), (3, 2)], False: [(3, 0), (1, 2)]},
    10: {True: [(3, 0), (1, 2)], False: [(0, 1), (3, 2)]},
}


def null_lines(generator, window, resolution: int) -> list[Polyline]:
    """Extract the zero set of the generator inside a window as polylines.

    ``window`` is (x0, x1, y0, y1), finite with x1 > x0 and y1 > y0;
    ``resolution`` is the number of grid samples per axis (>= 2).  Vertices
    sit on grid-cell edges by linear interpolation; saddle-ambiguous cells
    are resolved by the sign of a cell-center sample.  The cell masks and
    the edge interpolations are computed as arrays over the whole grid; the
    Python loop visits only the cells that the zero set crosses.  An empty
    list means no zeros in the window.
    """
    xs, ys = grid_axes(window, (resolution, resolution))
    jet = PlanarJet(generator)
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    # a constant generator evaluates to a scalar
    values = np.broadcast_to(np.asarray(jet.value(gx, gy), dtype=float), gx.shape)
    neg = values < 0.0

    # vertices are keyed by their exact position so that crossings through a
    # grid corner (interpolation parameter clamped to 0 or 1) merge cleanly;
    # only sign-changing edges carry one.  Evaluations sum from +0.0 and so
    # never return -0.0, which is where np.maximum and the scalar max differ.
    edge_pos: dict[tuple, tuple[float, float]] = {}
    ei, ej = np.nonzero(neg[:-1, :] != neg[1:, :])
    va, vb = values[ei, ej], values[ei + 1, ej]
    t = np.minimum(np.maximum(va / (va - vb), 0.0), 1.0)
    px = xs[ei] + t * (xs[ei + 1] - xs[ei])
    for i, j, x, y in zip(ei.tolist(), ej.tolist(), px.tolist(), ys[ej].tolist()):
        edge_pos["x", i, j] = (x, y)
    ei, ej = np.nonzero(neg[:, :-1] != neg[:, 1:])
    va, vb = values[ei, ej], values[ei, ej + 1]
    t = np.minimum(np.maximum(va / (va - vb), 0.0), 1.0)
    py = ys[ej] + t * (ys[ej + 1] - ys[ej])
    for i, j, x, y in zip(ei.tolist(), ej.tolist(), xs[ei].tolist(), py.tolist()):
        edge_pos["y", i, j] = (x, y)

    bits = neg.view(np.uint8)
    masks = (bits[:-1, :-1] | bits[1:, :-1] << 1
             | bits[1:, 1:] << 2 | bits[:-1, 1:] << 3)
    ci, cj = np.nonzero((masks != 0) & (masks != 15))  # row-major, as i then j
    segments: list[tuple[tuple, tuple]] = []
    for i, j, mask in zip(ci.tolist(), cj.tolist(), masks[ci, cj].tolist()):
        if mask in _SADDLE:
            cx = 0.5 * (xs[i] + xs[i + 1])
            cy = 0.5 * (ys[j] + ys[j + 1])
            pairs = _SADDLE[mask][bool(jet.value(cx, cy) < 0.0)]
        else:
            pairs = _CASES[mask]
        cell_edges = (("x", i, j), ("y", i + 1, j), ("x", i, j + 1), ("y", i, j))
        for ea, eb in pairs:
            pa = edge_pos[cell_edges[ea]]
            pb = edge_pos[cell_edges[eb]]
            if pa != pb:
                segments.append((pa, pb))

    return _chain_segments(segments)


def _chain_segments(segments) -> list[Polyline]:
    """Join shared-endpoint segments into open chains and closed loops."""
    adjacency: dict[tuple, list[tuple[tuple, int]]] = {}
    for idx, (pa, pb) in enumerate(segments):
        adjacency.setdefault(pa, []).append((pb, idx))
        adjacency.setdefault(pb, []).append((pa, idx))

    used = [False] * len(segments)

    def walk(start):
        chain = [start]
        while True:
            extensions = [(p, i) for p, i in adjacency[chain[-1]] if not used[i]]
            if not extensions:
                return chain, False
            nxt, idx = min(extensions)
            used[idx] = True
            if nxt == chain[0]:
                return chain, True
            chain.append(nxt)

    polylines = []
    # walk from the chain endpoints first, then from any vertex with segments left
    endpoints = sorted(p for p, nbrs in adjacency.items() if len(nbrs) == 1)
    for start in [*endpoints, *sorted(adjacency)]:
        if all(used[i] for _, i in adjacency[start]):
            continue
        chain, closed = walk(start)
        polylines.append(Polyline(chain, closed))
    return polylines


# ----------------------------------------------------------------------
# critical points and node classification
# ----------------------------------------------------------------------

def critical_points(generator, window, resolution: int = 48) -> list[CriticalPoint]:
    """Find zeros of grad P inside a window by grid-seeded Newton refinement.

    Seeds that do not converge are dropped (logged at debug level).  Refined
    points are deduplicated within 1e-6 and flagged as network nodes when
    |P| < 1e-8 there.  Near-singular Hessians (cusp-type nodes) fall back to
    a Tikhonov-damped least-squares step.  ``window`` must be finite with
    x1 > x0 and y1 > y0; ``resolution`` seeds per axis, a whole number >= 2.
    """
    xs, ys = grid_axes(window, (resolution, resolution))
    # linspace puts both bounds on the axis exactly
    x0, x1, y0, y1 = float(xs[0]), float(xs[-1]), float(ys[0]), float(ys[-1])
    jet = PlanarJet(generator)
    span = max(x1 - x0, y1 - y0)
    seeds = [(sx, sy) for sx in xs for sy in ys]

    converged = []
    for seed in seeds:
        p = _refine_newton(jet, np.array(seed, dtype=float), span)
        if p is None:
            log.debug("seed %s did not converge", seed)
            continue
        pad = 1e-9 * max(span, 1.0)
        if not (x0 - pad <= p[0] <= x1 + pad and y0 - pad <= p[1] <= y1 + pad):
            continue
        converged.append((float(p[0]), float(p[1])))

    out = []
    for x, y in sorted(converged):
        if any(np.hypot(x - cp.x, y - cp.y) < DEDUP_TOL for cp in out):
            continue
        value = float(jet.value(x, y))
        grad_norm = float(np.linalg.norm(jet.grad(x, y)))
        out.append(CriticalPoint(x, y, value, grad_norm, abs(value) < NODE_P_TOL))
    return out


# gradient and Hessian of P, fetched together: one jet per Newton iteration
_NEWTON_ORDERS = ((1, 0), (0, 1), (2, 0), (1, 1), (0, 2))


def _refine_newton(jet: PlanarJet, p: np.ndarray, span: float) -> np.ndarray | None:
    # iterate to step-size convergence, not just to the gradient tolerance:
    # at degenerate roots (singular Hessian) the gradient tolerance alone
    # admits a region wider than the deduplication radius
    max_step = 0.25 * span
    step_floor = 1e-13 * max(span, 1.0)
    bound = 1e6 * max(span, 1.0)
    for _ in range(NEWTON_MAX_ITER):
        gx, gy, hxx, hxy, hyy = jet.partials(_NEWTON_ORDERS, p[0], p[1])
        if gx == 0.0 and gy == 0.0:
            break
        g = np.array([gx, gy])
        h = np.array([[hxx, hxy], [hxy, hyy]])
        scale = max(abs(hxx), abs(hxy), abs(hyy), 1e-30)
        if abs(np.linalg.det(h)) > 1e-12 * scale * scale:
            step = np.linalg.solve(h, -g)
        else:
            hth = h.T @ h
            damp = 1e-8 * np.trace(hth) + 1e-300
            step = np.linalg.solve(hth + damp * np.eye(2), -h.T @ g)
        norm = np.linalg.norm(step)
        if norm > max_step:
            step *= max_step / norm
        p = p + step
        x, y = p.tolist()
        if not (math.isfinite(x) and math.isfinite(y)) or max(abs(x), abs(y)) > bound:
            return None
        if norm < step_floor:
            break
    if np.linalg.norm(jet.grad(p[0], p[1])) < GRAD_REFINE_TOL:
        return p + 0.0  # normalize -0.0 coordinates
    return None


def quadratic_part(generator, point) -> tuple[float, np.ndarray, SymMat2]:
    """Second-order Taylor data of P at a point: value, gradient, Q2.

    Q2 is half the Hessian, so P(point + u) = value + grad.u + u.Q2.u + ...
    Polynomials are recentered exactly; periodic generators use analytic
    mode-sum derivatives.
    """
    x, y = float(point[0]), float(point[1])
    if isinstance(generator, Poly2):
        q = generator.taylor_shift(x, y)
        value = q.coeff(0, 0)
        grad = np.array([q.coeff(1, 0), q.coeff(0, 1)])
        q2 = SymMat2(xx=q.coeff(2, 0), xy=0.5 * q.coeff(1, 1), yy=q.coeff(0, 2))
        return value, grad, q2
    value, gx, gy, hxx, hxy, hyy = PlanarJet(generator).partials(
        ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)), x, y)
    return float(value), np.array([gx, gy]), SymMat2(xx=0.5 * hxx, xy=0.5 * hxy, yy=0.5 * hyy)


def _crossing_angle(lam_lo: float, lam_hi: float) -> float:
    """Angle in [0, pi/2] between the two zero lines of a saddle form."""
    angle = 2.0 * np.arctan(np.sqrt(lam_hi / -lam_lo))
    if angle > 0.5 * np.pi:
        angle = np.pi - angle
    return float(angle)


def classify_node(generator, point, field: Field | None = None) -> NodeReport:
    """Classify a network node from the quadratic part of P.

    The point must satisfy |P| < 1e-8 and |grad P| < 1e-8, otherwise
    :class:`NotANodeError` is raised.  Eigenvalues of strictly opposite sign
    give a crossing (with its asymptote angle); a definite form gives an
    isolated point; an eigenvalue within ``DEGENERATE_TOL`` (relative to the
    largest eigenvalue magnitude) of zero is reported degenerate rather than
    misclassified.
    """
    value, grad, q2 = quadratic_part(generator, point)
    grad_norm = float(np.linalg.norm(grad))
    if abs(value) >= NODE_P_TOL or grad_norm >= NODE_GRAD_TOL:
        raise NotANodeError(
            f"point {tuple(point)} is not a node: |P|={abs(value):.3g}, "
            f"|grad P|={grad_norm:.3g}")
    lam = q2.eigenvalues()
    scale = float(np.abs(lam).max())
    angle = None
    if scale == 0.0 or np.abs(lam).min() <= DEGENERATE_TOL * scale:
        kind = "degenerate"
    elif lam[0] < 0.0 < lam[1]:
        kind = "crossing"
        angle = _crossing_angle(lam[0], lam[1])
    else:
        kind = "isolated"
    if field is None:
        field = synthesize(generator)
    order = multipole_order(field, (point[0], point[1], 0.0))
    return NodeReport(x=float(point[0]), y=float(point[1]), value=value,
                      gradient=(float(grad[0]), float(grad[1])), q2=q2,
                      kind=kind, angle=angle, multipole_order=order)


# ----------------------------------------------------------------------
# multipole order
# ----------------------------------------------------------------------

_TAYLOR_ORDERS = tuple((i, j, k) for i in range(MULTIPOLE_MAX_ORDER + 1)
                       for j in range(MULTIPOLE_MAX_ORDER + 1 - i)
                       for k in range(MULTIPOLE_MAX_ORDER + 1 - i - j))


def multipole_order(field: Field, point3) -> int:
    """Smallest total degree with a nonzero term in the local Taylor series.

    Degree 2 is a quadrupole, 3 a hexapole.  Coefficients are normalized by
    the largest one up to ``MULTIPOLE_MAX_ORDER``; higher orders are not
    computed and the function returns ``MULTIPOLE_MAX_ORDER + 1`` (meaning
    "or more").
    """
    x0, y0, z0 = (float(v) for v in point3)
    # (degree, |Taylor coefficient|) of each order: the derivative over i! j! k!
    derivs = field.partials(_TAYLOR_ORDERS, x0, y0, z0)
    coeffs = [(i + j + k, abs(d) / (math.factorial(i) * math.factorial(j) * math.factorial(k)))
              for (i, j, k), d in zip(_TAYLOR_ORDERS, derivs)]
    top = max(c for _, c in coeffs)
    if top == 0.0:
        if field.potential.is_zero():
            raise ValueError("potential is identically zero")
        return MULTIPOLE_MAX_ORDER + 1  # nonzero field with no terms up to the cap
    for order in range(MULTIPOLE_MAX_ORDER + 1):
        if max(c for n, c in coeffs if n == order) > MULTIPOLE_TOL * top:
            return order
    return MULTIPOLE_MAX_ORDER + 1



# ----------------------------------------------------------------------
# confinement along guide lines
# ----------------------------------------------------------------------

def transverse_confinement(field: Field, generator, point) -> tuple[float, float]:
    """Pseudopotential curvature across a regular guide-line point.

    Restricts the pseudopotential Hessian at (x, y, 0) to the plane spanned
    by the in-plane normal of the null line and the z axis and returns the
    two eigenvalues (normal direction first).  Both equal
    2*kappa*|grad P|**2 at leading order.  Raises
    :class:`NotALinePointError` at nodes or off-line points.
    """
    x, y = float(point[0]), float(point[1])
    jet = PlanarJet(generator)
    value = float(jet.value(x, y))
    grad = jet.grad(x, y)
    grad_norm = float(np.linalg.norm(grad))
    if abs(value) >= NODE_P_TOL:
        raise NotALinePointError(f"point ({x}, {y}) is not on the null set: |P|={abs(value):.3g}")
    if grad_norm <= LINE_GRAD_FLOOR:
        raise NotALinePointError(
            f"point ({x}, {y}) is a node, not a regular line point: "
            f"|grad P|={grad_norm:.3g}")
    normal = np.array([grad[0] / grad_norm, grad[1] / grad_norm, 0.0])
    zhat = np.array([0.0, 0.0, 1.0])
    h = field.pseudopotential_hessian(x, y, 0.0)
    basis = np.column_stack([normal, zhat])
    restricted = basis.T @ h @ basis
    lam, vecs = np.linalg.eigh(restricted)
    if abs(vecs[0, 0]) >= abs(vecs[0, 1]):
        return float(lam[0]), float(lam[1])
    return float(lam[1]), float(lam[0])


# ----------------------------------------------------------------------
# connectivity threshold
# ----------------------------------------------------------------------

def _form_determinant(generator, point) -> float:
    """Eigenvalue product of Q2: negative at a crossing, positive when definite.

    Its zero is the zero of the smallest-magnitude eigenvalue, but unlike a
    signed eigenvalue selection it stays continuous when the two magnitudes
    tie (as they do for the square lattice at parameter 0).
    """
    _, _, q2 = quadratic_part(generator, point)
    lam = q2.eigenvalues()
    return float(lam[0] * lam[1])


def threshold_scan(family, point, param_range) -> float:
    """Locate the parameter where a node changes classification.

    ``family`` maps a parameter value to a generator.  The classification
    (sign pattern of the node's quadratic form) must differ at the two ends
    of ``param_range``; the eigenvalue sign change is then bisected to
    ``THRESHOLD_XTOL``.
    """
    lo, hi = (float(v) for v in param_range)

    def pivot(c):
        return _form_determinant(family(c), point)

    f_lo, f_hi = pivot(lo), pivot(hi)
    if f_lo == 0.0:
        return lo
    if f_hi == 0.0:
        return hi
    if np.sign(f_lo) == np.sign(f_hi):
        raise NoTransitionError(
            f"no classification change in [{lo}, {hi}]: the node stays "
            f"{'a crossing' if f_lo < 0 else 'definite'} across the range")
    return float(bisect(pivot, lo, hi, xtol=THRESHOLD_XTOL))
