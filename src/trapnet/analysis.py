"""Geometry of the field-free network defined by a plane generator.

The guide network is the zero set of the generator P(x, y).  This module
extracts that set as polylines (marching squares), finds and classifies its
nodes (critical points of P lying on the zero set), measures local crossing
angles and multipole order of the continued potential, and evaluates the
transverse confinement along regular guide-line points.  Derivatives come
from ``partials`` calls, which evaluate every requested order in one pass;
Newton's seed batches call the generator's own engine, ``Partials`` or
``FourierGen.partials``, so a batch takes a grid's arithmetic.
Every sampling grid (marching squares, Newton seeds, ``trapnet sample``) is
built and checked by :func:`grid_axes`.
"""

from __future__ import annotations

import logging
import math
import sys
from dataclasses import dataclass

import numpy as np

from .algebra import Partials, Poly2, SymMat2
from .extension import Field, _on_open_axes, synthesize
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
# relative part of the bisection stop, 4 ulp(1) as in scipy.optimize.bisect
THRESHOLD_RTOL = 4 * sys.float_info.epsilon
# largest grid that grid_axes builds, counted in points: 2048^2 in the
# plane or 161^3 in space
MAX_GRID_POINTS = 2**22


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


_PLANAR_GRADIENT = ((1, 0), (0, 1))


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
        """Analytic partial derivatives, one per (nx, ny) order (``extension._on_open_axes``)."""
        return _on_open_axes(lambda *p: self._engine.partials(orders, *p), x, y)

    def deriv(self, nx: int, ny: int, x, y):
        return self.partials(((nx, ny),), x, y)[0]

    def value(self, x, y):
        return self.partials(((0, 0),), x, y)[0]

    def grad(self, x, y) -> np.ndarray:
        """Gradient at the points, shape (2,) plus their broadcast shape."""
        return np.array(self.partials(_PLANAR_GRADIENT, x, y))


def validate_window(window, axes: int) -> tuple[float, ...]:
    """Return a window of (lo, hi) bounds per axis as floats, checked.

    Raises ValueError unless there are ``axes`` pairs, every bound is finite
    and hi > lo with a finite width hi - lo on every axis.
    """
    bounds = tuple([float(v) for v in window])
    if len(bounds) != 2 * axes:
        raise ValueError(f"window needs {2 * axes} bounds, got {len(bounds)}")
    if not all(math.isfinite(v) for v in bounds):
        raise ValueError(f"window bounds must be finite, got {bounds}")
    if not all(hi > lo for lo, hi in zip(bounds[::2], bounds[1::2])):
        raise ValueError(f"window ranges must be non-degenerate (hi > lo), got {bounds}")
    if not all(math.isfinite(hi - lo) for lo, hi in zip(bounds[::2], bounds[1::2])):
        raise ValueError(f"window widths hi - lo must be finite, got {bounds}")
    return bounds


def grid_axes(window, counts) -> list[np.ndarray]:
    """Sample axes of a grid: ``np.linspace`` over each (lo, hi) window pair.

    ``window`` holds one (lo, hi) pair per count and is checked by
    :func:`validate_window`; each count must be a whole number >= 2, and
    the grid at most ``MAX_GRID_POINTS`` points.  Raises ValueError otherwise.
    """
    bounds = validate_window(window, len(counts))
    if not all(float(c).is_integer() and c >= 2 for c in counts):
        raise ValueError(f"grid counts must be whole numbers >= 2, got {tuple(counts)}")
    points = math.prod(int(c) for c in counts)
    if points > MAX_GRID_POINTS:
        raise ValueError(f"grid of {points} points exceeds the limit of {MAX_GRID_POINTS}")
    return [np.linspace(lo, hi, int(c))
            for lo, hi, c in zip(bounds[::2], bounds[1::2], counts)]


# ----------------------------------------------------------------------
# null-line extraction (marching squares)
# ----------------------------------------------------------------------

# cell corners: c0=(i,j) c1=(i+1,j) c2=(i+1,j+1) c3=(i,j+1); bit set = value < 0
# cell edges:   e0 bottom (c0-c1), e1 right (c1-c2), e2 top (c3-c2), e3 left (c0-c3)
# the edge pairs that each cell mask joins, (-1, -1) after a mask's one pair.
# The saddle masks 5 (c0, c2 negative) and 10 (c1, c3 negative) hold the pairs
# of a positive cell center; a negative center connects the negative diagonal
# and takes the pairs of the other saddle mask, mask ^ 15
_PAIRS = np.array([
    [(-1, -1), (-1, -1)], [(3, 0), (-1, -1)], [(0, 1), (-1, -1)], [(3, 1), (-1, -1)],
    [(1, 2), (-1, -1)], [(3, 0), (1, 2)], [(0, 2), (-1, -1)], [(3, 2), (-1, -1)],
    [(3, 2), (-1, -1)], [(0, 2), (-1, -1)], [(0, 1), (3, 2)], [(1, 2), (-1, -1)],
    [(3, 1), (-1, -1)], [(0, 1), (-1, -1)], [(3, 0), (-1, -1)], [(-1, -1), (-1, -1)],
])


def null_lines(generator, window, resolution: int) -> list[Polyline]:
    """Extract the zero set of the generator inside a window as polylines.

    ``window`` is (x0, x1, y0, y1), finite with x1 > x0 and y1 > y0;
    ``resolution`` is the number of grid samples per axis (>= 2).  Vertices
    sit on grid-cell edges by linear interpolation; saddle-ambiguous cells
    are resolved by the sign of a cell-center sample.  Only the evaluation
    and the sign test pass over the whole grid.  The sign-changing edges,
    the cells they cross and the edge pairs each cell joins are array passes
    over those edges, and there is no per-cell Python loop: a saddle cell's
    center sample is the one scalar step.  An empty list means no zeros in
    the window; a value on the grid that is not finite is a ValueError.
    """
    xs, ys = grid_axes(window, (resolution, resolution))
    jet = PlanarJet(generator)
    gx, gy = np.meshgrid(xs, ys, indexing="ij", sparse=True)
    with np.errstate(over="ignore", invalid="ignore"):  # refused below, with no warnings
        values = jet.value(gx, gy)
    if not np.isfinite(values).all():
        raise ValueError("P is not finite on this grid: the window is out of range")
    neg = values < 0.0

    # each sign-changing edge carries one vertex, by linear interpolation.
    # The edges are keyed in row-major order, x-edges (i, j)-(i+1, j) by
    # i*n + j and then y-edges (i, j)-(i, j+1) by n*(n-1) + i*(n-1) + j, and a
    # vertex's id is its edge's place among the keys.  Evaluations sum from
    # +0.0 and so never return -0.0, which is where np.maximum and max differ
    n = len(xs)
    xkeys = np.flatnonzero(neg[:-1, :] != neg[1:, :])
    ykeys = np.flatnonzero(neg[:, :-1] != neg[:, 1:])
    xi, xj = np.divmod(xkeys, n)
    yi, yj = np.divmod(ykeys, n - 1)
    t = _crossing(values[xi, xj], values[xi + 1, xj])
    vx = np.concatenate((xs[xi] + t * (xs[xi + 1] - xs[xi]), xs[yi]))
    t = _crossing(values[yi, yj], values[yi, yj + 1])
    vy = np.concatenate((ys[xj], ys[yj] + t * (ys[yj + 1] - ys[yj])))
    keys = np.concatenate((xkeys, n * (n - 1) + ykeys))

    # a cell (i, j), keyed i*(n-1) + j, is crossed if and only if its bottom
    # (e0), top (e2) or left (e3) edge changes sign, as two or four of its
    # four edges do; the cells go in row-major order
    cells = np.sort(np.concatenate(((xkeys - xi)[xj < n - 1], (xkeys - xi - 1)[xj > 0],
                                    ykeys[yi < n - 1])))
    first = np.ones(len(cells), dtype=bool)
    first[1:] = cells[1:] != cells[:-1]
    cells = cells[first]
    ci, cj = np.divmod(cells, n - 1)
    bits = neg.view(np.uint8)
    masks = (bits[ci, cj] | bits[ci + 1, cj] << 1
             | bits[ci + 1, cj + 1] << 2 | bits[ci, cj + 1] << 3)
    for k in np.flatnonzero((masks == 5) | (masks == 10)).tolist():
        i, j = int(ci[k]), int(cj[k])
        if jet.value(0.5 * (xs[i] + xs[i + 1]), 0.5 * (ys[j] + ys[j + 1])) < 0.0:
            masks[k] ^= 15

    # the joined edge pairs in cell order, two rows per cell, each edge as its
    # key: for cell c = (i, j), e0 is x-edge (i, j), keyed c + i, and e2 is
    # x-edge (i, j+1), c + i + 1; e3 is y-edge (i, j), n*(n-1) + c, and e1 is
    # y-edge (i+1, j), n*(n-1) + c + n - 1
    pairs = _PAIRS[masks].reshape(-1, 2)
    joined = np.flatnonzero(pairs[:, 0] >= 0)
    pairs, c, i = pairs[joined], cells[joined >> 1, None], ci[joined >> 1, None]
    edge_keys = np.where(pairs & 1, n * (n - 1) + c, c + i) + np.array([0, n - 1, 1, 0])[pairs]
    ends = np.searchsorted(keys, edge_keys)
    # crossings that clamp to one grid corner give a segment of no length: dropped
    a, b = ends[:, 0], ends[:, 1]
    return _chain_segments(ends[(vx[a] != vx[b]) | (vy[a] != vy[b])], vx, vy)


def _crossing(va, vb):
    """Where the line from value ``va`` at 0 to ``vb`` at 1 crosses zero, in [0, 1];
    where ``va - vb`` overflows, both are halved first, an exact scaling there."""
    with np.errstate(over="ignore"):
        d = va - vb
    wide = ~np.isfinite(d)
    if wide.any():
        va, d = np.where(wide, 0.5 * va, va), np.where(wide, 0.5 * va - 0.5 * vb, d)
    return np.minimum(np.maximum(va / d, 0.0), 1.0)


def _chain_segments(ends, xs, ys) -> list[Polyline]:
    """Join shared-endpoint segments into open chains and closed loops.

    ``ends`` holds the two vertex ids of each segment, ``xs`` and ``ys`` the
    vertices' positions, which differ at a segment's two ends.  Vertices at
    one position are one node, ranked by position, so the walk compares
    integers.  It starts from the chain ends, then from every node with
    segments left, in position order, and steps along the unused segment to
    the lowest-ranked neighbour, the lowest-numbered segment on a tie.  A
    chain's first point is its node's position as the node's first segment
    holds it, every other point as the segment that reached it holds it:
    they may differ in the sign of a zero coordinate.
    """
    order = np.lexsort((ys, xs))
    sx, sy = xs[order], ys[order]
    new = np.ones(len(order), dtype=bool)
    new[1:] = (sx[1:] != sx[:-1]) | (sy[1:] != sy[:-1])
    rank = np.empty(len(order), dtype=np.intp)
    rank[order] = np.cumsum(new) - 1
    # half-edge h runs from vertex flat[h] to flat[h ^ 1] along segment h >> 1;
    # a node's half-edges are sorted by the far node's rank, then by segment
    flat = ends.ravel()
    node = rank[flat]
    half = np.lexsort((node[np.arange(len(node)) ^ 1], node))
    bounds = np.searchsorted(node[half], np.arange(np.count_nonzero(new) + 1))
    left = np.diff(bounds)  # each node's unused segments
    endpoints = np.flatnonzero(left == 1).tolist()
    # the walk reads the arrays through memoryviews, which make each Python
    # int or float as it is read: lists would hold one object per entry
    cursor = bounds[:-1].copy()  # each node's first half-edge that may be unused
    half, bounds, node, flat, left, cursor, xs, ys = map(
        memoryview, (half, bounds, node, flat, left, cursor, xs, ys))

    used = bytearray(len(ends))
    polylines = []
    for start in [*endpoints, *range(len(left))]:
        if not left[start]:
            continue
        v = flat[min(half[bounds[start]:bounds[start + 1]])]
        chain, at, closed = [(xs[v], ys[v])], start, False
        while left[at]:
            k = cursor[at]
            while used[half[k] >> 1]:
                k += 1
            cursor[at] = k + 1
            h = half[k]
            used[h >> 1] = True
            left[at] -= 1
            at = node[h ^ 1]
            left[at] -= 1
            if at == start:
                closed = True
                break
            v = flat[h ^ 1]
            chain.append((xs[v], ys[v]))
        polylines.append(Polyline(chain, closed))
    return polylines


# ----------------------------------------------------------------------
# critical points and node classification
# ----------------------------------------------------------------------

def critical_points(generator, window, resolution: int = 48) -> list[CriticalPoint]:
    """Find zeros of grad P inside a window by grid-seeded Newton refinement.

    The seeds are refined as one batch of arrays, each taking the same steps
    as it would alone at a scalar point, which has a 1-element array's bits
    for every Fourier amplitude.  Seeds that do not converge are
    dropped (logged at debug level).  Refined points are deduplicated within
    1e-6 and flagged as network nodes when |P| < 1e-8 there.  Near-singular Hessians
    (cusp-type nodes) fall back to a Tikhonov-damped least-squares step.
    ``window`` must be finite with x1 > x0 and y1 > y0; ``resolution`` seeds
    per axis, a whole number >= 2, at most ``MAX_GRID_POINTS`` seeds in all.
    """
    xs, ys = grid_axes(window, (resolution, resolution))
    # linspace puts both bounds on the axis exactly
    x0, x1, y0, y1 = float(xs[0]), float(xs[-1]), float(ys[0]), float(ys[-1])
    jet = PlanarJet(generator)
    span = max(x1 - x0, y1 - y0)
    seeds = np.column_stack([a.ravel() for a in np.meshgrid(xs, ys, indexing="ij")])

    converged = []
    pad = 1e-9 * max(span, 1.0)
    for seed, p in zip(seeds, _refine_newton(jet, seeds, span)):
        if p is None:
            log.debug("seed %s did not converge", tuple(seed))
            continue
        if not (x0 - pad <= p[0] <= x1 + pad and y0 - pad <= p[1] <= y1 + pad):
            continue
        converged.append((float(p[0]), float(p[1])))

    # keep the first point in sorted order, drop every later one within
    # DEDUP_TOL of it, and repeat on what is left
    out = []
    rest = np.array(sorted(converged), dtype=float).reshape(-1, 2)
    while len(rest):
        x, y = rest[0].tolist()
        rest = rest[1:]
        rest = rest[~(np.hypot(rest[:, 0] - x, rest[:, 1] - y) < DEDUP_TOL)]
        value, *grad = jet.partials(_QUADRATIC_ORDERS[:3], x, y)
        grad_norm = float(np.linalg.norm(grad))
        out.append(CriticalPoint(x, y, value, grad_norm, abs(value) < NODE_P_TOL))
    return out


# gradient and Hessian of P, fetched together: one jet per Newton iteration
_NEWTON_ORDERS = _PLANAR_GRADIENT + ((2, 0), (1, 1), (0, 2))
_QUADRATIC_ORDERS = ((0, 0),) + _NEWTON_ORDERS


def _norms(v: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row, as ``np.linalg.norm`` gives it for one row."""
    return np.sqrt(v[:, None, :] @ v[:, :, None])[:, 0, 0]


def _refine_newton(jet: PlanarJet, seeds: np.ndarray, span: float) -> list[np.ndarray | None]:
    """Newton-refine each row of ``seeds``; the point, or None if it failed.

    All seeds iterate together as arrays and leave the batch when they stop.
    Each takes the same steps as it would alone, bit for bit: its partials are
    elementwise, and the stacked ``det``/``solve`` and the row norms equal
    their one-matrix calls.
    """
    # iterate to step-size convergence, not just to the gradient tolerance:
    # at degenerate roots (singular Hessian) the gradient tolerance alone
    # admits a region wider than the deduplication radius
    max_step = 0.25 * span
    step_floor = 1e-13 * max(span, 1.0)
    bound = 1e6 * max(span, 1.0)

    def second_order(x, y):  # gradient and Hessian at the points, from the jet's engine
        return [np.broadcast_to(v, x.shape) for v in jet._engine.partials(_NEWTON_ORDERS, x, y)]

    p = np.array(seeds, dtype=float)
    escaped = np.zeros(len(p), dtype=bool)
    live = np.arange(len(p))
    for _ in range(NEWTON_MAX_ITER):
        if not live.size:
            break
        gx, gy, hxx, hxy, hyy = second_order(p[live, 0], p[live, 1])
        moving = (gx != 0.0) | (gy != 0.0)  # a zero gradient stops a seed where it is
        live, gx, gy, hxx, hxy, hyy = (a[moving] for a in (live, gx, gy, hxx, hxy, hyy))
        g = np.column_stack((gx, gy))
        h = np.stack((hxx, hxy, hxy, hyy), axis=-1).reshape(-1, 2, 2)
        scale = np.maximum(np.maximum(np.maximum(abs(hxx), abs(hxy)), abs(hyy)), 1e-30)
        with np.errstate(divide="ignore"):  # a subnormal Hessian's det warns, and is +-0.0
            newton = abs(np.linalg.det(h)) > 1e-12 * scale * scale
        step = np.empty_like(g)
        if newton.any():
            step[newton] = np.linalg.solve(h[newton], -g[newton, :, None])[:, :, 0]
        if not newton.all():
            # Tikhonov-damped least squares where the Hessian is near singular
            hd = h[~newton]
            ht = hd.transpose(0, 2, 1)
            hth = ht @ hd
            damp = 1e-8 * np.trace(hth, axis1=1, axis2=2) + 1e-300
            step[~newton] = np.linalg.solve(hth + damp[:, None, None] * np.eye(2),
                                            -ht @ g[~newton, :, None])[:, :, 0]
        norm = _norms(step)
        clamp = norm > max_step
        step[clamp] *= (max_step / norm[clamp])[:, None]
        q = p[live] + step
        p[live] = q
        out = ~np.isfinite(q).all(axis=1) | (abs(q).max(axis=1) > bound)
        escaped[live[out]] = True
        live = live[~out & ~(norm < step_floor)]
    ok = np.flatnonzero(~escaped)
    gradient = np.column_stack(second_order(p[ok, 0], p[ok, 1])[:2])
    converged = ok[_norms(gradient) < GRAD_REFINE_TOL]
    refined = [None] * len(p)
    for k in converged.tolist():
        refined[k] = p[k] + 0.0  # normalize -0.0 coordinates
    return refined


def quadratic_part(generator, point) -> tuple[float, np.ndarray, SymMat2]:
    """Second-order Taylor data of P at a point: value, gradient, Q2.

    Q2 is half the Hessian, so P(point + u) = value + grad.u + u.Q2.u + ...
    All come from one :meth:`PlanarJet.partials` call; one out of float range
    is inf or nan, with no numpy warning.  A non-finite point is a ValueError.
    """
    x, y = _plane_point(point)
    with np.errstate(over="ignore", invalid="ignore"):
        value, gx, gy, hxx, hxy, hyy = PlanarJet(generator).partials(_QUADRATIC_ORDERS, x, y)
    return value, np.array([gx, gy]), SymMat2(xx=0.5 * hxx, xy=0.5 * hxy, yy=0.5 * hyy)


def _plane_point(point) -> tuple[float, float]:
    """(x, y) of a query point as floats; ValueError unless both are finite."""
    x, y = float(point[0]), float(point[1])
    if not (math.isfinite(x) and math.isfinite(y)):
        raise ValueError(f"point ({x}, {y}) is not finite")
    return x, y


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
    if not (abs(value) < NODE_P_TOL and grad_norm < NODE_GRAD_TOL):  # nan fails too
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
    "or more").  They are the Taylor coefficients of the potential times the
    power of two that puts its largest coefficient in [0.5, 1), an exact
    scaling: the order does not depend on the potential's scale, and a
    potential with subnormal coefficients does not lose its levels to
    underflow.
    """
    if field.potential.is_zero():
        raise ValueError("potential is identically zero")
    x0, y0, z0 = (float(v) for v in point3)
    # (degree, |Taylor coefficient|) of each order: the derivative over i! j! k!
    derivs = field._unit_scaled.partials(_TAYLOR_ORDERS, x0, y0, z0)
    coeffs = [(i + j + k, abs(d) / (math.factorial(i) * math.factorial(j) * math.factorial(k)))
              for (i, j, k), d in zip(_TAYLOR_ORDERS, derivs)]
    top = max(c for _, c in coeffs)
    if top == 0.0:
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
    :class:`NotALinePointError` at nodes or off-line points (one where P
    overflows included), and ValueError at a non-finite point.
    """
    x, y = _plane_point(point)
    with np.errstate(over="ignore", invalid="ignore"):  # |P| is far from 0 then
        value, *grad = PlanarJet(generator).partials(_QUADRATIC_ORDERS[:3], x, y)
    if not abs(value) < NODE_P_TOL:  # nan fails too
        raise NotALinePointError(f"point ({x}, {y}) is not on the null set: |P|={abs(value):.3g}")
    grad_norm = float(np.linalg.norm(grad))
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
    tie (as they do for the square lattice at parameter 0).  A form with an
    entry that is not finite gives nan: ``eigvalsh`` reads a nan on the
    diagonal as eigenvalues 0 and -0.
    """
    _, _, q2 = quadratic_part(generator, point)
    if not all(map(math.isfinite, (q2.xx, q2.xy, q2.yy))):
        return math.nan
    lam = q2.eigenvalues()
    return float(lam[0]) * float(lam[1])  # a float product is inf, not a warning, on overflow


def threshold_scan(family, point, param_range) -> float:
    """Locate the parameter where a node changes classification.

    ``family`` maps a parameter value to a generator.  The classification
    (sign pattern of the node's quadratic form) must differ at the two ends
    of ``param_range``; the sign change is then bisected with the steps of
    ``scipy.optimize.bisect``, bit for bit: halve the step, move the low end
    to the midpoint if the pivot there has the sign of the pivot at ``lo``,
    and return the midpoint once that pivot is 0 or the step is below
    ``THRESHOLD_XTOL + THRESHOLD_RTOL * |midpoint|`` (at most about 1100
    halvings).  A nan pivot or an infinite range is a ValueError.
    """
    lo, hi = (float(v) for v in param_range)
    if not math.isfinite(hi - lo):
        raise ValueError(f"parameter range [{lo}, {hi}] is not finite")

    def pivot(c):
        f = _form_determinant(family(c), point)
        if math.isnan(f):
            raise ValueError(f"the node's quadratic form is nan at parameter {c}")
        return f

    f_lo, f_hi = pivot(lo), pivot(hi)
    if f_lo == 0.0:
        return lo
    if f_hi == 0.0:
        return hi
    if np.sign(f_lo) == np.sign(f_hi):
        raise NoTransitionError(
            f"no classification change in [{lo}, {hi}]: the node stays "
            f"{'a crossing' if f_lo < 0 else 'definite'} across the range")
    a, step = lo, hi - lo
    while True:
        step *= 0.5
        mid = a + step
        f_mid = pivot(mid)
        if f_mid * f_lo >= 0.0:
            a = mid
        if f_mid == 0.0 or abs(step) < THRESHOLD_XTOL + THRESHOLD_RTOL * abs(mid):
            return mid
