"""Analysis and mode-sum code against the earlier implementations it replaced.

``reference_null_lines`` is the per-cell marching-squares loop, with
``reference_chain_segments``, the walk over a dict of vertex tuples, and
``reference_refine_newton`` the one-seed Newton refinement with separate
gradient and Hessian calls that ``trapnet.analysis`` used before it moved the
mask, edge and chaining work into numpy and integer adjacency lists and
refined every seed of a grid as one batch.  Polylines are compared by their
``repr``, so a vertex must keep the sign of a zero coordinate too.
None of these changes alters the arithmetic, so the results must be equal
exactly, bit for bit, not within a tolerance.  A point has the bits of the
same point as 1-element arrays, so a seed alone is refined at scalar points,
whatever its generator's amplitudes; ``EARLIER_CRITICAL_POINTS`` holds what
the batches found before.

``reference_partials`` is the ``algebra.Partials`` loop that differentiated
every order from the base, where ``Partials`` now takes each order from its
memoized lower order along the same axis path; the derivatives, and their
values from ``eval``, must be equal.

``reference_multipole_order`` reads the Taylor coefficients of a polynomial
field by recentering each series layer exactly, where ``multipole_order``
now divides analytic derivatives by factorials.  Both take the potential
times the power of two that puts its largest coefficient in [0.5, 1), so
the order does not depend on scale (a property checked on its own), and a
subnormal coefficient is not lost to underflow.  The coefficients differ in
the last bits, so the order, a threshold on them, must be the same, except
where a level lies on the threshold to within a few ulps (a point at x = 1e-9
puts 25*x**3 on 1e-9 * 25*x**2, one ulp wide): there the order must lie
between the reference's orders at the threshold moved by a relative ``TIE``
either way.

``threshold_scan`` bisects in its own loop where it called
``scipy.optimize.bisect``; it takes the same steps, so the thresholds must
equal scipy's exactly (scipy is a test dependency only).
"""

import logging
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import polys
from test_open_axes import SPEC_SWEEP
import trapnet
from trapnet import analysis
from trapnet import (Field, FourierGen, PlanarJet, Poly2, X, Y, catalog, critical_points,
                     odd_extend, parse_fourier, parse_polynomial, synthesize, threshold_scan)
from trapnet.algebra import Partials, ZSeries
from trapnet.analysis import (_TAYLOR_ORDERS, DEDUP_TOL, THRESHOLD_XTOL, Polyline,
                              _form_determinant, _refine_newton, multipole_order, null_lines)

# ----------------------------------------------------------------------
# reference implementations (the scalar loops)
# ----------------------------------------------------------------------

_CASES = {
    0: [], 15: [],
    1: [(3, 0)], 14: [(3, 0)],
    2: [(0, 1)], 13: [(0, 1)],
    3: [(3, 1)], 12: [(3, 1)],
    4: [(1, 2)], 11: [(1, 2)],
    6: [(0, 2)], 9: [(0, 2)],
    7: [(3, 2)], 8: [(3, 2)],
}
_SADDLE = {
    5: {True: [(0, 1), (3, 2)], False: [(3, 0), (1, 2)]},
    10: {True: [(3, 0), (1, 2)], False: [(0, 1), (3, 2)]},
}


def reference_null_lines(generator, window, resolution):
    x0, x1, y0, y1 = (float(v) for v in window)
    jet = PlanarJet(generator)
    xs = np.linspace(x0, x1, resolution)
    ys = np.linspace(y0, y1, resolution)
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    # the one departure from the old loop, which raised IndexError on the
    # scalar value of a constant generator
    values = np.broadcast_to(np.asarray(jet.value(gx, gy), dtype=float), gx.shape)
    edge_pos = {}

    def vertex(kind, i, j):
        key = (kind, i, j)
        pos = edge_pos.get(key)
        if pos is None:
            if kind == "x":
                va, vb = values[i, j], values[i + 1, j]
                t = min(max(va / (va - vb), 0.0), 1.0)
                pos = (float(xs[i] + t * (xs[i + 1] - xs[i])), float(ys[j]))
            else:
                va, vb = values[i, j], values[i, j + 1]
                t = min(max(va / (va - vb), 0.0), 1.0)
                pos = (float(xs[i]), float(ys[j] + t * (ys[j + 1] - ys[j])))
            edge_pos[key] = pos
        return pos

    neg = values < 0.0
    segments = []
    for i in range(resolution - 1):
        for j in range(resolution - 1):
            mask = (int(neg[i, j]) | int(neg[i + 1, j]) << 1
                    | int(neg[i + 1, j + 1]) << 2 | int(neg[i, j + 1]) << 3)
            if mask in _SADDLE:
                cx = 0.5 * (xs[i] + xs[i + 1])
                cy = 0.5 * (ys[j] + ys[j + 1])
                pairs = _SADDLE[mask][bool(jet.value(cx, cy) < 0.0)]
            else:
                pairs = _CASES[mask]
            if not pairs:
                continue
            cell_edges = (("x", i, j), ("y", i + 1, j), ("x", i, j + 1), ("y", i, j))
            for ea, eb in pairs:
                pa = vertex(*cell_edges[ea])
                pb = vertex(*cell_edges[eb])
                if pa != pb:
                    segments.append((pa, pb))
    return reference_chain_segments(segments)


def reference_chain_segments(segments):
    adjacency = {}
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


def reference_refine_newton(jet, p, span, max_iter=120):
    def partials(orders, p):
        return jet.partials(orders, p[0], p[1])

    max_step = 0.25 * span
    step_floor = 1e-13 * max(span, 1.0)
    for _ in range(max_iter):
        g = np.array(partials(((1, 0), (0, 1)), p))
        if g[0] == 0.0 and g[1] == 0.0:
            break
        hxx, hxy, hyy = partials(((2, 0), (1, 1), (0, 2)), p)
        h = np.array([[hxx, hxy], [hxy, hyy]])
        scale = max(np.abs(h).max(), 1e-30)
        with np.errstate(divide="ignore"):  # a subnormal Hessian's det warns, and is +-0.0
            newton = abs(np.linalg.det(h)) > 1e-12 * scale * scale
        if newton:
            step = np.linalg.solve(h, -g)
        else:
            hth = h.T @ h
            damp = 1e-8 * np.trace(hth) + 1e-300
            step = np.linalg.solve(hth + damp * np.eye(2), -h.T @ g)
        norm = np.linalg.norm(step)
        if norm > max_step:
            step *= max_step / norm
        p = p + step
        if not np.all(np.isfinite(p)) or np.abs(p).max() > 1e6 * max(span, 1.0):
            return None
        if norm < step_floor:
            break
    if np.linalg.norm(partials(((1, 0), (0, 1)), p)) < 1e-10:
        return p + 0.0
    return None


def reference_partials(base, orders, *coords):
    out = []
    for counts in orders:
        d = base
        for axis, count in zip("xyz", counts):
            for _ in range(count):
                d = d.diff(axis)
        out.append((d, d.eval(*coords)))
    return out


# relative width of a tie between a Taylor level and the multipole threshold:
# a few ulps, the rounding by which the two arithmetics' coefficients differ
TIE = 16 * sys.float_info.epsilon


def _unit_scaled(layers: dict) -> dict:
    """The layers times the power of two that puts their largest coefficient in
    [0.5, 1): the order does not depend on scale, and recentering a subnormal
    coefficient would lose it to underflow."""
    e = math.frexp(max(abs(c) for layer in layers.values() for c in layer.terms.values()))[1]
    return {n: Poly2({ij: math.ldexp(c, -e) for ij, c in layer.terms.items()})
            for n, layer in layers.items()}


def reference_multipole_order(field, point3, max_order=4, tol=1e-9):
    x0, y0, z0 = point3
    coeffs = {}
    for n, layer in _unit_scaled(field.potential.layers).items():
        shifted = layer.taylor_shift(x0, y0)
        for k in range(0, min(n, max_order) + 1):
            zfac = z0 ** (n - k) / (math.factorial(n - k) * math.factorial(k))
            if zfac == 0.0:
                continue
            for (i, j), c in shifted.terms.items():
                if i + j + k <= max_order:
                    coeffs[(i, j, k)] = coeffs.get((i, j, k), 0.0) + c * zfac
    top = max((abs(c) for c in coeffs.values()), default=0.0)
    for order in range(max_order + 1):
        level = max((abs(c) for (i, j, k), c in coeffs.items()
                     if i + j + k == order), default=0.0)
        if level > tol * top:
            return order
    return max_order + 1


def assert_same_lines(generator, window, resolution):
    got = null_lines(generator, window, resolution)
    assert repr(got) == repr(reference_null_lines(generator, window, resolution))
    return got


def _general_complex(generator) -> bool:
    """Whether a Fourier generator has an amplitude with two nonzero parts."""
    return isinstance(generator, FourierGen) and any(
        mode.amp.real != 0 and mode.amp.imag != 0 for mode in generator.modes)


def assert_same_newton(generator, window, resolution):
    """Refine a seed grid as one batch and each seed alone, at scalar points;
    compare per seed."""
    x0, x1, y0, y1 = window
    seeds = np.array([(sx, sy) for sx in np.linspace(x0, x1, resolution)
                      for sy in np.linspace(y0, y1, resolution)])
    return assert_same_refinement(generator, seeds, max(x1 - x0, y1 - y0))


def assert_same_refinement(generator, seeds, span):
    """Refine ``seeds`` as one batch and each alone; compare per seed, bits and
    the sign of zero both, and return how many converged."""
    jet = PlanarJet(generator)
    refined = _refine_newton(jet, seeds, span)
    assert len(refined) == len(seeds)
    converged = 0
    for seed, got in zip(seeds, refined):
        want = reference_refine_newton(jet, seed, span)
        if want is None:
            assert got is None
        else:
            assert got is not None and got.tolist() == want.tolist()
            assert [math.copysign(1.0, v) for v in got] == \
                [math.copysign(1.0, v) for v in want]
            converged += 1
    return converged


# ----------------------------------------------------------------------
# random generators and windows
# ----------------------------------------------------------------------

# small integers put exact zeros on grid nodes far more often than floats do
coeffs = st.one_of(st.integers(-3, 3).map(float),
                   st.floats(-3.0, 3.0, allow_nan=False, allow_infinity=False))
bounds = st.one_of(st.sampled_from([-2.0, -1.0, -0.5, 0.0, 0.5, 1.0]),
                   st.floats(-2.0, 1.0, allow_nan=False, allow_infinity=False))
widths = st.one_of(st.sampled_from([1.0, 2.0, 3.0]),
                   st.floats(0.05, 3.0, allow_nan=False, allow_infinity=False))


@st.composite
def windows(draw):
    x0, y0 = draw(bounds), draw(bounds)
    return (x0, x0 + draw(widths), y0, y0 + draw(widths))


@settings(max_examples=150, deadline=None)
@given(polys(max_degree=4, max_terms=5, coeffs=coeffs), windows(),
       st.integers(2, 33))
def test_null_lines_matches_cell_loop(p, window, res):
    assert_same_lines(p, window, res)


@settings(max_examples=60, deadline=None)
@given(polys(max_degree=4, max_terms=5, coeffs=coeffs), windows(),
       st.integers(2, 5))
@example(Poly2({(1, 1): 2.225073858507e-311}), (-2.0, -1.0, -2.0, -1.0), 2)  # subnormal Hessian
def test_refine_newton_matches_two_call_loop(p, window, res):
    assert_same_newton(p, window, res)


@settings(max_examples=10, deadline=None)
@given(st.floats(-0.5, 0.5, allow_nan=False), windows())
def test_refine_newton_matches_two_call_loop_fourier(c, window):
    assert_same_newton(catalog("round", {"c": c}).compile(), window, 3)


@settings(max_examples=10, deadline=None)
@given(st.floats(0.1, 3.0, allow_nan=False), windows())
def test_refine_newton_matches_two_call_loop_cusp(alpha, window):
    assert_same_newton(catalog("cusp", {"alpha": alpha}).compile(), window, 5)


points = st.one_of(st.sampled_from([-1.0, -0.5, 0.0, 0.5, 1.0]),
                   st.floats(-1.5, 1.5, allow_nan=False, allow_infinity=False))


@settings(max_examples=150, deadline=None)
@given(polys(max_degree=6, max_terms=5, coeffs=coeffs), points, points,
       st.one_of(st.just(0.0), points.filter(lambda z: z != 0.0)))
@example(Poly2({(5, 0): 2.5}), 1e-09, -1.0, 0.0)  # x**2 z and x**3 z levels tie
@example(Poly2({(4, 0): 5e-324}), 0.3125, -1.0, 0.0)  # a subnormal coefficient
def test_multipole_order_matches_recentering(p, x, y, z):
    fld = synthesize(p)
    if fld.potential.is_zero():
        return
    order = multipole_order(fld, (x, y, z))
    # a lower threshold can only lower the order
    low = reference_multipole_order(fld, (x, y, z), tol=1e-9 * (1 - TIE))
    high = reference_multipole_order(fld, (x, y, z), tol=1e-9 * (1 + TIE))
    if low == high:
        assert order == low
    else:
        assert low <= order <= high


@st.composite
def scaled_potentials(draw):
    """A random polynomial's odd continuation, and a power of two k that keeps each
    of its coefficients normal when they are multiplied by it."""
    p = draw(polys(max_degree=6, max_terms=5, coeffs=coeffs).filter(lambda p: not p.is_zero()))
    layers = odd_extend(p).layers
    exponents = [math.frexp(c)[1] for layer in layers.values() for c in layer.terms.values()]
    k = draw(st.integers(-1021 - min(exponents), 1024 - max(exponents)))
    return layers, k


@settings(max_examples=150, deadline=None)
@given(scaled_potentials(), points, points, st.one_of(st.just(0.0), points))
@example(({1: Poly2({(1, 1): 3.0, (0, 1): 1.0})}, 1022), 1.0, 1.0, 0.5)  # overflows unscaled
def test_multipole_order_does_not_depend_on_scale(scaled, x, y, z):
    layers, k = scaled
    times = {n: Poly2({ij: math.ldexp(c, k) for ij, c in layer.terms.items()})
             for n, layer in layers.items()}
    point = (x, y, z)
    assert multipole_order(Field(ZSeries(times)), point) == \
        multipole_order(Field(ZSeries(layers)), point)


def test_multipole_order_tie_is_on_the_threshold():
    # the pinned example is a tie, not a miss: away from it both orders agree
    fld = synthesize(Poly2({(5, 0): 2.5}))
    assert reference_multipole_order(fld, (1e-9, -1.0, 0.0), tol=1e-9 * (1 - TIE)) == 3
    assert reference_multipole_order(fld, (1e-9, -1.0, 0.0), tol=1e-9 * (1 + TIE)) == 4
    for x in (2e-9, 5e-10):
        point = (x, -1.0, 0.0)
        assert multipole_order(fld, point) == reference_multipole_order(fld, point)


@settings(max_examples=100, deadline=None)
@given(polys(max_degree=8, max_terms=6, coeffs=coeffs), points, points, points,
       st.randoms(use_true_random=False))
def test_partials_match_derivatives_from_the_base(p, x, y, z, rng):
    plane = sorted({(i, j) for i, j, _ in _TAYLOR_ORDERS})
    for base, orders, coords in ((p, plane, (x, y)),
                                 (odd_extend(p), list(_TAYLOR_ORDERS), (x, y, z))):
        rng.shuffle(orders)  # the memo must not depend on the request order
        engine = Partials(base)
        values = engine.partials(orders, *coords)
        for counts, value, (want, want_value) in zip(
                orders, values, reference_partials(base, orders, *coords)):
            assert engine._derive(counts) == want
            assert value == want_value


# ----------------------------------------------------------------------
# pinned cases
# ----------------------------------------------------------------------

def test_zeros_on_grid_nodes_clamp_and_merge():
    # x + y vanishes on grid nodes of the diagonal: every crossing has t
    # clamped to 0 or 1, and the two crossings of a cell often coincide
    gen = Poly2({(1, 0): 1.0, (0, 1): 1.0})
    window = (-1.0, 1.0, -1.0, 1.0)
    nodes = np.linspace(-1.0, 1.0, 9).tolist()
    lines = assert_same_lines(gen, window, 9)
    vertices = [pt for pl in lines for pt in pl.points]
    assert vertices and all(px in nodes and py in nodes for px, py in vertices)
    assert len(set(vertices)) == len(vertices)
    # x vanishes on a grid column: vertices sit exactly on x = 0
    lines = assert_same_lines(Poly2({(1, 0): 1.0}), window, 5)
    assert {px for pl in lines for px, _ in pl.points} == {0.0}


@pytest.mark.parametrize("sign, offset, mask", [
    (1.0, 0.1, 10), (1.0, 0.0, 10), (1.0, -0.1, 10),
    (-1.0, 0.1, 5), (-1.0, 0.0, 5), (-1.0, -0.1, 5)])
def test_saddle_masks_follow_center_sign(sign, offset, mask):
    # one cell, corners alternating in sign: +-x*y is mask 10 or 5 and the
    # offset decides the sign at the cell center
    gen = Poly2({(1, 1): sign, (0, 0): offset})
    window = (-1.0, 1.0, -1.0, 1.0)
    corners = [sign * x * y + offset for x, y in ((-1, -1), (1, -1), (1, 1), (-1, 1))]
    assert sum(1 << k for k, v in enumerate(corners) if v < 0) == mask
    lines = assert_same_lines(gen, window, 2)
    assert len(lines) == 2
    # the two segments separate the corners that differ from the center
    center_neg = offset < 0
    for pl in lines:
        (ax, ay), (bx, by) = pl.points
        cut = [k for k, (x, y) in enumerate(((-1, -1), (1, -1), (1, 1), (-1, 1)))
               if (bx - ax) * (y - ay) - (by - ay) * (x - ax) > 0]
        assert len(cut) in (1, 3)
        lone = cut[0] if len(cut) == 1 else ({0, 1, 2, 3} - set(cut)).pop()
        assert (corners[lone] < 0) != center_neg


def test_saddle_grid_of_cross_generator():
    assert_same_lines(catalog("cross").compile(), (-1.03, 0.97, -1.01, 0.99), 40)


# a -0.0 upper bound is the last sample of its axis as it is, while an
# interpolated vertex there is +0.0: one node may be held both ways
NEGATIVE_ZERO_WINDOWS = [(-1.0, -0.0, -1.0, 1.0), (-1.0, 1.0, -1.0, -0.0),
                         (-1.0, -0.0, -1.0, -0.0), (-0.0, 1.0, -2.0, -0.0)]


@pytest.mark.parametrize("window", NEGATIVE_ZERO_WINDOWS)
@pytest.mark.parametrize("expr", ["x + y", "y - x", "x*y", "x*y*(x - y)", "5*x*y + x + y"])
@pytest.mark.parametrize("res", [2, 3, 5, 8, 9])
def test_windows_with_a_negative_zero_bound(expr, window, res):
    assert_same_lines(parse_polynomial(expr), window, res)


@pytest.mark.parametrize("terms, window, res", [
    ({(3, 2): 4.0, (3, 0): -2.0, (0, 2): -1.0, (3, 1): -5.0, (2, 1): -5.0},
     (-1.0, 1.0, -1.0, -0.0), 5),
    ({(1, 1): 6.0, (3, 0): 4.0, (1, 3): 6.0, (0, 3): 2.0}, (-1.0, -0.0, -1.0, -0.0), 3),
    ({(1, 0): -1.0, (1, 1): -6.0, (1, 2): -3.0, (0, 2): -1.0}, (-1.0, 1.0, -1.0, -0.0), 3),
    ({(1, 2): -6.0, (3, 0): 5.0, (1, 0): -5.0}, (-2.0, 1.0, -2.0, -0.0), 2),
])
def test_a_chain_holds_a_vertex_as_the_segment_that_reached_it(terms, window, res):
    # a node held as both +0.0 and -0.0, reached along segments that differ
    lines = assert_same_lines(Poly2(terms), window, res)
    assert any(math.copysign(1.0, v) < 0.0 for pl in lines for pt in pl.points for v in pt
               if v == 0.0)


@pytest.mark.parametrize("expr", ["x*y", "y^2 - x^4", "x*y*(x - y)", "x^2 - y^2",
                                  "(x - y)*(x + y)*(x - 2*y)", "x*y*(x - y)*(x + y)"])
@pytest.mark.parametrize("res", [2, 3, 4, 5, 10, 11, 20, 21])
@pytest.mark.parametrize("half", [1.0, 1.5])
def test_zeros_on_grid_vertices(expr, res, half):
    # a symmetric window puts zeros on grid vertices, the origin at odd res;
    # crossings that clamp to a vertex meet there
    assert_same_lines(parse_polynomial(expr), (-half, half, -half, half), res)


def _degrees(lines):
    """How many segments of the polylines meet at each vertex."""
    degree = {}
    for pl in lines:
        pts = pl.points + pl.points[:1] if pl.closed else pl.points
        for pt in pts[:-1] + pts[1:]:
            degree[pt] = degree.get(pt, 0) + 1
    return degree


@pytest.mark.parametrize("expr, res, k", [("y^2 - x^4", 9, 4), ("x^2 - y^2", 11, 5),
                                           ("x*y*(x - y)", 4, 1)])
def test_four_segments_meet_at_a_grid_vertex(expr, res, k):
    lines = assert_same_lines(parse_polynomial(expr), (-1.0, 1.0, -1.0, 1.0), res)
    v = np.linspace(-1.0, 1.0, res)[k].item()
    assert _degrees(lines)[v, v] == 4


@pytest.mark.parametrize("res", [200, 201])
def test_round_loops_at_isolated_nodes(res):
    # at c = 0.3 the nodes at (+-1, 0) and (0, +-1) are isolated points; an
    # odd res puts them on grid vertices, which the grid sees as loops of four
    lines = assert_same_lines(catalog("round", {"c": 0.3}).compile(), (-2.0, 2.0, -2.0, 2.0), res)
    assert sum(pl.closed and len(pl.points) == 4 for pl in lines) == (4 if res % 2 else 0)


def test_dedup_keeps_the_ends_of_a_chain_of_near_points(monkeypatch):
    # a-b and b-c lie within DEDUP_TOL, a-c does not: a and c are kept
    a, b, c = (0.5, 0.5), (0.5 + 0.6 * DEDUP_TOL, 0.5), (0.5 + 1.2 * DEDUP_TOL, 0.5)
    assert math.hypot(b[0] - a[0], 0) < DEDUP_TOL and math.hypot(c[0] - b[0], 0) < DEDUP_TOL
    assert math.hypot(c[0] - a[0], 0) >= DEDUP_TOL
    refined = [np.array(p) for p in (c, a, b, a)]
    monkeypatch.setattr(analysis, "_refine_newton", lambda jet, seeds, span: refined)
    found = critical_points(parse_polynomial("x^2 + y^2"), (0.0, 1.0, 0.0, 1.0), 2)
    assert [(cp.x, cp.y) for cp in found] == [a, c]


PHASE_SHIFTED = "cos(pi*x + 0.3) - 0.4*sin(pi*(x + y) - 1.1)"


def seeded_fourier_sum(seed):
    rng = np.random.default_rng(seed)
    terms = [f"{rng.uniform(0.1, 1.0):.3f}*{rng.choice(['cos', 'sin'])}"
             f"({rng.integers(0, 3)}*pi*x {rng.choice(['+', '-'])} {rng.integers(0, 3)}*pi*y)"
             for _ in range(4)]
    return parse_fourier(" + ".join(terms) + " - 0.765*sin(pi*x)*cos(pi*y)", (2.0, 2.0))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_refine_newton_matches_two_call_loop_seeded_fourier_sum(seed):
    # sine terms give complex amplitudes, and seed 1's sum a general complex one
    gen = seeded_fourier_sum(seed)
    assert any(mode.amp.imag != 0.0 for mode in gen.modes)
    assert _general_complex(gen) == (seed == 1)
    assert assert_same_newton(gen, (-1.3, 1.3, -1.3, 1.3), 12) > 0


# critical_points on (-1.3, 1.3)^2 at res 12 as its Newton batches found them
# before they took mode_sum's arithmetic; res 48 found the same points within
# 4e-16, and none of them is a node
EARLIER_CRITICAL_POINTS = {
    "phase-shifted": [
        (-1.0954929658551373, -1.0543661593426932), (-1.0954929658551373, -0.05436615934269307),
        (-1.0954929658551373, 0.9456338406573069), (-0.09549296585513721, -1.0543661593426932),
        (-0.09549296585513721, -0.05436615934269306), (-0.09549296585513721, 0.9456338406573069),
        (0.9045070341448628, -1.0543661593426932), (0.9045070341448628, -0.05436615934269304),
        (0.9045070341448628, 0.9456338406573069),
    ],
    "seeded-0": [
        (-1.097608716546942, -0.8631236820231798), (-1.097608716546942, 1.1368763179768202),
        (-1.0, -0.5000000000000001), (-1.0, 0.49999999999999994),
        (-0.9023912834530582, -0.13687631797682034), (-0.555121296559616, -0.8795637075049147),
        (-0.555121296559616, 1.1204362924950855), (-0.3840653907143278, 0.44694226793005654),
        (-6.383365214150695e-18, 0.5), (-2.6456805241118317e-18, -0.4999999999999998),
        (0.38406539071432777, 0.5530577320699434), (0.5551212965596158, -0.12043629249508533),
        (0.9023912834530581, 1.1368763179768202), (0.9023912834530582, -0.8631236820231799),
        (1.0, -0.5000000000000001), (1.0, 0.5), (1.097608716546942, -0.13687631797682037),
    ],
    "seeded-1": [
        (-1.048595463533946, -1.0823485477825603), (-1.048595463533946, 0.9176514522174398),
        (-1.0326848883034754, 0.5830377596033602), (-0.614505933500583, -0.14218645253188616),
        (-0.2550230456184347, -1.094696734840397), (-0.25502304561843464, 0.9053032651596029),
        (-0.24017329161889617, -0.09215403934687981), (0.14271644644021664, 0.06117186660172882),
        (0.31988494817252433, -0.7709163870007292), (0.3198849481725244, 1.229083612999271),
        (0.676183379232009, -0.39961815170861237), (0.9514045364660538, -1.08234854778256),
        (0.951404536466054, 0.9176514522174398), (0.9673151116965247, 0.5830377596033601),
    ],
    "seeded-2": [
        (-1.2560623176850225, -0.2590098888794298), (-1.1837294948930763, 0.16122308945830832),
        (-1.0000000000000002, 0.5), (-1.0, -0.5), (-0.8162705051069238, 0.8387769105416916),
        (-0.8162705051069237, -1.1612230894583084), (-0.7439376823149777, -0.7409901111205704),
        (-0.7439376823149776, 1.2590098888794297), (-0.23604179242378437, -0.032345315721487904),
        (-5.3628325764654315e-18, 0.5), (-4.36387348388939e-18, -0.5),
        (0.23604179242378434, -0.9676546842785121), (0.23604179242378437, 1.032345315721488),
        (0.7439376823149776, -0.2590098888794297), (0.8162705051069237, 0.16122308945830832),
        (0.9999999999999997, 0.4999999999999997), (0.9999999999999999, -0.4999999999999999),
        (1.1837294948930763, -1.1612230894583084), (1.1837294948930763, 0.8387769105416917),
        (1.2560623176850223, -0.7409901111205702), (1.2560623176850225, 1.2590098888794297),
    ],
}


@pytest.mark.parametrize("res", [12, 48])
@pytest.mark.parametrize("name", list(EARLIER_CRITICAL_POINTS))
def test_critical_points_keep_their_earlier_positions(name, res):
    gen = (parse_fourier(PHASE_SHIFTED, (2.0, 2.0)) if name == "phase-shifted"
           else seeded_fourier_sum(int(name[-1])))
    found = critical_points(gen, (-1.3, 1.3, -1.3, 1.3), res)
    want = EARLIER_CRITICAL_POINTS[name]
    assert len(found) == len(want)
    assert not any(cp.is_node for cp in found)
    for x, y in want:  # a change of the last bit may reorder points of one x
        assert sum(abs(cp.x - x) <= 1e-12 and abs(cp.y - y) <= 1e-12 for cp in found) == 1


@pytest.mark.parametrize("c", [0.2, 0.25, 0.37])
def test_refine_newton_matches_scalar_loop_on_round(c):
    gen = catalog("round", {"c": c}).compile()
    assert not _general_complex(gen)
    assert assert_same_newton(gen, (-1.3, 1.3, -1.3, 1.3), 12) > 0


@pytest.mark.parametrize("text", [text for family, text in SPEC_SWEEP if family == "fourier"])
def test_refine_newton_matches_one_seed_loop_on_spec_sweep_templates(text):
    # the template with a shifted sine, 1.23 + sin(...), has general complex
    # amplitudes; the others' are real or imaginary
    gen = parse_fourier(text, (2.0, 2.0))
    assert _general_complex(gen) == ("1.23 + sin(" in text)
    assert assert_same_newton(gen, (-1.3, 1.3, -1.3, 1.3), 8) > 0


def test_refine_newton_matches_one_seed_arrays_phase_shifted():
    gen = parse_fourier(PHASE_SHIFTED, (2.0, 2.0))
    assert _general_complex(gen)
    assert assert_same_newton(gen, (-1.3, 1.3, -1.3, 1.3), 12) > 0


def test_linear_takes_the_damped_branch_and_never_converges():
    # a zero Hessian: every step is the Tikhonov one, and the gradient stays 1
    assert assert_same_newton(catalog("linear").compile(), (-1.0, 1.0, -1.0, 1.0), 8) == 0


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_overflowing_window_finds_nothing():
    # x^5 overflows at 1e80: a numpy scalar power gives inf where Python's
    # pow would raise OverflowError, and no seed converges
    gen = parse_polynomial("y^2 - x^5 + 0.5*x*y")
    window = (-1e80, 1e80, -1e80, 1e80)
    assert assert_same_newton(gen, window, 4) == 0
    assert critical_points(gen, window, 4) == []


def test_round_at_threshold():
    # at c = 1/4 the lattice nodes are degenerate (cusp-like) and Newton
    # takes the least-squares branch near them
    gen = catalog("round", {"c": 0.25}).compile()
    window = (-1.3, 1.3, -1.3, 1.3)
    assert assert_same_lines(gen, window, 101)
    assert assert_same_newton(gen, window, 8) > 0


def test_cusp_lines_and_newton():
    gen = catalog("cusp").compile()
    window = (-0.5, 2.5, -3.0, 3.0)
    assert_same_lines(gen, window, 120)
    assert assert_same_newton(gen, window, 8) > 0


def test_sextic_newton_takes_high_powers_point_by_point():
    # powers up to x^5 in the gradient and x^4 in the Hessian: numpy's array
    # power differs from the scalar one at a few percent of points for n >= 3,
    # and this grid meets them
    gen = parse_polynomial("x^6 - 2*x^3*y^2 + y^4 - 0.25")
    assert assert_same_newton(gen, (-1.5, 1.5, -1.5, 1.5), 12) == 144


# grad P = (x (x - a), y (y - b)), so the critical points are {0, a} x {0, b},
# and the Hessian diag(2x - a, 2y - b) is singular on x = a/2 and on y = b/2.
# On (-1, 1)^2 the window pad is 2e-9: a = 1 + 1e-9 lies inside it, b = 1 + 4e-9
# outside
PAD_A, PAD_B = 1.0 + 1e-9, 1.0 + 4e-9
TWO_ROOTS = Poly2({(3, 0): 1 / 3, (2, 0): -PAD_A / 2, (0, 3): 1 / 3, (0, 2): -PAD_B / 2})
BRANCH_SEEDS = [
    (0.0, 0.0), (-0.0, 0.0),  # a zero gradient stops them at once; -0.0 leaves as 0.0
    (PAD_A / 2, 0.0),  # a singular Hessian: a damped step of zero, so it stops unconverged
    (10.0, 0.8),  # clamped steps for its first iterations, then (a, b)
    (0.9, -0.2), (0.1, 0.9),  # steps that never clamp
    (1e7, 0.2),  # beyond the bound 2e6
    (1e200, 0.2),  # an overflowing gradient and Hessian scale: a damped step to nan
]


def _first_steps(generator, seeds):
    """Each seed's undamped Newton step, from the one-seed partials."""
    jet = PlanarJet(generator)
    out = []
    for x, y in seeds:
        gx, gy, hxx, hxy, hyy = jet.partials(analysis._NEWTON_ORDERS, x, y)
        out.append(np.linalg.solve([[hxx, hxy], [hxy, hyy]], [-gx, -gy]))
    return out


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the overflowing seed
def test_refine_newton_takes_every_branch_as_the_one_seed_loop(monkeypatch):
    span = 2.0
    seeds = np.array(BRANCH_SEEDS)
    calls = []  # (name, batch size) of each det and solve, in order
    with monkeypatch.context() as m:
        for name in ("det", "solve"):
            def record(a, *rest, _name=name, _f=getattr(np.linalg, name)):
                calls.append((_name, len(a)))
                return _f(a, *rest)
            m.setattr(np.linalg, name, record)
        _refine_newton(PlanarJet(TWO_ROOTS), seeds, span)
    iterations = []  # per det: the batch size and the sizes solved
    for name, n in calls:
        if name == "det":
            iterations.append((n, []))
        else:
            iterations[-1][1].append(n)
    # first the zero gradients leave and the Newton and damped rows are solved
    # apart; then the singular and escaped seeds have left, and the Newton
    # rows are solved as the whole batch
    assert iterations[:2] == [(6, [4, 2]), (3, [3])]
    steps = [np.linalg.norm(step) for step in _first_steps(TWO_ROOTS, BRANCH_SEEDS[3:6])]
    assert steps[0] > 0.25 * span >= max(steps[1:])

    assert assert_same_refinement(TWO_ROOTS, seeds, span) == 5
    refined = _refine_newton(PlanarJet(TWO_ROOTS), seeds, span)
    assert [p is None for p in refined] == [False, False, True, False, False, False, True, True]
    assert [math.copysign(1.0, v) for v in refined[1]] == [1.0, 1.0]
    assert abs(refined[3][0] - PAD_A) < 1e-15 and abs(refined[3][1] - PAD_B) < 1e-15


def test_critical_points_window_pad_as_the_one_seed_loop():
    # the limits the seeds reach alone, kept as the per-seed loop kept them
    window, res = (-1.0, 1.0, -1.0, 1.0), 5
    pad = 1e-9 * 2.0
    seeds = [(x, y) for x in np.linspace(-1.0, 1.0, res) for y in np.linspace(-1.0, 1.0, res)]
    jet = PlanarJet(TWO_ROOTS)
    limits = [reference_refine_newton(jet, np.array(seed), 2.0) for seed in seeds]
    limits = [(float(p[0]), float(p[1])) for p in limits if p is not None]
    inside = sorted((x, y) for x, y in limits
                    if -1 - pad <= x <= 1 + pad and -1 - pad <= y <= 1 + pad)
    assert any(x > 1.0 for x, _ in inside) and any(y > 1.0 for _, y in limits)
    assert not any(y > 1.0 for _, y in inside)
    kept = []
    for p in inside:
        if all(math.hypot(p[0] - q[0], p[1] - q[1]) >= DEDUP_TOL for q in kept):
            kept.append(p)
    assert [(cp.x, cp.y) for cp in critical_points(TWO_ROOTS, window, res)] == kept


def test_critical_points_logs_each_seed_that_did_not_converge(caplog):
    # x = 0 makes the Hessian singular, so the seeds there never converge
    gen = parse_polynomial("x^3 - 3*x + y^2")
    window, res = (-2.0, 2.0, -2.0, 2.0), 5
    seeds = np.array([(x, y) for x in np.linspace(-2.0, 2.0, res)
                      for y in np.linspace(-2.0, 2.0, res)])
    jet = PlanarJet(gen)
    want = [f"seed {tuple(seed)} did not converge" for seed in seeds
            if reference_refine_newton(jet, seed, 4.0) is None]
    assert len(want) == res
    caplog.set_level(logging.DEBUG, logger="trapnet.analysis")
    found = critical_points(gen, window, res)
    assert [r.getMessage() for r in caplog.records] == want
    caplog.clear()
    caplog.set_level(logging.INFO, logger="trapnet.analysis")
    assert critical_points(gen, window, res) == found
    assert caplog.records == []


# ----------------------------------------------------------------------
# threshold_scan against scipy.optimize.bisect
# ----------------------------------------------------------------------

def round_family(c):
    return catalog("round", {"c": c}).compile()


def tilted_family(c):
    # det Q2 = -c - 0.0225: one threshold, at c = -0.0225
    return X**2 - c * Y**2 + 0.3 * X * Y


def scipy_threshold(family, point, lo, hi):
    bisect = pytest.importorskip("scipy.optimize").bisect
    return bisect(lambda c: _form_determinant(family(c), point), lo, hi, xtol=THRESHOLD_XTOL)


def seeded_brackets(seed, root, below, above, n=20):
    """Brackets around ``root``, half of them given high end first."""
    rng = np.random.default_rng(seed)
    for _ in range(n):
        lo, hi = root - rng.uniform(1e-7, below), root + rng.uniform(1e-7, above)
        yield (hi, lo) if rng.random() < 0.5 else (lo, hi)


@pytest.mark.parametrize("family, point, root, below, above", [
    (round_family, (1.0, 0.0), 0.25, 0.249, 3.0),
    (round_family, (1.0, 0.0), -0.25, 3.0, 0.249),
    (tilted_family, (0.0, 0.0), -0.0225, 50.0, 50.0),
])
@pytest.mark.parametrize("seed", [0, 1])
def test_threshold_scan_matches_scipy_bisect(family, point, root, below, above, seed):
    brackets = list(seeded_brackets(seed, root, below, above))
    # thresholds a few xtol or less from one end
    brackets += [(root - 3e-6, root + above), (root + 1e-9, root - below),
                 (root - below, root + 1e-12)]
    for lo, hi in brackets:
        assert threshold_scan(family, point, (lo, hi)) == scipy_threshold(family, point, lo, hi)


@pytest.mark.parametrize("bracket", [(-1.0, 2.0), (2.0, -1.0), (-0.5, 2.0)])
def test_threshold_scan_and_scipy_both_refuse_a_nan_pivot(bracket):
    def family(c):  # nan above c = 1.5 and between 0.7 and 0.8 (the first midpoint of
        # (-0.5, 2.0) is 0.75)
        return X**2 - c * Y**2 + (math.nan if c > 1.5 or 0.7 < c < 0.8 else 0.0) * X * Y
    with pytest.raises(ValueError):
        scipy_threshold(family, (0.0, 0.0), *bracket)
    with pytest.raises(ValueError):
        threshold_scan(family, (0.0, 0.0), bracket)


def test_import_loads_no_scipy():
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(trapnet.__file__))}
    proc = subprocess.run(
        [sys.executable, "-c",
         "import trapnet, sys; assert not any(m.startswith('scipy') for m in sys.modules)"],
        env=env, check=False)
    assert proc.returncode == 0

