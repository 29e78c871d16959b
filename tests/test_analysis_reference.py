"""Analysis and mode-sum code against the earlier implementations it replaced.

``reference_null_lines`` is the per-cell marching-squares loop and
``reference_refine_newton`` the one-seed Newton refinement with separate
gradient and Hessian calls that ``trapnet.analysis`` used before it moved the
mask and edge work into numpy and refined every seed of a grid as one batch.
``reference_fourier_partials`` is the per-mode loop of the plane generator
and of its continuation before both moved into ``generators.mode_sum``.
None of these changes alters the arithmetic, so the results must be equal
exactly, bit for bit, not within a tolerance.

``reference_partials`` is the ``algebra.Partials`` loop that differentiated
every order from the base, where ``Partials`` now takes each order from its
memoized lower order along the same axis path; the derivatives must be equal.

``reference_multipole_order`` reads the Taylor coefficients of a polynomial
field by recentering each series layer exactly, where ``multipole_order``
now divides analytic derivatives by factorials.  The coefficients differ in
the last bits, but the order, a threshold on them, must not.

``reference_poly_eval`` and ``reference_series_eval`` are the term-by-term
loops of ``Poly2.eval`` and ``ZSeries.eval``, which raised each coordinate to
each power once per term, layer and order; evaluation now reads the powers
from one table per call, so every value must be the same bit for bit.

``threshold_scan`` bisects in its own loop where it called
``scipy.optimize.bisect``; it takes the same steps, so the thresholds must
equal scipy's exactly (scipy is a test dependency only).
"""

import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import polys
import trapnet
from trapnet import (FourierField, FourierGen, FourierMode, PlanarJet, Poly2, X, Y, ZSeries,
                     catalog, critical_points, odd_extend, parse_fourier, parse_polynomial,
                     synthesize, threshold_scan)
from trapnet.algebra import Partials
from trapnet.analysis import (_TAYLOR_ORDERS, THRESHOLD_XTOL, _chain_segments,
                              _form_determinant, _refine_newton, multipole_order, null_lines)
from trapnet.extension import _GRADIENT, _HESSIAN, _THIRD, _sinh_kernel

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
    return _chain_segments(segments)


def reference_refine_newton(jet, p, span, max_iter=120):
    max_step = 0.25 * span
    step_floor = 1e-13 * max(span, 1.0)
    for _ in range(max_iter):
        g = jet.grad(p[0], p[1])
        if g[0] == 0.0 and g[1] == 0.0:
            break
        hxx, hxy, hyy = jet.partials(((2, 0), (1, 1), (0, 2)), p[0], p[1])
        h = np.array([[hxx, hxy], [hxy, hyy]])
        scale = max(np.abs(h).max(), 1e-30)
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
        if not np.all(np.isfinite(p)) or np.abs(p).max() > 1e6 * max(span, 1.0):
            return None
        if norm < step_floor:
            break
    if np.linalg.norm(jet.grad(p[0], p[1])) < 1e-10:
        return p + 0.0
    return None


def reference_poly_eval(p, x, y):
    acc = 0.0
    for (i, j) in sorted(p.terms):
        acc = acc + p.terms[(i, j)] * x**i * y**j
    return acc


def reference_series_eval(s, x, y, z):
    acc = 0.0
    for n in sorted(s.layers):
        acc = acc + z**n / math.factorial(n) * reference_poly_eval(s.layers[n], x, y)
    return acc


def reference_partials(base, orders, *coords):
    evaluate = reference_series_eval if isinstance(base, ZSeries) else reference_poly_eval
    out = []
    for counts in orders:
        d = base
        for axis, count in zip("xyz", counts):
            for _ in range(count):
                d = d.diff(axis)
        out.append((d, evaluate(d, *coords)))
    return out


def reference_multipole_order(field, point3, max_order=4, tol=1e-9):
    x0, y0, z0 = point3
    coeffs = {}
    for n, layer in field.potential.layers.items():
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


def reference_fourier_partials(gen, orders, x, y, z=None):
    """FourierGen.partials for (nx, ny) orders without z, else the partials
    of its odd continuation for (nx, ny, nz) orders."""
    accs = [0.0] * len(orders)
    for mode in gen.modes:
        if z is not None and (mode.m, mode.n) == (0, 0):
            continue
        kx = 2 * math.pi * mode.m / gen.periods[0]
        ky = 2 * math.pi * mode.n / gen.periods[1]
        k = math.hypot(kx, ky)
        wave = np.exp(1j * (kx * x + ky * y))
        for i, order in enumerate(orders):
            factor = (1j * kx) ** order[0] * (1j * ky) ** order[1]
            if factor != 0:
                coeff = mode.amp * factor
                if z is None:
                    accs[i] = accs[i] + coeff * wave
                else:
                    accs[i] = accs[i] + coeff * _sinh_kernel(k, z, order[2]) * wave
    out = []
    p00 = gen.amplitude(0, 0).real
    for order, acc in zip(orders, accs):
        acc = np.real(acc)
        if z is not None and order[:2] == (0, 0):
            if order[2] == 0:
                acc = acc + p00 * np.asarray(z, dtype=float)
            elif order[2] == 1:
                acc = acc + p00
        out.append(float(acc) if np.ndim(acc) == 0 else acc)
    return out


def assert_same_partials(gen, x, y, z):
    """Plane orders up to 3 and field orders up to 3, compared bit for bit."""
    plane = [(i, j) for i in range(4) for j in range(4 - i)]
    space = [(i, j, k) for i in range(4) for j in range(4 - i) for k in range(4 - i - j)]
    for got, want in ((gen.partials(plane, x, y), reference_fourier_partials(gen, plane, x, y)),
                      (FourierField(gen).partials(space, x, y, z),
                       reference_fourier_partials(gen, space, x, y, z))):
        for g, w in zip(got, want):
            assert type(g) is type(w)
            assert np.asarray(g).tobytes() == np.asarray(w).tobytes()


def assert_same_lines(generator, window, resolution):
    got = null_lines(generator, window, resolution)
    assert got == reference_null_lines(generator, window, resolution)
    return got


def assert_same_newton(generator, window, resolution):
    """Refine a seed grid as one batch and each seed alone; compare per seed."""
    x0, x1, y0, y1 = window
    span = max(x1 - x0, y1 - y0)
    jet = PlanarJet(generator)
    seeds = np.array([(sx, sy) for sx in np.linspace(x0, x1, resolution)
                      for sy in np.linspace(y0, y1, resolution)])
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
def test_multipole_order_matches_recentering(p, x, y, z):
    fld = synthesize(p)
    if fld.potential.is_zero():
        return
    assert multipole_order(fld, (x, y, z)) == reference_multipole_order(fld, (x, y, z))


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


def assert_same_outcome(got, want):
    """Same error, or same type, shape and bytes of every value.

    Equal bytes mean equal values, equal signs of zero and inf and nan at
    the same positions.
    """
    if isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want)
        for g, w in zip(got, want):
            assert_same_outcome(g, w)
    elif want is OverflowError:
        assert got is want
    else:
        assert type(got) is type(want)
        assert np.shape(got) == np.shape(want)
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


def outcome(fn, *args):
    """The value of a call, or the type of the OverflowError it raised."""
    try:
        with np.errstate(all="ignore"):
            return fn(*args)
    except OverflowError:  # a Python float power out of range raises
        return OverflowError


def assert_evaluation_matches(p, x, y, z):
    """eval and partials of P and of its continuation against the loops."""
    series = odd_extend(p)
    assert_same_outcome(outcome(p.eval, x, y), outcome(reference_poly_eval, p, x, y))
    assert_same_outcome(outcome(series.eval, x, y, z),
                        outcome(reference_series_eval, series, x, y, z))
    plane = [(i, j) for i in range(4) for j in range(4 - i)]
    for engine, base, orders, coords in (
            (Partials(p), p, plane, (x, y)),
            (Partials(series), series, _GRADIENT + _HESSIAN + _THIRD, (x, y, z))):
        want = outcome(lambda: [v for _, v in reference_partials(base, orders, *coords)])
        assert_same_outcome(outcome(engine.partials, orders, *coords), want)


# each kind of point the evaluation accepts, with negative bases and signed zeros
EVAL_POINTS = {
    "1-D arrays": (np.array([-1.5, -1.0, -0.0, 0.0, 0.3, 1.25]),
                   np.array([0.7, -0.0, -1.1, 2.0, 0.0, -0.4]),
                   np.array([-0.5, 0.0, -0.0, 0.25, 0.5, -0.3])),
    "0-d arrays": (np.array(-0.7), np.array(1.3), np.array(-0.2)),
    "floats": (-0.8, 1.1, 0.3),
    "signed zeros": (-0.0, 0.0, -0.0),
    "np.float64": (np.float64(-1.3), np.float64(0.6), np.float64(-0.45)),
    "ints": (-2, 3, -1),
    # powers overflow to inf, and inf - inf or 0 * inf give nan
    "overflowing arrays": (np.array([-1e30, -1e13, 0.0, 1e13, 1e30, 1e200]),
                           np.array([1e30, -1e20, 1e200, 0.0, -1e200, 1.0]),
                           np.array([0.0, 1e100, -1e30, 1e200, 2.0, -1e13])),
    "overflowing floats": (1e200, -1e160, 1e100),
}
float_coeffs = st.floats(-100.0, 100.0, allow_nan=False, allow_infinity=False)


@settings(max_examples=60, deadline=None)
@given(polys(max_degree=24, max_terms=8, coeffs=float_coeffs), st.sampled_from(list(EVAL_POINTS)))
def test_evaluation_matches_term_by_term_loops(p, kind):
    assert_evaluation_matches(p, *EVAL_POINTS[kind])


# the reference loops take about a second per polynomial on this grid
@settings(max_examples=4, deadline=None)
@given(polys(max_degree=24, max_terms=8, coeffs=float_coeffs))
def test_grid_evaluation_matches_term_by_term_loops(p):
    axes = np.linspace(-1.0, 1.0, 16), np.linspace(-1.0, 1.0, 16), np.linspace(-0.5, 0.5, 16)
    assert_evaluation_matches(p, *np.meshgrid(*axes, indexing="ij"))


@st.composite
def hermitian_modes(draw):
    """A random Hermitian mode set: each drawn mode with its conjugate partner."""
    periods = (draw(widths), draw(widths))
    modes = [FourierMode(0, 0, complex(draw(coeffs)))]
    for _ in range(draw(st.integers(1, 4))):
        m, n = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
        amp = complex(draw(coeffs), draw(coeffs))
        if (m, n) == (0, 0):
            continue
        modes += [FourierMode(m, n, amp), FourierMode(-m, -n, amp.conjugate())]
    return FourierGen(periods, modes)


@settings(max_examples=60, deadline=None)
@given(hermitian_modes(), points, points,
       st.one_of(st.just(0.0), st.floats(-1e-5, 1e-5), points))
def test_fourier_partials_match_mode_loop(gen, x, y, z):
    assert_same_partials(gen, x, y, z)
    grid = np.linspace(-1.0, 1.0, 12).reshape(3, 4)
    assert_same_partials(gen, grid + x, grid[::-1] - y, grid * z)


# ----------------------------------------------------------------------
# pinned cases
# ----------------------------------------------------------------------

@pytest.mark.parametrize("c", [0.0, 0.2, 0.25])
def test_round_partials_match_mode_loop(c):
    gen = catalog("round", {"c": c}).compile()
    assert_same_partials(gen, 0.3, -0.7, 0.2)
    assert_same_partials(gen, 1.0, 0.0, 0.0)
    ax = np.linspace(-1.3, 1.3, 9)
    gx, gy, gz = np.meshgrid(ax, ax, 0.5 * ax, indexing="ij")
    assert_same_partials(gen, gx, gy, gz)


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


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_refine_newton_matches_two_call_loop_seeded_fourier_sum(seed):
    # sine terms give complex amplitudes, whose products numpy's array
    # multiply rounds differently from a scalar one
    rng = np.random.default_rng(seed)
    terms = [f"{rng.uniform(0.1, 1.0):.3f}*{rng.choice(['cos', 'sin'])}"
             f"({rng.integers(0, 3)}*pi*x {rng.choice(['+', '-'])} {rng.integers(0, 3)}*pi*y)"
             for _ in range(4)]
    gen = parse_fourier(" + ".join(terms) + " - 0.765*sin(pi*x)*cos(pi*y)", (2.0, 2.0))
    assert any(mode.amp.imag != 0.0 for mode in gen.modes)
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

