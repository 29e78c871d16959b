import importlib
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

from trapnet import (AnalysisError, NoTransitionError, NotALinePointError,
                     NotANodeError, PlanarJet, Poly2, X, Y, catalog, classify_node,
                     critical_points, multipole_order, null_lines, parse_fourier,
                     parse_polynomial, quadratic_part, synthesize, threshold_scan,
                     transverse_confinement)
from trapnet import analysis
from trapnet.analysis import grid_axes, validate_window

PI2 = math.pi**2


def round_gen(c):
    return catalog("round", {"c": c}).compile()


def cusp_distance(px, py):
    """Distance from a point to the parametric curve (t^2, t^3), brute force."""
    ts = np.linspace(-1.6, 1.6, 8001)
    d2 = (px - ts**2) ** 2 + (py - ts**3) ** 2
    i = int(np.argmin(d2))
    lo, hi = ts[max(i - 1, 0)], ts[min(i + 1, len(ts) - 1)]
    fine = np.linspace(lo, hi, 201)
    return float(np.sqrt(((px - fine**2) ** 2 + (py - fine**3) ** 2).min()))


# ----------------------------------------------------------------------
# null lines
# ----------------------------------------------------------------------

def test_null_lines_cusp_single_polyline_near_curve():
    lines = null_lines(catalog("cusp").compile(), (-0.5, 2.5, -3.0, 3.0), 400)
    assert len(lines) == 1
    assert not lines[0].closed
    cell_diag = math.hypot(3.0 / 399, 6.0 / 399)
    worst = max(cusp_distance(px, py) for px, py in lines[0].points)
    assert worst <= 2 * cell_diag


def test_null_lines_linear_guide_is_vertical_line():
    lines = null_lines(catalog("linear").compile(), (-1.0, 1.0, -1.0, 1.0), 101)
    assert len(lines) == 1
    xs = [px for px, _ in lines[0].points]
    assert max(abs(v) for v in xs) < 1e-12
    ys = [py for _, py in lines[0].points]
    assert ys == sorted(ys) or ys == sorted(ys, reverse=True)


def test_null_lines_round_c0_are_diagonals():
    lines = null_lines(round_gen(0.0), (-2.0, 2.0, -2.0, 2.0), 201)
    assert lines
    for pl in lines:
        for px, py in pl.points:
            ds = min(min(abs(px + py - k) for k in (-3, -1, 1, 3)),
                     min(abs(px - py - k) for k in (-3, -1, 1, 3)))
            assert ds < 5e-3


def test_null_lines_empty_when_no_zeros():
    gen = Poly2({(0, 0): 1.0, (2, 0): 1.0})  # 1 + x^2 > 0
    assert null_lines(gen, (-1, 1, -1, 1), 64) == []


def test_null_lines_resolution_validation():
    with pytest.raises(ValueError):
        null_lines(X, (-1, 1, -1, 1), 1)


def test_null_lines_take_a_whole_float_resolution():
    # grid_axes takes 16.0 as 16 samples; the edge and cell keys are ints
    gen = catalog("cusp").compile()
    window = (-0.5, 2.5, -3.0, 3.0)
    assert repr(null_lines(gen, window, 16.0)) == repr(null_lines(gen, window, 16))


def test_null_lines_refuse_values_that_are_not_finite():
    # x^64*y^64 is inf on most of this grid: its vertices used to be nan,
    # after numpy's warnings
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="P is not finite on this grid") as err:
            null_lines(parse_polynomial("x^64*y^64 - 1"), (-1e4, 1e4, -1e4, 1e4), 9)
    assert not isinstance(err.value, AnalysisError)


@pytest.mark.parametrize("expr, line", [
    ("1.5e308*x", [(0.0, -1.0), (0.0, 1.0)]),
    ("1.5e308*y", [(-1.0, 0.0), (1.0, 0.0)]),
    ("1.5e300*x", [(0.0, -1.0), (0.0, 1.0)]),
])
def test_null_lines_interpolate_across_an_overflowing_difference(expr, line):
    # P differs by more than the float range across each cell edge; the
    # vertex used to clamp to the cell corner x = -1, after numpy's warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = null_lines(parse_polynomial(expr), (-1, 1, -1, 1), 2)
    assert got == [analysis.Polyline(line, False)]


def test_null_lines_constant_generator():
    for c in (0.0, 1.0, -1.0):
        assert null_lines(Poly2({(0, 0): c}), (-1, 1, -1, 1), 8) == []


BAD_WINDOWS = [(math.nan, 1.0, -1.0, 1.0), (-1.0, 1.0, -1.0, math.nan),
               (-math.inf, 1.0, -1.0, 1.0), (-1.0, 1.0, -1.0, math.inf),
               (1.0, -1.0, -1.0, 1.0), (-1.0, 1.0, 1.0, -1.0), (-1.0, 1.0, 0.5, 0.5),
               (-1.0, 1.0, -1.0)]


@pytest.mark.parametrize("window", BAD_WINDOWS)
@pytest.mark.parametrize("extract", [
    lambda gen, window: null_lines(gen, window, 16),
    lambda gen, window: critical_points(gen, window, 4)])
def test_bad_window_is_a_plain_value_error(window, extract):
    # a ValueError but not an AnalysisError, so the CLI exits 2 rather than 4
    with pytest.raises(ValueError, match="window") as err:
        extract(catalog("cusp").compile(), window)
    assert not isinstance(err.value, AnalysisError)


def test_grid_axes_are_linspace():
    axes = grid_axes((-1, 2.0, 0.5, 0.75, -3.0, 3.0), (5, 2, 7))
    for got, want in zip(axes, (np.linspace(-1.0, 2.0, 5), np.linspace(0.5, 0.75, 2),
                                np.linspace(-3.0, 3.0, 7))):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("count", [0, 1, -1, 2.5])
def test_grid_axes_refuse_counts(count):
    with pytest.raises(ValueError, match="grid counts must be whole numbers >= 2"):
        grid_axes((0.0, 1.0, 0.0, 1.0), (4, count))


def test_grid_axes_cap_total_points():
    side = 2**11
    assert side * side == analysis.MAX_GRID_POINTS
    assert [len(a) for a in grid_axes((0, 1, 0, 1), (side, side))] == [side, side]
    with pytest.raises(ValueError, match="grid of 4196352 points exceeds the limit of 4194304"):
        grid_axes((0, 1, 0, 1), (side, side + 1))


@pytest.mark.parametrize("extract", [null_lines, critical_points])
def test_grid_past_the_cap_is_refused_before_allocating(extract):
    # 10^12 points would need terabytes: the refusal comes first
    with pytest.raises(ValueError, match="exceeds the limit") as err:
        extract(catalog("cusp").compile(), (-1.0, 1.0, -1.0, 1.0), 10**6)
    assert not isinstance(err.value, AnalysisError)


@pytest.mark.parametrize("resolution", [0, 1, 2.5])
@pytest.mark.parametrize("extract", [null_lines, critical_points])
def test_bad_resolution_is_a_plain_value_error(extract, resolution):
    with pytest.raises(ValueError, match="grid counts") as err:
        extract(catalog("cusp").compile(), (-1.0, 1.0, -1.0, 1.0), resolution)
    assert not isinstance(err.value, AnalysisError)


def test_validate_window_returns_floats():
    assert validate_window((0, 1, -2, 3.5, 0, 1), 3) == (0.0, 1.0, -2.0, 3.5, 0.0, 1.0)


@pytest.mark.parametrize("window", [
    (-1e308, 1e308, -1.0, 1.0),
    (-1.0, 1.0, -1.7976931348623157e308, 1.7976931348623157e308),
    (-1e308, 9e307, 0.0, 1.0),
])
def test_window_width_must_be_finite(window):
    with pytest.raises(ValueError, match=r"window widths hi - lo must be finite"):
        validate_window(window, 2)
    with pytest.raises(ValueError, match=r"window widths hi - lo must be finite"):
        grid_axes(window, (4, 4))


def test_widest_finite_window_is_accepted():
    # 9e307 - (-8.9e307) is just below the largest float
    window = (-8.9e307, 9e307, -1.0, 1.0)
    assert validate_window(window, 2) == window
    with np.errstate(all="raise"):
        axes = grid_axes(window, (3, 2))
    assert axes[0][[0, -1]].tolist() == [-8.9e307, 9e307]
    assert np.isfinite(axes[0]).all()


def test_null_lines_closed_loop():
    # x^2 + y^2 - 1: a circle, one closed polyline
    gen = Poly2({(2, 0): 1.0, (0, 2): 1.0, (0, 0): -1.0})
    lines = null_lines(gen, (-1.5, 1.5, -1.5, 1.5), 121)
    assert len(lines) == 1
    assert lines[0].closed
    radii = [math.hypot(px, py) for px, py in lines[0].points]
    assert max(abs(r - 1.0) for r in radii) < 5e-3


def test_null_lines_saddle_cells_use_center_sample():
    # P = x*y with the saddle strictly inside a grid cell: the ambiguous
    # cell must pair its crossings by the sign of the cell-center sample
    gen = catalog("cross").compile()
    lines = null_lines(gen, (-1.03, 0.97, -1.01, 0.99), 40)
    assert len(lines) >= 2
    for pl in lines:
        for px, py in pl.points:
            assert min(abs(px), abs(py)) < 0.06  # on one of the two axes


def test_null_lines_vertex_first_order_error_bound():
    for gen, window, res in [
        (catalog("cusp").compile(), (-0.5, 2.5, -3.0, 3.0), 200),
        (round_gen(0.2), (-2.0, 2.0, -2.0, 2.0), 150),
    ]:
        jet = PlanarJet(gen)
        x0, x1, y0, y1 = window
        diag = math.hypot((x1 - x0) / (res - 1), (y1 - y0) / (res - 1))
        for pl in null_lines(gen, window, res):
            for px, py in pl.points:
                grad = float(np.linalg.norm(jet.grad(px, py)))
                if grad * diag < 1e-3:  # skip the neighborhood of nodes
                    continue
                assert abs(jet.value(px, py)) <= grad * diag


# ----------------------------------------------------------------------
# critical points
# ----------------------------------------------------------------------

def test_critical_points_cusp_single_node_at_origin():
    pts = critical_points(catalog("cusp").compile(), (-1.0, 2.0, -2.0, 2.0), 24)
    assert len(pts) == 1
    cp = pts[0]
    assert cp.is_node
    assert math.hypot(cp.x, cp.y) < 1e-6
    assert cp.grad_norm < 1e-10


def test_critical_points_round_nodes_at_edge_midpoints():
    pts = critical_points(round_gen(0.2), (-2.0, 2.0, -2.0, 2.0), 32)
    nodes = {(round(cp.x, 6), round(cp.y, 6)) for cp in pts if cp.is_node}
    for want in [(1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.0)]:
        assert want in nodes
    # lattice extrema are critical but not on the null set
    non_nodes = {(round(cp.x, 6), round(cp.y, 6)) for cp in pts if not cp.is_node}
    assert (0.0, 0.0) in non_nodes


def test_critical_points_linear_none():
    assert critical_points(catalog("linear").compile(), (-1, 1, -1, 1), 16) == []


@pytest.mark.parametrize("name", ["cusp", "round"])
def test_critical_points_refines_all_seeds_in_one_call(monkeypatch, name):
    calls = []
    refine = analysis._refine_newton

    def counting(jet, seeds, span):
        calls.append(len(seeds))
        return refine(jet, seeds, span)

    monkeypatch.setattr(analysis, "_refine_newton", counting)
    assert critical_points(catalog(name).compile(), (-1.0, 2.0, -2.0, 2.0), 12)
    assert calls == [144]


def test_round_node_set_symmetry():
    pts = critical_points(round_gen(0.2), (-2.0, 2.0, -2.0, 2.0), 32)
    nodes = [(cp.x, cp.y) for cp in pts if cp.is_node]
    assert nodes

    def closest(p, cloud):
        return min(math.hypot(p[0] - q[0], p[1] - q[1]) for q in cloud)

    for x, y in nodes:
        assert closest((y, x), nodes) < 1e-8   # (x, y) -> (y, x)
        assert closest((-x, y), nodes) < 1e-8  # (x, y) -> (-x, y)


# ----------------------------------------------------------------------
# quadratic part and node classification
# ----------------------------------------------------------------------

def test_quadratic_part_round_node():
    for c in (0.1, 0.25, 0.4):
        value, grad, q2 = quadratic_part(round_gen(c), (1.0, 0.0))
        assert abs(value) < 1e-13
        assert np.abs(grad).max() < 1e-13
        assert q2.xx == pytest.approx(PI2 * (0.5 - 2 * c), abs=1e-10)
        assert q2.yy == pytest.approx(-PI2 * (0.5 + 2 * c), abs=1e-10)
        assert abs(q2.xy) < 1e-10


def test_quadratic_part_round_threshold():
    _, _, q2 = quadratic_part(round_gen(0.25), (1.0, 0.0))
    assert q2.xx == pytest.approx(0.0, abs=1e-12)
    assert q2.yy == pytest.approx(-PI2, abs=1e-10)


def test_quadratic_part_cusp_origin():
    value, grad, q2 = quadratic_part(catalog("cusp").compile(), (0.0, 0.0))
    assert value == 0.0
    np.testing.assert_allclose(grad, 0.0)
    assert (q2.xx, q2.xy, q2.yy) == (0.0, 0.0, 1.0)


def test_classify_node_crossing_angle():
    report = classify_node(round_gen(0.2), (1.0, 0.0))
    assert report.kind == "crossing"
    assert report.angle == pytest.approx(2.0 * math.atan(1.0 / 3.0), abs=1e-10)
    assert report.multipole_order == 3


def test_classify_node_isolated():
    assert classify_node(round_gen(0.3), (1.0, 0.0)).kind == "isolated"


def test_classify_node_degenerate_at_threshold():
    report = classify_node(round_gen(0.25), (1.0, 0.0))
    assert report.kind == "degenerate"
    assert report.angle is None


def test_classify_node_rejects_non_node():
    with pytest.raises(NotANodeError):
        classify_node(round_gen(0.2), (0.5, 0.5))
    with pytest.raises(NotANodeError):
        classify_node(catalog("linear").compile(), (0.0, 0.0))


def test_classify_cross_generator():
    report = classify_node(catalog("cross").compile(), (0.0, 0.0))
    assert report.kind == "crossing"
    assert report.angle == pytest.approx(math.pi / 2)
    assert report.multipole_order == 3


# ----------------------------------------------------------------------
# multipole order
# ----------------------------------------------------------------------

def test_multipole_round_node_is_hexapole():
    f = synthesize(round_gen(0.25))
    assert multipole_order(f, (1.0, 0.0, 0.0)) == 3


def test_multipole_linear_guide_is_quadrupole():
    f = synthesize(catalog("linear").compile())
    for y in (-1.0, 0.0, 2.5):
        assert multipole_order(f, (0.0, y, 0.0)) == 2


def test_multipole_cross_is_hexapole():
    f = synthesize(catalog("cross").compile())
    assert multipole_order(f, (0.0, 0.0, 0.0)) == 3


def test_multipole_generic_point_is_order_zero():
    f = synthesize(catalog("cusp").compile())
    assert multipole_order(f, (0.5, 0.5, 0.3)) == 0


def test_multipole_rejects_identically_zero_potential():
    for gen in (Poly2(), parse_fourier("0", (2.0, 2.0))):
        with pytest.raises(ValueError, match="identically zero"):
            multipole_order(synthesize(gen), (0.3, 0.1, 0.0))
    # the mean mode alone is not zero: phi = z has a dipole term
    assert multipole_order(synthesize(parse_fourier("1", (2.0, 2.0))), (0.3, 0.1, 0.0)) == 1


def test_multipole_order_beyond_four_reported_as_five():
    # z*x^4 - 2 z^3 x^2 + z^5/5: every term is fifth order at the origin
    from trapnet import X, odd_extend
    f = synthesize(X**4)
    assert multipole_order(f, (0.0, 0.0, 0.0)) == 5


def test_multipole_zero_field_rejected():
    from trapnet import Field, ZSeries
    with pytest.raises(ValueError):
        multipole_order(Field(ZSeries({})), (0.0, 0.0, 0.0))


# ----------------------------------------------------------------------
# transverse confinement
# ----------------------------------------------------------------------

def test_confinement_linear_guide_exact():
    gen = catalog("linear").compile()
    f = synthesize(gen)
    for y in (-1.2, 0.0, 0.7):
        lam_n, lam_z = transverse_confinement(f, gen, (0.0, y))
        assert lam_n == 2.0
        assert lam_z == 2.0


def test_confinement_cusp_point():
    gen = catalog("cusp").compile()
    f = synthesize(gen)
    lam_n, lam_z = transverse_confinement(f, gen, (1.0, 1.0))
    assert lam_n == pytest.approx(26.0, rel=1e-12)
    assert lam_z == pytest.approx(26.0, rel=1e-12)


def test_confinement_round_c0():
    gen = round_gen(0.0)
    f = synthesize(gen)
    lam_n, lam_z = transverse_confinement(f, gen, (0.5, 0.5))
    assert lam_n == pytest.approx(4 * PI2, rel=1e-12)
    assert lam_z == pytest.approx(4 * PI2, rel=1e-12)


def test_confinement_consistency_random_regular_points():
    rng = np.random.default_rng(20)
    cases = []
    lin = catalog("linear").compile()
    cases += [(lin, (0.0, float(u))) for u in rng.uniform(-2, 2, 20)]
    cusp = catalog("cusp").compile()
    cases += [(cusp, (float(t**2), float(t**3))) for t in rng.uniform(0.3, 1.3, 20)]
    r0 = round_gen(0.0)
    cases += [(r0, (float(t), float(1.0 - t))) for t in rng.uniform(0.1, 0.9, 20)]
    for gen, point in cases:
        f = synthesize(gen)
        jet = PlanarJet(gen)
        want = 2.0 * float(jet.grad(*point) @ jet.grad(*point))
        lam_n, lam_z = transverse_confinement(f, gen, point)
        assert lam_n == pytest.approx(want, rel=1e-6)
        assert lam_z == pytest.approx(want, rel=1e-6)


def test_confinement_rejects_node_and_off_line_points():
    gen = round_gen(0.2)
    f = synthesize(gen)
    with pytest.raises(NotALinePointError):
        transverse_confinement(f, gen, (1.0, 0.0))  # node
    with pytest.raises(NotALinePointError):
        transverse_confinement(f, gen, (0.3, 0.1))  # off the null set


# ----------------------------------------------------------------------
# threshold scan
# ----------------------------------------------------------------------

def test_threshold_scan_positive_range():
    t = threshold_scan(round_gen, (1.0, 0.0), (0.0, 0.5))
    assert t == pytest.approx(0.25, abs=1e-6)


def test_threshold_scan_negative_range():
    t = threshold_scan(round_gen, (1.0, 0.0), (-0.5, 0.0))
    assert t == pytest.approx(-0.25, abs=1e-6)


def test_threshold_scan_no_transition():
    with pytest.raises(NoTransitionError):
        threshold_scan(round_gen, (1.0, 0.0), (0.0, 0.2))


def test_threshold_scan_has_no_step_cap():
    # scipy's bisect stopped after 100 halvings with a RuntimeError here
    t = threshold_scan(round_gen, (1.0, 0.0), (0.0, 1e30))
    assert abs(t - 0.25) <= analysis.THRESHOLD_XTOL
    assert abs(threshold_scan(round_gen, (1.0, 0.0), (1e300, 0.0)) - 0.25) <= 2e-6


def test_threshold_scan_refuses_a_nan_pivot():
    def family(c):  # the cross term is nan above c = 1, so the hi end is nan
        return X**2 - c * Y**2 + (math.nan if c > 1.0 else 0.0) * X * Y
    assert threshold_scan(family, (0.0, 0.0), (-1.0, 1.0)) == 0.0
    with pytest.raises(ValueError, match="quadratic form is nan"):
        threshold_scan(family, (0.0, 0.0), (-1.0, 2.0))
    with pytest.raises(ValueError, match="quadratic form is nan"):
        threshold_scan(family, (0.0, 0.0), (2.0, -1.0))
    # eigvalsh reads a nan on the diagonal as eigenvalues 0 and -0, a root
    for diagonal in (lambda c: (math.nan if c > 1.0 else 1.0) * X**2 - c * Y**2,
                     lambda c: X**2 - (math.nan if c > 1.0 else c) * Y**2):
        assert threshold_scan(diagonal, (0.0, 0.0), (-1.0, 1.0)) == 0.0
        with pytest.raises(ValueError, match="quadratic form is nan"):
            threshold_scan(diagonal, (0.0, 0.0), (-1.0, 2.0))


def test_threshold_scan_refuses_an_infinite_range():
    def family(c):
        return X**2 - c * Y**2
    with pytest.raises(ValueError, match="is not finite"):
        threshold_scan(family, (0.0, 0.0), (-1e308, 1e308))


@pytest.mark.parametrize("point", [(math.nan, 0.0), (0.0, math.inf)])
def test_non_finite_points_are_refused(point):
    gen = catalog("cusp").compile()
    for call in (lambda: quadratic_part(gen, point), lambda: classify_node(gen, point),
                 lambda: transverse_confinement(synthesize(gen), gen, point)):
        with pytest.raises(ValueError, match="is not finite") as info:
            call()
        assert not isinstance(info.value, AnalysisError)


def test_overflowing_point_is_not_a_line_point():
    # x^3 overflows to inf at 1e200
    gen = catalog("cusp").compile()
    with pytest.raises(NotALinePointError, match=r"\|P\|=inf"):
        transverse_confinement(synthesize(gen), gen, (1e200, 1e133))


def test_an_overflowing_point_raises_no_numpy_warning():
    # x^3 overflows at 1e200, so P is -inf there and the point is refused
    gen = catalog("cusp").compile()
    point = (1e200, 1e133)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        value, grad, _ = quadratic_part(gen, point)
        with pytest.raises(NotANodeError, match=r"\|P\|=inf"):
            classify_node(gen, point)
        with pytest.raises(NotALinePointError, match=r"\|P\|=inf"):
            transverse_confinement(synthesize(gen), gen, point)
    assert value == -math.inf and grad.tolist() == [-math.inf, 2e133]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_nan_plane_data_is_neither_node_nor_line_point():
    # pi*x overflows at 1e308, so P and its derivatives are nan there
    gen = catalog("round").compile()
    with pytest.raises(NotANodeError):
        classify_node(gen, (1e308, 1e308))
    with pytest.raises(NotALinePointError, match=r"\|P\|=nan"):
        transverse_confinement(synthesize(gen), gen, (1e308, 1e308))


@pytest.mark.parametrize("seed", range(1, 9))
def test_node_reports_and_critical_points_share_the_gradient(monkeypatch, seed):
    # the benchmark's network-map cusp jobs: classify_node's gradient and the
    # critical point's come from the same partials at the same point
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    workloads = importlib.import_module("workloads")
    jobs = [job for job in workloads.build("network-map", seed) if ":cusp-" in job.name]
    assert len(jobs) == 3
    for job in jobs:
        _, cps, reports = job.run()
        nodes = [cp for cp in cps if cp.is_node]
        assert len(reports) == len(nodes) > 0
        for cp, report in zip(nodes, reports):
            assert float(np.linalg.norm(report.gradient)) == cp.grad_norm, job.name
