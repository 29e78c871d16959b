"""Every front end within ``K * (eps * scale + TINY)`` of the exact value.

``exact`` gives the exact value of each quantity at a float point and its
scale, the magnitude of a running error bound, with ``K`` = 8 and ``TINY``
its term for underflow (see its docstring).  ``PlanarJet.partials``,
``Field.partials`` and ``Field.pseudopotential`` must keep that bound for
every generator and point below, up to third order: in one batch, on dense
grids and open axes, and with scalars beside an array.  Fourier generators
are checked at single points too, where ``mode_sum`` takes its one-pass sum,
and as 1-element arrays, where it takes its loop.

The generators are the catalog, spec-sweep's nine templates at seed 0 (read
from ``bench/workloads.py``), round on both sides of its threshold, a sextic,
a phase-shifted generator with general complex amplitudes, and two generators
whose waves run along one axis.  Hypothesis adds random polynomials and
random Hermitian mode sets, checked at a point and as 1-element arrays, with
subnormal coefficients and coordinates among them.

Each generator is also checked on every kind of point the front ends take:
Python floats, ints, numpy scalars and 0-d arrays, which must give Python
floats; 1-D, dense, open, transposed, strided and broadcast arrays, scalars
beside arrays, stars and Newton's seeds, which must give float arrays in the
points' broadcast shape; and signed zeros, subnormals, large phases, far z
and, for polynomials, coordinates up to 1e200.  ``extension._sinh_kernel`` is
checked on its own, inside and outside its series, and a generator whose
waves run along one axis through ``null_lines`` and ``trapnet sample``.

A value may be inf or nan only where its scale overflows the float range, or
where a polynomial forms a power of a coordinate beyond it.
"""

import importlib
import itertools
import json
import math
import random
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import exact
from conftest import polys
from trapnet import (FourierGen, FourierMode, PlanarJet, Poly2, TrapParams, catalog,
                     catalog_names, null_lines, parse_fourier, parse_polynomial, synthesize)
from trapnet import extension
from trapnet.analysis import grid_axes
from trapnet.cli import main

BENCH = Path(__file__).resolve().parents[1] / "bench"
PERIODS = (2.0, 2.0)
FLOAT_MAX = sys.float_info.max


def _spec_sweep_templates() -> dict:
    """spec-sweep's templates rendered from ``random.Random("spec-sweep:0")``."""
    sys.path.insert(0, str(BENCH))
    try:
        workloads = importlib.import_module("workloads")
    finally:
        sys.path.remove(str(BENCH))
    rng = random.Random("spec-sweep:0")
    out = {}
    for family, label, template in workloads.SPEC_TEMPLATES:
        text = workloads._render(template(rng))
        out[f"spec-sweep {label}"] = (parse_polynomial(text) if family == "polynomial"
                                      else parse_fourier(text, PERIODS))
    return out


GENERATORS = {name: catalog(name).compile() for name in catalog_names()}
GENERATORS.update({f"round c={c}": catalog("round", {"c": c}).compile() for c in (0.2, 0.37)})
GENERATORS.update(_spec_sweep_templates())
GENERATORS["sextic"] = parse_polynomial("x^6 - 2*x^3*y^2 + y^4 - 0.25")
GENERATORS["phase-shifted"] = parse_fourier("cos(pi*x + 0.3) - 0.4*sin(pi*(x + y) - 1.1)",
                                            PERIODS)
GENERATORS["axial x"] = parse_fourier("cos(pi*x) - 0.3*sin(2*pi*x)", PERIODS)
GENERATORS["axial y"] = parse_fourier("sin(pi*y)", PERIODS)
GENERATORS["axial x and y"] = parse_fourier(
    "cos(pi*x) + 0.7*sin(pi*x) + 0.3*cos(pi*y) - 1.3*sin(pi*y)", PERIODS)

ORDERS_2D = [o for o in itertools.product(range(4), repeat=2) if sum(o) <= 3]
ORDERS_3D = [o for o in itertools.product(range(4), repeat=3) if sum(o) <= 3]
GRADIENT = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
# kappa of a singly charged ion of 40 u in a 30 MHz drive
ION = TrapParams(charge=1.602176634e-19, mass=40 * 1.66053906660e-27, omega=2 * np.pi * 30e6)

# seeded points, then points on the axes and the plane, and z inside the sinh
# kernel's series (|k*z| < 1e-4) for every wavevector here but the largest
POINTS = [tuple(p) for p in np.random.default_rng(0).uniform(-1.5, 1.5, (6, 3)).tolist()]
POINTS += [(-0.0, 0.0, -0.0), (1.0, -0.0, 0.0), (0.0, 1.0, 1e-7), (-0.5, 0.5, -3e-6),
           (0.3, -0.7, 5e-6)]


def assert_within(got, want, where, overflow=False):
    """Each float of ``got`` within ``exact.K * (eps * scale + exact.TINY)`` of its
    (value, scale); with ``overflow``, each finite float."""
    got = [np.asarray(g).item() for g in got]
    assert len(got) == len(want)
    for i, (g, (value, scale)) in enumerate(zip(got, want)):
        # the float sum overflows too
        if not np.isfinite(g) and (overflow or Fraction(*exact.ratio(scale)) > FLOAT_MAX):
            continue
        err = exact.error(g, (value, scale))
        assert err <= exact.K, (where, i, g, float(Fraction(*exact.ratio(value))), err)


def _gradient(space):
    return [space[ORDERS_3D.index(o)] for o in GRADIENT]


def assert_front_ends_within(gen, x, y, z):
    """PlanarJet.partials, Field.partials and Field.pseudopotential at a point and
    as 1-element arrays, orders up to 3."""
    jet, fld = PlanarJet(gen), synthesize(gen)
    plane, space = exact.partials(gen, ORDERS_2D, x, y), exact.partials(gen, ORDERS_3D, x, y, z)
    upp = exact.pseudopotential(_gradient(space))
    for where, point in (("point", (x, y, z)), ("arrays", [np.array([c]) for c in (x, y, z)])):
        with np.errstate(over="ignore"):  # |grad phi|**2 of a short period may overflow
            got = (jet.partials(ORDERS_2D, *point[:2]), fld.partials(ORDERS_3D, *point),
                   [fld.pseudopotential(*point)])
        for values, want in zip(got, (plane, space, [upp])):
            assert_within(values, want, (where, x, y, z))


@pytest.mark.parametrize("name", GENERATORS)
def test_front_ends_at_points(name):
    gen = GENERATORS[name]
    jet, fld, ion = PlanarJet(gen), synthesize(gen), synthesize(gen, ION)
    xs, ys, zs = (np.array(c) for c in zip(*POINTS))
    batch = (jet.partials(ORDERS_2D, xs, ys), fld.partials(ORDERS_3D, xs, ys, zs),
             fld.pseudopotential(xs, ys, zs), ion.pseudopotential(xs, ys, zs))
    for k, (x, y, z) in enumerate(POINTS):
        plane, space = exact.partials(gen, ORDERS_2D, x, y), exact.partials(gen, ORDERS_3D, x, y, z)
        assert_within([v[k] for v in batch[0]], plane, ("batch", x, y))
        assert_within([v[k] for v in batch[1]], space, ("batch", x, y, z))
        assert_within([batch[2][k]], [exact.pseudopotential(_gradient(space))], ("batch", x, y, z))
        assert_within([batch[3][k]], [exact.pseudopotential(_gradient(space), ION.kappa)],
                      ("ion", x, y, z))
        # a polynomial point takes the batch's array arithmetic; a Fourier point
        # takes mode_sum's one-pass sum, and 1-element arrays its loop
        if hasattr(gen, "waves"):
            assert_front_ends_within(gen, x, y, z)


WINDOWS = [
    ((-1.0, -0.0, -0.0, 1.0, -0.5, -0.0), (3, 3, 2)),
    ((-1.5, 1.5, -1.5, 1.5, 0.0, 1.0), (4, 3, 2)),
    ((-1.0, 1.0, -1.0, 1.0, 100.0, 260.0), (2, 2, 3)),  # round's kernel overflows
]
GRID_ORDERS = ((0, 0, 0), *GRADIENT)
GRID_PLANAR = ((0, 0), (1, 0), (0, 1))


def _on_grid(jet, fld, x, y, z) -> list:
    """Value and gradient of phi, the pseudopotential and P's value and gradient."""
    with np.errstate(all="ignore"):
        return [*fld.partials(GRID_ORDERS, x, y, z), fld.pseudopotential(x, y, z),
                *jet.partials(GRID_PLANAR, x, y)]


def _exact_on_grid(gen, x, y, z) -> list:
    space = exact.partials(gen, GRID_ORDERS, x, y, z)
    return [*space, exact.pseudopotential(space[1:]), *exact.partials(gen, GRID_PLANAR, x, y)]


@pytest.mark.parametrize("window, counts", WINDOWS)
@pytest.mark.parametrize("name", GENERATORS)
def test_front_ends_on_grids(name, window, counts):
    gen = GENERATORS[name]
    jet, fld = PlanarJet(gen), synthesize(gen)
    axes = grid_axes(window, counts)
    grids = {where: [np.broadcast_to(v, counts)
                     for v in _on_grid(jet, fld, *np.meshgrid(*axes, indexing="ij", sparse=sparse))]
             for where, sparse in (("dense", False), ("open axes", True))}
    for index in itertools.product(*map(range, counts)):
        x, y, z = (float(axis[i]) for axis, i in zip(axes, index))
        want = _exact_on_grid(gen, x, y, z)
        for where, values in grids.items():
            assert_within([v[index] for v in values], want, (where, x, y, z))
    # scalars y and z beside an array of x
    for j, k in ((0, 0), (-1, -1)):
        y, z = float(axes[1][j]), float(axes[2][k])
        values = _on_grid(jet, fld, axes[0], y, z)
        for i, x in enumerate(axes[0].tolist()):
            assert_within([v[i] for v in values], _exact_on_grid(gen, x, y, z), ("row", x, y, z))


def test_far_window_holds_finite_and_overflowing_values():
    """So the grid test above checks overflow against the scale, not only finite values."""
    window, counts = WINDOWS[-1]
    grid = np.meshgrid(*grid_axes(window, counts), indexing="ij")
    with np.errstate(all="ignore"):
        values = synthesize(GENERATORS["round"]).partials(GRID_ORDERS, *grid)
    assert np.isfinite(values).any() and not np.isfinite(values).all()


# ----------------------------------------------------------------------
# every kind of point the front ends take
# ----------------------------------------------------------------------

def _point_sets() -> dict:
    """label -> (x, y, z): scalars of each type, arrays of each layout, and mixes.

    Most coordinates come from the three axes below, so that the exact values
    of one point serve many sets.
    """
    xs, ys, zs = AXES = (np.array([-1.5, -0.0, 0.3, 1.0]), np.array([-0.7, 0.0, 1.1]),
                         np.array([-0.0, 1e-7, 0.25]))
    dense, open_ = (np.meshgrid(*AXES, indexing="ij", sparse=s) for s in (False, True))
    seeds = np.meshgrid(xs[:2], ys, indexing="ij")
    star = (np.array([[0.3, -0.7, 0.25], [1.0, 1.1, 1e-7]])[:, None]
            + np.concatenate([np.zeros((1, 3)), 1e-4 * np.eye(3), -1e-4 * np.eye(3)]))
    return {
        "float": (0.3, -0.7, 0.25),
        "signed zeros": (-0.0, 0.0, -0.0),
        "signed zeros in arrays": (np.array([-0.0, 0.0, -0.0]), np.array([0.0, -0.0, -0.0]),
                                   np.array([-0.0, -0.0, 0.0])),
        "on the x axis": (1.0, -0.0, 0.0),
        "ints": (1, 0, 0),
        "numpy scalars": (np.float64(0.3), np.float64(1.1), np.float64(1e-7)),
        "0-d arrays": (np.asarray(-1.5), np.asarray(-0.7), np.asarray(0.25)),
        "1-element arrays": tuple(np.array([c]) for c in (1.0, 1.1, 0.25)),
        "1-D arrays": (xs, np.array([-0.7, 0.0, 1.1, -0.7]), np.array([-0.0, 1e-7, 0.25, 0.25])),
        "array and scalars": (xs, -0.7, 0.25),
        "scalar and arrays": (0.3, ys, zs),
        "0-d array and arrays": (np.asarray(1.0), ys, zs[::-1]),
        "column and row": (xs[:, None], ys, 0.0),
        "dense grid": tuple(dense),
        "open axes": tuple(open_),
        # as ``trapnet sample`` takes a 4-value window
        "open axes in the plane": (*open_[:2], np.zeros_like(open_[0])),
        "broadcast views": (np.broadcast_to(xs, (3, 4)), np.broadcast_to(ys[:, None], (3, 4)),
                            np.broadcast_to(zs[:, None], (3, 4))),
        "transposed grid": tuple(c.T for c in dense),
        "strided grid": tuple(c[::2, :, ::2] for c in dense),
        "Newton's seeds": (*seeds, 0.0),
        "stars": tuple(np.moveaxis(star, -1, 0)),
        # |k*z| < 1e-4, where the sinh kernel takes its series
        "near the plane": (xs, np.array([0.0, 1.1, -0.7, 1.1]),
                           np.array([3e-6, -1e-5, 5e-6, -0.0])),
        "subnormal": (np.array([5e-324, -0.0]), np.array([-5e-324, 1e-310]), 1e-310),
        "large phase": (np.array([1e5 + 0.3, -1e4]), 12345.6789, 0.25),
        "far z": (0.5, 1.0, 150.0),
        # round's kernel overflows beyond z of about 113, sinh(2*pi*z) beyond the float range
        "far z on open axes": tuple(np.meshgrid([-1.0, 0.3], [0.5], [100.0, 260.0],
                                                indexing="ij", sparse=True)),
    }


POINT_SETS = _point_sets()
# polynomials overflow to inf and nan, where a Fourier phase would need pi to
# more than 160 digits
OVERFLOWING = (np.array([1e120, -1e30, 0.0]), np.array([-1e160, 1e20, 1e200]), 1e100)
POINT_CASES = [(name, label) for name in GENERATORS for label in POINT_SETS]
POINT_CASES += [(name, "overflowing") for name, gen in GENERATORS.items()
                if not hasattr(gen, "waves")]


def _powers_overflow(gen, *coords) -> bool:
    """Whether a polynomial's evaluation forms a power of a coordinate beyond the
    float range: an inf power times a 0.0 one gives nan where the exact term is 0,
    and its value may then be inf or nan though its scale is finite."""
    if hasattr(gen, "waves"):
        return False
    degree = max((i + j for i, j in gen.terms), default=0)
    return Fraction(max(map(abs, coords))) ** degree > FLOAT_MAX


@pytest.mark.parametrize("name, label", POINT_CASES, ids=[" - ".join(c) for c in POINT_CASES])
def test_front_ends_on_point_sets(name, label):
    """Python floats at scalar points, float arrays in the points' broadcast shape
    otherwise, and each value within the bound (:func:`_powers_overflow`)."""
    gen = GENERATORS[name]
    x, y, z = OVERFLOWING if label == "overflowing" else POINT_SETS[label]
    jet, fld = PlanarJet(gen), synthesize(gen)
    with np.errstate(all="ignore"):
        got = [*jet.partials(ORDERS_2D, x, y), *fld.partials(ORDERS_3D, x, y, z),
               fld.pseudopotential(x, y, z)]
    shape = np.broadcast_shapes(*map(np.shape, (x, y, z)))
    for value in got:
        if shape:
            assert isinstance(value, np.ndarray) and value.dtype == np.float64
            assert np.broadcast_shapes(value.shape, shape) == shape
        else:
            assert type(value) is float
    got = [np.broadcast_to(v, shape) for v in got]
    coords = [c.tolist() for c in np.broadcast_arrays(*map(np.asarray, (x, y, z)), subok=False)]
    for index in np.ndindex(shape):
        px, py, pz = (float(np.asarray(c)[index]) for c in coords)
        plane, space = exact.partials(gen, ORDERS_2D, px, py), exact.partials(gen, ORDERS_3D, px, py, pz)
        values = [v[index] for v in got]
        assert_within(values[:len(plane)], plane, (px, py), _powers_overflow(gen, px, py))
        assert_within(values[len(plane):], [*space, exact.pseudopotential(_gradient(space))],
                      (px, py, pz), _powers_overflow(gen, px, py, pz))


def test_point_sets_reach_the_far_field_and_the_sinh_series():
    """So the sets above check overflow against the scale, and the kernel's series."""
    with np.errstate(all="ignore"):
        phi = synthesize(GENERATORS["round"]).value(*POINT_SETS["far z on open axes"])
    assert np.isfinite(phi).any() and not np.isfinite(phi).all()
    k = max(math.hypot(kx, ky) for kx, ky, _ in GENERATORS["round"].waves)
    assert np.all(np.abs(k * POINT_SETS["near the plane"][2]) < extension._SMALL_KZ)


# ----------------------------------------------------------------------
# the sinh kernel
# ----------------------------------------------------------------------

# |k*z| < 1e-4 at 1e-7, 3e-6 and 1e-5 for every k below, at 3e-5 for k = pi only
EDGE_ZS = np.array([-0.0, 0.0, 1e-7, -3e-6, 1e-5, 3e-5, 0.3, -0.7,
                    np.nan, np.inf, -np.inf, 300.0, -299.5])
WIDE_ZS = np.linspace(0.1, 1.5, 6)  # no |k*z| below 1e-4
KERNEL_INPUTS = [
    ("1-D with small", EDGE_ZS),
    ("1-D without small", WIDE_ZS),
    ("dense with small", np.meshgrid(WIDE_ZS[:3], WIDE_ZS[:2], EDGE_ZS, indexing="ij")[2]),
    ("dense without small", np.meshgrid(WIDE_ZS[:3], WIDE_ZS[:2], WIDE_ZS, indexing="ij")[2]),
    ("open with small", EDGE_ZS[None, None, :]),
    ("open without small", WIDE_ZS[None, None, :]),
    *((f"float {z!r}", float(z)) for z in EDGE_ZS),
    ("numpy scalar small", np.float64(2e-5)),
    ("numpy scalar", np.float64(0.4)),
    ("0-d small", np.asarray(-2e-5)),
    ("0-d", np.asarray(0.4)),
    ("0-d nan", np.asarray(np.nan)),
]
KS = [math.pi, math.pi * math.sqrt(2.0), 2.0 * math.pi, 3.0 * math.pi]


def _assert_kernel_within(got, k, z, order):
    """One kernel value: nan at nan, the sign of sinh or cosh at inf, else in the bound."""
    if math.isnan(z):
        assert math.isnan(got)
    elif math.isinf(z):
        assert got == (math.inf if order % 2 else math.copysign(math.inf, z))
    else:
        assert_within([got], [exact.sinh_kernel(k, z, order)], (k, z, order))


@pytest.mark.parametrize("label, z", KERNEL_INPUTS, ids=[s[0] for s in KERNEL_INPUTS])
@pytest.mark.parametrize("k", KS)
def test_sinh_kernel_within_the_bound(k, label, z):
    """The kernel of every order, in z's shape, at each z, and with the
    wavevectors in an array beside a scalar z, as the point pass takes them."""
    zs = np.asarray(z, dtype=float)
    for order in range(4):
        with np.errstate(all="ignore"):
            got = extension._sinh_kernel(k, z, order)
            many = extension._sinh_kernel(np.array(KS), z, order) if not zs.ndim else None
        assert np.shape(got) == zs.shape and np.asarray(got).dtype == np.float64, order
        for index in np.ndindex(zs.shape):
            _assert_kernel_within(float(np.asarray(got)[index]), k, float(zs[index]), order)
        if many is not None:
            assert many.shape == (len(KS),)
            for kk, value in zip(KS, many.tolist()):
                _assert_kernel_within(value, kk, float(zs), order)


# ----------------------------------------------------------------------
# a generator whose waves all run along one axis, through analysis and the CLI
# ----------------------------------------------------------------------

@pytest.mark.parametrize("window, res", [((-1.5, 1.5, -1.5, 1.5), 40),
                                         ((-0.0, 1.3, -1.1, -0.0), 33)])
@pytest.mark.parametrize("expr", ["cos(pi*x)", "sin(pi*y)"])
def test_axial_null_lines_lie_on_the_exact_null_set(expr, window, res):
    """cos(pi*x) vanishes at x = 1/2 + j and sin(pi*y) at y = j: one straight
    polyline across the window at each such line inside it, and at an edge where
    the float value is 0.0.  Linear interpolation puts a crossing within h**3 of
    the zero, as the second derivative vanishes there."""
    gen = parse_fourier(expr, PERIODS)
    axis = 0 if "x" in expr else 1
    lo, hi = window[2 * axis], window[2 * axis + 1]
    offset = 0.5 if axis == 0 else 0.0
    def vanishes_on_edge(v):
        return v in (lo, hi) and gen.eval(*(v if a == axis else 0.0 for a in range(2))) == 0.0

    zeros = [j + offset for j in range(math.floor(lo - offset), math.ceil(hi - offset) + 1)]
    zeros = [v for v in zeros if lo < v < hi or vanishes_on_edge(v)]
    h = (hi - lo) / (res - 1)
    lines = null_lines(gen, window, res)
    assert len(lines) == len(zeros)
    across = sorted(window[2 - 2 * axis: 4 - 2 * axis])
    for line, zero in zip(sorted(lines, key=lambda pl: pl.points[0][axis]), zeros):
        assert not line.closed
        assert all(abs(p[axis] - zero) <= h ** 3 for p in line.points), (zero, line.points[:3])
        assert sorted((line.points[0][1 - axis], line.points[-1][1 - axis])) == across


@pytest.mark.parametrize("quantity, window", [
    ("p", "-1,1,-1.5,0.5"),
    ("phi", "-1,1,-1.5,0.5,-0.5,0.5"),
    ("upp", "-1,1,-1.5,0.5,-0.5,0.5"),
    ("grad_norm", "-1,1,-1.5,0.5,-0.5,0.5"),
])
def test_axial_sample_output_within_the_bound(tmp_path, quantity, window):
    """``trapnet sample`` writes each grid point and its value, within the bound."""
    spec = tmp_path / "axial.json"
    spec.write_text(json.dumps({"kind": "fourier", "expr": "cos(pi*x)", "periods": list(PERIODS)}))
    res = "9,7" if quantity == "p" else "9,7,5"
    out = tmp_path / "out.csv"
    assert main(["sample", str(spec), "--quantity", quantity, f"--window={window}",
                 f"--res={res}", "--out", str(out)]) == 0
    head, *rows = out.read_text().splitlines()
    bounds = [float(v) for v in window.split(",")]
    counts = [int(n) for n in res.split(",")]
    points = list(itertools.product(*(a.tolist() for a in grid_axes(bounds, counts))))
    assert head.split(",")[-1] == "value" and len(rows) == len(points)
    gen = parse_fourier("cos(pi*x)", PERIODS)
    for row, point in zip(rows, points):
        *coords, value = map(float, row.split(","))
        assert coords == list(point)
        if quantity in ("p", "phi"):
            want = exact.partials(gen, [(0,) * len(point)], *point)[0]
        else:
            space = exact.partials(gen, GRADIENT, *point)
            want = (exact.pseudopotential if quantity == "upp" else exact.gradient_norm)(space)
        assert_within([value], [want], point)


# ----------------------------------------------------------------------
# random generators
# ----------------------------------------------------------------------

# small integers put exact zeros on the points far more often than floats do
coeffs = st.one_of(st.integers(-3, 3).map(float),
                   st.floats(-3.0, 3.0, allow_nan=False, allow_infinity=False))
coords = st.one_of(st.sampled_from([-1.0, -0.5, -0.0, 0.0, 0.5, 1.0]),
                   st.floats(-1.5, 1.5, allow_nan=False, allow_infinity=False))


@settings(max_examples=80, deadline=None)
@given(polys(max_degree=8, max_terms=6, coeffs=coeffs), coords, coords, coords)
@example(Poly2({(6, 0): 1.0}), 0.0, 0.0, 1e-30)  # (d phi/dz)**2 = z**12 underflows to 0.0
def test_random_polynomials(p, x, y, z):
    assert_front_ends_within(p, x, y, z)


@st.composite
def hermitian_modes(draw):
    """A random Hermitian mode set: each drawn mode with its conjugate partner."""
    widths = st.one_of(st.sampled_from([1.0, 2.0, 3.0]), st.floats(0.05, 3.0))
    periods = (draw(widths), draw(widths))
    modes = [FourierMode(0, 0, complex(draw(coeffs)))]
    for _ in range(draw(st.integers(1, 4))):
        m, n = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
        amp = complex(draw(coeffs), draw(coeffs))
        if (m, n) != (0, 0):
            modes += [FourierMode(m, n, amp), FourierMode(-m, -n, amp.conjugate())]
    return FourierGen(periods, modes)


@settings(max_examples=60, deadline=None)
@given(hermitian_modes(), coords, coords, st.one_of(coords, st.floats(-1e-5, 1e-5)))
def test_random_fourier_generators(gen, x, y, z):
    assert_front_ends_within(gen, x, y, z)
