"""Grids evaluated on open axes give the bits of a dense grid.

``trapnet sample`` and ``null_lines`` evaluate on ``np.meshgrid(...,
sparse=True)`` axes, and every ``Field`` and ``PlanarJet`` method cuts a
dense array coordinate to its open axes before it evaluates.  Every
operation is elementwise, so each grid point must see the same operations
in the same order as on a dense grid: equal ``tobytes()``, signs of zero and
inf/nan positions included.  That rests on numpy's ufuncs giving an element
the same bits at any array length, offset and stride, which
``test_ufuncs_do_not_depend_on_length_or_stride`` pins.
"""

import collections

import numpy as np
import pytest

from test_extension import CountedPowers
from trapnet import (PlanarJet, catalog, catalog_names, null_lines, odd_extend, parse_fourier,
                     parse_polynomial, synthesize)
from trapnet.algebra import Partials
from trapnet.analysis import grid_axes
from trapnet.extension import _GRADIENT, _HESSIAN, _open

GENERATORS = catalog_names()

WINDOWS_3D = [
    ((-1.0, -0.0, -0.0, 1.0, -0.5, -0.0), (9, 8, 7)),
    ((-1.5, 1.5, -1.5, 1.5, 0.0, 1.0), (11, 10, 6)),
    ((-1.0, 1.0, -1.0, 1.0, 100.0, 260.0), (5, 4, 6)),  # round overflows to inf and nan
]
WINDOWS_2D = [
    ((-0.0, 1.0, -1.0, -0.0), (9, 8)),
    ((-1.5, 1.5, -1.5, 1.5), (12, 11)),
    ((-1e120, 1e120, -1e160, 1e160), (7, 7)),  # polynomials overflow to inf and nan
]


def _grids(window, counts):
    """The dense grid and the open axes of a window, z = 0 on a 2-D window."""
    axes = grid_axes(window, counts)
    grids = []
    for sparse in (False, True):
        coords = np.meshgrid(*axes, indexing="ij", sparse=sparse)
        z = coords[2] if len(axes) == 3 else np.zeros_like(coords[0])
        grids.append((coords[0], coords[1], z))
    return grids


def _bits(data, shape) -> bytes:
    return np.broadcast_to(np.asarray(data, dtype=float), shape).tobytes()


def _quantities(fld):
    return {
        "value": fld.value,
        "gradient": fld.gradient,
        "pseudopotential": fld.pseudopotential,
        "grad_norm": lambda x, y, z: np.sqrt(sum(c ** 2 for c in fld.gradient(x, y, z))),
    }


@pytest.mark.parametrize("window, counts", WINDOWS_3D + WINDOWS_2D)
@pytest.mark.parametrize("name", GENERATORS)
def test_field_quantities_on_open_axes_match_the_dense_grid(name, window, counts):
    fld = synthesize(catalog(name).compile())
    dense, open_ = _grids(window, counts)
    with np.errstate(all="ignore"):
        for quantity, evaluate in _quantities(fld).items():
            want, got = evaluate(*dense), evaluate(*open_)
            shape = np.shape(want) if quantity == "gradient" else tuple(counts)
            assert _bits(got, shape) == _bits(want, shape), quantity


@pytest.mark.parametrize("window, counts", WINDOWS_2D)
@pytest.mark.parametrize("name", GENERATORS)
def test_planar_value_on_open_axes_matches_the_dense_grid(name, window, counts):
    jet = PlanarJet(catalog(name).compile())
    (dx, dy, _), (ox, oy, _) = _grids(window, counts)
    with np.errstate(all="ignore"):
        assert _bits(jet.value(ox, oy), counts) == _bits(jet.value(dx, dy), counts)


AXIAL_SUM = parse_fourier("cos(pi*x) + cos(pi*y)", (2.0, 2.0))


@pytest.mark.parametrize("window, counts", WINDOWS_2D)
@pytest.mark.parametrize("name", [*GENERATORS, "cos(pi*x) + cos(pi*y)"])
def test_planar_gradient_on_open_axes_matches_the_dense_grid(name, window, counts):
    # the axial sum's partials are (n, 1) and (1, m) on open axes
    jet = PlanarJet(AXIAL_SUM if name == "cos(pi*x) + cos(pi*y)" else catalog(name).compile())
    (dx, dy, _), (ox, oy, _) = _grids(window, counts)
    with np.errstate(all="ignore"):
        got, want = jet.grad(ox, oy), jet.grad(dx, dy)
    assert got.shape == want.shape == (2, *counts)
    assert got.tobytes() == want.tobytes()


def test_planar_gradient_on_a_1d_array_has_the_points_shape():
    # d/dy of x^2 vanishes identically and comes back as a scalar 0.0
    xs = np.linspace(-1.0, 1.0, 5)
    grad = PlanarJet(parse_polynomial("x^2")).grad(xs, xs)
    assert grad.shape == (2, 5)
    assert grad.tobytes() == np.array([2.0 * xs, np.zeros(5)]).tobytes()


@pytest.mark.parametrize("point", [(0.3, -0.7), (-0.0, 0.0), (np.float64(0.4), np.float64(-0.2))])
def test_planar_gradient_at_a_point_is_the_partials(point):
    for jet in (PlanarJet(parse_polynomial("x^2")), PlanarJet(AXIAL_SUM)):
        grad = jet.grad(*point)
        assert type(grad) is np.ndarray and grad.shape == (2,)
        assert grad.tobytes() == np.array(jet.partials(((1, 0), (0, 1)), *point)).tobytes()


def test_far_windows_mix_finite_and_non_finite_values():
    """So the tests above check where inf and nan fall, not only that they do."""
    with np.errstate(all="ignore"):
        (x, y, z), _ = _grids(*WINDOWS_3D[-1])
        fld = synthesize(catalog("round").compile())
        phi, upp = fld.value(x, y, z), fld.pseudopotential(x, y, z)
        (x, y, _), _ = _grids(*WINDOWS_2D[-1])
        p = PlanarJet(catalog("cusp").compile()).value(x, y)
    assert np.isfinite(phi).any() and np.isnan(phi).any() and np.isinf(upp).any()
    assert np.isfinite(p).any() and np.isnan(p).any() and np.isinf(p).any()


@pytest.mark.parametrize("window, res", [
    ((-1.5, 1.5, -1.5, 1.5), 40),
    ((-0.0, 1.3, -1.1, -0.0), 33),
    ((-0.5, 2.5, -3.0, 3.0), 60),
])
@pytest.mark.parametrize("name", GENERATORS)
def test_null_lines_on_open_axes_match_the_dense_grid(monkeypatch, name, window, res):
    gen = catalog(name).compile()
    got = null_lines(gen, window, res)
    meshgrid = np.meshgrid
    monkeypatch.setattr(np, "meshgrid", lambda *a, **kw: meshgrid(*a, **{**kw, "sparse": False}))
    want = null_lines(gen, window, res)
    assert repr(got) == repr(want)


# ----------------------------------------------------------------------
# dense coordinates cut to their open axes inside the front ends
# ----------------------------------------------------------------------

def test_ufuncs_do_not_depend_on_length_or_stride():
    # a cut grid computes each element in arrays of another length, offset
    # and stride than the dense grid does; if this fails, the cut is unsound
    rng = np.random.default_rng(0)
    special = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 1e-300, 1e300, 1.0, 709.9]
    a = np.concatenate([rng.uniform(-4.0, 4.0, 200), rng.normal(size=60) * 300.0, special])
    ufuncs = [(f"** {n}", lambda v, n=n: v ** n) for n in range(25)]
    ufuncs += [(f.__name__, f) for f in (np.sin, np.cos, np.exp, np.sinh, np.cosh)]
    ufuncs.append(("exp(1j*)", lambda v: np.exp(1j * v)))
    with np.errstate(all="ignore"):
        for name, f in ufuncs:
            want = np.concatenate([f(a[i:i + 1]) for i in range(a.size)])
            assert f(a).tobytes() == want.tobytes(), name
            for step in (2, 3, 7):
                for start in range(step):
                    assert f(a[start::step]).tobytes() == want[start::step].tobytes(), name
            for length in range(1, 18):
                for start in range(length):
                    stop = start + (a.size - start) // length * length
                    chunks = [f(a[i:i + length]) for i in range(start, stop, length)]
                    assert np.concatenate(chunks).tobytes() == want[start:stop].tobytes(), name


# spec-sweep's templates as the benchmark renders them at seed 0
SPEC_SWEEP = [
    ("polynomial", "((((1.344 * x) + (1.258 * y)) + 0.921)^12 * (x - (0.759 * y))^6)"),
    ("fourier", "(cos(pi*(1*x)) + (1.011 * cos(pi*(0*x + 1*y))))^7"),
    ("polynomial", "(((x^2 + (0.905 * y^2)) - 1.284)^8 + (0.803 * ((x * y) - 0.977)^5))"),
    ("fourier", "((cos(pi*(1*x)) + (1.083 * sin(pi*(0*x + 1*y))))"
                " + (1.408 * cos(pi*(1*x + 1*y))))^5"),
    ("polynomial", "((((1.005 * x^2) + (0.782 * (x * y))) + (1.256 * y^2)) + 1.0)^12"),
    ("polynomial", "(((x - 1.118)^4 * (y + 0.751)^4) * ((x * y) + 1.41)^3)"),
    ("fourier", "(sin(pi*(1*x)) + (1.483 * cos(pi*(1*x - 1*y))))^6"),
    ("polynomial", "(((1.31 * x^3) - (1.402 * y^2)) + 0.81)^6"),
    ("fourier", "(((cos(pi*(1*x)) - cos(pi*(0*x + 1*y)))^4 * (1.23 + sin(pi*(1*x - 1*y)))^3)"
                " + (1.399 * cos(pi*(2*x))))"),
]
# every plane order up to 2 and one of order 3
_PLANAR_ORDERS = ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2), (1, 2))
CUT_GENERATORS = {name: catalog(name).compile() for name in GENERATORS}
CUT_GENERATORS.update({text: parse_polynomial(text) if family == "polynomial"
                       else parse_fourier(text, (2.0, 2.0)) for family, text in SPEC_SWEEP})
# axial waves: on open axes the engine's values vary along x only, not the points' shape
CUT_GENERATORS["axial"] = parse_fourier("cos(pi*x) - 0.3*sin(2*pi*x)", (2.0, 2.0))
# general complex coefficients at every order
CUT_GENERATORS["phase-shifted"] = parse_fourier("cos(pi*x + 0.3) - 0.4*sin(pi*(x + y) - 1.1)",
                                                (2.0, 2.0))


def _constant(shape, *values):
    return tuple(np.full(shape, v) for v in values)


def _meshes(*axes, order=None):
    """Dense and sparse ``np.meshgrid`` coordinates of the axes, each transposed by ``order``."""
    out = []
    for sparse in (False, True):
        coords = np.meshgrid(*map(np.asarray, axes), indexing="ij", sparse=sparse)
        out.append(tuple(coords if order is None else (c.transpose(order) for c in coords)))
    return out


def _plane(xs, ys, z):
    """Dense and sparse coordinates of a plane grid at a constant z."""
    (dx, dy), (sx, sy) = (np.meshgrid(xs, ys, indexing="ij", sparse=s) for s in (False, True))
    return (dx, dy, np.full(dx.shape, z)), (sx, sy, np.full((1, 1), z))


CUT_GRIDS = {
    "plane at constant z": _plane(np.linspace(-1.2, 1.1, 7), np.linspace(-0.9, 1.3, 6), 0.25),
    "size-1 axes": _meshes([0.4], np.linspace(-1.0, 1.0, 5), [-0.3]),
    "transposed": _meshes(np.linspace(-1.0, 0.9, 5), np.linspace(-0.8, 1.2, 4), [-0.4, 0.1, 0.35],
                          order=(2, 0, 1)),
    "signed zeros": _meshes([-0.0, 0.0, -0.0, 0.0], [0.0, -0.0, 0.5, -0.5], [-0.0, 0.0, 0.3]),
    "nan axis": _meshes(np.linspace(-1.0, 1.0, 4), [0.2, -0.6, 0.9], [np.nan] * 3),
    "first two slices equal": _meshes([0.3, 0.3, -0.7, 0.9, 0.3], [-0.2, -0.2, 0.4],
                                      [0.1, 0.1, 0.1, -0.4]),
    "constant grid": (_constant((4, 3, 5), 0.3, -0.6, 0.2), _constant((1, 1, 1), 0.3, -0.6, 0.2)),
}


def _engine_quantities(gen):
    """Front end and reference of each quantity: the reference evaluates the
    engine's partials on the coordinates as given, with no cut."""
    fld, jet = synthesize(gen), PlanarJet(gen)
    field, planar = fld._engine.partials, jet._engine.partials

    def upp(x, y, z):
        gx, gy, gz = field(_GRADIENT, x, y, z)
        return [fld.kappa * (gx * gx + gy * gy + gz * gz)]
    return {
        "value": (lambda *p: [fld.value(*p)], lambda *p: field(((0, 0, 0),), *p)),
        "derivative": (lambda *p: [fld.derivative(1, 0, 1, *p)],
                       lambda *p: field(((1, 0, 1),), *p)),
        "partials": (lambda *p: fld.partials(_GRADIENT + _HESSIAN, *p),
                     lambda *p: field(_GRADIENT + _HESSIAN, *p)),
        "gradient": (fld.gradient, lambda *p: field(_GRADIENT, *p)),
        "pseudopotential": (lambda *p: [fld.pseudopotential(*p)], upp),
        "planar value": (lambda x, y, z: [jet.value(x, y)],
                         lambda x, y, z: planar(((0, 0),), x, y)),
        "planar deriv": (lambda x, y, z: [jet.deriv(0, 1, x, y)],
                         lambda x, y, z: planar(((0, 1),), x, y)),
        "planar partials": (lambda x, y, z: jet.partials(_PLANAR_ORDERS, x, y),
                            lambda x, y, z: planar(_PLANAR_ORDERS, x, y)),
        "planar gradient": (lambda x, y, z: jet.grad(x, y),
                            lambda x, y, z: planar(((1, 0), (0, 1)), x, y)),
    }


@pytest.mark.parametrize("text", ["x^6 - 2*x^3*y^2 + y^4 - 0.25", "y^2 - x^3"])
def test_a_polynomial_point_has_the_bits_it_has_inside_an_array(text):
    # Python's float power differs from numpy's array power in the last bit
    # for a few percent of these points; a point takes numpy's
    rng = np.random.default_rng(0)
    coords = rng.uniform(-3.0, 3.0, (3, 2000))
    for quantity, (front, _) in _engine_quantities(parse_polynomial(text)).items():
        on_array = np.array(front(*coords))
        at_points = [front(*point) for point in coords.T.tolist()]
        if not quantity.endswith("gradient"):  # the gradients are arrays
            assert all(type(v) is float for values in at_points for v in values), quantity
        assert np.array(at_points).T.tobytes() == on_array.tobytes(), quantity


@pytest.mark.parametrize("grid", CUT_GRIDS)
@pytest.mark.parametrize("name", CUT_GENERATORS)
def test_front_ends_give_dense_and_sparse_grids_the_same_bits(name, grid):
    dense, sparse = CUT_GRIDS[grid]
    shape = np.broadcast_shapes(*(c.shape for c in dense))
    with np.errstate(all="ignore"):
        for quantity, (front, reference) in _engine_quantities(CUT_GENERATORS[name]).items():
            want = [_bits(v, shape) for v in reference(*dense)]
            for kind, coords in (("dense", dense), ("sparse", sparse)):
                # the planar quantities' points are (x, y)
                points = coords[:2] if quantity.startswith("planar") else coords
                points_shape = np.broadcast_shapes(*(c.shape for c in points))
                got = front(*coords)
                assert all(type(v) is np.ndarray and v.shape == points_shape for v in got), \
                    (quantity, kind)
                assert [_bits(v, shape) for v in got] == want, (quantity, kind)


def test_front_ends_pass_an_ndarray_subclass_through_uncut():
    # CountedPowers counts each power taken of it, so only an uncut
    # coordinate of the subclass is counted
    gen = parse_polynomial("(0.7*x^2 + 1.1*x*y + 0.9*y^2 + 1)^3")
    plain, _ = _meshes(np.linspace(-1.0, 1.0, 4), np.linspace(-0.5, 0.5, 3), [0.2, 0.2])
    for quantity, (front, reference) in _engine_quantities(gen).items():
        coords = [c.view(CountedPowers) for c in plain]
        for c in coords:
            c.powers = collections.Counter()
        got = front(*coords)
        assert all(np.shape(v) == (4, 3, 2) for v in got), quantity
        assert [np.asarray(v).tobytes() for v in got] == [_bits(v, (4, 3, 2))
                                                          for v in reference(*plain)]
        x, y, z = coords
        assert sorted(x.powers) == sorted(y.powers) == list(range(len(x.powers))), quantity
        assert len(x.powers) >= 6 and max(x.powers.values()) == max(y.powers.values()) == 1
        assert quantity.startswith("planar") or z.powers, quantity


def _typed_bits(values):
    return [(type(v), np.asarray(v).tobytes()) for v in values]


INTEGER_ARRAYS = [
    (np.arange(5), np.array([0, -1, 2, 0, 1]), np.arange(5) % 2),
    (np.arange(2, 7, dtype=np.uint8), np.zeros((1, 5), dtype=np.int32),
     np.array(3, dtype=np.int16)),
    (np.array([True, False, True, True, False]), np.array([[False], [True]]), np.array(True)),
]
INTEGER_POINTS = [
    (np.int64(3), np.int64(0), np.int64(1)),
    (np.uint8(4), np.int32(-1), np.int16(2)),
    (np.True_, np.False_, np.True_),
]


@pytest.mark.parametrize("gen", [parse_polynomial("x^40"), catalog("round").compile()],
                         ids=["x^40", "round"])
def test_numpy_integer_and_bool_coordinates_give_the_bits_of_floats(gen):
    # numpy's integer powers wrap around: in int64, 3**40 is -6.29e18 and 4**40 is 0
    fld = synthesize(gen)
    on_arrays = {quantity: front for quantity, (front, _) in _engine_quantities(gen).items()}
    for coords in INTEGER_ARRAYS:
        floats = [c.astype(np.float64) for c in coords]
        for quantity, front in on_arrays.items():
            assert _typed_bits(front(*coords)) == _typed_bits(front(*floats)), quantity
    at_a_point = {"hessian": fld.hessian, "third": fld.third,
                  "pseudopotential_gradient": fld.pseudopotential_gradient,
                  "pseudopotential_hessian": fld.pseudopotential_hessian}
    for point in INTEGER_POINTS:
        floats = [np.float64(c) for c in point]
        for quantity, front in {**on_arrays, **at_a_point}.items():
            assert _typed_bits(front(*point)) == _typed_bits(front(*floats)), quantity


def test_a_float32_point_gives_the_bits_of_its_float64_value():
    # both families take a point as 0-d float64 arrays; round used to sum its
    # modes in float32 arithmetic there, -0.5236068964004517 against
    # -0.5236068262441667 at c = 0.2
    for gen in (catalog("round", {"c": 0.2}).compile(), catalog("cusp").compile()):
        jet, fld = PlanarJet(gen), synthesize(gen)
        point = (np.float32(0.3), np.float32(0.7), np.float32(0.1))
        floats = [float(c) for c in point]
        for front, n in ((jet.value, 2), (jet.grad, 2), (fld.value, 3),
                         (fld.pseudopotential, 3), (fld.hessian, 3)):
            assert _typed_bits([front(*point[:n])]) == _typed_bits([front(*floats[:n])]), front


def test_the_engines_take_numpy_integer_and_bool_coordinates_as_floats():
    gen = parse_polynomial("x^40")
    series = odd_extend(gen)
    engines = {"Poly2.eval": lambda x, y, z: [gen.eval(x, y)],
               "ZSeries.eval": lambda *p: [series.eval(*p)],
               "Partials.partials": lambda *p: Partials(series).partials(_HESSIAN, *p)}
    for coords in INTEGER_ARRAYS + INTEGER_POINTS:
        floats = [c.astype(np.float64) for c in coords]
        for name, engine in engines.items():
            assert _typed_bits(engine(*coords)) == _typed_bits(engine(*floats)), name


def test_the_cut_compares_bits_and_returns_arrays():
    x, y, z = np.meshgrid([-0.0, 0.0], [0.5, 0.5, 0.5], [np.nan] * 4, indexing="ij")
    cut = [_open(c) for c in (x, y, z)]
    assert [c.shape for c in cut] == [(2, 1, 1), (1, 1, 1), (1, 1, 1)]
    assert all(type(c) is np.ndarray and c.flags.c_contiguous and c.base is None for c in cut)
    assert cut[0].tobytes() == np.array([-0.0, 0.0]).tobytes()
    assert np.isnan(cut[2]).all()
    # points, arrays with nothing to cut, subclasses and other dtypes pass as they are
    for c in (0.5, np.float64(0.5), np.asarray(0.5), np.linspace(0.0, 1.0, 5),
              x.view(CountedPowers), np.ones((3, 2), dtype=np.float32), np.zeros((3, 2), dtype=int),
              np.ones(0)):
        assert _open(c) is c
