"""Grids evaluated on open axes give the bits of a dense grid.

``trapnet sample`` and ``null_lines`` evaluate on ``np.meshgrid(...,
sparse=True)`` axes and broadcast the result.  Every operation is
elementwise, so each grid point must see the same operations in the same
order as on a dense grid: equal ``tobytes()``, signs of zero and
inf/nan positions included.
"""

import numpy as np
import pytest

from trapnet import (PlanarJet, catalog, catalog_names, null_lines, parse_fourier,
                     parse_polynomial, synthesize)
from trapnet.analysis import grid_axes

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
