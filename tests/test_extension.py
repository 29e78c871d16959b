import collections
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import polys, random_poly
from trapnet import (Field, PlanarJet, Poly2, TrapParams, X, Y, ZSeries, catalog,
                     cauchy_extend, even_extend, odd_extend, odd_extend_fourier,
                     parse_fourier, parse_polynomial, sample_points, synthesize)
from trapnet.extension import _GRADIENT, _sinh_kernel

CUSP = Y**2 - X**3


def test_odd_extend_cusp_two_layers():
    s = odd_extend(CUSP)
    assert sorted(s.layers) == [1, 3]
    assert s.layer(1) == CUSP
    assert s.layer(3) == 6.0 * X - 2.0
    # closed form z*(y^2 - x^3) + z^3*(x - 1/3)
    for x, y, z in [(0.4, -1.1, 0.8), (2.0, 1.0, -0.5)]:
        want = z * (y**2 - x**3) + z**3 * (x - 1.0 / 3.0)
        assert s.eval(x, y, z) == pytest.approx(want, rel=1e-13)


def test_odd_extend_linear_guide():
    s = odd_extend(X)
    assert sorted(s.layers) == [1]
    assert s.layer(1) == X


def test_odd_extend_quartic_alternating_signs():
    s = odd_extend(X**4)
    assert sorted(s.layers) == [1, 3, 5]
    assert s.layer(1) == X**4
    assert s.layer(3) == -12.0 * X**2
    assert s.layer(5) == Poly2.const(24.0)


def test_even_extend_harmonic_datum_truncates():
    s = even_extend(X**2 - Y**2)
    assert sorted(s.layers) == [0]


def test_even_extend_x_squared():
    s = even_extend(X**2)
    assert sorted(s.layers) == [0, 2]
    assert s.layer(2) == Poly2.const(-2.0)
    # value form x^2 - z^2
    assert s.eval(1.5, 9.9, 0.5) == pytest.approx(1.5**2 - 0.5**2)


def test_even_extend_constant():
    assert sorted(even_extend(Poly2.const(1.0)).layers) == [0]


def test_cauchy_extend_reduces_to_odd():
    assert cauchy_extend(Poly2(), CUSP) == odd_extend(CUSP)


def test_cauchy_extend_union_of_layers():
    s = cauchy_extend(X**2, X)
    assert s.layer(0) == X**2
    assert s.layer(1) == X
    assert s.layer(2) == Poly2.const(-2.0)
    assert sorted(s.layers) == [0, 1, 2]


def test_cauchy_extend_zero():
    assert cauchy_extend(Poly2(), Poly2()).is_zero()


def test_recursion_identity_random_polynomials():
    rng = np.random.default_rng(11)
    for _ in range(10):
        p = random_poly(rng, max_degree=8)
        s = odd_extend(p)
        for n in s.layers:
            residual = s.layer(n + 2) + s.layer(n).laplacian()
            assert residual.allclose(Poly2(), tol=1e-12)


def test_truncation_bound():
    rng = np.random.default_rng(5)
    for _ in range(10):
        p = random_poly(rng, max_degree=10)
        assert len(odd_extend(p).layers) <= p.degree // 2 + 1


def test_symbolic_harmonicity():
    rng = np.random.default_rng(17)
    for _ in range(10):
        s = odd_extend(random_poly(rng, max_degree=9))
        assert s.laplacian3().allclose(ZSeries({}), tol=1e-12)
    assert even_extend(X**4).laplacian3().allclose(ZSeries({}), tol=1e-12)


def test_boundary_structure():
    rng = np.random.default_rng(23)
    p = random_poly(rng)
    s = odd_extend(p)
    assert 0 not in s.layers
    assert s.layer(1) == p
    for x, y in rng.uniform(-2, 2, size=(20, 2)):
        assert s.eval(x, y, 0.0) == 0.0


def test_antisymmetry_numeric():
    rng = np.random.default_rng(29)
    s = odd_extend(random_poly(rng, max_degree=8))
    for x, y, z in rng.uniform(-2, 2, size=(30, 3)):
        a, b = s.eval(x, y, z), s.eval(x, y, -z)
        assert abs(a + b) <= 1e-12 * max(1.0, abs(a))


def test_extension_linearity_layerwise():
    rng = np.random.default_rng(31)
    p, q = random_poly(rng), random_poly(rng)
    a, b = 1.7, -0.4
    combined = odd_extend(a * p + b * q)
    recombined = a * odd_extend(p) + b * odd_extend(q)
    assert combined.allclose(recombined, tol=1e-12)


# ----------------------------------------------------------------------
# periodic continuation
# ----------------------------------------------------------------------

def test_fourier_constant_gives_linear_field():
    f = odd_extend_fourier(parse_fourier("1", (2.0, 2.0)))
    assert f.p00 == 1.0
    assert [(mode.m, mode.n) for mode in f.gen.modes] == [(0, 0)]
    for z in (-1.3, 0.0, 2.4):
        assert f.partials(((0, 0, 0),), 0.7, 0.1, z)[0] == pytest.approx(z)


def test_fourier_single_cosine_sinh_kernel():
    f = odd_extend_fourier(parse_fourier("cos(pi*x)", (2.0, 2.0)))
    for x, z in [(0.2, 0.5), (0.9, -1.2), (0.0, 2.0)]:
        want = math.sinh(math.pi * z) / math.pi * math.cos(math.pi * x)
        assert f.partials(((0, 0, 0),), x, 3.3, z)[0] == pytest.approx(want, rel=1e-13)


def test_fourier_round_slope_vanishes_at_node():
    gen = catalog("round", {"c": 0.25}).compile()
    f = odd_extend_fourier(gen)
    assert f.gen is gen
    assert len(gen.modes) == 13  # 6 Hermitian cosine pairs and (0, 0), which is p00
    assert f.p00 == pytest.approx(-0.75)
    assert f.partials(((0, 0, 1),), 1.0, 0.0, 0.0)[0] == pytest.approx(0.0, abs=1e-13)
    # z-slope on the plane reproduces the generator everywhere
    rng = np.random.default_rng(13)
    for x, y in rng.uniform(-2, 2, size=(25, 2)):
        assert f.partials(((0, 0, 1),), x, y, 0.0)[0] == pytest.approx(gen.eval(x, y),
                                                                       abs=1e-12)
        assert f.partials(((0, 0, 0),), x, y, 0.0)[0] == 0.0


def test_sinh_kernel_small_z_branch():
    k = 2.0 * math.pi
    # series and libm branches agree across the switch at |kz| = 1e-4
    for z in (1e-5 / k, 0.99e-4 / k, 1.01e-4 / k, 0.3):
        assert float(_sinh_kernel(k, z, 0)) == pytest.approx(math.sinh(k * z) / k, rel=1e-14)
    assert float(_sinh_kernel(k, 0.0, 0)) == 0.0
    # derivative orders cycle through cosh and sinh
    assert float(_sinh_kernel(k, 0.4, 1)) == pytest.approx(math.cosh(0.4 * k))
    assert float(_sinh_kernel(k, 0.4, 2)) == pytest.approx(k * math.sinh(0.4 * k))
    assert float(_sinh_kernel(k, 0.4, 3)) == pytest.approx(k**2 * math.cosh(0.4 * k))


# ----------------------------------------------------------------------
# field interface
# ----------------------------------------------------------------------

BOX2 = (-2.0, 2.0, -2.0, 2.0, -2.0, 2.0)


def test_boundary_cusp_analytic():
    f = synthesize(CUSP)
    for x, y in sample_points(BOX2, 100, seed=2)[:, :2]:
        assert f.value(x, y, 0.0) == 0.0
        assert abs(f.derivative(0, 0, 1, x, y, 0.0) - CUSP.eval(x, y)) < 1e-12


def test_boundary_round_against_mode_sum():
    gen = catalog("round", {"c": 0.25}).compile()
    f = synthesize(gen)
    # the analytic slope at z=0 is the mode sum itself
    for x, y in sample_points(BOX2, 100, seed=2)[:, :2]:
        assert abs(f.value(x, y, 0.0)) < 1e-13
        assert abs(f.derivative(0, 0, 1, x, y, 0.0) - gen.eval(x, y)) < 1e-12


def test_gradient_linear_guide_null_line():
    f = synthesize(X)
    np.testing.assert_allclose(f.gradient(0.0, 0.0, 0.0), 0.0)
    for y in (-2.0, 0.3, 5.0):
        np.testing.assert_allclose(f.gradient(0.0, y, 0.0), 0.0)


def test_gradient_cusp_vanishes_on_parametric_curve():
    f = synthesize(CUSP)
    t = 1.3
    g = f.gradient(t**2, t**3, 0.0)
    assert np.abs(g).max() < 1e-12


def test_fourier_laplacian_trace_vanishes():
    f = synthesize(catalog("round", {"c": 0.25}).compile())
    h = f.hessian(0.3, 0.7, 0.2)
    scale = np.abs(h).max()
    assert abs(np.trace(h)) < 1e-10 * scale


def test_fourier_laplacian_thousand_random_points():
    f = synthesize(catalog("round", {"c": 0.25}).compile())
    rng = np.random.default_rng(101)
    x, y, z = rng.uniform(-2, 2, size=(3, 1000))
    second = np.stack([f.derivative(2, 0, 0, x, y, z),
                       f.derivative(0, 2, 0, x, y, z),
                       f.derivative(0, 0, 2, x, y, z)])
    residual = np.abs(second.sum(axis=0))
    scale = np.abs(second).max(axis=0)
    assert (residual <= 1e-10 * scale).all()


def test_series_laplacian_trace_vanishes():
    f = synthesize(CUSP)
    h = f.hessian(0.7, -0.4, 1.1)
    assert abs(np.trace(h)) < 1e-12 * max(1.0, np.abs(h).max())


def test_third_tensor_symmetry():
    f = synthesize(catalog("round", {"c": 0.2}).compile())
    t = f.third(0.3, -0.2, 0.5)
    for perm in ((0, 2, 1), (1, 0, 2), (2, 1, 0)):
        np.testing.assert_allclose(t, np.transpose(t, perm))


def literal_tensors(f, x, y, z):
    """Hessian, third derivative and pseudopotential Hessian, entry by entry."""
    def d(*axes):
        return f.derivative(axes.count(0), axes.count(1), axes.count(2), x, y, z)

    xx, xy, xz, yy, yz, zz = d(0, 0), d(0, 1), d(0, 2), d(1, 1), d(1, 2), d(2, 2)
    h = np.array([[xx, xy, xz], [xy, yy, yz], [xz, yz, zz]])
    t = np.array([[[d(a, b, c) for c in range(3)] for b in range(3)] for a in range(3)])
    g = np.array([d(0), d(1), d(2)])
    a = 2.0 * f.kappa * (h @ h + np.tensordot(t, g, axes=([2], [0])))
    upper = np.array([[a[0, 0], a[0, 1], a[0, 2]],
                      [a[0, 1], a[1, 1], a[1, 2]],
                      [a[0, 2], a[1, 2], a[2, 2]]])
    return h, t, upper


def assert_symmetric_tensors(f, x, y, z):
    h, t, upper = literal_tensors(f, x, y, z)
    got = (f.hessian(x, y, z), f.third(x, y, z), f.pseudopotential_hessian(x, y, z))
    for tensor, want in zip(got, (h, t, upper)):
        assert isinstance(tensor, np.ndarray) and tensor.shape == want.shape
        assert np.array_equal(tensor, want)
        for perm in itertools.permutations(range(tensor.ndim)):
            assert np.array_equal(tensor, np.transpose(tensor, perm))


@pytest.mark.parametrize("gen", [CUSP, catalog("round", {"c": 0.25}).compile(),
                                 catalog("round", {"c": 0.1}).compile()])
def test_symmetric_tensors_match_literal_layout(gen):
    f = synthesize(gen, TrapParams(charge=2.0, mass=3.0, omega=0.7))
    for x, y, z in sample_points(BOX2, 20, seed=5):
        assert_symmetric_tensors(f, x, y, z)


@settings(max_examples=60, deadline=None)
@given(polys(max_degree=8), st.tuples(*[st.floats(-1.5, 1.5)] * 3))
def test_symmetric_tensors_match_literal_layout_polynomials(p, point):
    assert_symmetric_tensors(synthesize(p), *point)


def test_pseudopotential_linear_guide_closed_form():
    f = synthesize(X)
    rng = np.random.default_rng(4)
    for x, y, z in rng.uniform(-2, 2, size=(20, 3)):
        assert f.pseudopotential(x, y, z) == pytest.approx(x**2 + z**2, rel=1e-14)
    lam = np.linalg.eigvalsh(f.pseudopotential_hessian(0.4, 1.0, -0.2))
    np.testing.assert_allclose(lam, [0.0, 2.0, 2.0], atol=1e-12)


def test_pseudopotential_vanishes_on_null_set():
    f = synthesize(CUSP)
    for t in (0.5, 1.0, 1.4):
        assert f.pseudopotential(t**2, t**3, 0.0) == pytest.approx(0.0, abs=1e-24)
        np.testing.assert_allclose(f.pseudopotential_gradient(t**2, t**3, 0.0), 0.0,
                                   atol=1e-12)


def test_round_node_has_no_first_order_confinement():
    f = synthesize(catalog("round", {"c": 0.25}).compile())
    assert f.pseudopotential(1.0, 0.0, 0.0) == pytest.approx(0.0, abs=1e-20)
    np.testing.assert_allclose(f.pseudopotential_gradient(1.0, 0.0, 0.0), 0.0, atol=1e-15)
    assert np.abs(f.pseudopotential_hessian(1.0, 0.0, 0.0)).max() < 1e-9


def test_trap_params():
    assert TrapParams().kappa == 1.0
    p = TrapParams(charge=2.0, mass=4.0, omega=0.5)
    assert p.kappa == pytest.approx(2.0**2 / (4 * 4.0 * 0.25))
    with pytest.raises(ValueError):
        TrapParams(charge=1.0, mass=None, omega=None)
    with pytest.raises(ValueError):
        TrapParams(charge=1.0, mass=-1.0, omega=1.0)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="must be finite"):
            TrapParams(charge=bad, mass=1.0, omega=1.0)
        with pytest.raises(ValueError, match="must be finite"):
            TrapParams(charge=1.0, mass=1.0, omega=bad)
    # charge^2 overflows, mass*omega^2 underflows, and kappa underflows to 0
    for charge, mass, omega in ((1e200, 1.0, 1.0), (1.0, 1e-300, 1e-200), (1.0, 1e300, 1e10)):
        with pytest.raises(ValueError, match="out of float range"):
            TrapParams(charge=charge, mass=mass, omega=omega)
    assert TrapParams(charge=0.0, mass=1.0, omega=1.0).kappa == 0.0
    f = synthesize(X, TrapParams(charge=3.0, mass=1.0, omega=1.5))
    kappa = 9.0 / 9.0
    assert f.pseudopotential(1.0, 0.0, 0.0) == pytest.approx(kappa * 1.0)


def test_field_rejects_unknown_potential():
    with pytest.raises(TypeError):
        Field(object())
    with pytest.raises(TypeError):
        synthesize(object())



@pytest.mark.parametrize("name", ["cusp", "round"])
@pytest.mark.parametrize("bad", [-1, -2, 0.5])
def test_bad_derivative_count_is_refused(name, bad):
    # -1 used to return the value on cusp and to divide by zero on round
    gen = catalog(name).compile()
    fld, jet = synthesize(gen), PlanarJet(gen)
    for call in (lambda: fld.derivative(bad, 0, 0, 0.3, 0.4, 0.5),
                 lambda: fld.derivative(0, 1, bad, 0.3, 0.4, 0.5),
                 lambda: jet.deriv(0, bad, 0.3, 0.4)):
        with pytest.raises(ValueError, match="non-negative integers"):
            call()


@pytest.mark.parametrize("method", ["hessian", "third", "pseudopotential_gradient",
                                    "pseudopotential_hessian"])
def test_point_only_methods_refuse_arrays(method):
    fld = synthesize(catalog("round").compile())
    xs = np.array([0.1, 0.2, 0.3])
    for coords in ((xs, xs, xs), (0.1, 0.2, xs), ([0.1, 0.2], 0.2, 0.3)):
        with pytest.raises(ValueError, match=f"Field.{method} takes one point"):
            getattr(fld, method)(*coords)
    # 0-d arrays and numpy scalars are points
    assert np.shape(getattr(fld, method)(np.array(0.1), np.float64(0.2), 0.3))[0] == 3


class CountedPowers(np.ndarray):
    """Coordinate array that counts each ``base ** n`` taken of it."""

    def __pow__(self, n):
        self.powers[n] += 1
        return np.asarray(self) ** n


def test_pseudopotential_takes_each_power_of_x_and_y_once():
    # degree 24: the continuation has 13 layers, all on the same x^i y^j
    fld = synthesize(parse_polynomial("(0.7*x^2 + 1.1*x*y + 0.9*y^2 + 1)^12"))
    axes = np.linspace(-1.0, 1.0, 6), np.linspace(-1.0, 1.0, 5), np.linspace(-0.5, 0.5, 4)
    plain = np.meshgrid(*axes, indexing="ij")
    coords = [c.view(CountedPowers) for c in plain]
    for c in coords:
        c.powers = collections.Counter()
    upp = fld.pseudopotential(*coords)
    assert type(upp) is np.ndarray
    assert upp.tobytes() == fld.pseudopotential(*plain).tobytes()
    x, y, z = coords
    for c in (x, y):
        assert sorted(c.powers) == list(range(25))
        assert max(c.powers.values()) == 1
    # each of the three gradient orders weights its layers by z**n / n!
    assert sorted(z.powers) == list(range(25))
    assert max(z.powers.values()) <= 3


@pytest.mark.parametrize("gen", [parse_polynomial("0"), parse_fourier("0", (2.0, 2.0))],
                         ids=["polynomial", "fourier"])
def test_zero_field_values_have_the_points_shape(gen):
    # every derivative of the zero field vanishes identically, a scalar 0.0
    fld = synthesize(gen)
    xs = np.linspace(-1.0, 1.0, 5)
    assert fld.value(0.1, 0.2, 0.3) == 0.0 and np.ndim(fld.value(0.1, 0.2, 0.3)) == 0
    np.testing.assert_array_equal(fld.gradient(0.1, 0.2, 0.3), np.zeros(3), strict=True)
    assert fld.pseudopotential(0.1, 0.2, 0.3) == 0.0
    np.testing.assert_array_equal(fld.value(xs, xs, xs), np.zeros(5), strict=True)
    np.testing.assert_array_equal(fld.gradient(xs, xs, xs), np.zeros((3, 5)), strict=True)
    np.testing.assert_array_equal(fld.pseudopotential(xs, xs, xs), np.zeros(5), strict=True)
    open_axes = np.meshgrid(xs, xs[:4], xs[:3], indexing="ij", sparse=True)
    np.testing.assert_array_equal(fld.value(*open_axes), np.zeros((5, 4, 3)), strict=True)
    np.testing.assert_array_equal(fld.gradient(*open_axes), np.zeros((3, 5, 4, 3)), strict=True)
    np.testing.assert_array_equal(fld.pseudopotential(*open_axes), np.zeros((5, 4, 3)),
                                  strict=True)
    np.testing.assert_array_equal(fld.partials(_GRADIENT, xs, xs, xs), np.zeros((3, 5)),
                                  strict=True)
    np.testing.assert_array_equal(PlanarJet(gen).value(xs, xs), np.zeros(5), strict=True)


def test_scalar_partials_take_each_power_of_x_and_y_once():
    # a point goes to the engine as 0-d arrays, so a 0-d CountedPowers is a point
    fld = synthesize(parse_polynomial("(0.7*x^2 + 1.1*x*y + 0.9*y^2 + 1)^4"))
    orders = [(i, j, k) for i in range(3) for j in range(3) for k in range(2)]
    x, y = (np.array(v).view(CountedPowers) for v in (0.3, -0.6))
    for c in (x, y):
        c.powers = collections.Counter()
    values = fld.partials(orders, x, y, 0.2)
    assert all(type(v) is float for v in values)
    assert values == fld.partials(orders, 0.3, -0.6, 0.2)
    for c in (x, y):
        assert sorted(c.powers) == list(range(9))
        assert max(c.powers.values()) == 1
