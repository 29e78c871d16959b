import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import polys
from trapnet import ONE, Poly2, SymMat2, X, Y, ZSeries


def test_add_cancellation():
    assert (X + (-X)).is_zero()


def test_add_disjoint_terms():
    assert Y**2 + (-(X**3)) == Poly2({(0, 2): 1.0, (3, 0): -1.0})


def test_add_prunes_cancelled_term():
    assert (Y**2 - X**3) + X**3 == Y**2


def test_mul_monomials():
    assert X * Y == Poly2({(1, 1): 1.0})


def test_mul_difference_of_squares():
    assert (X + Y) * (X - Y) == X**2 - Y**2


def test_mul_identity():
    p = Y**2 - X**3
    assert p * ONE == p


def test_zero_polynomial_degree_convention():
    assert Poly2().degree == -1
    assert Poly2.const(4.0).degree == 0
    assert (X**2 * Y).degree == 3


def test_laplacian_cusp():
    # lap(y^2 - x^3) = 2 - 6x
    assert (Y**2 - X**3).laplacian() == Poly2({(0, 0): 2.0, (1, 0): -6.0})


def test_laplacian_harmonic_monomial():
    assert (X * Y).laplacian().is_zero()


def test_laplacian_quartic():
    assert (X**4).laplacian() == 12.0 * X**2


def test_diff_examples():
    p = Y**2 - X**3
    assert p.diff("x") == -3.0 * X**2
    assert p.diff("y") == 2.0 * Y
    assert Poly2.const(7.0).diff("x").is_zero()
    with pytest.raises(ValueError):
        p.diff("z")


def test_eval_on_cusp_curve():
    p = Y**2 - X**3
    assert p.eval(1.0, 1.0) == 0.0
    # parametric point t=2: (t^2, t^3) = (4, 8)
    assert p.eval(4.0, 8.0) == 0.0
    assert Poly2({(0, 0): 2.0, (1, 0): -6.0}).eval(1.0 / 3.0, 17.3) == 0.0


def test_eval_accepts_arrays():
    p = X**2 + Y
    xs = np.array([0.0, 1.0, 2.0])
    np.testing.assert_allclose(p.eval(xs, xs), xs**2 + xs)


def test_taylor_shift_examples():
    assert X.taylor_shift(1.0, 0.0) == ONE + X
    p = Y**2 - X**3
    assert p.taylor_shift(0.0, 0.0) == p
    assert (X**2).taylor_shift(1.0, 0.0) == Poly2({(0, 0): 1.0, (1, 0): 2.0, (2, 0): 1.0})


def test_exponent_validation():
    with pytest.raises(ValueError):
        Poly2({(-1, 0): 1.0})
    with pytest.raises(ValueError):
        X ** -2


def test_str_formats_cusp():
    assert str(Y**2 - X**3) == "-x^3 + y^2"
    assert str(Poly2()) == "0"


def test_zseries_eval_cusp_on_curve():
    # layers of the cusp continuation; on the curve the z-linear part drops out
    s = ZSeries({1: Y**2 - X**3, 3: 6.0 * X - 2.0})
    for z in (0.5, 1.0, 2.0):
        assert s.eval(1.0, 1.0, z) == pytest.approx(2.0 / 3.0 * z**3, rel=1e-14)


def test_zseries_eval_no_constant_layer():
    s = ZSeries({1: X, 3: Y})
    assert s.eval(3.7, -1.2, 0.0) == 0.0


def test_zseries_eval_linear():
    assert ZSeries({1: X}).eval(2.0, 5.0, 3.0) == 6.0


def test_zseries_diff_z_recovers_datum():
    assert ZSeries({1: X}).diff("z").layer(0) == X


def test_zseries_diff_x_of_cusp_layers():
    s = ZSeries({1: Y**2 - X**3, 3: 6.0 * X - 2.0})
    d = s.diff("x")
    # layer convention stores n-th z-derivatives, so layer 3 is 6 (value z^3)
    assert d.layer(1) == -3.0 * X**2
    assert d.layer(3) == Poly2.const(6.0)
    # equivalent function: z*(-3x^2) + z^3
    for x, y, z in [(0.3, -1.0, 0.7), (1.5, 2.0, -0.4)]:
        assert d.eval(x, y, z) == pytest.approx(-3 * x**2 * z + z**3, rel=1e-13)


def test_zseries_diff_y_vanishes():
    assert ZSeries({1: X}).diff("y").is_zero()


def test_zseries_z_order_validation():
    with pytest.raises(ValueError):
        ZSeries({-1: X})


def test_symmat_eigenvalues_ascending():
    m2 = SymMat2(xx=2.0, xy=0.5, yy=-1.0)
    lam = m2.eigenvalues()
    assert lam[0] <= lam[1]
    np.testing.assert_allclose(m2.as_array(), m2.as_array().T)


# ----------------------------------------------------------------------
# invariants
# ----------------------------------------------------------------------

@given(polys(max_degree=10))
def test_degree_law_for_laplacian(p):
    lap = p.laplacian()
    if not lap.is_zero():
        assert lap.degree == p.degree - 2


@given(polys(max_degree=10))
def test_mixed_partials_commute(p):
    a = p.diff("x").diff("y")
    b = p.diff("y").diff("x")
    # sequential scaling by the two exponents rounds once per step, so the
    # two orders may differ in the last bit; anything beyond that is a bug
    keys = set(a.terms) | set(b.terms)
    for k in keys:
        ca, cb = a.coeff(*k), b.coeff(*k)
        assert abs(ca - cb) <= 4 * np.finfo(float).eps * max(abs(ca), abs(cb))


@given(polys(max_degree=8, coeffs=st.floats(-1e3, 1e3, allow_nan=False)),
       polys(max_degree=8, coeffs=st.floats(-1e3, 1e3, allow_nan=False)),
       st.floats(-3, 3), st.floats(-3, 3))
@settings(max_examples=150)
def test_evaluation_homomorphism(a, b, x, y):
    prod = a * b
    got = prod.eval(x, y)
    want = a.eval(x, y) * b.eval(x, y)
    # condition the comparison on the term-magnitude sum of the product
    scale = sum(abs(c) * abs(x) ** i * abs(y) ** j for (i, j), c in prod.terms.items())
    assert abs(got - want) <= 1e-12 * max(scale, 1.0)


@given(polys(max_degree=8), st.floats(-2, 2), st.floats(-2, 2))
def test_taylor_shift_round_trip(p, x0, y0):
    back = p.taylor_shift(x0, y0).taylor_shift(-x0, -y0)
    scale = max((abs(c) for c in p.terms.values()), default=1.0)
    keys = set(p.terms) | set(back.terms)
    for k in keys:
        assert abs(p.coeff(*k) - back.coeff(*k)) <= 1e-10 * max(scale, 1.0)


@given(polys(), polys(), st.floats(-2, 2), st.floats(-2, 2))
def test_eval_of_sum_is_sum_of_evals(a, b, x, y):
    got = (a + b).eval(x, y)
    want = a.eval(x, y) + b.eval(x, y)
    scale = sum(abs(c) * abs(x) ** i * abs(y) ** j
                for p in (a, b) for (i, j), c in p.terms.items())
    assert abs(got - want) <= 1e-12 * max(scale, 1.0)


def test_substitute_composes_rotation():
    theta = 0.7
    c, s = math.cos(theta), math.sin(theta)
    p = X**2 - Y**2
    q = p.substitute(c * X + s * Y, -s * X + c * Y)
    for x, y in [(0.3, 0.4), (-1.0, 2.0)]:
        assert q.eval(x, y) == pytest.approx(p.eval(c * x + s * y, -s * x + c * y), rel=1e-12)
