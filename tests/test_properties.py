"""Property suite: structural invariants under a property-testing harness."""

import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import polys
from trapnet import (Poly2, X, Y, ZSeries, cauchy_extend, classify_node, even_extend,
                     odd_extend)

CASES = settings(max_examples=100, deadline=None)


@st.composite
def saddle_quadratics(draw):
    """Quadratic with a saddle node at the origin, in generic orientation."""
    lam1 = draw(st.floats(0.1, 5.0))
    lam2 = -draw(st.floats(0.1, 5.0))
    theta = draw(st.floats(0.0, math.pi))
    c, s = math.cos(theta), math.sin(theta)
    u = c * X + s * Y
    v = -s * X + c * Y
    return lam1 * u * u + lam2 * v * v


def rotated(p: Poly2, theta: float) -> Poly2:
    c, s = math.cos(theta), math.sin(theta)
    return p.substitute(c * X + s * Y, -s * X + c * Y)


@CASES
@given(polys(max_degree=8), st.floats(-2, 2), st.floats(-2, 2), st.floats(0, 2))
def test_odd_extension_antisymmetry(p, x, y, z):
    s = odd_extend(p)
    plus = s.eval(x, y, z)
    minus = s.eval(x, y, -z)
    assert abs(plus + minus) <= 1e-12 * max(1.0, abs(plus))


def _max_coeff(s: ZSeries) -> float:
    return max((abs(c) for layer in s.layers.values() for c in layer.terms.values()),
               default=0.0)


@CASES
@given(polys(max_degree=8), polys(max_degree=8),
       st.floats(-3, 3), st.floats(-3, 3))
# a - b cancels almost exactly here, so rounding must be judged against the
# operands, not against the cancelled result
@example(p=Y**8, q=Y**8, a=1.00001, b=-1.0)
# b * q underflows to a subnormal coefficient here, where rounding is absolute
@example(p=Poly2({}), q=Poly2({(0, 2): 1e-12}), a=0.0, b=2.2250738585072014e-308)
def test_odd_extension_linearity(p, q, a, b):
    odd_p, odd_q = odd_extend(p), odd_extend(q)
    combined = odd_extend(a * p + b * q)
    recombined = a * odd_p + b * odd_q
    scale = abs(a) * _max_coeff(odd_p) + abs(b) * _max_coeff(odd_q)
    # A product that underflows errs by up to ulp(0)/2 absolute, while sums and
    # integer multiples of subnormals are exact.  Each input coefficient takes
    # two such errors (a*p, b*q), which the integer Laplacian factors amplify
    # at most as much as they amplify the all-ones polynomial on the same
    # terms; each output coefficient takes two more (a*odd_p, b*odd_q).
    ones = Poly2({key: 1.0 for key in {**p.terms, **q.terms}})
    underflow = math.ulp(0.0) * (_max_coeff(odd_extend(ones)) + 1.0)
    assert _max_coeff(combined + (-1.0) * recombined) <= 1e-12 * scale + underflow


@CASES
@given(polys(max_degree=10), polys(max_degree=10))
def test_extension_recursion_identity(phi0, phi1):
    for series in (odd_extend(phi1), even_extend(phi0), cauchy_extend(phi0, phi1)):
        for n in series.layers:
            residual = series.layer(n + 2) + series.layer(n).laplacian()
            assert residual.allclose(Poly2(), tol=1e-12)


@CASES
@given(polys(max_degree=10))
def test_odd_extension_truncation_bound(p):
    if p.is_zero():
        return
    assert len(odd_extend(p).layers) <= p.degree // 2 + 1


@CASES
@given(saddle_quadratics(), st.floats(0.0, 2.0 * math.pi))
def test_node_classification_rotation_equivariance(p, theta):
    base = classify_node(p, (0.0, 0.0))
    spun = classify_node(rotated(p, theta), (0.0, 0.0))
    assert base.kind == spun.kind == "crossing"
    assert abs(base.angle - spun.angle) < 1e-8


@CASES
@given(saddle_quadratics(), st.floats(1e-2, 1e2))
def test_node_classification_scaling_invariance(p, scale):
    base = classify_node(p, (0.0, 0.0))
    scaled = classify_node(scale * p, (0.0, 0.0))
    assert scaled.kind == base.kind
    assert abs(scaled.angle - base.angle) < 1e-8
    assert scaled.multipole_order == base.multipole_order
    # eigenvalues scale linearly, signs and ratios do not change
    lam_b = base.q2.eigenvalues()
    lam_s = scaled.q2.eigenvalues()
    np.testing.assert_allclose(lam_s, scale * lam_b, rtol=1e-9)
