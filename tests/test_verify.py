import re
import warnings

import numpy as np
import pytest

from conftest import random_poly
from trapnet import (Field, Poly2, VerifyConfig, X, Y, ZSeries, catalog, cauchy_extend,
                     check_boundary, check_gradient, check_laplace, odd_extend, run_checks,
                     sample_points, synthesize, verify)
from trapnet.analysis import MAX_GRID_POINTS

CUSP = Y**2 - X**3
BOX2 = (-2.0, 2.0, -2.0, 2.0, -2.0, 2.0)


def corrupted_cusp_field() -> Field:
    s = odd_extend(CUSP)
    return Field(ZSeries({1: s.layer(1), 3: s.layer(3) + Poly2.const(0.1)}))


def test_sample_points_reproducible():
    a = sample_points(BOX2, 50, seed=3)
    b = sample_points(BOX2, 50, seed=3)
    np.testing.assert_array_equal(a, b)
    assert a.shape == (50, 3)
    assert a.min() >= -2.0 and a.max() <= 2.0


def test_gradient_check_cusp():
    pts = sample_points(BOX2, 200, seed=0)
    assert check_gradient(synthesize(CUSP), pts, h=1e-4) < 1e-7


def test_gradient_check_round():
    pts = sample_points(BOX2, 200, seed=0)
    f = synthesize(catalog("round", {"c": 0.25}).compile())
    assert check_gradient(f, pts, h=1e-4) < 1e-6


def test_gradient_check_zero_field():
    pts = sample_points(BOX2, 20, seed=1)
    assert check_gradient(Field(ZSeries({})), pts) == 0.0


def test_gradient_check_validates_step():
    # the stencil steps of all three checks must be finite and positive
    fld, pts = synthesize(CUSP), sample_points(BOX2, 5, 0)
    for h in (0.0, -1e-4, float("nan"), float("inf")):
        for call in (lambda: check_gradient(fld, pts, h=h),
                     lambda: check_laplace(fld, pts, h=h),
                     lambda: check_boundary(fld, CUSP, pts[:, :2], h=h)):
            with pytest.raises(ValueError, match="finite and positive"):
                call()


def test_laplace_random_degree8_polynomial():
    rng = np.random.default_rng(7)
    pts = sample_points((-0.75, 0.75) * 3, 80, seed=0)
    for _ in range(5):
        f = Field(odd_extend(random_poly(rng, max_degree=8)))
        assert check_laplace(f, pts) < 1e-6


def test_laplace_round_field():
    pts = sample_points((-0.75, 0.75) * 3, 80, seed=0)
    f = synthesize(catalog("round", {"c": 0.25}).compile())
    assert check_laplace(f, pts) < 1e-6


def test_laplace_detects_corrupted_series():
    pts = sample_points((-0.75, 0.75) * 3, 80, seed=0)
    assert check_laplace(corrupted_cusp_field(), pts) > 1e-2


def test_boundary_fd_path():
    pts = sample_points((-0.75, 0.75) * 3, 100, seed=2)[:, :2]
    f = synthesize(CUSP)
    max_value, max_slope = check_boundary(f, CUSP, pts)
    assert max_value == 0.0
    assert max_slope < 1e-7


def test_boundary_even_part_carries_datum():
    # full Cauchy data: the plane value is x^2, not zero
    f = Field(cauchy_extend(X**2, Poly2()))
    rng = np.random.default_rng(6)
    for x, y in rng.uniform(-2, 2, size=(100, 2)):
        assert abs(f.value(x, y, 0.0) - x**2) < 1e-12


def test_fd_convergence_is_second_order():
    f = synthesize(CUSP)
    pts = np.array([[0.73, -0.41, 0.52], [1.2, 0.8, -0.9], [-0.3, 1.7, 1.1]])
    errors = [check_gradient(f, pts, h=h) for h in (1e-2, 5e-3, 2.5e-3, 1.25e-3)]
    for coarse, fine in zip(errors, errors[1:]):
        assert 3.2 < coarse / fine < 4.8


class _ValueOnly:
    """Exposes only point values; any derivative access is an error."""

    def __init__(self, fld):
        self._fld = fld

    def value(self, x, y, z):
        return self._fld.value(x, y, z)

    def __getattr__(self, name):
        raise AssertionError(f"oracle touched analytic path {name!r}")


def test_laplace_oracle_uses_values_only():
    stub = _ValueOnly(synthesize(CUSP))
    pts = sample_points((-1, 1) * 3, 10, seed=0)
    assert check_laplace(stub, pts) < 1e-6


def test_boundary_fd_oracle_uses_values_only():
    stub = _ValueOnly(synthesize(CUSP))
    pts = sample_points((-1, 1) * 3, 10, seed=0)[:, :2]
    max_value, max_slope = check_boundary(stub, CUSP, pts)
    assert max_value == 0.0
    assert max_slope < 1e-6


@pytest.mark.parametrize("check", [
    lambda fld, gen, pts: check_gradient(fld, pts),
    lambda fld, gen, pts: check_laplace(fld, pts),
    lambda fld, gen, pts: run_checks(
        fld, gen, VerifyConfig(samples=5, window=(-1, 1, -1, 1, 300, 301))),
])
def test_non_finite_stencil_is_refused_without_warnings(check):
    # cosh(k z) of the round field overflows near z = 300
    gen = catalog("round").compile()
    pts = np.array([[0.1, 0.2, 300.5], [0.3, -0.4, 300.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="phi is not finite on the stencil"):
            check(synthesize(gen), gen, pts)


def test_run_checks_report():
    gen = catalog("cusp").compile()
    f = synthesize(gen)
    report = run_checks(f, gen, VerifyConfig(samples=60))
    assert report.passed
    assert report.samples == 60
    d = report.to_dict()
    assert d["pass"] is True
    assert set(d) == {"max_gradient_error", "max_laplace_residual",
                      "max_boundary_value", "max_boundary_slope_error",
                      "samples", "pass"}


def test_run_checks_fails_on_corrupted_field():
    report = run_checks(corrupted_cusp_field(), CUSP, VerifyConfig(samples=60))
    assert not report.passed
    assert report.max_laplace_residual > 1e-2


# ----------------------------------------------------------------------
# mutation gate: each planted fault must fail its own check at 200 samples
# ----------------------------------------------------------------------

class _ScaledGradient(Field):
    """A field whose analytic gradient is off by a relative 1e-4."""

    def gradient(self, x, y, z):
        return super().gradient(x, y, z) * (1.0 + 1e-4)


def _non_harmonic_cusp():
    # 1e-4*x**2 in layer 1 adds 2e-4*z to the Laplacian
    s = odd_extend(CUSP)
    return Field(ZSeries({1: s.layer(1) + 1e-4 * X**2, 3: s.layer(3)}))


@pytest.mark.parametrize("make_field, metric, tol", [
    (_non_harmonic_cusp, "max_laplace_residual", verify.TOL_LAPLACE),
    (lambda: _ScaledGradient(odd_extend(CUSP)), "max_gradient_error", verify.TOL_GRADIENT),
    (lambda: synthesize(CUSP + 1e-5 * X), "max_boundary_slope_error", verify.TOL_BOUNDARY_SLOPE),
], ids=["non-harmonic", "gradient-scaled", "plane-slope-off"])
def test_run_checks_catches_planted_fault(make_field, metric, tol):
    report = run_checks(make_field(), CUSP, VerifyConfig(samples=200))
    assert not report.passed
    assert report.to_dict()[metric] > 5.0 * tol


class _Counting(Field):
    """Records the points of each of the oracle's calls into the field."""

    def __init__(self, *args):
        super().__init__(*args)
        self.points = {"value": [], "gradient": []}

    def _record(self, name, x, y, z):
        self.points[name].append(np.column_stack([np.ravel(c) for c in (x, y, z)]))

    def value(self, x, y, z):
        self._record("value", x, y, z)
        return super().value(x, y, z)

    def gradient(self, x, y, z):
        self._record("gradient", x, y, z)
        return super().gradient(x, y, z)


@pytest.mark.parametrize("name", ["cusp", "round"])
def test_run_checks_evaluates_each_stencil_point_once(name):
    # one 7-point star per sample and one 3-point z-star on the plane below
    # it, each kind for all samples in one value call, and one gradient call
    gen = catalog(name).compile()
    fld = _Counting(synthesize(gen).potential)
    run_checks(fld, gen, VerifyConfig(samples=25))
    assert {name: len(calls) for name, calls in fld.points.items()} == {"value": 2, "gradient": 1}
    values, gradients = (np.concatenate(fld.points[k]) for k in ("value", "gradient"))
    assert len(values) == 10 * 25
    assert len(np.unique(values, axis=0)) == len(values)
    np.testing.assert_array_equal(gradients, sample_points(VerifyConfig().window, 25))


def test_checks_of_empty_point_sets_are_zero():
    fld = synthesize(CUSP)
    assert check_gradient(fld, np.empty((0, 3))) == 0.0
    assert check_laplace(fld, []) == 0.0
    assert check_boundary(fld, CUSP, []) == (0.0, 0.0)


@pytest.mark.parametrize("check", [
    lambda fld, gen, pts: check_gradient(fld, pts),
    lambda fld, gen, pts: run_checks(
        fld, gen, VerifyConfig(samples=5, window=(-1, 1, -1, 1, 100, 100.05))),
])
def test_overflowing_gradient_norm_is_refused_without_warnings(check):
    # at z = 100 the round field's stencil values are finite, but |grad phi|
    # passes 1e154 and its norm overflows, which would read as a zero error
    gen = catalog("round").compile()
    pts = np.array([[0.1, 0.2, 100.0], [0.3, -0.4, 100.02]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"\|grad phi\| is not finite"):
            check(synthesize(gen), gen, pts)


def test_sample_count_is_capped_at_the_grid_limit():
    # 10 stencil points per sample stay within the largest grid
    assert 10 * verify.MAX_SAMPLES <= MAX_GRID_POINTS
    VerifyConfig(samples=verify.MAX_SAMPLES)
    with pytest.raises(ValueError, match=f"samples must be at most {verify.MAX_SAMPLES}"):
        VerifyConfig(samples=verify.MAX_SAMPLES + 1)


@pytest.mark.parametrize("field, value", [
    ("samples", 2.5), ("samples", True), ("samples", "3"), ("samples", np.float64(3.0)),
    ("seed", 1.5), ("seed", False), ("seed", None),
])
def test_sample_count_and_seed_must_be_integers(field, value):
    with pytest.raises(ValueError, match=re.escape(f"{field} must be an integer, got {value!r}")):
        VerifyConfig(**{field: value})


@pytest.mark.parametrize("value", [True, "0.1", None])
def test_step_must_be_a_real_number(value):
    with pytest.raises(ValueError, match=re.escape(f"h must be a real number, got {value!r}")):
        VerifyConfig(h=value)


@pytest.mark.parametrize("check", ["check_gradient", "check_laplace", "check_boundary"])
@pytest.mark.parametrize("value", [True, "1e-4", None])
def test_each_check_refuses_a_step_that_is_not_a_real_number(check, value):
    fld, pts = synthesize(CUSP), sample_points(BOX2, 5)
    args = (fld, CUSP, pts[:, :2]) if check == "check_boundary" else (fld, pts)
    with pytest.raises(ValueError, match=re.escape(f"h must be a real number, got {value!r}")):
        getattr(verify, check)(*args, h=value)


def test_numpy_real_steps_are_accepted():
    assert VerifyConfig(h=np.float64(1e-4)) == VerifyConfig(h=1e-4)
    with pytest.raises(ValueError, match="step h must be finite and positive"):
        VerifyConfig(h=np.float32("nan"))


def test_seed_must_be_non_negative():
    with pytest.raises(ValueError, match="seed must be at least 0, got -1"):
        VerifyConfig(seed=-1)


def test_numpy_integer_sample_count_and_seed_are_accepted():
    config = VerifyConfig(samples=np.int64(12), seed=np.uint8(3))
    assert run_checks(synthesize(CUSP), CUSP, config) == \
        run_checks(synthesize(CUSP), CUSP, VerifyConfig(samples=12, seed=3))
