"""The finite-difference oracle against the per-point loops it replaced.

``reference_star`` and ``reference_gradient_error`` are the loops of
``verify._star`` and ``verify._gradient_error`` that evaluated the field one
stencil point, and its gradient one sample, at a time; ``reference_run_checks``
also takes the boundary's plane reference P one point at a time.  The oracle
now evaluates each kind of star, the gradients and P for all samples in one
array call each.

For ``round``, ``cross`` and ``linear`` an array evaluation gives the bits of
a point evaluation, so the reports must be equal exactly.  A polynomial with
powers above 1 (``cusp``) takes its array powers from numpy's array
``a ** n``, which differs from the scalar power by 1 ulp at a few percent of
points.  Its round-off-level maxima may then move, so ``cusp`` must give the
same verdicts and every maximum within ``CUSP_RELATIVE_BOUND`` of the loop's.
"""

from dataclasses import astuple

import numpy as np
import pytest

from trapnet import PlanarJet, VerifyConfig, VerifyReport, catalog, run_checks, synthesize, verify
from trapnet.analysis import _norms

# largest relative change of a cusp maximum seen over seeds 0-39 at 200 and
# 500 samples and h in {1e-4, 1e-3, 3e-5} was 0.75, on round-off-level residuals
CUSP_RELATIVE_BOUND = 1.0


def reference_star(value, points, h, axes=(0, 1, 2)):
    steps = h * np.eye(3)[list(axes)]
    return tuple(np.array([value(*p) for p in q.reshape(-1, 3)], dtype=float)
                 .reshape(q.shape[:-1])
                 for q in (points, points[:, None] + steps, points[:, None] - steps))


def reference_gradient_error(fld, points, star, h) -> float:
    _, plus, minus = star
    an = [fld.gradient(*p) for p in points]
    norms = [np.linalg.norm(g) for g in an]
    return verify._worst([(np.abs(d - g) / (n + verify.EPS_FLOOR)).max()
                          for d, g, n in zip((plus - minus) / (2.0 * h), an, norms)])


def reference_run_checks(fld, generator, config: VerifyConfig) -> VerifyReport:
    h = config.h
    pts = verify.sample_points(config.window, config.samples, config.seed)
    star = reference_star(fld.value, pts, h)
    grad_err = reference_gradient_error(fld, pts, star, h)
    lap_res = verify._laplace_residual(star, h)
    centre, plus, minus = reference_star(
        fld.value, np.column_stack((pts[:, :2], np.zeros(len(pts)))), h, axes=(2,))
    jet = PlanarJet(generator)
    slope_error = (plus[:, 0] - minus[:, 0]) / (2.0 * h) - [jet.value(x, y) for x, y in pts[:, :2]]
    bval, bslope = verify._worst(np.abs(centre)), verify._worst(np.abs(slope_error))
    passed = (grad_err < verify.TOL_GRADIENT
              and lap_res < verify.TOL_LAPLACE
              and bval < verify.TOL_BOUNDARY_VALUE
              and bslope < verify.TOL_BOUNDARY_SLOPE)
    return VerifyReport(grad_err, lap_res, bval, bslope, config.samples, passed)


def _reports(name, params, samples, seed, h):
    gen = catalog(name, params).compile()
    fld = synthesize(gen)
    config = VerifyConfig(samples=samples, seed=seed, h=h)
    return run_checks(fld, gen, config), reference_run_checks(fld, gen, config)


@pytest.mark.parametrize("name, params", [
    ("round", {"c": 0.2}), ("round", {"c": 0.25}), ("round", {"c": 0.3}),
    ("cross", None), ("linear", None),
])
@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("samples, h", [(200, 1e-4), (60, 1e-3), (60, 3e-5)])
def test_run_checks_equals_the_point_loop(name, params, seed, samples, h):
    report, reference = _reports(name, params, samples, seed, h)
    assert repr(report) == repr(reference)


@pytest.mark.parametrize("alpha", [1.0, 0.7])
@pytest.mark.parametrize("seed", [0, 1, 2, 4])
@pytest.mark.parametrize("samples, h", [(200, 1e-4), (500, 1e-4), (200, 1e-3), (200, 3e-5)])
def test_cusp_run_checks_is_the_point_loop_to_round_off(alpha, seed, samples, h):
    report, reference = _reports("cusp", {"alpha": alpha}, samples, seed, h)
    assert report.passed == reference.passed
    assert report.samples == reference.samples
    for new, old in zip(astuple(report)[:4], astuple(reference)[:4]):
        assert abs(new - old) <= CUSP_RELATIVE_BOUND * abs(old)


def test_row_norms_are_the_vector_norm_on_3_vectors():
    # _gradient_error takes each sample's |grad phi| from analysis._norms
    rng = np.random.default_rng(11)
    v = rng.standard_normal((4000, 3)) * 10.0 ** rng.integers(-150, 150, (4000, 1))
    v[np.arange(500), rng.integers(0, 3, 500)] = 0.0
    np.testing.assert_array_equal(_norms(v), [np.linalg.norm(r) for r in v])
    np.testing.assert_array_equal(_norms(np.ascontiguousarray(v.T).T),
                                  [np.linalg.norm(r) for r in v])
