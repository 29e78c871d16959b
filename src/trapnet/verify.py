"""Independent finite-difference checks of a synthesized field.

Everything here is an oracle: the stencils consume only point values of the
potential through ``Field.value``, never its derivative orders, so agreement
with ``Field.gradient`` is evidence rather than tautology.  The plane
reference P comes from the generator itself.  Central second-order stencils
are used throughout with a default step of 1e-4 in normalized units.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .analysis import PlanarJet, validate_window
from .extension import Field

__all__ = [
    "VerifyConfig",
    "VerifyReport",
    "sample_points",
    "check_gradient",
    "check_laplace",
    "check_boundary",
    "run_checks",
]

DEFAULT_H = 1e-4
EPS_FLOOR = 1e-12
DEFAULT_SEED = 0
# verdict tolerances; the gradient one leaves headroom over the 1e-6 seen on
# smooth regions: sample points can land arbitrarily close to a null line,
# where the stencil truncation is large relative to the shrinking gradient
TOL_GRADIENT = 5e-6
TOL_LAPLACE = 1e-6
TOL_BOUNDARY_VALUE = 1e-12
TOL_BOUNDARY_SLOPE = 1e-7


def _validate_step(h: float) -> None:
    if not (math.isfinite(h) and h > 0):
        raise ValueError(f"step h must be finite and positive, got {h}")


@dataclass(frozen=True)
class VerifyConfig:
    """Sampling settings for a verification run."""

    samples: int = 200
    seed: int = DEFAULT_SEED
    h: float = DEFAULT_H
    window: tuple = (-0.75, 0.75, -0.75, 0.75, -0.75, 0.75)

    def __post_init__(self):
        if self.samples < 1:
            raise ValueError(f"samples must be at least 1, got {self.samples}")
        _validate_step(self.h)
        validate_window(self.window, 3)


@dataclass(frozen=True)
class VerifyReport:
    """Maxima of the residuals over the sample set, and the verdict."""

    max_gradient_error: float
    max_laplace_residual: float
    max_boundary_value: float
    max_boundary_slope_error: float
    samples: int
    passed: bool

    def to_dict(self) -> dict:
        return {
            "max_gradient_error": self.max_gradient_error,
            "max_laplace_residual": self.max_laplace_residual,
            "max_boundary_value": self.max_boundary_value,
            "max_boundary_slope_error": self.max_boundary_slope_error,
            "samples": self.samples,
            "pass": self.passed,
        }


def sample_points(window, n: int, seed: int = DEFAULT_SEED) -> np.ndarray:
    """Uniform random points in a 3-D box, reproducible by seed; shape (n, 3)."""
    x0, x1, y0, y1, z0, z1 = (float(v) for v in window)
    rng = np.random.default_rng(seed)
    pts = rng.random((n, 3))
    pts[:, 0] = x0 + pts[:, 0] * (x1 - x0)
    pts[:, 1] = y0 + pts[:, 1] * (y1 - y0)
    pts[:, 2] = z0 + pts[:, 2] * (z1 - z0)
    return pts


_EYE3 = np.eye(3)


def _fd_gradient(value, p, h):
    return np.array([
        (value(*(p + h * _EYE3[a])) - value(*(p - h * _EYE3[a]))) / (2.0 * h)
        for a in range(3)
    ])


def _fd_second(value, p, h):
    v0 = value(*p)
    return np.array([
        (value(*(p + h * _EYE3[a])) - 2.0 * v0 + value(*(p - h * _EYE3[a]))) / (h * h)
        for a in range(3)
    ])


def check_gradient(fld: Field, points, h: float = DEFAULT_H,
                   eps_floor: float = EPS_FLOOR) -> float:
    """Worst relative disagreement between stencil and analytic gradient.

    Maximized over points and axes; each axis error is normalized by the
    analytic gradient magnitude at that point (plus a floor), so a single
    vanishing component does not blow up the ratio.
    """
    _validate_step(h)
    worst = 0.0
    for p in np.asarray(points, dtype=float):
        fd = _fd_gradient(fld.value, p, h)
        an = fld.gradient(*p)
        err = np.abs(fd - an) / (np.linalg.norm(an) + eps_floor)
        worst = max(worst, float(err.max()))
    return worst


def check_laplace(fld: Field, points, h: float = DEFAULT_H,
                  eps_floor: float = EPS_FLOOR) -> float:
    """Worst stencil Laplace residual relative to the max second derivative.

    The residual |sum of second differences| is maximized over points and
    normalized by the largest single second difference seen in the sample
    (floored).  A harmonic field shows only stencil noise, a corrupted one
    stands out by orders of magnitude.
    """
    _validate_step(h)
    residual = 0.0
    scale = eps_floor
    for p in np.asarray(points, dtype=float):
        second = _fd_second(fld.value, p, h)
        residual = max(residual, abs(float(second.sum())))
        scale = max(scale, float(np.abs(second).max()))
    return residual / scale


def check_boundary(fld: Field, generator, points_xy,
                   h: float = DEFAULT_H) -> tuple[float, float]:
    """Plane conditions: max |phi(x, y, 0)| and max |d_z phi(x, y, 0) - P|.

    The z-slope is a central difference of field values, compared with the
    generator's own plane value P.
    """
    _validate_step(h)
    jet = PlanarJet(generator)
    max_value = 0.0
    max_slope = 0.0
    for x, y in np.asarray(points_xy, dtype=float):
        max_value = max(max_value, abs(float(fld.value(x, y, 0.0))))
        slope = (float(fld.value(x, y, h)) - float(fld.value(x, y, -h))) / (2.0 * h)
        max_slope = max(max_slope, abs(slope - float(jet.value(x, y))))
    return max_value, max_slope


def run_checks(fld: Field, generator, config: VerifyConfig = VerifyConfig()) -> VerifyReport:
    """Run the full oracle battery and collect a report."""
    pts = sample_points(config.window, config.samples, config.seed)
    grad_err = check_gradient(fld, pts, config.h)
    lap_res = check_laplace(fld, pts, config.h)
    bval, bslope = check_boundary(fld, generator, pts[:, :2], config.h)
    passed = (grad_err < TOL_GRADIENT
              and lap_res < TOL_LAPLACE
              and bval < TOL_BOUNDARY_VALUE
              and bslope < TOL_BOUNDARY_SLOPE)
    return VerifyReport(grad_err, lap_res, bval, bslope, config.samples, passed)
