"""Independent finite-difference checks of a synthesized field.

Everything here is an oracle: the stencils consume only point values of the
potential through ``Field.value``, never its derivative orders, so agreement
with ``Field.gradient`` is evidence rather than tautology.  The plane
reference P comes from the generator itself.  Each check reduces a central
second-order star: the value at a point and at its ``+-h`` neighbours along
each axis (default step 1e-4 in normalized units).  ``run_checks`` takes one
star per sample and one z-only star on the plane below it, 10 points per
sample, and evaluates each kind of star for all samples in one array call.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .analysis import MAX_GRID_POINTS, PlanarJet, _norms, validate_window
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
# floor of the normalizers in check_gradient and check_laplace
EPS_FLOOR = 1e-12
DEFAULT_SEED = 0
# the 10 stencil points of every sample are held at once, like a grid's points
MAX_SAMPLES = MAX_GRID_POINTS // 10
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
        for name, least in (("samples", 1), ("seed", 0)):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            if value < least:
                raise ValueError(f"{name} must be at least {least}, got {value}")
        if self.samples > MAX_SAMPLES:
            raise ValueError(f"samples must be at most {MAX_SAMPLES}, got {self.samples}")
        if isinstance(self.h, bool) or not isinstance(self.h, (int, float, np.integer, np.floating)):
            raise ValueError(f"h must be a real number, got {self.h!r}")
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
        out = asdict(self)
        out["pass"] = out.pop("passed")
        return out


def sample_points(window, n: int, seed: int = DEFAULT_SEED) -> np.ndarray:
    """Uniform random points in a 3-D box, reproducible by seed; shape (n, 3)."""
    lo, hi = np.asarray(window, dtype=float).reshape(3, 2).T
    return lo + np.random.default_rng(seed).random((n, 3)) * (hi - lo)


def _star(value, points, h, axes=(0, 1, 2)):
    """Central-difference star of ``value`` around each row p of ``points``.

    Returns the values at p, shape (n,), and at ``p + h*e_a`` and at
    ``p - h*e_a`` for each axis ``a`` in ``axes``, shape (n, k) each, from one
    ``value`` call on all 1 + 2k points of every star.
    Raises ValueError if a value is not finite: the field overflows there.
    """
    steps = h * np.eye(3)[list(axes)]
    p = points[:, None]
    star = np.concatenate((p, p + steps, p - steps), axis=1)
    with np.errstate(over="ignore", invalid="ignore"):  # refused below, with no warnings
        values = np.asarray(value(*np.moveaxis(star, -1, 0)), dtype=float)
    if not np.isfinite(values).all():
        raise ValueError("phi is not finite on the stencil: the window is out of range")
    return (values[:, 0], *np.split(values[:, 1:], 2, axis=1))


def _worst(per_point, floor=0.0) -> float:
    """Largest per-point value, at least ``floor``; a nan point is skipped."""
    return float(np.fmax.reduce(per_point, initial=floor))


def _gradient_error(fld: Field, points, star, h) -> float:
    _, plus, minus = star
    with np.errstate(over="ignore", invalid="ignore"):  # refused below, with no warnings
        an = fld.gradient(*points.T).T
        norms = _norms(an)
    if not np.isfinite(norms).all():
        raise ValueError("|grad phi| is not finite at a sample point: the window is out of range")
    error = np.abs((plus - minus) / (2.0 * h) - an) / (norms + EPS_FLOOR)[:, None]
    return _worst(error.max(axis=1))


def _laplace_residual(star, h) -> float:
    centre, plus, minus = star
    second = (plus - 2.0 * centre[:, None] + minus) / (h * h)
    return _worst(np.abs(second.sum(axis=1))) / _worst(np.abs(second).max(axis=1), EPS_FLOOR)


def check_gradient(fld: Field, points, h: float = DEFAULT_H) -> float:
    """Worst relative disagreement between stencil and analytic gradient.

    Maximized over points and axes; each axis error is normalized by the
    analytic gradient magnitude at that point (plus a floor), so a single
    vanishing component does not blow up the ratio.
    """
    _validate_step(h)
    points = np.asarray(points, dtype=float).reshape(-1, 3)
    return _gradient_error(fld, points, _star(fld.value, points, h), h)


def check_laplace(fld: Field, points, h: float = DEFAULT_H) -> float:
    """Worst stencil Laplace residual relative to the max second derivative.

    The residual |sum of second differences| is maximized over points and
    normalized by the largest single second difference seen in the sample
    (floored).  A harmonic field shows only stencil noise, a corrupted one
    stands out by orders of magnitude.
    """
    _validate_step(h)
    points = np.asarray(points, dtype=float).reshape(-1, 3)
    return _laplace_residual(_star(fld.value, points, h), h)


def check_boundary(fld: Field, generator, points_xy,
                   h: float = DEFAULT_H) -> tuple[float, float]:
    """Plane conditions: max |phi(x, y, 0)| and max |d_z phi(x, y, 0) - P|.

    A z-only star at each (x, y, 0) gives phi there and the z-slope as its
    central difference, which is compared with the generator's own P.
    """
    _validate_step(h)
    xy = np.asarray(points_xy, dtype=float).reshape(-1, 2)
    centre, plus, minus = _star(fld.value, np.column_stack((xy, np.zeros(len(xy)))), h, axes=(2,))
    slope_error = (plus[:, 0] - minus[:, 0]) / (2.0 * h) - PlanarJet(generator).value(*xy.T)
    return _worst(np.abs(centre)), _worst(np.abs(slope_error))


def run_checks(fld: Field, generator, config: VerifyConfig = VerifyConfig()) -> VerifyReport:
    """Run the full oracle battery and collect a report."""
    pts = sample_points(config.window, config.samples, config.seed)
    star = _star(fld.value, pts, config.h)
    grad_err = _gradient_error(fld, pts, star, config.h)
    lap_res = _laplace_residual(star, config.h)
    bval, bslope = check_boundary(fld, generator, pts[:, :2], config.h)
    passed = (grad_err < TOL_GRADIENT
              and lap_res < TOL_LAPLACE
              and bval < TOL_BOUNDARY_VALUE
              and bslope < TOL_BOUNDARY_SLOPE)
    return VerifyReport(grad_err, lap_res, bval, bslope, config.samples, passed)
