"""Fixed-period sinusoidal fits of coincidence-versus-HWP-angle scans.

Model: R(theta) = offset + amplitude * sin^2(2*(theta - theta0)), period
90 degrees, theta0 supplied by calibration (only amplitude and offset are
free). The model is linear in the sin^2 regressor, so the weighted
least-squares solution is closed-form; amplitude and offset are constrained
non-negative. Visibility before background subtraction is
amplitude / (amplitude + 2*offset) = (max - min) / (max + min).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .polarization import PolarizationBasis

PERIOD_DEG = 90.0


@dataclass(frozen=True)
class ScanPoint:
    hwp_angle_deg: float
    coincidences: float
    background: float
    duration_s: float

    def __post_init__(self):
        if not np.all(np.isfinite([self.hwp_angle_deg, self.coincidences,
                                   self.background, self.duration_s])):
            raise DataError(f"non-finite scan-point field in {self}")
        if self.coincidences < 0:
            raise DataError("negative coincidence count")
        if self.duration_s <= 0:
            raise DataError("scan point duration must be > 0")


@dataclass(frozen=True)
class FringeScan:
    basis: PolarizationBasis
    points: tuple

    def __post_init__(self):
        pts = tuple(self.points)
        if len(pts) < 4:
            raise DataError("a fringe scan needs at least 4 points")
        angles = np.array([p.hwp_angle_deg for p in pts]) % PERIOD_DEG
        if len(np.unique(np.round(angles, 9))) != len(pts):
            raise DataError("scan angles not distinct modulo the 90 deg period")
        object.__setattr__(self, "points", pts)

    @property
    def angles(self) -> np.ndarray:
        return np.array([p.hwp_angle_deg for p in self.points])

    @property
    def counts(self) -> np.ndarray:
        return np.array([p.coincidences for p in self.points])


@dataclass(frozen=True)
class FringeFit:
    amplitude: float
    offset: float
    theta0_deg: float
    period_deg: float
    visibility: float
    visibility_err: float
    chi2_per_dof: float

    def model(self, theta_deg):
        return self.offset + self.amplitude * fringe_regressor(
            np.asarray(theta_deg), self.theta0_deg)


def fringe_regressor(angles_deg, theta0_deg):
    """x = sin^2(2(theta - theta0)), in which the fringe model is linear."""
    return np.sin(np.radians(2.0 * (angles_deg - theta0_deg))) ** 2


def clipped_wls(x, y):
    """Closed-form fit of y = offset + amplitude * x over the last axis.

    Weighted least squares with Poisson weights 1 / max(y, 1). Amplitude and
    offset are clipped non-negative by re-solving with the offending
    parameter pinned to 0. Both going negative at once is impossible for
    y >= 0: with a free intercept the weighted residuals sum to zero.

    Returns amplitude, offset and the covariance (cov_aa, cov_oo, cov_ao) of
    the unconstrained solution, each shaped like y without its last axis.
    """
    w = 1.0 / np.maximum(y, 1.0)
    sw = w.sum(axis=-1)
    sx = (w * x).sum(axis=-1)
    sxx = (w * x * x).sum(axis=-1)
    sy = (w * y).sum(axis=-1)
    sxy = (w * x * y).sum(axis=-1)
    det = sw * sxx - sx * sx
    offset = (sxx * sy - sx * sxy) / det
    amplitude = (sw * sxy - sx * sy) / det

    amp_neg = amplitude < 0.0
    off_neg = (offset < 0.0) & ~amp_neg
    offset = np.where(amp_neg, np.maximum(sy / sw, 0.0), offset)
    amplitude = np.where(amp_neg, 0.0, amplitude)
    amplitude = np.where(off_neg, np.maximum(sxy / sxx, 0.0), amplitude)
    offset = np.where(off_neg, 0.0, offset)
    return amplitude, offset, (sw / det, sxx / det, -sx / det)


def fit_fringe(scan: FringeScan, theta0_deg: float) -> FringeFit:
    """Clipped weighted least squares (`clipped_wls`) of one scan.

    Clipping keeps visibility inside [0, 1] on noisy scans.
    """
    y = scan.counts.astype(float)
    if np.all(y == 0):
        raise DataError("degenerate fit: all counts are zero")
    x = fringe_regressor(scan.angles, theta0_deg)
    if len(np.unique(np.round(x, 12))) < 2:
        raise DataError("rank error: fewer than 2 distinct regressor values")
    amplitude, offset, (cov_aa, cov_oo, cov_ao) = clipped_wls(x, y)

    denom = amplitude + 2.0 * offset
    if denom <= 0.0:
        raise DataError("degenerate fit: zero fringe (amplitude + 2*offset = 0)")
    visibility = amplitude / denom
    dv_da = 2.0 * offset / denom ** 2
    dv_do = -2.0 * amplitude / denom ** 2
    var_v = (dv_da ** 2 * cov_aa + dv_do ** 2 * cov_oo
             + 2.0 * dv_da * dv_do * cov_ao)
    visibility_err = float(np.sqrt(max(var_v, 0.0)))

    w = 1.0 / np.maximum(y, 1.0)
    resid = y - (offset + amplitude * x)
    dof = max(len(y) - 2, 1)
    chi2_per_dof = float((w * resid ** 2).sum() / dof)

    return FringeFit(float(amplitude), float(offset), float(theta0_deg),
                     PERIOD_DEG, float(min(max(visibility, 0.0), 1.0)),
                     visibility_err, chi2_per_dof)


# --- scan/fit file formats ---------------------------------------------------


def write_scan(scan: FringeScan, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# basis={scan.basis.label} period_deg={PERIOD_DEG}\n")
        fh.write("hwp_angle_deg\tcoincidences\tbackground\tduration_s\n")
        for p in scan.points:
            fh.write(f"{p.hwp_angle_deg:.9g}\t{p.coincidences:.9g}\t"
                     f"{p.background:.9g}\t{p.duration_s:.9g}\n")


def write_fit_record(fit: FringeFit, path, extra: dict | None = None) -> None:
    """Flat key-value record for regression testing."""
    with open(path, "w", encoding="utf-8") as fh:
        for k, v in (extra or {}).items():
            fh.write(f"{k}={v}\n")
        fh.write(f"amplitude={fit.amplitude:.9g}\n")
        fh.write(f"offset={fit.offset:.9g}\n")
        fh.write(f"theta0_deg={fit.theta0_deg:.9g}\n")
        fh.write(f"period_deg={fit.period_deg:.9g}\n")
        fh.write(f"visibility={fit.visibility:.9g}\n")
        fh.write(f"visibility_err={fit.visibility_err:.9g}\n")
        fh.write(f"chi2_per_dof={fit.chi2_per_dof:.9g}\n")


def write_plot_data(scan: FringeScan, fit: FringeFit, path) -> None:
    """Per-scan plot table: angle, measured, fitted, background."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# basis={scan.basis.label} theta0_deg={fit.theta0_deg}"
                 f" period_deg={fit.period_deg}\n")
        fh.write("hwp_angle_deg\tmeasured\tfitted\tbackground\n")
        for p in scan.points:
            fh.write(f"{p.hwp_angle_deg:.9g}\t{p.coincidences:.9g}\t"
                     f"{fit.model(p.hwp_angle_deg):.9g}\t{p.background:.9g}\n")
