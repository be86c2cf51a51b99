import numpy as np
import pytest

from ionherald import polarization as pol
from ionherald.errors import DataError
from ionherald.fringes import (FringeScan, ScanPoint, clipped_wls, fit_fringe,
                               fringe_regressor, write_scan)


def model_scan(angles, amplitude, offset, theta0=0.0, basis=pol.RL,
               duration=3600.0, jitter=None, rng=None):
    pts = []
    for th in angles:
        y = offset + amplitude * np.sin(np.radians(2 * (th - theta0))) ** 2
        if jitter is not None:
            y = max(0.0, y + rng.normal(0.0, jitter))
        pts.append(ScanPoint(th, y, 0.0, duration))
    return FringeScan(basis, tuple(pts))


ANGLES = (0.0, 10.0, 25.0, 40.0, 55.0, 70.0, 85.0)


class TestFringeScanInvariants:
    def test_needs_four_points(self):
        with pytest.raises(DataError):
            FringeScan(pol.RL, tuple(
                ScanPoint(a, 1.0, 0.0, 1.0) for a in (0.0, 10.0, 20.0)))

    def test_angles_distinct_modulo_period(self):
        with pytest.raises(DataError):
            FringeScan(pol.RL, tuple(
                ScanPoint(a, 1.0, 0.0, 1.0)
                for a in (0.0, 10.0, 20.0, 90.0)))   # 90 == 0 mod 90

    def test_negative_counts_rejected(self):
        with pytest.raises(DataError):
            ScanPoint(0.0, -1.0, 0.0, 1.0)


class TestFitExactRecovery:
    def test_noiseless_recovery(self):
        scan = model_scan(ANGLES, amplitude=20.0, offset=10.0)
        fit = fit_fringe(scan, 0.0)
        assert fit.amplitude == pytest.approx(20.0, rel=1e-9)
        assert fit.offset == pytest.approx(10.0, rel=1e-9)
        assert fit.visibility == pytest.approx(0.5, rel=1e-9)
        assert fit.chi2_per_dof < 1e-12

    def test_residuals_below_1e9_relative(self):
        rng = np.random.default_rng(41)
        for _ in range(20):
            amp = rng.uniform(5, 500)
            off = rng.uniform(0, 100)
            th0 = rng.uniform(-45, 45)
            scan = model_scan(ANGLES, amp, off, th0)
            fit = fit_fringe(scan, th0)
            model = fit.model(scan.angles)
            resid = np.abs(model - scan.counts) / np.maximum(scan.counts, 1.0)
            assert np.max(resid) < 1e-9

    def test_scale_equivariance(self):
        scan = model_scan(ANGLES, amplitude=35.0, offset=12.0)
        fit1 = fit_fringe(scan, 0.0)
        for k in (2.0, 17.5, 1000.0):
            scaled = FringeScan(scan.basis, tuple(
                ScanPoint(p.hwp_angle_deg, p.coincidences * k, p.background,
                          p.duration_s) for p in scan.points))
            fit2 = fit_fringe(scaled, 0.0)
            assert fit2.amplitude == pytest.approx(k * fit1.amplitude,
                                                   rel=1e-6)
            assert fit2.offset == pytest.approx(k * fit1.offset, rel=1e-6)
            assert fit2.visibility == pytest.approx(fit1.visibility,
                                                    abs=1e-6)

    def test_fitted_minimum_never_negative(self):
        rng = np.random.default_rng(43)
        for _ in range(50):
            scan = model_scan(ANGLES, amplitude=8.0, offset=0.3,
                              jitter=3.0, rng=rng)
            fit = fit_fringe(scan, 0.0)
            assert fit.offset >= 0.0
            assert fit.amplitude >= 0.0
            assert 0.0 <= fit.visibility <= 1.0


class TestFitErrors:
    def test_all_zero_counts(self):
        scan = FringeScan(pol.RL, tuple(
            ScanPoint(a, 0.0, 0.0, 1.0) for a in ANGLES))
        with pytest.raises(DataError, match="degenerate"):
            fit_fringe(scan, 0.0)

    def test_rank_error_on_constant_regressor(self):
        # angles clustered at the fringe extremum: sin^2 is stationary there,
        # so the regressor collapses to a single value
        angles = (44.999990, 44.999995, 45.000005, 45.000010)
        scan = FringeScan(pol.RL, tuple(
            ScanPoint(a, 5.0, 0.0, 1.0) for a in angles))
        with pytest.raises(DataError, match="rank"):
            fit_fringe(scan, 0.0)


class TestClippedWLS:
    @pytest.mark.parametrize("angles", [
        (0.0, 15.0, 30.0, 45.0, 60.0, 75.0), ANGLES,
        tuple(np.arange(12) * 7.5)])
    def test_rows_equal_fit_fringe(self, angles):
        # dim Poisson scans, so both clip branches occur; the batched call
        # does the same arithmetic as fit_fringe, hence == and no tolerance
        rng = np.random.default_rng(2024)
        lam = rng.uniform(0.3, 20.0, size=(400, 1)) * rng.uniform(
            0.0, 1.0, size=(400, len(angles)))
        y = rng.poisson(lam).astype(float)
        y = y[y.any(axis=1)]
        amp, off, _ = clipped_wls(fringe_regressor(np.array(angles), 0.0), y)
        assert (amp == 0.0).any() and (off == 0.0).any()
        for row, a, o in zip(y, amp, off):
            fit = fit_fringe(FringeScan(pol.RL, tuple(
                ScanPoint(th, c, 0.0, 1.0) for th, c in zip(angles, row))),
                0.0)
            assert fit.amplitude == a and fit.offset == o


class TestScanIO:
    def test_round_trip(self, tmp_path):
        scan = FringeScan(pol.RL, tuple(
            ScanPoint(th, 5.0 + 20.0 * np.sin(np.radians(2 * th)) ** 2,
                      1.5 * k, 3600.0) for k, th in enumerate(ANGLES)))
        path = tmp_path / "scan.txt"
        write_scan(scan, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[:2] == [
            "# basis=RL period_deg=90.0",
            "hwp_angle_deg\tcoincidences\tbackground\tduration_s"]
        # four fields a row, with no trailing tab
        assert [len(line.split("\t")) for line in lines[2:]] \
            == [4] * len(scan.points)
        back = np.loadtxt(path, skiprows=2, ndmin=2)
        assert len(back) == len(scan.points)
        for row, p in zip(back, scan.points):
            assert row[0] == p.hwp_angle_deg
            assert row[1] == pytest.approx(p.coincidences, rel=1e-8)
            assert (row[2], row[3]) == (p.background, 3600.0)
