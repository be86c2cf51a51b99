"""Acceptance criteria, one test per criterion, each printing a verdict line.

Criteria 1-3 validate the calibrated simulator + analysis loop against the
published statistics over seed ensembles, through the same scan and
tomography drivers as the reproduce command; 4-7 are oracle/property based.
The full module takes a few minutes: criteria 2 and 3 simulate hundreds of
detector-hours.
"""

import time

import numpy as np
import pytest

from conftest import (counts_table_from_values, histogram_of, nll_of_state,
                      record_acceptance, trace_distance)
from ionherald import polarization as pol
from ionherald import presets
from ionherald import tomography as tom
from ionherald.biphoton import AnalyzerSetting, SourceModel, absorber_for
from ionherald.cli import reproduce_paper, run_scan, run_tomography
from ionherald.correlate import extract, histogram_from_stream
from ionherald.fringes import FringeScan, ScanPoint, fit_fringe
from ionherald.sim import RateConfig, RunManifest, SequenceConfig, simulate_run

N_SEEDS = 20

# fringe targets: (coincidences, background, minutes, visibility, vis_tol),
# the published values with their quoted one-sigma visibility errors
FRINGE_TARGETS = {
    name: (t.coincidences, t.background, t.minutes, t.visibility,
           presets.PAPER_VISIBILITY_QUOTED_ERR[name])
    for name, t in presets.PAPER_FRINGE_TARGETS.items()
}


def test_criterion_1_count_table_reproduction():
    """Single orthogonal-setting runs land in the published +-3*sqrt bands."""
    details = []
    ok = True
    wall_per_hour = 0.0
    for name, (c_t, b_t, minutes, _, _) in FRINGE_TARGETS.items():
        plan = presets.fringe_plan(name)
        m = presets.manifest_for_angle(plan, presets.ORTHOGONAL_ANGLE_DEG,
                                       seed=2026)
        t0 = time.perf_counter()
        stream = simulate_run(m)
        elapsed = time.perf_counter() - t0
        wall_per_hour = max(wall_per_hour, elapsed / (minutes / 60.0))
        res = extract(histogram_from_stream(stream))
        c_ok = abs(res.coincidences - c_t) <= 3.0 * np.sqrt(c_t)
        b_ok = abs(res.background_per_bin - b_t) <= 3.0 * np.sqrt(b_t)
        ok &= c_ok and b_ok
        details.append(f"{name} {res.coincidences}/{res.background_per_bin:.1f}"
                       f" vs {c_t:.0f}/{b_t:.0f}")
        assert c_ok, f"{name}: coincidences {res.coincidences} vs {c_t}"
        assert b_ok, f"{name}: background {res.background_per_bin} vs {b_t}"
    runtime_ok = wall_per_hour <= 5.0
    record_acceptance(1, ok and runtime_ok,
                      f"count tables {'; '.join(details)}; "
                      f"{wall_per_hour:.2f} s per simulated hour")
    assert runtime_ok, f"simulated hour took {wall_per_hour:.2f} s > 5 s"


def test_criterion_2_visibility_reproduction():
    """20-seed ensemble visibilities average to the published values."""
    summary = []
    ok = True
    for name, (_, _, _, v_t, v_tol) in FRINGE_TARGETS.items():
        plan = presets.fringe_plan(name)
        vises = []
        for k in range(N_SEEDS):
            seeds = [10_000 * k + 17 + i for i in range(len(plan.angles))]
            scan = run_scan(plan, seeds, plan.point_minutes, {})
            vises.append(fit_fringe(scan, plan.theta_ref_deg).visibility)
        mean = float(np.mean(vises))
        this_ok = abs(mean - v_t) <= v_tol
        ok &= this_ok
        summary.append(f"{name} {mean:.3f} (target {v_t}+-{v_tol})")
        assert this_ok, f"{name}: ensemble visibility {mean:.4f} vs {v_t}"
    record_acceptance(2, ok, "visibilities " + "; ".join(summary))


def test_criterion_3_tomography_reproduction():
    """End-to-end 16-setting tomography ensembles hit the published metrics."""
    plan = presets.tomo_plan()
    f_s, c_s, t_s = [], [], []
    for k in range(N_SEEDS):
        seeds = [50_000 * k + 31 * i + 7 for i in range(len(plan.settings))]
        counts = run_tomography(plan, seeds, plan.setting_minutes, {})
        metrics = tom.metrics(tom.mle_reconstruct(counts))
        assert metrics.tangle == pytest.approx(metrics.concurrence ** 2,
                                               abs=1e-10)
        f_s.append(metrics.fidelity_singlet)
        c_s.append(metrics.concurrence)
        t_s.append(metrics.tangle)
    f_m, c_m, t_m = np.mean(f_s), np.mean(c_s), np.mean(t_s)
    ok = (abs(f_m - 0.93) <= 0.05 and abs(c_m - 0.93) <= 0.07
          and abs(t_m - 0.86) <= 0.12)
    record_acceptance(
        3, ok, f"tomography F {f_m:.3f} (0.93+-0.05), C {c_m:.3f} "
               f"(0.93+-0.07), T {t_m:.3f} (0.86+-0.12)")
    assert abs(f_m - 0.93) <= 0.05, f"F ensemble mean {f_m:.4f}"
    assert abs(c_m - 0.93) <= 0.07, f"C ensemble mean {c_m:.4f}"
    assert abs(t_m - 0.86) <= 0.12, f"T ensemble mean {t_m:.4f}"


def test_criterion_4_oracle_equivalence():
    """Inversion/MLE agree with ground truth and with each other."""
    rng = np.random.default_rng(404)
    worst_inv, worst_mle = 0.0, 0.0
    for _ in range(50):
        g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        rho = g @ g.conj().T
        rho /= np.trace(rho).real
        vals = tom.expected_counts(rho, normalization=2000.0)
        table = counts_table_from_values(vals)
        worst_inv = max(worst_inv,
                        trace_distance(rho, tom.linear_inversion(table)))
        worst_mle = max(worst_mle,
                        trace_distance(rho, tom.mle_reconstruct(table)))
    assert worst_inv < 1e-9
    assert worst_mle < 1e-6

    beats = 0
    for _ in range(100):
        g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        rho = g @ g.conj().T
        rho /= np.trace(rho).real
        lam = tom.expected_counts(rho, normalization=250.0)
        table = counts_table_from_values(rng.poisson(lam).astype(float))
        projected = tom.project_to_physical(tom.linear_inversion(table))
        rho_mle = tom.mle_reconstruct(table)
        if nll_of_state(rho_mle, table) <= \
                nll_of_state(projected, table) + 1e-9:
            beats += 1
    assert beats == 100
    record_acceptance(
        4, True, f"inversion {worst_inv:.2e} (<1e-9), MLE {worst_mle:.2e} "
                 f"(<1e-6), likelihood wins {beats}/100")


def test_criterion_5_closed_form_cross_checks():
    """Werner and pure-state formulas match the eigen-decomposition route."""
    worst_w = 0.0
    for p in (0.0, 0.25, 1.0 / 3.0, 0.5, 0.9067, 1.0):
        m = tom.metrics(pol.werner(p))
        worst_w = max(worst_w,
                      abs(m.fidelity_singlet - (1.0 + 3.0 * p) / 4.0),
                      abs(m.concurrence - max(0.0, (3.0 * p - 1.0) / 2.0)))
    assert worst_w < 1e-10

    rng = np.random.default_rng(505)
    worst_p = 0.0
    for _ in range(100):
        a = rng.normal() + 1j * rng.normal()
        b = rng.normal() + 1j * rng.normal()
        n = np.sqrt(abs(a) ** 2 + abs(b) ** 2)
        a, b = a / n, b / n
        rho = pol.pure_state_dm([0.0, a, b, 0.0])
        worst_p = max(worst_p, abs(tom.concurrence(rho) - 2.0 * abs(a * b)))
    assert worst_p < 1e-10
    record_acceptance(
        5, True, f"Werner worst {worst_w:.2e}, pure-state worst {worst_p:.2e}"
                 f" (both < 1e-10)")


def test_criterion_6_correlator_property_suite():
    """Flat background, translation invariance, reproducibility, one onset."""
    rng = np.random.default_rng(606)
    duration = 1e4
    apd = np.sort(rng.integers(0, int(duration * 1e9),
                               size=rng.poisson(10.0 * duration)))
    onsets = np.sort(rng.integers(0, int(duration * 1e9),
                                  size=rng.poisson(10.0 * duration)))
    h = histogram_of(apd, onsets)
    mean = 10.0 * 10.0 * 10e-6 * duration
    flat_ok = bool(np.all(np.abs(h.counts - mean) <= 4.0 * np.sqrt(mean)))
    assert flat_ok, "independent streams produced a >4 sigma bin"
    assert not extract(h).signal_is_peak

    shifted = histogram_of(apd + 987_654_321, onsets + 987_654_321)
    assert np.array_equal(h.counts, shifted.counts)
    assert np.array_equal(h.counts, histogram_of(apd, onsets).counts)

    manifest = RunManifest(
        seed=66, duration_s=1e5,
        absorber=absorber_for(pol.RL, "plus"),
        analyzer=AnalyzerSetting(pol.L, 45.0),
        source=SourceModel(pol.singlet(), 1.0),
        sequence=SequenceConfig(),
        rates=RateConfig(pair_rate=2.0, eta_trigger=0.5, eta_herald=0.5,
                         branching_s=0.94, dark_trigger_rate=3.0,
                         false_onset_rate=2.0))
    assert manifest.n_trials == 1_000_000
    stream = simulate_run(manifest)
    onset_trials = np.repeat(*stream.onset_runs)
    one_onset_ok = len(np.unique(onset_trials)) == len(onset_trials)
    assert one_onset_ok, "a trial produced two fluorescence onsets"
    record_acceptance(
        6, True, f"flat within 4 sigma, translation-invariant, reproducible, "
                 f"{len(onset_trials)} onsets in 1e6 trials all unique")


def test_reproduce_paper_default_seed(tmp_path):
    """The one-command reproduction report passes every published number."""
    rows = reproduce_paper(42, tmp_path / "report", quiet=True)
    fails = [key for key, m, t, tol in rows if abs(m - t) > tol]
    record_acceptance(8, not fails,
                      "full-scale reproduce (seed 42): "
                      + ("all 12 verdicts PASS" if not fails
                         else f"FAIL rows {fails}"))
    assert not fails
    assert (tmp_path / "report" / "report.kv").exists()


def test_criterion_7_fringe_fitter():
    """Exact recovery on noiseless data; visibility invariant under scaling."""
    angles = (0.0, 12.0, 27.0, 44.0, 58.0, 71.0, 84.0)
    rng = np.random.default_rng(707)
    worst_resid = 0.0
    for _ in range(25):
        amp, off = rng.uniform(10, 300), rng.uniform(0, 80)
        th0 = rng.uniform(-40, 40)
        pts = tuple(
            ScanPoint(a, off + amp * np.sin(np.radians(2 * (a - th0))) ** 2,
                      0.0, 60.0) for a in angles)
        fit = fit_fringe(FringeScan(pol.RL, pts), th0)
        y = np.array([p.coincidences for p in pts])
        resid = np.abs(fit.model(np.array(angles)) - y) / np.maximum(y, 1.0)
        worst_resid = max(worst_resid, float(np.max(resid)))
    assert worst_resid < 1e-9

    pts = tuple(
        ScanPoint(a, 11.0 + 47.0 * np.sin(np.radians(2 * a)) ** 2, 0.0, 60.0)
        for a in angles)
    base = fit_fringe(FringeScan(pol.RL, pts), 0.0)
    worst_vis = 0.0
    for k in (3.0, 21.0, 480.0):
        scaled = tuple(
            ScanPoint(p.hwp_angle_deg, p.coincidences * k, 0.0, 60.0)
            for p in pts)
        fit = fit_fringe(FringeScan(pol.RL, scaled), 0.0)
        worst_vis = max(worst_vis, abs(fit.visibility - base.visibility))
    assert worst_vis < 1e-6
    record_acceptance(
        7, True, f"noiseless residual {worst_resid:.2e} (<1e-9), "
                 f"rescaling drift {worst_vis:.2e} (<1e-6)")
