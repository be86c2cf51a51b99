"""Paper-calibrated run configurations.

The published count tables pin, per basis, the tau=0 coincidences and the
per-bin background of the orthogonal-setting run, plus the fitted fringe
visibility before background subtraction:

    R-L: 73 coincidences, 15 background, 60 min, 56% visibility
    H-V: 92 coincidences, 24 background, 120 min, 52% visibility
    D-A: 67 coincidences, 21 background, 120 min, 50% visibility

Calibration inverts ``expected_scan``, the analytic forward model of the
simulator (trial structure, first-onset truncation, latency capture of the
tau=0 bin, accidental-coincidence floor), and the weighted sinusoidal fit
on its expected curve, for three knobs per basis: the pair flux reaching
the trigger arm, the source's singlet weight, and the uncorrelated APD rate.
Fixed inputs are the 7% heralding probability, the 94% branching ratio and
a spontaneous-decay false-onset rate of 0.8/s. No event-stream simulation is
involved: the solve is a deterministic root of the rate equations, with the
fit-estimator mean evaluated on fixed-seed Poisson replicas of the expected
curve (the weights on observed counts bias a naive expectation target).
``expected_scan`` evaluates a whole scan in one call and takes its per-pair
probabilities from ``biphoton.arm_probabilities``, as the simulator does.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.optimize import least_squares

from .errors import ConfigError
from . import polarization as pol
from .biphoton import (AbsorberSetting, AnalyzerSetting, SourceModel,
                       absorber_for, arm_probabilities, scan_analyzer)
from .correlate import DEFAULT_BIN_US, DEFAULT_WINDOW_BINS
from .fringes import clipped_wls, fringe_regressor
from .sim import RateConfig, RunManifest, SequenceConfig
from .tomography import TomographySetting, design_16

ETA_TRIGGER = 0.1        # lumped trigger-arm transmission x APD efficiency
ETA_HERALD = 0.07        # absorption probability given a trigger, pre-branching
BRANCHING_S = 0.94       # decay branching into the fluorescing ground state
FALSE_ONSET_RATE = 0.8   # spontaneous metastable decay during detection, 1/s

SCAN_ANGLES_DEG = (0.0, 15.0, 30.0, 45.0, 60.0, 75.0)
THETA_REF_DEG = 0.0      # analyzer detects basis.plus at dial zero
ORTHOGONAL_ANGLE_DEG = 45.0

# Tomography source weight: at paper-scale counts (~100 corrected
# coincidences at the brightest settings) the maximum-likelihood
# reconstruction of a PURE singlet averages F ~ 0.95, C ~ 0.92, T ~ 0.85 with
# per-run spreads ~0.03 / 0.04 / 0.08 -- i.e. the published 0.93(4) / 0.93(6)
# / 0.86(11) are what a near-perfect source looks like through this pipeline
# (the physicality constraint biases every metric down at finite counts).
# Any weight below ~0.97 drags the ensemble means outside the published bands.
TOMO_SINGLET_WEIGHT = 1.0
TOMO_MINUTES = 90.0


@dataclass(frozen=True)
class FringeTargets:
    basis_label: str
    coincidences: float      # tau=0 counts at the orthogonal setting
    background: float        # per-bin background over the same run
    minutes: float           # duration of each scan point
    visibility: float        # fitted, before background subtraction


PAPER_FRINGE_TARGETS = {
    "rl": FringeTargets("RL", 73.0, 15.0, 60.0, 0.56),
    "hv": FringeTargets("HV", 92.0, 24.0, 120.0, 0.52),
    "da": FringeTargets("DA", 67.0, 21.0, 120.0, 0.50),
}

PAPER_VISIBILITY_QUOTED_ERR = {"rl": 0.06, "hv": 0.11, "da": 0.09}

PAPER_METRIC_TARGETS = {"fidelity": 0.93, "concurrence": 0.93, "tangle": 0.86}
PAPER_METRIC_QUOTED_ERR = {"fidelity": 0.04, "concurrence": 0.06,
                           "tangle": 0.11}


# --- analytic forward model ---------------------------------------------------

def expected_scan(source: SourceModel, absorber: AbsorberSetting,
                  analyzers, rates: RateConfig, sequence: SequenceConfig,
                  minutes: float, bin_us: float = DEFAULT_BIN_US,
                  window_bins: int = DEFAULT_WINDOW_BINS):
    """Expected (tau=0 counts, extracted background) arrays, one entry per
    analyzer setting, each for one run of ``minutes``.

    Includes first-onset truncation, bin-0 latency capture, accidental
    coincidences, the window-edge loss on the background mean, and the
    signal peak's bias on that mean.
    """
    n_trials = int(np.floor(minutes * 60.0 * sequence.rep_rate + 1e-9))
    w = sequence.detect_s
    bin_s = bin_us * 1e-6
    n_bins = 2 * window_bins + 1

    marginal, joint = arm_probabilities(source, absorber, analyzers)

    mu_sig = (source.pair_rate * w * rates.eta_trigger * rates.eta_herald
              * rates.branching_s * joint)
    mu_false = rates.false_onset_rate * w
    mu = mu_sig + mu_false
    n_onsets = n_trials * (1.0 - np.exp(-mu))
    n_signal = np.where(mu > 0, n_onsets * mu_sig / np.where(mu > 0, mu, 1.0),
                        0.0)

    kappa = 1.0 - np.exp(-0.5 * bin_s / (rates.onset_latency_us * 1e-6)) \
        if rates.onset_latency_us > 0 else 1.0
    apd_rate = source.pair_rate * rates.eta_trigger * marginal \
        + rates.dark_trigger_rate

    accidental_bin0 = n_onsets * apd_rate * bin_s
    bin0 = n_signal * kappa + accidental_bin0

    span = (window_bins + 0.5) * bin_s
    acc_mean = n_onsets * apd_rate * bin_s * (1.0 - span / (2.0 * w))
    background = acc_mean + n_signal / n_bins
    return bin0, background


def _fitted_visibility(y, angles, theta_ref_deg):
    """Visibility of the clipped WLS fringe fit to each row of y."""
    x = fringe_regressor(np.asarray(angles), theta_ref_deg)
    amp, off, _ = clipped_wls(x, y)
    denom = amp + 2.0 * off
    vis = np.where(denom > 0.0, amp / np.maximum(denom, 1e-300), 0.0)
    return np.clip(vis, 0.0, 1.0)


_VIS_REPLICAS = 4000


def _mean_fitted_visibility(expected_bin0, angles, theta_ref_deg,
                            n_replicas: int = _VIS_REPLICAS) -> float:
    """Ensemble mean of the fitted visibility over Poisson replicas.

    The fit weights use the observed counts (max(N, 1)), which biases the
    fitted offset low on noisy scans and the visibility high; calibrating on
    the estimator's mean rather than on the noiseless curve removes that
    offset. One `clipped_wls` call fits all replicas; fixed seed, so the
    calibration stays deterministic.
    """
    lam = np.asarray(expected_bin0, dtype=float)
    y = np.random.default_rng(20260808).poisson(
        lam, size=(n_replicas, len(lam))).astype(float)
    return float(np.mean(_fitted_visibility(y, angles, theta_ref_deg)))


# --- calibration --------------------------------------------------------------

@dataclass(frozen=True)
class Calibration:
    source: SourceModel
    rates: RateConfig
    sequence: SequenceConfig
    targets: FringeTargets


def _closed_form_seed(t: FringeTargets, sequence: SequenceConfig):
    """First-order starting point for the root solve."""
    n_trials = t.minutes * 60.0 * sequence.rep_rate
    w = sequence.detect_s
    n_bins = 2 * DEFAULT_WINDOW_BINS + 1
    sig_max = (t.coincidences - t.background) * n_bins / (n_bins - 1)
    acc = t.coincidences - sig_max
    weight = t.visibility * (sig_max + acc) / (sig_max - acc * t.visibility)
    weight = min(max(weight, 0.05), 1.0)
    k_span = 2.0 * sig_max / (1.0 + weight)
    kappa = 1.0 - np.exp(-5.0)          # 1 us latency, 5 us half-bin
    mu_false = FALSE_ONSET_RATE * w
    trunc = (1.0 - np.exp(-mu_false)) / mu_false
    pair_eta = 2.0 * k_span / (n_trials * w * ETA_HERALD * BRANCHING_S
                               * trunc * kappa)
    n_onsets = n_trials * (1.0 - np.exp(-mu_false))
    apd_rate = acc / (n_onsets * 1e-5)
    dark = max(apd_rate - pair_eta / 2.0, 0.0)
    return np.array([pair_eta, weight, dark])


@lru_cache(maxsize=None)
def calibrate_fringe_preset(name: str) -> Calibration:
    """Solve the rate equations so the named basis reproduces its targets."""
    if name not in PAPER_FRINGE_TARGETS:
        raise ConfigError(f"unknown fringe preset {name!r}; "
                          f"choose from {sorted(PAPER_FRINGE_TARGETS)}")
    t = PAPER_FRINGE_TARGETS[name]
    sequence = SequenceConfig()
    basis = pol.BASES[t.basis_label]
    absorber = absorber_for(basis, "plus")
    analyzers = [scan_analyzer(basis, th, THETA_REF_DEG)
                 for th in SCAN_ANGLES_DEG]
    i_max = SCAN_ANGLES_DEG.index(ORTHOGONAL_ANGLE_DEG)

    def build(x):
        pair_eta, weight, dark = x
        source = SourceModel(pol.singlet(), float(np.clip(weight, 0.0, 1.0)),
                             pair_rate=pair_eta / ETA_TRIGGER)
        rates = RateConfig(pair_rate=source.pair_rate,
                           eta_trigger=ETA_TRIGGER, eta_herald=ETA_HERALD,
                           branching_s=BRANCHING_S,
                           dark_trigger_rate=max(float(dark), 0.0),
                           false_onset_rate=FALSE_ONSET_RATE)
        return source, rates

    def curve(x):
        """Expected scan of x and its noiseless-curve visibility."""
        source, rates = build(x)
        bin0, bg = expected_scan(source, absorber, analyzers, rates,
                                 sequence, t.minutes)
        vis = float(_fitted_visibility(bin0, SCAN_ANGLES_DEG, THETA_REF_DEG))
        return bin0, bg, vis

    def residuals(x, vis_target):
        bin0, bg, vis = curve(x)
        return [bin0[i_max] - t.coincidences, bg[i_max] - t.background,
                100.0 * (vis - vis_target)]

    # Outer loop: the Poisson-weight estimator bias (mean fitted visibility
    # minus noiseless-curve visibility) is not smooth in x, so it enters as
    # an iteratively refreshed target shift around the smooth expectation
    # solve rather than as a residual.
    x = _closed_form_seed(t, sequence)
    bias = 0.0
    for _ in range(4):
        sol = least_squares(residuals, x, args=(t.visibility - bias,),
                            bounds=([1e-9, 0.0, 0.0], [np.inf, 1.0, np.inf]),
                            xtol=1e-14, ftol=1e-14, gtol=1e-14)
        if np.max(np.abs(sol.fun)) > 1e-6:
            raise ConfigError(f"calibration for {name!r} did not converge: "
                              f"residuals {sol.fun}")
        x = sol.x
        bin0, _, vis = curve(x)
        v_mc = _mean_fitted_visibility(bin0, SCAN_ANGLES_DEG, THETA_REF_DEG)
        new_bias = v_mc - vis
        converged = abs(new_bias - bias) < 2e-4
        bias = new_bias
        if converged:
            break
    # x is the last solve's, so v_mc is the final estimator mean
    if abs(v_mc - t.visibility) > 3e-3:
        raise ConfigError(f"calibration for {name!r}: estimator-mean "
                          f"visibility {v_mc:.4f} missed {t.visibility}")
    return Calibration(*build(x), sequence, t)


# --- preset plans --------------------------------------------------------------

_ABSORBER_BASIS_FOR_STATE = {"H": ("HV", "plus"), "V": ("HV", "minus"),
                             "D": ("DA", "plus"), "R": ("RL", "plus")}


def absorber_for_design_state(label: str) -> AbsorberSetting:
    basis_label, which = _ABSORBER_BASIS_FOR_STATE[label]
    return absorber_for(pol.BASES[basis_label], which,
                        geometry_note=f"tomography: ion absorbs {label}")


@dataclass(frozen=True)
class FringePlan:
    name: str
    basis_label: str
    source: SourceModel
    rates: RateConfig
    sequence: SequenceConfig
    absorber: AbsorberSetting
    angles: tuple
    theta_ref_deg: float
    point_minutes: float
    targets: FringeTargets


@dataclass(frozen=True)
class TomoPlan:
    name: str
    source: SourceModel
    rates: RateConfig
    sequence: SequenceConfig
    setting_minutes: float
    settings: tuple


def fringe_plan(name: str) -> FringePlan:
    cal = calibrate_fringe_preset(name)
    basis = pol.BASES[cal.targets.basis_label]
    return FringePlan(
        name=f"paper-{name}", basis_label=cal.targets.basis_label,
        source=cal.source, rates=cal.rates, sequence=cal.sequence,
        absorber=absorber_for(basis, "plus"), angles=SCAN_ANGLES_DEG,
        theta_ref_deg=THETA_REF_DEG, point_minutes=cal.targets.minutes,
        targets=cal.targets)


def tomo_plan() -> TomoPlan:
    cal = calibrate_fringe_preset("rl")   # rates; the state weight is its own
    source = SourceModel(pol.singlet(), TOMO_SINGLET_WEIGHT,
                         cal.source.pair_rate)
    return TomoPlan(name="paper-tomo", source=source, rates=cal.rates,
                    sequence=cal.sequence, setting_minutes=TOMO_MINUTES,
                    settings=tuple(design_16()))


PRESET_NAMES = ("paper-rl", "paper-hv", "paper-da", "paper-tomo")


def manifest_for_angle(plan: FringePlan, angle_deg: float, seed: int,
                       minutes: float | None = None) -> RunManifest:
    minutes = plan.point_minutes if minutes is None else minutes
    analyzer = scan_analyzer(pol.BASES[plan.basis_label], angle_deg,
                             plan.theta_ref_deg)
    return RunManifest(seed=int(seed), duration_s=minutes * 60.0,
                       absorber=plan.absorber, analyzer=analyzer,
                       source=plan.source, sequence=plan.sequence,
                       rates=plan.rates)


def manifest_for_setting(plan: TomoPlan, setting: TomographySetting,
                         seed: int, minutes: float | None = None) -> RunManifest:
    minutes = plan.setting_minutes if minutes is None else minutes
    absorber = absorber_for_design_state(setting.label[0])
    analyzer = AnalyzerSetting(setting.analyzer_state, hwp_angle=None)
    return RunManifest(seed=int(seed), duration_s=minutes * 60.0,
                       absorber=absorber, analyzer=analyzer,
                       source=plan.source, sequence=plan.sequence,
                       rates=plan.rates)


def preset_manifest(name: str, seed: int, angle_deg: float | None = None,
                    minutes: float | None = None) -> RunManifest:
    """Single-run manifest for a named preset (CLI entry point)."""
    if name == "paper-tomo":
        raise ConfigError("paper-tomo is a 16-setting plan; use the "
                          "reproduce command or build manifests per setting")
    if not name.startswith("paper-"):
        raise ConfigError(f"unknown preset {name!r}; choose from {PRESET_NAMES}")
    plan = fringe_plan(name[len("paper-"):])
    angle = ORTHOGONAL_ANGLE_DEG if angle_deg is None else angle_deg
    return manifest_for_angle(plan, angle, seed, minutes)
