"""Statistical model of the pair source and the two measurement arms.

The source emits pairs in a Werner-type mixture of the two-photon singlet
with white noise (one knob, ``singlet_weight``). Qubit A is the unfiltered
photon sent to the ion, qubit B the filtered trigger photon. The ion is a
polarization-sensitive absorber: after optical pumping it cannot absorb the
``blocked`` state of the chosen basis and maximally absorbs the orthogonal
``allowed`` state. The trigger arm projects onto an analyzer state that a
half-wave plate at dial angle theta steers around the Poincare sphere with a
90-degree fringe period (the plate rotates linear polarization by 2*theta,
i.e. by 4*theta on the sphere).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DataError, UndefinedConditionalError
from . import polarization as pol
from .polarization import (PolarizationBasis, PolarizationState,
                           TwoQubitDensityMatrix)


@dataclass(frozen=True)
class SourceModel:
    """Pair source: ideal two-photon state mixed with white noise.

    effective state = singlet_weight * ideal_state + (1 - singlet_weight) * I/4
    """

    ideal_state: TwoQubitDensityMatrix = field(default_factory=pol.singlet)
    singlet_weight: float = 1.0
    pair_rate: float = 1.0    # pairs/s reaching the beam-splitter outputs

    def __post_init__(self):
        if not 0.0 <= self.singlet_weight <= 1.0:
            raise ConfigError(
                f"singlet_weight outside [0, 1]: {self.singlet_weight}")
        if not 0.0 < self.pair_rate < np.inf:
            raise ConfigError(
                f"pair_rate must be finite and > 0, got {self.pair_rate}")
        self.effective_state()  # validates the mixture

    def effective_state(self) -> TwoQubitDensityMatrix:
        w = self.singlet_weight
        m = w * self.ideal_state.matrix + (1.0 - w) * np.eye(4) / 4.0
        return TwoQubitDensityMatrix(m)


@dataclass(frozen=True)
class AbsorberSetting:
    """Prepared ion: absorbs ``allowed``, transparent to ``blocked``.

    Abstracts one (B, k, E) pumping geometry; ``geometry_note`` records which.
    """

    basis: PolarizationBasis
    blocked: PolarizationState
    allowed: PolarizationState
    geometry_note: str = ""

    def __post_init__(self):
        if abs(np.vdot(self.blocked.vector, self.allowed.vector)) > 1e-12:
            raise DataError("absorber blocked/allowed states not orthogonal")
        for s in (self.blocked, self.allowed):
            if not any(pol.overlap(s, b) > 1.0 - 1e-12
                       for b in (self.basis.plus, self.basis.minus)):
                raise DataError(
                    f"absorber state does not belong to basis {self.basis.label}")


def absorber_for(basis: PolarizationBasis, allowed: str = "plus",
                 geometry_note: str = "") -> AbsorberSetting:
    """AbsorberSetting allowing the named element ("plus" or "minus") of basis."""
    if allowed == "plus":
        return AbsorberSetting(basis, basis.minus, basis.plus, geometry_note)
    if allowed == "minus":
        return AbsorberSetting(basis, basis.plus, basis.minus, geometry_note)
    raise ConfigError(f"allowed must be 'plus' or 'minus', got {allowed!r}")


@dataclass(frozen=True)
class AnalyzerSetting:
    """Trigger-arm projection state, with the HWP dial angle that produced it
    (None for settings dialed in directly, e.g. tomography projections)."""

    projector_state: PolarizationState
    hwp_angle: float | None = None


# Scan trajectories: rotating the HWP moves the detected state along a great
# circle through basis.plus and basis.minus. The meridian (which great circle)
# is fixed per basis: through H for the R-L scan, through D for H-V, through
# R for D-A; for the linear bases this is exactly the waveplate physics, for
# R-L it is one self-consistent choice of the QWP setting.
_SCAN_MERIDIAN = {
    "RL": np.array([1.0, 0.0, 0.0]),
    "HV": np.array([0.0, 1.0, 0.0]),
    "DA": np.array([0.0, 0.0, 1.0]),
}


def scan_analyzer(basis: PolarizationBasis, hwp_deg: float,
                  theta_ref_deg: float = 0.0) -> AnalyzerSetting:
    """Analyzer state at HWP dial angle ``hwp_deg`` for a fringe scan.

    At theta_ref the analyzer detects basis.plus; the detected state advances
    by 4*(theta - theta_ref) on the Poincare sphere, reaching basis.minus
    45 degrees later. Fringes in any observable are 90-degree periodic.
    """
    if basis.label not in _SCAN_MERIDIAN:
        raise ConfigError(f"no scan trajectory for basis {basis.label!r}")
    phi = np.radians(4.0 * (hwp_deg - theta_ref_deg))
    n_plus = pol.to_poincare(basis.plus).as_array()
    n_mid = _SCAN_MERIDIAN[basis.label]
    n = np.cos(phi) * n_plus + np.sin(phi) * n_mid
    return AnalyzerSetting(pol.from_poincare(n), hwp_angle=float(hwp_deg))


def trigger_probability(src: SourceModel, an: AnalyzerSetting,
                        eta_trigger: float) -> float:
    """Per-pair probability of an APD click in the trigger arm."""
    if not 0.0 < eta_trigger <= 1.0:
        raise ConfigError(f"eta_trigger outside (0, 1]: {eta_trigger}")
    rho = src.effective_state()
    return eta_trigger * pol.marginal_projection_probability(
        rho, an.projector_state, side="B")


def heralded_absorption_probability(src: SourceModel, ab: AbsorberSetting,
                                    an: AnalyzerSetting,
                                    eta_herald: float) -> float:
    """P(ion absorbs | trigger fired), scaled by eta_herald.

    eta_herald * Tr[rho (|allowed><allowed| x |an><an|)] / Tr[rho (I x |an><an|)]
    """
    if not 0.0 < eta_herald <= 1.0:
        raise ConfigError(f"eta_herald outside (0, 1]: {eta_herald}")
    rho = src.effective_state()
    marginal = pol.marginal_projection_probability(
        rho, an.projector_state, side="B")
    if marginal <= 0.0:
        raise UndefinedConditionalError(
            "trigger probability is zero; conditional absorption undefined")
    joint = pol.joint_projection_probability(
        rho, ab.allowed, an.projector_state)
    return eta_herald * joint / marginal


# --- analytic fringe prediction ---------------------------------------------


@dataclass(frozen=True)
class FringeParams:
    """Closed-form fringe of the coincidence rate versus HWP angle (per wall
    second): rate(theta) = background_rate + amplitude * sin^2(2(theta - theta0))."""

    amplitude: float
    offset_rate: float       # angle-independent signal floor
    background_rate: float   # accidental-coincidence floor
    theta0_deg: float        # dial angle of the fringe minimum
    theta_max_deg: float     # dial angle of maximum coincidence


def fringe_params(src: SourceModel, ab: AbsorberSetting, rates,
                  sequence=None, theta_ref_deg: float = 0.0) -> FringeParams:
    """Fringe constants from the matrix model (no fitting involved).

    ``rates`` is a sim.RateConfig; ``sequence`` a sim.SequenceConfig (defaults
    to the standard 10 Hz sequence). Idealized: trial-truncation and
    latency-binning losses are not applied here.
    """
    from .sim import SequenceConfig  # local import to avoid a cycle
    seq = sequence if sequence is not None else SequenceConfig()
    duty = seq.duty_cycle
    rho = src.effective_state()

    # Joint probability along the scan circle is sinusoidal in phi = 4*theta:
    # f(phi) = c0 + c1 cos(phi) + c2 sin(phi); three evaluations pin it down.
    def joint_at(phi_deg_quarter):
        an = scan_analyzer(ab.basis, theta_ref_deg + phi_deg_quarter,
                           theta_ref_deg)
        return pol.joint_projection_probability(rho, ab.allowed,
                                                an.projector_state)

    f0, f90, f180 = joint_at(0.0), joint_at(22.5), joint_at(45.0)
    c0 = 0.5 * (f0 + f180)
    c1 = 0.5 * (f0 - f180)
    c2 = f90 - c0
    amp_j = np.hypot(c1, c2)                 # f = c0 + amp_j cos(phi - psi)
    psi = np.arctan2(c2, c1)

    per_pair = rates.eta_trigger * rates.eta_herald * rates.branching_s
    scale = duty * src.pair_rate * per_pair
    amplitude = 2.0 * amp_j * scale
    offset_rate = (c0 - amp_j) * scale

    # minimum of f at phi = psi + pi -> theta0 = theta_ref + (psi + pi)/4 rad
    # ... maximum at phi = psi. Express angles back on the HWP dial.
    theta_max = theta_ref_deg + np.degrees(psi) / 4.0
    theta0 = theta_max - 45.0
    theta0 = (theta0 + 45.0) % 90.0 - 45.0   # canonical (-45, 45] window

    apd_rate = src.pair_rate * rates.eta_trigger * pol.marginal_projection_probability(
        rho, scan_analyzer(ab.basis, theta_ref_deg).projector_state, side="B")
    apd_rate += rates.dark_trigger_rate
    bin_s = 1e-5  # background quoted per 10 us lag bin
    background_rate = duty * rates.false_onset_rate * apd_rate * bin_s

    return FringeParams(amplitude, offset_rate, background_rate,
                        float(theta0), float(theta_max % 90.0))


def fringe_prediction(src: SourceModel, ab: AbsorberSetting, hwp_angles,
                      rates, sequence=None,
                      theta_ref_deg: float = 0.0) -> list[tuple[float, float]]:
    """Expected tau=0 coincidence rate (per wall second) at each HWP angle."""
    angles = [float(a) for a in hwp_angles]
    if not all(np.isfinite(angles)):
        raise DataError("hwp_angles must be finite")
    p = fringe_params(src, ab, rates, sequence, theta_ref_deg)
    out = []
    for th in angles:
        s = np.sin(np.radians(2.0 * (th - p.theta0_deg))) ** 2
        out.append((th, p.background_rate + p.offset_rate + p.amplitude * s))
    return out
