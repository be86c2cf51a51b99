"""Statistical model of the pair source and the two measurement arms.

The source's two-photon state is a Werner-type mixture of the singlet with
white noise (one knob, ``singlet_weight``); the pair flux is a rate of the
run (``sim.RateConfig.pair_rate``). Qubit A is the unfiltered photon sent to
the ion, qubit B the filtered trigger photon. The ion is a
polarization-sensitive absorber: after optical pumping it maximally absorbs
the ``allowed`` state of the chosen basis and cannot absorb the orthogonal
one. The trigger arm projects onto an analyzer state that a
half-wave plate at dial angle theta steers around the Poincare sphere with a
90-degree fringe period (the plate rotates linear polarization by 2*theta,
i.e. by 4*theta on the sphere).

``arm_probabilities`` is the one place the 4x4 algebra is evaluated: the
simulator and the calibration's expected-count model (``presets``) take
their per-pair trigger and joint probabilities from it, and
``fringe_params`` the fringe phase.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DataError
from . import polarization as pol
from .polarization import (PolarizationBasis, PolarizationState,
                           TwoQubitDensityMatrix)


@dataclass(frozen=True)
class SourceModel:
    """Two-photon state of the source: ideal state mixed with white noise.

    effective state = singlet_weight * ideal_state + (1 - singlet_weight) * I/4
    """

    ideal_state: TwoQubitDensityMatrix = field(default_factory=pol.singlet)
    singlet_weight: float = 1.0
    _effective: TwoQubitDensityMatrix = field(init=False, repr=False,
                                              compare=False)

    def __post_init__(self):
        if not 0.0 <= self.singlet_weight <= 1.0:
            raise ConfigError(
                f"singlet_weight outside [0, 1]: {self.singlet_weight}")
        # built and validated once; the fields are frozen
        w = self.singlet_weight
        object.__setattr__(self, "_effective", TwoQubitDensityMatrix(
            w * self.ideal_state.matrix + (1.0 - w) * np.eye(4) / 4.0))

    def effective_state(self) -> TwoQubitDensityMatrix:
        return self._effective


@dataclass(frozen=True)
class AbsorberSetting:
    """Prepared ion: absorbs ``allowed``, one of the two states of ``basis``,
    and is transparent to the other."""

    basis: PolarizationBasis
    allowed: PolarizationState

    def __post_init__(self):
        if not any(pol.overlap(self.allowed, b) > 1.0 - 1e-12
                   for b in (self.basis.plus, self.basis.minus)):
            raise DataError(
                f"absorber state does not belong to basis {self.basis.label}")


def absorber_for(basis: PolarizationBasis,
                 allowed: str = "plus") -> AbsorberSetting:
    """AbsorberSetting allowing the named element ("plus" or "minus") of basis."""
    if allowed not in ("plus", "minus"):
        raise ConfigError(f"allowed must be 'plus' or 'minus', got {allowed!r}")
    return AbsorberSetting(basis, getattr(basis, allowed))


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
    # in Python floats, which overflow to inf without numpy's warnings
    phase = 4.0 * (float(hwp_deg) - float(theta_ref_deg))
    if not np.isfinite(phase):
        raise DataError(f"angle {hwp_deg} is not a finite HWP angle from "
                        f"reference {theta_ref_deg}: its phase is {phase}")
    phi = np.radians(phase)
    n_plus = pol.to_poincare(basis.plus)
    n_mid = _SCAN_MERIDIAN[basis.label]
    n = np.cos(phi) * n_plus + np.sin(phi) * n_mid
    return AnalyzerSetting(pol.from_poincare(n), hwp_angle=float(hwp_deg))


_I2 = np.eye(2)


def arm_probabilities(source: SourceModel, absorber: AbsorberSetting,
                      analyzers) -> tuple[np.ndarray, np.ndarray]:
    """Per-pair arm probabilities, one entry per analyzer setting.

    marginal = Tr[rho (I x |an><an|)]: the trigger photon passes the analyzer.
    joint = Tr[rho (|allowed><allowed| x |an><an|)]: it passes and its partner
    is in the absorber's allowed state. The conditional absorption given a
    trigger is joint / marginal, undefined where marginal is zero.
    """
    rho = source.effective_state().matrix
    # kron(a, b)[2i + j, 2k + l] = a[i, k] * b[j, l], for a in (I, allowed)
    # and b over the analyzers: one (2, n, 4, 4) stack of projectors
    a = np.array([_I2, absorber.allowed.projector()])
    b = np.array([an.projector_state.projector() for an in analyzers])
    proj = (a[:, None, :, None, :, None]
            * b[None, :, None, :, None, :]).reshape(2, len(b), 4, 4)
    marginal, joint = (rho @ proj).trace(axis1=2, axis2=3).real.clip(0.0, 1.0)
    return marginal, joint


def fringe_params(source: SourceModel, absorber: AbsorberSetting,
                  theta_ref_deg: float) -> float:
    """Fringe phase: the HWP dial angle theta0 of the coincidence minimum.

    Along the scan circle the joint probability is sinusoidal in phi =
    4*(theta - theta_ref): f(phi) = c0 + c1 cos(phi) + c2 sin(phi), so three
    evaluations pin it down. Returned in the canonical (-45, 45] window.
    """
    quarter = [scan_analyzer(absorber.basis, theta_ref_deg + q, theta_ref_deg)
               for q in (0.0, 22.5, 45.0)]
    _, (f0, f90, f180) = arm_probabilities(source, absorber, quarter)
    c0 = 0.5 * (f0 + f180)
    c1 = 0.5 * (f0 - f180)
    c2 = f90 - c0
    psi = np.arctan2(c2, c1)

    # maximum at phi = psi, minimum 45 dial degrees away
    theta_max = theta_ref_deg + np.degrees(psi) / 4.0
    theta0 = theta_max - 45.0
    theta0 = (theta0 + 45.0) % 90.0 - 45.0   # canonical (-45, 45] window
    return float(theta0)
