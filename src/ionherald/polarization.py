"""Single-photon polarization algebra.

Pure polarization states as Jones vectors (c_h, c_v), the three measurement
bases R-L / H-V / D-A, projector overlaps, the Poincare sphere map, and 4x4
two-photon density matrices in the product basis ordered HH, HV, VH, VV.

Conventions (fixed so that derived numbers are reproducible):
  * R = (H + iV)/sqrt(2) maps to the north pole, s3 = +1.
  * Stokes components: s1 = |c_h|^2 - |c_v|^2, s2 = 2 Re(c_h* c_v),
    s3 = 2 Im(c_h* c_v), so H -> (1,0,0), D -> (0,1,0), R -> (0,0,1).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DataError

NORM_TOL = 1e-6        # accepted input deviation of |c_h|^2+|c_v|^2 from 1
HERMITICITY_TOL = 1e-10
TRACE_TOL = 1e-10
PSD_FLOOR = -1e-9      # smallest eigenvalue tolerated in a density matrix


@dataclass(frozen=True)
class PolarizationState:
    """Pure single-photon polarization state.

    Amplitudes are validated against NORM_TOL and then renormalized exactly,
    so stored states satisfy |c_h|^2 + |c_v|^2 = 1 to machine precision.
    Global phase is physically meaningless; every operation in this module is
    invariant under it.
    """

    c_h: complex
    c_v: complex

    def __post_init__(self):
        norm = abs(self.c_h) ** 2 + abs(self.c_v) ** 2
        # written so that a NaN norm fails too
        if not abs(norm - 1.0) <= NORM_TOL:
            raise DataError(
                f"polarization state not normalized: |c|^2 = {norm!r}")
        # rescaling already-normalized amplitudes would churn the last ulp
        # and break byte-stable serialization round trips
        scale = 1.0 if abs(norm - 1.0) <= 1e-15 else 1.0 / np.sqrt(norm)
        object.__setattr__(self, "c_h", complex(self.c_h) * scale)
        object.__setattr__(self, "c_v", complex(self.c_v) * scale)

    @property
    def vector(self) -> np.ndarray:
        return np.array([self.c_h, self.c_v], dtype=complex)

    def projector(self) -> np.ndarray:
        v = self.vector
        return np.outer(v, v.conj())


H = PolarizationState(1.0, 0.0)
V = PolarizationState(0.0, 1.0)
D = PolarizationState(1.0 / np.sqrt(2.0), 1.0 / np.sqrt(2.0))
A = PolarizationState(1.0 / np.sqrt(2.0), -1.0 / np.sqrt(2.0))
R = PolarizationState(1.0 / np.sqrt(2.0), 1j / np.sqrt(2.0))
L = PolarizationState(1.0 / np.sqrt(2.0), -1j / np.sqrt(2.0))

STATE_BY_LABEL = {"H": H, "V": V, "D": D, "A": A, "R": R, "L": L}


@dataclass(frozen=True)
class PolarizationBasis:
    """One of the three measurement bases: an orthonormal pair of states."""

    label: str
    plus: PolarizationState
    minus: PolarizationState

    def __post_init__(self):
        if abs(np.vdot(self.plus.vector, self.minus.vector)) > 1e-12:
            raise DataError(f"basis {self.label}: plus/minus not orthogonal")


RL = PolarizationBasis("RL", R, L)
HV = PolarizationBasis("HV", H, V)
DA = PolarizationBasis("DA", D, A)

BASES = {"RL": RL, "HV": HV, "DA": DA}


def overlap(a: PolarizationState, b: PolarizationState) -> float:
    """Projection probability |<a|b>|^2 between two pure states."""
    amp = np.vdot(a.vector, b.vector)
    p = float(abs(amp) ** 2)
    # guard against rounding just outside [0, 1]
    return min(1.0, max(0.0, p))


def to_poincare(s: PolarizationState) -> np.ndarray:
    """Stokes vector (s1, s2, s3) of a pure state: unit length, orthogonal
    states antipodal."""
    ch, cv = s.c_h, s.c_v
    cross = np.conj(ch) * cv
    return np.array([abs(ch) ** 2 - abs(cv) ** 2, 2.0 * cross.real,
                     2.0 * cross.imag])


def from_poincare(v) -> PolarizationState:
    """Inverse of to_poincare on the unit sphere (pure states mod phase)."""
    arr = np.asarray(v, float)
    n = np.linalg.norm(arr)
    if not abs(n - 1.0) <= 1e-6:      # also rejects a NaN norm
        raise DataError(f"Poincare vector not on the unit sphere: |s| = {n!r}")
    s1, s2, s3 = arr / n
    theta = np.arccos(np.clip(s1, -1.0, 1.0))
    ch = np.cos(theta / 2.0)
    cv = np.sin(theta / 2.0) * np.exp(1j * np.arctan2(s3, s2))
    return PolarizationState(ch, cv)


# --- two-qubit density matrices -------------------------------------------

_I4 = np.eye(4, dtype=complex)


@dataclass(frozen=True, eq=False)
class TwoQubitDensityMatrix:
    """4x4 Hermitian, PSD, trace-1 operator in the HH/HV/VH/VV product basis.

    Compared by identity; use np.allclose on .matrix for value comparison.
    """

    entries: np.ndarray = field(repr=False)

    def __post_init__(self):
        m = np.array(self.entries, dtype=complex)
        if m.shape != (4, 4):
            raise DataError(f"density matrix must be 4x4, got {m.shape}")
        # NaN would compare False in every check below
        if not np.isfinite(m).all():
            raise DataError("density matrix has non-finite entries")
        if np.max(np.abs(m - m.conj().T)) > HERMITICITY_TOL:
            raise DataError("density matrix not Hermitian")
        if abs(np.trace(m).real - 1.0) > TRACE_TOL or abs(np.trace(m).imag) > TRACE_TOL:
            raise DataError(f"density matrix trace != 1: {np.trace(m)!r}")
        if np.min(np.linalg.eigvalsh(m)) < PSD_FLOOR:
            raise DataError("density matrix not positive semidefinite")
        m.flags.writeable = False
        object.__setattr__(self, "entries", m)

    @property
    def matrix(self) -> np.ndarray:
        return self.entries


def pure_state_dm(amplitudes) -> TwoQubitDensityMatrix:
    """Density matrix of a pure two-photon state given in the HH..VV basis."""
    psi = np.asarray(amplitudes, dtype=complex)
    psi = psi / np.linalg.norm(psi)
    return TwoQubitDensityMatrix(np.outer(psi, psi.conj()))


def singlet() -> TwoQubitDensityMatrix:
    """|Psi-><Psi-| with |Psi-> = (|HV> - |VH>)/sqrt(2)."""
    return pure_state_dm([0.0, 1.0, -1.0, 0.0])


def maximally_mixed() -> TwoQubitDensityMatrix:
    return TwoQubitDensityMatrix(_I4 / 4.0)


def werner(weight: float) -> TwoQubitDensityMatrix:
    """weight * singlet + (1 - weight) * I/4."""
    if not 0.0 <= weight <= 1.0:
        raise DataError(f"Werner weight outside [0, 1]: {weight}")
    return TwoQubitDensityMatrix(
        weight * singlet().matrix + (1.0 - weight) * _I4 / 4.0)
