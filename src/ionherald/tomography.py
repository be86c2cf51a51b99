"""Two-qubit state reconstruction from 16 projective coincidence settings.

The measurement design is {H, V, D, R} x {H, V, D, R} (absorber side x
analyzer side), which spans the 16-dimensional operator space; it is fixed,
and a counts table holds its rows in design order. Linear
inversion solves the Born-rule system exactly; the maximum-likelihood
estimator minimizes the Poisson negative log-likelihood over density
matrices directly, by accelerated projected gradient from the physically
projected inversion, with numpy alone.

Entanglement metrics: overlap fidelity with the two-photon singlet,
concurrence via the spin-flip spectrum, and tangle = concurrence^2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DataError
from .polarization import (STATE_BY_LABEL, PolarizationState,
                           TwoQubitDensityMatrix)

_PAULI = [
    np.eye(2, dtype=complex),
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
]
_YY = np.kron(_PAULI[2], _PAULI[2])
_SINGLET_VEC = np.array([0, 1, -1, 0], dtype=complex) / np.sqrt(2.0)

DESIGN_LABELS = ("H", "V", "D", "R")


@dataclass(frozen=True)
class TomographySetting:
    """One projective (absorber, analyzer) pair of the 16-setting design."""

    absorber_state: PolarizationState
    analyzer_state: PolarizationState
    label: str

    def projector(self) -> np.ndarray:
        return np.kron(self.absorber_state.projector(),
                       self.analyzer_state.projector())


@dataclass(frozen=True)
class CountsRow:
    setting: TomographySetting
    coincidences: float      # background-subtracted, clamped >= 0
    raw: int
    background: float
    duration_s: float

    def __post_init__(self):
        if self.coincidences < 0:
            raise DataError("corrected coincidences must be >= 0")
        if self.duration_s <= 0:
            raise DataError("row duration must be > 0")


@dataclass(frozen=True)
class CountsTable:
    """One row per design setting, given in any order and stored in design
    order, so that row i pairs with PROJECTORS[i]."""

    rows: tuple

    def __post_init__(self):
        rows = tuple(self.rows)
        if len(rows) != 16:
            raise DataError(f"counts table needs 16 rows, got {len(rows)}")
        for r in rows:
            if r.setting not in _DESIGN_INDEX:
                raise DataError(f"setting {r.setting.label!r} is not the "
                                "design's setting for that label")
        labels = {r.setting.label for r in rows}
        if len(labels) != 16:
            raise DataError("counts table has duplicate settings")
        object.__setattr__(self, "rows", tuple(
            sorted(rows, key=lambda r: _DESIGN_INDEX[r.setting])))

    def corrected(self) -> np.ndarray:
        return np.array([r.coincidences for r in self.rows], dtype=float)

    def row(self, label: str) -> CountsRow:
        for r in self.rows:
            if r.setting.label == label:
                return r
        raise DataError(f"no row labeled {label!r}")


@dataclass(frozen=True)
class EntanglementMetrics:
    fidelity_singlet: float
    concurrence: float
    tangle: float
    fidelity_err: float | None = None
    concurrence_err: float | None = None
    tangle_err: float | None = None


# the {H,V,D,R} x {H,V,D,R} informationally complete design, row-major
DESIGN = tuple(TomographySetting(STATE_BY_LABEL[a], STATE_BY_LABEL[b], a + b)
               for a in DESIGN_LABELS for b in DESIGN_LABELS)
_DESIGN_INDEX = {s: i for i, s in enumerate(DESIGN)}
# the projectors P_nu of the design, in design order
PROJECTORS = np.stack([s.projector() for s in DESIGN])
PROJECTORS.flags.writeable = False


def settings_normalization(counts: CountsTable) -> float:
    """Per-setting normalization from the complete {H,V} x {H,V} subset.

    Those four projectors sum to the identity, so their corrected counts sum
    to the effective number of measured pairs per setting.
    """
    n = sum(counts.row(lbl).coincidences for lbl in ("HH", "HV", "VH", "VV"))
    if n <= 0:
        raise DataError("normalization subset has no counts")
    return float(n)


def expected_counts(rho, normalization: float = 1.0) -> np.ndarray:
    """Noiseless synthetic counts N * Tr[rho P_nu] for each design setting."""
    m = rho.matrix if isinstance(rho, TwoQubitDensityMatrix) else np.asarray(rho)
    return normalization * np.real(np.einsum("ij,nji->n", m, PROJECTORS))


def counts_table_from_values(values, raw=None, background=None,
                             duration_s: float = 1.0) -> CountsTable:
    """Assemble a CountsTable from 16 corrected values in design order."""
    values = np.asarray(values, dtype=float)
    rows = []
    for i, s in enumerate(DESIGN):
        rows.append(CountsRow(
            s, float(max(values[i], 0.0)),
            int(raw[i]) if raw is not None else int(round(max(values[i], 0.0))),
            float(background[i]) if background is not None else 0.0,
            duration_s))
    return CountsTable(tuple(rows))


# --- linear inversion --------------------------------------------------------

def _hermitian_basis() -> np.ndarray:
    """Orthonormal basis of 4x4 Hermitian operators: (sigma_i x sigma_j)/2."""
    out = []
    for i in range(4):
        for j in range(4):
            out.append(np.kron(_PAULI[i], _PAULI[j]) / 2.0)
    return np.stack(out)


_HBASIS = _hermitian_basis()
# Born-rule system matrix Tr[B_m P_nu]; the design makes it full rank
_INVERSION = np.real(np.einsum("mij,nji->nm", _HBASIS, PROJECTORS))


def linear_inversion(counts: CountsTable) -> np.ndarray:
    """Solve the Born-rule linear system for a Hermitian trace-1 matrix.

    Returns a raw 4x4 array: Hermitian and trace-1 but possibly not PSD, so
    it is deliberately not wrapped in TwoQubitDensityMatrix.
    """
    n_hat = settings_normalization(counts)
    probs = counts.corrected() / n_hat
    coeff = np.linalg.solve(_INVERSION, probs)
    rho = np.einsum("m,mij->ij", coeff, _HBASIS.astype(complex))
    rho = 0.5 * (rho + rho.conj().T)
    tr = float(np.trace(rho).real)
    if tr <= 0:
        raise DataError("linear inversion produced a non-positive trace")
    return rho / tr


def project_to_physical(candidate: np.ndarray) -> TwoQubitDensityMatrix:
    """Nearest-physical projection: clip negative eigenvalues, renormalize."""
    h = 0.5 * (candidate + np.asarray(candidate).conj().T)
    vals, vecs = np.linalg.eigh(h)
    vals = np.clip(vals, 0.0, None)
    if vals.sum() <= 0:
        raise DataError("projection collapsed to the zero matrix")
    vals /= vals.sum()
    return TwoQubitDensityMatrix((vecs * vals) @ vecs.conj().T)


# --- maximum-likelihood reconstruction ---------------------------------------

# row nu holds P_nu flattened
_PROJECTOR_ROWS = PROJECTORS.reshape(16, 16)


def _probabilities(m: np.ndarray) -> np.ndarray:
    """Tr[m P_nu] floored at 1e-15."""
    return np.maximum((_PROJECTOR_ROWS @ m.T.ravel()).real, 1e-15)


def _nll(p: np.ndarray, counts_vec: np.ndarray, normalization: float) -> float:
    """Poisson negative log-likelihood (James, Kwiat, Munro & White, PRA 64,
    052312 (2001)) of floored probabilities p."""
    return float(np.sum(normalization * p
                        - counts_vec * np.log(normalization * p)))


def _state_projection(h: np.ndarray) -> np.ndarray:
    """Frobenius-nearest density matrix to the Hermitian h: its eigenvalues
    projected onto the probability simplex."""
    vals, vecs = np.linalg.eigh(h)
    u = vals[::-1]                      # eigh sorts them ascending
    excess = np.cumsum(u) - 1.0
    k = np.count_nonzero(u * np.arange(1, len(u) + 1) > excess)
    return (vecs * np.maximum(vals - excess[k - 1] / k, 0.0)) @ vecs.conj().T


MAX_ITER = 100_000
STEP_TOL = 1e-9


def mle_reconstruct(counts: CountsTable, return_info: bool = False):
    """Maximum-likelihood density matrix for one counts table.

    Minimizes the NLL of nll_of_state over density matrices by accelerated
    projected gradient with backtracking and restart (Shang, Zhang & Ng,
    PRA 95, 062336 (2017)) from the projected linear inversion. The gradient
    is G = sum((N - n/p) P_nu); N and n are divided by the largest of them,
    so G and the step size t are of order 1. t grows 1.5x per step and
    halves until the NLL's Bregman divergence sum(n (u - log1p(u))),
    u = p_x/p_y - 1, is at most |x - y|^2 / 2t. The momentum restarts when
    it opposes the step. Deterministic.

    grad_norm is the norm of the last projected-gradient step x - y over t
    (the gradient mapping, 0 at the optimum), in counts; the fit stops once
    it is at most STEP_TOL times the larger of N and the largest count.
    ConvergenceError after MAX_ITER iterations, or if the NLL ends more than
    1e-9 above the start's. return_info adds a dict of nll, start_nll,
    grad_norm and iterations.
    """
    n_hat = settings_normalization(counts)
    counts_vec = counts.corrected()
    scale = max(n_hat, float(counts_vec.max()))
    big_n, n = n_hat / scale, counts_vec / scale

    rho = project_to_physical(linear_inversion(counts)).matrix
    p = p_y = _probabilities(rho)
    start_nll = _nll(p, counts_vec, n_hat)
    y, theta, t = rho, 1.0, 1.0
    for iterations in range(1, MAX_ITER + 1):
        grad = ((big_n - n / p_y) @ _PROJECTOR_ROWS).reshape(4, 4)
        t *= 1.5
        while True:
            x = _state_projection(y - t * grad)
            step = x - y
            step_sq = np.vdot(step, step).real
            p = _probabilities(x)
            u = p / p_y - 1.0
            if np.sum(n * (u - np.log1p(u))) <= step_sq / (2.0 * t):
                break
            t *= 0.5
        grad_norm = float(np.sqrt(step_sq) / t * scale)
        if np.vdot(step, rho - x).real > 0.0:
            theta = 1.0
        theta_next = 0.5 + np.sqrt(0.25 + theta * theta)
        y = x + (theta - 1.0) / theta_next * (x - rho)
        rho, theta = x, theta_next
        if grad_norm <= STEP_TOL * scale:
            break
        p_y = _probabilities(y)
    else:
        raise ConvergenceError(f"MLE did not converge in {MAX_ITER} "
                               f"iterations (|step| = {grad_norm:.3e})")
    nll = _nll(p, counts_vec, n_hat)
    if nll > start_nll + 1e-9:
        raise ConvergenceError(f"MLE ended above its start: NLL {nll!r}")
    # exactly Hermitian, so the written imaginary diagonal is +0
    rho = TwoQubitDensityMatrix(0.5 * (rho + rho.conj().T))
    if return_info:
        return rho, {"nll": nll, "start_nll": start_nll,
                     "grad_norm": grad_norm, "iterations": iterations}
    return rho


def nll_of_state(rho, counts: CountsTable) -> float:
    """Poisson NLL of an arbitrary physical state for the given counts."""
    m = rho.matrix if isinstance(rho, TwoQubitDensityMatrix) else rho
    return _nll(_probabilities(np.asarray(m)), counts.corrected(),
                settings_normalization(counts))


# --- metrics -----------------------------------------------------------------

def fidelity_singlet(rho) -> float:
    m = rho.matrix if isinstance(rho, TwoQubitDensityMatrix) else rho
    return float(np.real(_SINGLET_VEC.conj() @ m @ _SINGLET_VEC))


def concurrence(rho) -> float:
    """Spin-flip spectrum: C = max(0, l1 - l2 - l3 - l4) with l_i the
    decreasing square roots of the eigenvalues of rho (YxY) rho* (YxY).

    The l_i equal the singular values of sqrt(rho) (YxY) sqrt(rho)*, which
    the SVD delivers at absolute machine precision; diagonalizing rho rho~
    directly loses ~1e-8 on the square roots of its numerically-zero
    eigenvalues.
    """
    m = rho.matrix if isinstance(rho, TwoQubitDensityMatrix) else rho
    vals, vecs = np.linalg.eigh(m)
    root = (vecs * np.sqrt(np.clip(vals, 0.0, None))) @ vecs.conj().T
    lam = np.linalg.svd(root @ _YY @ root.conj(), compute_uv=False)
    return float(max(0.0, lam[0] - lam[1] - lam[2] - lam[3]))


def metrics(rho) -> EntanglementMetrics:
    c = concurrence(rho)
    return EntanglementMetrics(fidelity_singlet(rho), c, c * c)


def trace_distance(a, b) -> float:
    ma = a.matrix if isinstance(a, TwoQubitDensityMatrix) else np.asarray(a)
    mb = b.matrix if isinstance(b, TwoQubitDensityMatrix) else np.asarray(b)
    vals = np.linalg.eigvalsh(ma - mb)
    return float(0.5 * np.sum(np.abs(vals)))


# --- bootstrap ----------------------------------------------------------------

def bootstrap_metrics(counts: CountsTable, rho_hat, n_replicas: int = 500,
                      seed: int = 0) -> EntanglementMetrics:
    """Parametric bootstrap: resample Poisson counts around the fitted model
    rho_hat (the MLE of counts), refit each replica, report standard
    deviations of F, C and T."""
    n_hat = settings_normalization(counts)
    lam = np.maximum(expected_counts(rho_hat, n_hat), 0.0)
    durations = [r.duration_s for r in counts.rows]
    backgrounds = [r.background for r in counts.rows]

    child_seeds = np.random.SeedSequence(seed).spawn(n_replicas)
    f_s, c_s, t_s = [], [], []
    for ss in child_seeds:
        rng = np.random.default_rng(ss)
        resampled = rng.poisson(lam).astype(float)
        table = CountsTable(tuple(
            CountsRow(s, float(v), int(v), bg, du)
            for s, v, bg, du in zip(DESIGN, resampled, backgrounds,
                                    durations)))
        try:
            rho_b = mle_reconstruct(table)
        except (ConvergenceError, DataError):
            continue
        mb = metrics(rho_b)
        f_s.append(mb.fidelity_singlet)
        c_s.append(mb.concurrence)
        t_s.append(mb.tangle)
    if len(f_s) < max(2, n_replicas // 2):
        raise ConvergenceError(
            f"bootstrap failed: only {len(f_s)}/{n_replicas} replicas converged")
    base = metrics(rho_hat)
    return EntanglementMetrics(
        base.fidelity_singlet, base.concurrence, base.tangle,
        float(np.std(f_s)), float(np.std(c_s)), float(np.std(t_s)))


# --- counts table and matrix files -------------------------------------------

def write_counts_table(counts: CountsTable, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("label\tabsorber\tanalyzer\traw\tbackground\tcorrected"
                 "\tduration_s\n")
        for r in counts.rows:
            fh.write(f"{r.setting.label}\t{r.setting.label[0]}\t"
                     f"{r.setting.label[1]}\t{r.raw}\t{r.background:.9g}\t"
                     f"{r.coincidences:.9g}\t{r.duration_s:.9g}\n")


def read_counts_table(path) -> CountsTable:
    """Read a table written by write_counts_table; its rows may come in any
    order."""
    by_label = {s.label: s for s in DESIGN}
    rows = []
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text: {exc}") from exc
    if not lines or not lines[0].startswith("label\t"):
        raise DataError(f"{path}: missing counts-table header")
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.rstrip("\n").split("\t")
        if len(parts) != 7:
            raise DataError(f"{path}: line {lineno}: malformed row")
        label = parts[0]
        if label not in by_label:
            raise DataError(f"{path}: line {lineno}: unknown setting "
                            f"{label!r}")
        try:
            raw = int(parts[3])
            background, corrected, duration_s = map(float, parts[4:])
        except ValueError as exc:
            raise DataError(f"{path}: line {lineno}: non-numeric field: "
                            f"{exc}") from exc
        if not np.all(np.isfinite([background, corrected, duration_s])):
            raise DataError(f"{path}: line {lineno}: non-finite field")
        try:
            rows.append(CountsRow(by_label[label], corrected, raw,
                                  background, duration_s))
        except DataError as exc:
            raise DataError(f"{path}: line {lineno}: {exc}") from exc
    return CountsTable(tuple(rows))


def write_density_matrix(rho, path) -> None:
    """Real and imaginary parts as plain numeric grids, HH/HV/VH/VV ordering."""
    m = rho.matrix if isinstance(rho, TwoQubitDensityMatrix) else rho
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# basis order: HH HV VH VV\n")
        fh.write("# real part\n")
        for row in np.real(m):
            fh.write("\t".join(f"{v:+.9f}" for v in row) + "\n")
        fh.write("# imaginary part\n")
        for row in np.imag(m):
            fh.write("\t".join(f"{v:+.9f}" for v in row) + "\n")
