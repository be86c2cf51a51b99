"""Two-qubit state reconstruction from 16 projective coincidence settings.

The measurement design is {H, V, D, R} x {H, V, D, R} (absorber side x
analyzer side), which spans the 16-dimensional operator space. Linear
inversion solves the Born-rule system exactly; the maximum-likelihood
estimator parameterizes rho = T^dag T / Tr(T^dag T) with T lower-triangular
(16 real parameters) and minimizes the Poisson negative log-likelihood with
an analytic gradient, starting from the physically projected inversion.

Entanglement metrics: overlap fidelity with the two-photon singlet,
concurrence via the spin-flip spectrum, and tangle = concurrence^2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from .errors import ConvergenceError, DataError
from . import polarization as pol
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
    rows: tuple

    def __post_init__(self):
        rows = tuple(self.rows)
        if len(rows) != 16:
            raise DataError(f"counts table needs 16 rows, got {len(rows)}")
        labels = {r.setting.label for r in rows}
        if len(labels) != 16:
            raise DataError("counts table has duplicate settings")
        object.__setattr__(self, "rows", rows)

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


def design_16() -> list[TomographySetting]:
    """The {H,V,D,R} x {H,V,D,R} informationally complete design, row-major."""
    out = []
    for a in DESIGN_LABELS:
        for b in DESIGN_LABELS:
            out.append(TomographySetting(STATE_BY_LABEL[a], STATE_BY_LABEL[b],
                                         label=a + b))
    return out


def design_projectors(settings=None) -> np.ndarray:
    settings = design_16() if settings is None else settings
    return np.stack([s.projector() for s in settings])


def design_gram(settings=None) -> np.ndarray:
    """Gram matrix of projector inner products Tr[P_i P_j]."""
    proj = design_projectors(settings)
    return np.real(np.einsum("aij,bji->ab", proj, proj))


def settings_normalization(counts: CountsTable) -> float:
    """Per-setting normalization from the complete {H,V} x {H,V} subset.

    Those four projectors sum to the identity, so their corrected counts sum
    to the effective number of measured pairs per setting.
    """
    n = sum(counts.row(lbl).coincidences for lbl in ("HH", "HV", "VH", "VV"))
    if n <= 0:
        raise DataError("normalization subset has no counts")
    return float(n)


def expected_counts(rho, settings=None, normalization: float = 1.0) -> np.ndarray:
    """Noiseless synthetic counts N * Tr[rho P_nu] for each design setting."""
    m = rho.matrix if isinstance(rho, TwoQubitDensityMatrix) else np.asarray(rho)
    proj = design_projectors(settings)
    return normalization * np.real(np.einsum("ij,nji->n", m, proj))


def counts_table_from_values(values, raw=None, background=None,
                             duration_s: float = 1.0,
                             settings=None) -> CountsTable:
    """Assemble a CountsTable from 16 corrected values in design order."""
    settings = design_16() if settings is None else settings
    values = np.asarray(values, dtype=float)
    rows = []
    for i, s in enumerate(settings):
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


def linear_inversion(counts: CountsTable, settings=None) -> np.ndarray:
    """Solve the Born-rule linear system for a Hermitian trace-1 matrix.

    Returns a raw 4x4 array: Hermitian and trace-1 but possibly not PSD, so
    it is deliberately not wrapped in TwoQubitDensityMatrix.
    """
    settings = design_16() if settings is None else settings
    proj = design_projectors(settings)
    design = np.real(np.einsum("mij,nji->nm", _HBASIS, proj))
    if np.linalg.matrix_rank(design, tol=1e-9) < 16:
        raise DataError("rank-deficient tomography design; cannot invert")
    n_hat = settings_normalization(counts)
    probs = counts.corrected() / n_hat
    coeff = np.linalg.solve(design, probs)
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

_LOWER_IDX = [(1, 0), (2, 0), (2, 1), (3, 0), (3, 1), (3, 2)]


def _t_from_params(t: np.ndarray) -> np.ndarray:
    m = np.zeros((4, 4), dtype=complex)
    m[np.diag_indices(4)] = t[:4]
    for k, (i, j) in enumerate(_LOWER_IDX):
        m[i, j] = t[4 + 2 * k] + 1j * t[5 + 2 * k]
    return m


def _params_from_t(m: np.ndarray) -> np.ndarray:
    t = np.zeros(16)
    t[:4] = np.real(np.diag(m))
    for k, (i, j) in enumerate(_LOWER_IDX):
        t[4 + 2 * k] = m[i, j].real
        t[5 + 2 * k] = m[i, j].imag
    return t


def rho_from_params(t: np.ndarray) -> np.ndarray:
    m = _t_from_params(t)
    s = m.conj().T @ m
    return s / np.trace(s).real


def _lower_factor(rho: np.ndarray, ridge: float = 0.0) -> np.ndarray:
    """Lower-triangular T with T^dag T = rho (index-flipped Cholesky)."""
    m = np.asarray(rho, dtype=complex)
    if ridge > 0.0:
        m = (m + ridge * np.eye(4)) / (1.0 + 4.0 * ridge)
    flip = np.eye(4)[::-1]
    chol = np.linalg.cholesky(flip @ m @ flip)
    return (flip @ chol @ flip).conj().T


def poisson_nll(t: np.ndarray, counts_vec: np.ndarray, normalization: float,
                projectors: np.ndarray):
    """Negative log-likelihood and its gradient in the 16 real parameters."""
    m = _t_from_params(t)
    s = m.conj().T @ m
    tau = np.trace(s).real
    u = np.real(np.einsum("ij,nji->n", s, projectors))
    p = u / tau
    p_safe = np.maximum(p, 1e-15)
    nll = float(np.sum(normalization * p - counts_vec * np.log(
        normalization * p_safe)))

    # dNLL/dP_nu, with the same floor applied to the logarithm's argument
    dldp = normalization - counts_vec / p_safe
    # Wirtinger gradient wrt conj(T): sum_nu dldp * (T Pi_nu - P_nu T) / tau
    tp = np.einsum("ij,njk->nik", m, projectors)
    g = np.einsum("n,nik->ik", dldp, tp - p[:, None, None] * m) / tau
    grad = np.zeros(16)
    grad[:4] = 2.0 * np.real(np.diag(g))
    for k, (i, j) in enumerate(_LOWER_IDX):
        grad[4 + 2 * k] = 2.0 * g[i, j].real
        grad[5 + 2 * k] = 2.0 * g[i, j].imag
    return nll, grad


GRAD_TOL = 1e-9
MAX_ITER = 100_000


def mle_reconstruct(counts: CountsTable, settings=None,
                    return_info: bool = False):
    """Maximum-likelihood density matrix for one counts table.

    Deterministic: quasi-Newton (L-BFGS-B) descent with analytic gradients
    from the projected linear-inversion start point. It stops on whichever
    binds first of the relative f-decrease floor ftol = 1e-14 and the
    projected-gradient bound GRAD_TOL; on paper-scale tables ftol binds,
    with |grad| ~ 3e-5. A fit counts as converged if scipy reports success
    or |grad| <= 1e-3, and if its NLL is at most 1e-9 above the start's.
    """
    settings = design_16() if settings is None else settings
    projectors = design_projectors(settings)
    n_hat = settings_normalization(counts)
    counts_vec = counts.corrected()

    start = project_to_physical(linear_inversion(counts, settings))
    try:
        t0 = _params_from_t(_lower_factor(start.matrix))
    except np.linalg.LinAlgError:
        t0 = _params_from_t(_lower_factor(start.matrix, ridge=1e-12))

    res = minimize(poisson_nll, t0, args=(counts_vec, n_hat, projectors),
                   jac=True, method="L-BFGS-B",
                   options={"maxiter": MAX_ITER, "gtol": GRAD_TOL,
                            "ftol": 1e-14, "maxfun": 10 * MAX_ITER})
    grad_norm = float(np.max(np.abs(res.jac)))
    start_nll, _ = poisson_nll(t0, counts_vec, n_hat, projectors)
    if (not res.success and grad_norm > 1e-3) or res.fun > start_nll + 1e-9:
        raise ConvergenceError(
            f"MLE did not converge: {res.message} (|grad| = {grad_norm:.3e})",
            best_params=res.x, grad_norm=grad_norm)
    rho = TwoQubitDensityMatrix(rho_from_params(res.x))
    if return_info:
        return rho, {"nll": float(res.fun), "start_nll": float(start_nll),
                     "grad_norm": grad_norm, "iterations": int(res.nit)}
    return rho


def nll_of_state(rho, counts: CountsTable, settings=None) -> float:
    """Poisson NLL of an arbitrary physical state for the given counts."""
    settings = design_16() if settings is None else settings
    projectors = design_projectors(settings)
    n_hat = settings_normalization(counts)
    m = rho.matrix if isinstance(rho, TwoQubitDensityMatrix) else rho
    p = np.maximum(np.real(np.einsum("ij,nji->n", m, projectors)), 1e-15)
    n = counts.corrected()
    return float(np.sum(n_hat * p - n * np.log(n_hat * p)))


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


def metrics(rho, errors: tuple | None = None) -> EntanglementMetrics:
    c = concurrence(rho)
    errs = errors if errors is not None else (None, None, None)
    return EntanglementMetrics(fidelity_singlet(rho), c, c * c, *errs)


def trace_distance(a, b) -> float:
    ma = a.matrix if isinstance(a, TwoQubitDensityMatrix) else np.asarray(a)
    mb = b.matrix if isinstance(b, TwoQubitDensityMatrix) else np.asarray(b)
    vals = np.linalg.eigvalsh(ma - mb)
    return float(0.5 * np.sum(np.abs(vals)))


# --- bootstrap ----------------------------------------------------------------

def bootstrap_metrics(counts: CountsTable, n_replicas: int = 500,
                      seed: int = 0, settings=None) -> EntanglementMetrics:
    """Parametric bootstrap: resample Poisson counts around the fitted model,
    refit each replica, report standard deviations of F, C and T."""
    settings = design_16() if settings is None else settings
    rho_hat = mle_reconstruct(counts, settings)
    n_hat = settings_normalization(counts)
    lam = np.maximum(expected_counts(rho_hat, settings, n_hat), 0.0)
    durations = [r.duration_s for r in counts.rows]
    backgrounds = [r.background for r in counts.rows]

    child_seeds = np.random.SeedSequence(seed).spawn(n_replicas)
    f_s, c_s, t_s = [], [], []
    for ss in child_seeds:
        rng = np.random.default_rng(ss)
        resampled = rng.poisson(lam).astype(float)
        table = CountsTable(tuple(
            CountsRow(s, float(v), int(v), bg, du)
            for s, v, bg, du in zip(settings, resampled, backgrounds,
                                    durations)))
        try:
            rho_b = mle_reconstruct(table, settings)
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
    by_label = {s.label: s for s in design_16()}
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
