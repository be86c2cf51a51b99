import numpy as np
import pytest

from conftest import counts_table_from_values, nll_of_state, trace_distance
from ionherald import polarization as pol
from ionherald import tomography as tom
from ionherald.errors import DataError
from test_polarization import rotated


def random_density_matrix(rng):
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    m = g @ g.conj().T
    return m / np.trace(m).real


def random_unitary(rng):
    g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


class TestDesign:
    def test_sixteen_settings(self):
        assert len(tom.DESIGN) == 16

    def test_contains_expected_pairs(self):
        labels = {s.label for s in tom.DESIGN}
        assert "HV" in labels and "RR" in labels

    def test_gram_matrix_full_rank(self):
        # Tr[P_i P_j] over the design's projectors
        proj = tom.PROJECTORS
        gram = np.real(np.einsum("aij,bji->ab", proj, proj))
        assert gram.shape == (16, 16)
        assert np.linalg.matrix_rank(gram, tol=1e-9) == 16
        assert np.isfinite(np.linalg.cond(gram))


class TestLinearInversion:
    def test_exact_on_singlet(self):
        vals = tom.expected_counts(pol.singlet(), normalization=1234.0)
        rec = tom.linear_inversion(counts_table_from_values(vals))
        assert trace_distance(pol.singlet().matrix, rec) < 1e-10

    def test_exact_on_maximally_mixed(self):
        vals = tom.expected_counts(pol.maximally_mixed(), normalization=400.0)
        rec = tom.linear_inversion(counts_table_from_values(vals))
        assert trace_distance(np.eye(4) / 4.0, rec) < 1e-10

    def test_convergence_with_counts(self):
        # trace distance to truth shrinks like 1/sqrt(N) over a seed ensemble
        rng = np.random.default_rng(50)
        rho = pol.werner(0.8).matrix
        errs = []
        for n_per in (100.0, 10_000.0):
            dists = []
            for _ in range(30):
                lam = tom.expected_counts(rho, normalization=n_per)
                noisy = rng.poisson(lam).astype(float)
                rec = tom.linear_inversion(counts_table_from_values(noisy))
                dists.append(trace_distance(rho, rec))
            errs.append(np.mean(dists))
        ratio = errs[0] / errs[1]
        assert 5.0 < ratio < 20.0    # 1/sqrt(N) predicts 10


class TestMLE:
    def test_noiseless_singlet(self):
        vals = tom.expected_counts(pol.singlet(), normalization=5000.0)
        rho = tom.mle_reconstruct(counts_table_from_values(vals))
        assert tom.fidelity_singlet(rho) >= 1.0 - 1e-8

    def test_output_always_physical(self):
        rng = np.random.default_rng(51)
        for _ in range(10):
            rho_true = random_density_matrix(rng)
            lam = tom.expected_counts(rho_true, normalization=60.0)
            noisy = rng.poisson(lam).astype(float)
            rho = tom.mle_reconstruct(counts_table_from_values(noisy))
            m = rho.matrix
            assert np.max(np.abs(m - m.conj().T)) < 1e-10
            assert np.trace(m).real == pytest.approx(1.0, abs=1e-10)
            assert np.min(np.linalg.eigvalsh(m)) > -1e-9

    def test_likelihood_beats_projected_inversion(self):
        rng = np.random.default_rng(52)
        for _ in range(20):
            rho_true = random_density_matrix(rng)
            lam = tom.expected_counts(rho_true, normalization=300.0)
            table = counts_table_from_values(rng.poisson(lam).astype(float))
            projected = tom.project_to_physical(tom.linear_inversion(table))
            rho, info = tom.mle_reconstruct(table, return_info=True)
            assert nll_of_state(rho, table) <= \
                nll_of_state(projected, table) + 1e-9

    def test_agrees_with_inversion_when_psd(self):
        # at large N the inversion is already physical; MLE stays close
        rng = np.random.default_rng(53)
        rho_true = pol.werner(0.6).matrix
        lam = tom.expected_counts(rho_true, normalization=10_000.0)
        table = counts_table_from_values(rng.poisson(lam).astype(float))
        inv = tom.linear_inversion(table)
        if np.min(np.linalg.eigvalsh(inv)) >= 0.0:
            rho = tom.mle_reconstruct(table)
            assert trace_distance(rho, inv) < 0.02

    def test_deterministic(self):
        rng = np.random.default_rng(54)
        lam = tom.expected_counts(pol.werner(0.9).matrix, normalization=120.0)
        table = counts_table_from_values(rng.poisson(lam).astype(float))
        r1 = tom.mle_reconstruct(table)
        r2 = tom.mle_reconstruct(table)
        np.testing.assert_array_equal(r1.matrix, r2.matrix)

    def test_count_scale_does_not_matter(self):
        # the fit depends on N and n only through their ratios; scaling by
        # a power of two is exact, so the state must not change by one bit
        rng = np.random.default_rng(63)
        lam = tom.expected_counts(pol.werner(0.9), normalization=150.0)
        values = rng.poisson(lam).astype(float)
        base = tom.mle_reconstruct(counts_table_from_values(values))
        for factor in (2.0 ** -1000, 2.0 ** 1000):
            rho = tom.mle_reconstruct(
                counts_table_from_values(values * factor))
            np.testing.assert_array_equal(rho.matrix, base.matrix)

    def test_kkt_conditions(self):
        # at the constrained optimum, mu = Tr(rho G) is the least eigenvalue
        # of the gradient G = sum((N - n/p) P_nu) and rho lives in its
        # eigenspace: lambda_min(G) >= mu and (G - mu I) rho = 0
        rng = np.random.default_rng(55)
        proj = tom.PROJECTORS
        tables = []
        for n_per in (50.0, 250.0, 1000.0):
            for _ in range(8):
                lam = tom.expected_counts(random_density_matrix(rng),
                                          normalization=n_per)
                tables.append(rng.poisson(lam).astype(float))
        for p, n_per in ((1.0, 50.0), (1.0, 200.0), (0.9, 200.0)):
            lam = tom.expected_counts(pol.werner(p), normalization=n_per)
            tables.append(np.maximum(rng.poisson(lam + 2.0) - 2.0, 0.0))
        for values in tables:
            table = counts_table_from_values(values)
            n_hat = tom.settings_normalization(table)
            m = tom.mle_reconstruct(table).matrix
            p_nu = np.maximum(np.real(np.einsum("ij,nji->n", m, proj)), 1e-15)
            g = np.einsum("n,nij->ij", n_hat - table.corrected() / p_nu, proj)
            mu = np.trace(g @ m).real
            eps = 1e-8 * n_hat
            assert np.linalg.eigvalsh(g)[0] >= mu - eps
            assert np.linalg.norm((g - mu * np.eye(4)) @ m) <= eps


# Poisson NLL (float.hex) of the L-BFGS-B fit this package used before the
# projected-gradient solver, recorded with numpy 2.4.6 / scipy 1.17.1
PINNED_NUMPY = "2.4.6"
PINNED_BOOTSTRAP_NLL = ("-0x1.2c98fc8615d69p+10", "-0x1.2c248d0225d90p+11")
# the tomography table of `ionherald reproduce --seed 42` (paper scale)
REPRODUCE_42_CORRECTED = (
    5.029702970297031, 96.14851485148515, 41.61386138613861,
    57.42574257425743, 87.83168316831683, 0.0, 56.475247524752476,
    62.79207920792079, 45.27722772277228, 61.17821782178218,
    3.811881188118811, 50.5940594059406, 42.198019801980195,
    58.742574257425744, 54.95049504950495, 1.0594059405940577)
REPRODUCE_42_NLL = "-0x1.1666c60f38133p+11"
# criterion-4-style tables: random states, 250 pairs per setting, seed 2027
CRITERION_4_STYLE_NLL = (
    "-0x1.921804d9248bcp+11", "-0x1.48983bce52f5fp+11",
    "-0x1.8c64679f9bd74p+11", "-0x1.81ff950424a00p+11",
    "-0x1.468d678fef256p+11", "-0x1.c1dc3b9b59407p+11",
    "-0x1.51a87f1d23949p+11", "-0x1.46ae4402e636cp+11",
    "-0x1.8cb599f5ebb8cp+11", "-0x1.d675541c058a1p+11",
    "-0x1.031d06d936bb8p+12", "-0x1.721eb1a3148dep+11",
    "-0x1.a14a2713bfcb0p+11", "-0x1.1b61d1bd825e2p+12",
    "-0x1.5ad4517fabe10p+11", "-0x1.7ef71aedaecddp+11",
    "-0x1.eb9676ff2f3c0p+11", "-0x1.bf585a10a6acdp+11",
    "-0x1.09fcfd44cb665p+12", "-0x1.45eae0b659c6ap+11",
    "-0x1.8726dd24f2e8cp+11", "-0x1.a90a090bf15cap+11",
    "-0x1.d71e1bbc0c54ap+11", "-0x1.b92aaaee3c166p+11")


def bootstrap_tables():
    """The two tables of TestBootstrap, in its order."""
    rng = np.random.default_rng(60)
    bg = 14.0
    raw = rng.poisson(tom.expected_counts(pol.singlet(),
                                          normalization=130.0) + bg)
    paper = counts_table_from_values(
        np.maximum(0.0, raw - bg), raw=raw, background=np.full(16, bg))
    rng = np.random.default_rng(61)
    lam = tom.expected_counts(pol.werner(0.95).matrix, normalization=200.0)
    return paper, counts_table_from_values(rng.poisson(lam).astype(float))


class TestPinnedLikelihood:
    """The MLE reaches an NLL no worse than the pinned earlier fit."""

    def check(self, table, pinned_hex):
        nll = nll_of_state(tom.mle_reconstruct(table), table)
        assert nll <= float.fromhex(pinned_hex) + 1e-9

    def test_reproduce_table(self):
        self.check(counts_table_from_values(REPRODUCE_42_CORRECTED),
                   REPRODUCE_42_NLL)

    def test_seeded_tables(self):
        if np.__version__.split(".")[:2] != PINNED_NUMPY.split(".")[:2]:
            pytest.skip(f"tables drawn with numpy {PINNED_NUMPY}, "
                        f"this is numpy {np.__version__}")
        for table, pinned in zip(bootstrap_tables(), PINNED_BOOTSTRAP_NLL):
            self.check(table, pinned)
        rng = np.random.default_rng(2027)
        for pinned in CRITERION_4_STYLE_NLL:
            lam = tom.expected_counts(random_density_matrix(rng),
                                      normalization=250.0)
            self.check(counts_table_from_values(
                rng.poisson(lam).astype(float)), pinned)


class TestMetrics:
    def test_singlet(self):
        m = tom.metrics(pol.singlet())
        assert m.fidelity_singlet == pytest.approx(1.0, abs=1e-12)
        assert m.concurrence == pytest.approx(1.0, abs=1e-12)
        assert m.tangle == pytest.approx(1.0, abs=1e-12)

    def test_maximally_mixed(self):
        m = tom.metrics(pol.maximally_mixed())
        assert m.fidelity_singlet == pytest.approx(0.25, abs=1e-12)
        assert m.concurrence == 0.0
        assert m.tangle == 0.0

    @pytest.mark.parametrize("p", [0.0, 0.25, 1.0 / 3.0, 0.5, 0.9067, 1.0])
    def test_werner_closed_forms(self, p):
        m = tom.metrics(pol.werner(p))
        assert m.fidelity_singlet == pytest.approx((1 + 3 * p) / 4.0,
                                                   abs=1e-10)
        assert m.concurrence == pytest.approx(max(0.0, (3 * p - 1) / 2.0),
                                              abs=1e-10)

    def test_werner_09067_hits_published_fidelity_not_concurrence(self):
        # Werner mixing that reaches F = 0.93 tops out at C = 0.86: the
        # published C = 0.93 rules out a Werner-form measured state
        m = tom.metrics(pol.werner(0.9067))
        assert m.fidelity_singlet == pytest.approx(0.930025, abs=1e-9)
        assert m.concurrence == pytest.approx(0.86005, abs=1e-9)

    def test_tangle_is_concurrence_squared(self):
        rng = np.random.default_rng(56)
        for _ in range(20):
            m = tom.metrics(pol.TwoQubitDensityMatrix(
                random_density_matrix(rng)))
            assert m.tangle == pytest.approx(m.concurrence ** 2, abs=1e-10)

    def test_fidelity_concurrence_bound(self):
        rng = np.random.default_rng(57)
        for _ in range(50):
            m = tom.metrics(pol.TwoQubitDensityMatrix(
                random_density_matrix(rng)))
            assert m.fidelity_singlet <= (1.0 + m.concurrence) / 2.0 + 1e-9

    def test_pure_state_concurrence_closed_form(self):
        # alpha|HV> + beta|VH> has C = 2|alpha·beta|
        rng = np.random.default_rng(58)
        for _ in range(100):
            a = rng.normal() + 1j * rng.normal()
            b = rng.normal() + 1j * rng.normal()
            n = np.sqrt(abs(a) ** 2 + abs(b) ** 2)
            a, b = a / n, b / n
            rho = pol.pure_state_dm([0.0, a, b, 0.0])
            assert tom.concurrence(rho) == pytest.approx(2 * abs(a * b),
                                                         abs=1e-10)

    def test_invariance_under_local_unitaries(self):
        rng = np.random.default_rng(59)
        rho = pol.TwoQubitDensityMatrix(random_density_matrix(rng))
        base = tom.metrics(rho)
        for _ in range(10):
            u = random_unitary(rng)
            rot = rotated(rho, u, u)
            m = tom.metrics(rot)
            # singlet is U(x)U invariant, so F too; C and T always
            assert m.fidelity_singlet == pytest.approx(base.fidelity_singlet,
                                                       abs=1e-9)
            assert m.concurrence == pytest.approx(base.concurrence, abs=1e-9)
        for _ in range(10):
            ua, ub = random_unitary(rng), random_unitary(rng)
            m = tom.metrics(rotated(rho, ua, ub))
            assert m.concurrence == pytest.approx(base.concurrence, abs=1e-9)
            assert m.tangle == pytest.approx(base.tangle, abs=1e-9)


class TestNormalization:
    def test_closure_recovers_normalization(self):
        vals = tom.expected_counts(pol.werner(0.77), normalization=777.0)
        table = counts_table_from_values(vals)
        assert tom.settings_normalization(table) == pytest.approx(777.0,
                                                                  rel=1e-12)

    def test_empty_normalization_rejected(self):
        vals = np.zeros(16)
        vals[15] = 5.0   # only RR populated; HV closure block empty
        with pytest.raises(DataError):
            tom.settings_normalization(counts_table_from_values(vals))


class TestBootstrap:
    def test_error_bars_paper_scale(self):
        # paper-scale counts with the accidental background channel:
        # uncertainties of the same order as the quoted (4), (6), (11)
        table, _ = bootstrap_tables()
        m = tom.bootstrap_metrics(table, tom.mle_reconstruct(table),
                                  n_replicas=120, seed=3)
        assert 0.01 < m.fidelity_err < 0.12
        assert 0.015 < m.concurrence_err < 0.18
        assert 0.03 < m.tangle_err < 0.33
        assert m.tangle == pytest.approx(m.concurrence ** 2, abs=1e-10)

    def test_deterministic_given_seed(self):
        _, table = bootstrap_tables()
        rho = tom.mle_reconstruct(table)
        m1 = tom.bootstrap_metrics(table, rho, n_replicas=40, seed=8)
        m2 = tom.bootstrap_metrics(table, rho, n_replicas=40, seed=8)
        assert m1.fidelity_err == m2.fidelity_err


class TestCountsTableIO:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(62)
        lam = tom.expected_counts(pol.werner(0.9), normalization=150.0)
        raw = rng.poisson(lam + 14.0)
        corrected = np.maximum(0.0, raw - 14.0)
        table = counts_table_from_values(
            corrected, raw=raw, background=np.full(16, 14.0), duration_s=3600.0)
        path = tmp_path / "counts.txt"
        tom.write_counts_table(table, path)
        back = tom.read_counts_table(path)
        for r1, r2 in zip(back.rows, table.rows):
            assert r1.setting.label == r2.setting.label
            assert r1.coincidences == pytest.approx(r2.coincidences)
            assert r1.raw == r2.raw

    @pytest.mark.parametrize("column,value", [
        (3, "abc"), (3, "2.5"), (4, "x"), (5, "nan"), (6, "inf"), (5, "-1")])
    def test_bad_cell_names_path_and_line(self, tmp_path, column, value):
        table = counts_table_from_values(np.full(16, 20.0))
        path = tmp_path / "counts.txt"
        tom.write_counts_table(table, path)
        lines = path.read_text().splitlines()
        cells = lines[5].split("\t")
        cells[column] = value
        lines[5] = "\t".join(cells)
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(DataError, match="counts.txt: line 6:"):
            tom.read_counts_table(path)

    def test_wrong_row_count_rejected(self):
        with pytest.raises(DataError):
            tom.CountsTable(tuple())

    @pytest.mark.parametrize("setting", [
        tom.TomographySetting(pol.H, pol.V, label="HH"),
        tom.TomographySetting(pol.A, pol.A, label="AA")])
    def test_setting_outside_the_design_rejected(self, setting):
        rows = list(counts_table_from_values(np.full(16, 20.0)).rows)
        rows[0] = tom.CountsRow(setting, 20.0, 20, 0.0, 1.0)
        with pytest.raises(DataError, match="design"):
            tom.CountsTable(tuple(rows))

    def test_rows_in_any_order_give_the_same_state(self):
        rng = np.random.default_rng(64)
        lam = tom.expected_counts(pol.werner(0.8), normalization=200.0)
        table = counts_table_from_values(
            rng.poisson(lam).astype(float), background=np.arange(16.0))
        shuffled = tom.CountsTable(tuple(rng.permutation(table.rows)))
        assert shuffled.rows == table.rows
        np.testing.assert_array_equal(tom.mle_reconstruct(shuffled).matrix,
                                      tom.mle_reconstruct(table).matrix)
