import numpy as np
import pytest

from ionherald import polarization as pol
from ionherald import tomography as tom
from ionherald.errors import DataError


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
        assert len(tom.design_16()) == 16

    def test_contains_expected_pairs(self):
        labels = {s.label for s in tom.design_16()}
        assert "HV" in labels and "RR" in labels

    def test_gram_matrix_full_rank(self):
        gram = tom.design_gram()
        assert gram.shape == (16, 16)
        assert np.linalg.matrix_rank(gram, tol=1e-9) == 16
        assert np.isfinite(np.linalg.cond(gram))


class TestLinearInversion:
    def test_exact_on_singlet(self):
        vals = tom.expected_counts(pol.singlet(), normalization=1234.0)
        rec = tom.linear_inversion(tom.counts_table_from_values(vals))
        assert tom.trace_distance(pol.singlet().matrix, rec) < 1e-10

    def test_exact_on_maximally_mixed(self):
        vals = tom.expected_counts(pol.maximally_mixed(), normalization=400.0)
        rec = tom.linear_inversion(tom.counts_table_from_values(vals))
        assert tom.trace_distance(np.eye(4) / 4.0, rec) < 1e-10

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
                rec = tom.linear_inversion(tom.counts_table_from_values(noisy))
                dists.append(tom.trace_distance(rho, rec))
            errs.append(np.mean(dists))
        ratio = errs[0] / errs[1]
        assert 5.0 < ratio < 20.0    # 1/sqrt(N) predicts 10


class TestMLE:
    def test_noiseless_singlet(self):
        vals = tom.expected_counts(pol.singlet(), normalization=5000.0)
        rho = tom.mle_reconstruct(tom.counts_table_from_values(vals))
        assert tom.fidelity_singlet(rho) >= 1.0 - 1e-8

    def test_output_always_physical(self):
        rng = np.random.default_rng(51)
        for _ in range(10):
            rho_true = random_density_matrix(rng)
            lam = tom.expected_counts(rho_true, normalization=60.0)
            noisy = rng.poisson(lam).astype(float)
            rho = tom.mle_reconstruct(tom.counts_table_from_values(noisy))
            m = rho.matrix
            assert np.max(np.abs(m - m.conj().T)) < 1e-10
            assert np.trace(m).real == pytest.approx(1.0, abs=1e-10)
            assert np.min(np.linalg.eigvalsh(m)) > -1e-9

    def test_likelihood_beats_projected_inversion(self):
        rng = np.random.default_rng(52)
        for _ in range(20):
            rho_true = random_density_matrix(rng)
            lam = tom.expected_counts(rho_true, normalization=300.0)
            table = tom.counts_table_from_values(rng.poisson(lam).astype(float))
            projected = tom.project_to_physical(tom.linear_inversion(table))
            rho, info = tom.mle_reconstruct(table, return_info=True)
            assert tom.nll_of_state(rho, table) <= \
                tom.nll_of_state(projected, table) + 1e-9

    def test_agrees_with_inversion_when_psd(self):
        # at large N the inversion is already physical; MLE stays close
        rng = np.random.default_rng(53)
        rho_true = pol.werner(0.6).matrix
        lam = tom.expected_counts(rho_true, normalization=10_000.0)
        table = tom.counts_table_from_values(rng.poisson(lam).astype(float))
        inv = tom.linear_inversion(table)
        if np.min(np.linalg.eigvalsh(inv)) >= 0.0:
            rho = tom.mle_reconstruct(table)
            assert tom.trace_distance(rho, inv) < 0.02

    def test_deterministic(self):
        rng = np.random.default_rng(54)
        lam = tom.expected_counts(pol.werner(0.9).matrix, normalization=120.0)
        table = tom.counts_table_from_values(rng.poisson(lam).astype(float))
        r1 = tom.mle_reconstruct(table)
        r2 = tom.mle_reconstruct(table)
        np.testing.assert_array_equal(r1.matrix, r2.matrix)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(55)
        proj = tom.design_projectors()
        for _ in range(5):
            t = rng.normal(size=16)
            counts = np.abs(rng.normal(50.0, 20.0, size=16))
            _, grad = tom.poisson_nll(t, counts, 200.0, proj)
            eps = 1e-6
            for k in range(16):
                tp, tm = t.copy(), t.copy()
                tp[k] += eps
                tm[k] -= eps
                fd = (tom.poisson_nll(tp, counts, 200.0, proj)[0]
                      - tom.poisson_nll(tm, counts, 200.0, proj)[0]) / (2 * eps)
                assert grad[k] == pytest.approx(fd, rel=1e-4, abs=1e-4)


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
            rot = rho.rotated(u, u)
            m = tom.metrics(rot)
            # singlet is U(x)U invariant, so F too; C and T always
            assert m.fidelity_singlet == pytest.approx(base.fidelity_singlet,
                                                       abs=1e-9)
            assert m.concurrence == pytest.approx(base.concurrence, abs=1e-9)
        for _ in range(10):
            ua, ub = random_unitary(rng), random_unitary(rng)
            m = tom.metrics(rho.rotated(ua, ub))
            assert m.concurrence == pytest.approx(base.concurrence, abs=1e-9)
            assert m.tangle == pytest.approx(base.tangle, abs=1e-9)


class TestNormalization:
    def test_closure_recovers_normalization(self):
        vals = tom.expected_counts(pol.werner(0.77), normalization=777.0)
        table = tom.counts_table_from_values(vals)
        assert tom.settings_normalization(table) == pytest.approx(777.0,
                                                                  rel=1e-12)

    def test_empty_normalization_rejected(self):
        vals = np.zeros(16)
        vals[15] = 5.0   # only RR populated; HV closure block empty
        with pytest.raises(DataError):
            tom.settings_normalization(tom.counts_table_from_values(vals))


class TestBootstrap:
    def test_error_bars_paper_scale(self):
        # paper-scale counts with the accidental background channel:
        # uncertainties of the same order as the quoted (4), (6), (11)
        rng = np.random.default_rng(60)
        bg = 14.0
        lam = tom.expected_counts(pol.singlet(), normalization=130.0) + bg
        raw = rng.poisson(lam)
        corrected = np.maximum(0.0, raw - bg)
        table = tom.counts_table_from_values(
            corrected, raw=raw, background=np.full(16, bg))
        m = tom.bootstrap_metrics(table, n_replicas=120, seed=3)
        assert 0.01 < m.fidelity_err < 0.12
        assert 0.015 < m.concurrence_err < 0.18
        assert 0.03 < m.tangle_err < 0.33
        assert m.tangle == pytest.approx(m.concurrence ** 2, abs=1e-10)

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(61)
        lam = tom.expected_counts(pol.werner(0.95).matrix, normalization=200.0)
        table = tom.counts_table_from_values(rng.poisson(lam).astype(float))
        m1 = tom.bootstrap_metrics(table, n_replicas=40, seed=8)
        m2 = tom.bootstrap_metrics(table, n_replicas=40, seed=8)
        assert m1.fidelity_err == m2.fidelity_err


class TestCountsTableIO:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(62)
        lam = tom.expected_counts(pol.werner(0.9), normalization=150.0)
        raw = rng.poisson(lam + 14.0)
        corrected = np.maximum(0.0, raw - 14.0)
        table = tom.counts_table_from_values(
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
        table = tom.counts_table_from_values(np.full(16, 20.0))
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
