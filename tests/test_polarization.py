import numpy as np
import pytest

from ionherald import polarization as pol
from ionherald.errors import DataError
from test_biphoton import joint_probability


def random_state(rng):
    v = rng.normal(size=2) + 1j * rng.normal(size=2)
    v /= np.linalg.norm(v)
    return pol.PolarizationState(v[0], v[1])


def random_unitary(rng, n=2):
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def orthogonal(s):
    """The unique (up to phase) state with zero overlap."""
    return pol.PolarizationState(-np.conj(s.c_v), np.conj(s.c_h))


def rotated(rho, u_a, u_b):
    """Apply local unitaries: rho -> (Ua x Ub) rho (Ua x Ub)^dagger."""
    u = np.kron(u_a, u_b)
    return pol.TwoQubitDensityMatrix(u @ rho.matrix @ u.conj().T)


class TestPolarizationState:
    def test_normalization_enforced(self):
        s = pol.PolarizationState(1.0 + 1e-8, 0.0)
        assert abs(abs(s.c_h) ** 2 + abs(s.c_v) ** 2 - 1.0) < 1e-12

    def test_rejects_unnormalized(self):
        with pytest.raises(DataError):
            pol.PolarizationState(1.0, 1.0)

    @pytest.mark.parametrize("c_h, c_v", [
        (float("nan"), 0.0), (1.0, complex(0.0, float("nan"))),
        (float("inf"), 0.0), (1.0, complex(float("inf"), float("nan")))])
    def test_rejects_non_finite(self, c_h, c_v):
        with pytest.raises(DataError, match="not normalized"):
            pol.PolarizationState(c_h, c_v)

    def test_orthogonal(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            s = random_state(rng)
            assert pol.overlap(s, orthogonal(s)) < 1e-24


class TestOverlap:
    def test_orthogonal_basis_states(self):
        assert pol.overlap(pol.H, pol.V) == 0.0

    def test_identity(self):
        assert pol.overlap(pol.H, pol.H) == pytest.approx(1.0, abs=1e-12)

    def test_mutually_unbiased(self):
        assert pol.overlap(pol.H, pol.D) == pytest.approx(0.5, abs=1e-12)

    def test_symmetric_and_phase_invariant(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            a, b = random_state(rng), random_state(rng)
            phase = np.exp(1j * rng.uniform(0, 2 * np.pi))
            a2 = pol.PolarizationState(a.c_h * phase, a.c_v * phase)
            assert pol.overlap(a, b) == pytest.approx(pol.overlap(b, a),
                                                      abs=1e-12)
            assert pol.overlap(a2, b) == pytest.approx(pol.overlap(a, b),
                                                       abs=1e-12)

    def test_completeness(self):
        # overlap(a, b) + overlap(a, b_perp) = 1
        rng = np.random.default_rng(2)
        for _ in range(100):
            a, b = random_state(rng), random_state(rng)
            total = pol.overlap(a, b) + pol.overlap(a, orthogonal(b))
            assert total == pytest.approx(1.0, abs=1e-10)


class TestBases:
    @pytest.mark.parametrize("basis", [pol.RL, pol.HV, pol.DA])
    def test_orthonormal(self, basis):
        assert pol.overlap(basis.plus, basis.minus) < 1e-12

    def test_mutually_unbiased(self):
        bases = [pol.RL, pol.HV, pol.DA]
        for i, b1 in enumerate(bases):
            for b2 in bases[i + 1:]:
                for s1 in (b1.plus, b1.minus):
                    for s2 in (b2.plus, b2.minus):
                        assert pol.overlap(s1, s2) == pytest.approx(
                            0.5, abs=1e-12)


class TestPoincare:
    def test_convention_anchors(self):
        np.testing.assert_allclose(pol.to_poincare(pol.H),
                                   [1, 0, 0], atol=1e-12)
        np.testing.assert_allclose(pol.to_poincare(pol.V),
                                   [-1, 0, 0], atol=1e-12)
        np.testing.assert_allclose(pol.to_poincare(pol.D),
                                   [0, 1, 0], atol=1e-12)

    def test_circular_handedness(self):
        # (H + iV)/sqrt(2) maps to the north pole by convention
        np.testing.assert_allclose(pol.to_poincare(pol.R),
                                   [0, 0, 1], atol=1e-12)
        np.testing.assert_allclose(pol.to_poincare(pol.L),
                                   [0, 0, -1], atol=1e-12)

    def test_unit_length_and_antipodal(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            s = random_state(rng)
            v = pol.to_poincare(s)
            assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-10)
            w = pol.to_poincare(orthogonal(s))
            assert float(v @ w) == pytest.approx(-1.0, abs=1e-9)

    def test_round_trip(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            s = random_state(rng)
            back = pol.from_poincare(pol.to_poincare(s))
            assert pol.overlap(s, back) == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("v", [
        [float("nan"), 0.0, 0.0], [1.0, float("nan"), 0.0],
        [float("inf"), 0.0, 0.0], [float("-inf"), float("nan"), 1.0]])
    def test_from_poincare_rejects_non_finite(self, v):
        with pytest.raises(DataError, match="not on the unit sphere"):
            pol.from_poincare(v)

    def test_global_phase_unobservable(self):
        # projector and Stokes coordinates ignore the global phase
        rng = np.random.default_rng(14)
        for _ in range(30):
            s = random_state(rng)
            phase = np.exp(1j * rng.uniform(0, 2 * np.pi))
            s2 = pol.PolarizationState(s.c_h * phase, s.c_v * phase)
            np.testing.assert_allclose(s2.projector(), s.projector(),
                                       atol=1e-12)
            np.testing.assert_allclose(pol.to_poincare(s2),
                                       pol.to_poincare(s),
                                       atol=1e-12)


class TestSinglet:
    def test_matrix_elements(self):
        m = pol.singlet().matrix
        np.testing.assert_allclose(np.diag(m).real, [0, 0.5, 0.5, 0],
                                   atol=1e-12)
        assert m[1, 2] == pytest.approx(-0.5, abs=1e-12)

    def test_joint_hh_is_zero(self):
        assert joint_probability(
            pol.singlet(), pol.H, pol.H) == pytest.approx(0.0, abs=1e-12)

    def test_joint_da(self):
        # <DA|Psi-><Psi-|DA> by direct arithmetic:
        # <DA|Psi-> = (<HV|DA> - <VH|DA>)/sqrt2 = (1/2-(-1/2))/sqrt2 = 1/sqrt2
        assert joint_probability(
            pol.singlet(), pol.D, pol.A) == pytest.approx(0.5, abs=1e-12)

    def test_anticorrelated_in_every_basis(self):
        rng = np.random.default_rng(5)
        rho = pol.singlet()
        for _ in range(100):
            a = random_state(rng)
            assert joint_probability(rho, a, a) < 1e-10

    def test_u_tensor_u_invariance(self):
        rng = np.random.default_rng(6)
        rho = pol.singlet()
        for _ in range(20):
            u = random_unitary(rng)
            rot = rotated(rho, u, u)
            np.testing.assert_allclose(rot.matrix, rho.matrix, atol=1e-10)


class TestJointProjection:
    def test_singlet_hv(self):
        assert joint_probability(
            pol.singlet(), pol.H, pol.V) == pytest.approx(0.5, abs=1e-12)

    def test_maximally_mixed(self):
        rng = np.random.default_rng(7)
        rho = pol.maximally_mixed()
        for _ in range(20):
            a, b = random_state(rng), random_state(rng)
            assert joint_probability(rho, a, b) == \
                pytest.approx(0.25, abs=1e-12)

    def test_sums_to_one_over_joint_basis(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            m = g @ g.conj().T
            rho = pol.TwoQubitDensityMatrix(m / np.trace(m).real)
            a, b = random_state(rng), random_state(rng)
            total = sum(
                joint_probability(rho, x, y)
                for x in (a, orthogonal(a)) for y in (b, orthogonal(b)))
            assert total == pytest.approx(1.0, abs=1e-10)

    def test_invalid_rho_rejected(self):
        with pytest.raises(DataError):
            pol.TwoQubitDensityMatrix(np.diag([0.7, 0.5, -0.1, -0.1]))
        with pytest.raises(DataError, match="trace"):
            pol.TwoQubitDensityMatrix(np.eye(4))


class TestDensityMatrixInvariants:
    def test_werner_validates(self):
        for p in (0.0, 0.3, 1.0):
            rho = pol.werner(p)
            m = rho.matrix
            assert np.max(np.abs(m - m.conj().T)) < 1e-10
            assert np.trace(m).real == pytest.approx(1.0, abs=1e-10)
            assert np.min(np.linalg.eigvalsh(m)) > -1e-9

    @pytest.mark.parametrize("i, j, value", [
        (0, 0, np.nan), (1, 2, np.nan), (3, 3, np.inf), (0, 3, -np.inf),
        (2, 1, complex(0.0, np.nan))])
    def test_rejects_non_finite(self, i, j, value):
        m = pol.singlet().matrix.copy()
        m[i, j] = value
        with pytest.raises(DataError, match="non-finite"):
            pol.TwoQubitDensityMatrix(m)


    def test_immutable(self):
        rho = pol.singlet()
        with pytest.raises(ValueError):
            rho.matrix[0, 0] = 1.0
