import numpy as np
import pytest

from ionherald import polarization as pol
from ionherald.biphoton import (AnalyzerSetting, SourceModel, absorber_for,
                                arm_probabilities, fringe_params,
                                scan_analyzer)
from ionherald.errors import ConfigError, DataError
from ionherald.sim import RateConfig, RunManifest, simulate_run


def src(weight=1.0):
    return SourceModel(pol.singlet(), weight)


def joint_probability(rho, a, b):
    """Tr[rho (|a><a| x |b><b|)] of a TwoQubitDensityMatrix: the probability
    that qubit A is found in a and qubit B in b, by the Kronecker product
    (the oracle of arm_probabilities)."""
    proj = np.kron(a.projector(), b.projector())
    return float(np.trace(rho.matrix @ proj).real)


class TestSourceModel:
    def test_effective_state_valid(self):
        rho = src(0.8).effective_state().matrix
        assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)
        assert np.min(np.linalg.eigvalsh(rho)) > -1e-12

    def test_rejects_bad_weight(self):
        with pytest.raises(ConfigError):
            src(1.2)


class TestAbsorberSetting:
    def test_states_orthogonal(self):
        # the plus and minus settings of a basis allow orthogonal states
        plus, minus = (absorber_for(pol.RL, a) for a in ("plus", "minus"))
        assert pol.overlap(plus.allowed, minus.allowed) < 1e-12
        assert pol.overlap(plus.allowed, pol.R) == pytest.approx(1.0,
                                                                 abs=1e-12)

    def test_rejects_states_outside_basis(self):
        from ionherald.biphoton import AbsorberSetting
        with pytest.raises(DataError):
            AbsorberSetting(pol.RL, pol.H)


class TestScanAnalyzer:
    def test_reference_angle_selects_plus(self):
        an = scan_analyzer(pol.HV, 0.0)
        assert pol.overlap(an.projector_state, pol.H) == pytest.approx(
            1.0, abs=1e-12)

    def test_45_degrees_selects_minus(self):
        for basis in (pol.RL, pol.HV, pol.DA):
            an = scan_analyzer(basis, 45.0)
            assert pol.overlap(an.projector_state, basis.minus) == \
                pytest.approx(1.0, abs=1e-10)

    def test_hwp_maps_linear_angle_to_twice_dial(self):
        # dial 22.5 deg -> detected linear polarization at 45 deg (= D)
        an = scan_analyzer(pol.HV, 22.5)
        assert pol.overlap(an.projector_state, pol.D) == pytest.approx(
            1.0, abs=1e-10)

    def test_period_90(self):
        for basis in (pol.RL, pol.HV, pol.DA):
            a0 = scan_analyzer(basis, 12.0)
            a90 = scan_analyzer(basis, 102.0)
            assert pol.overlap(a0.projector_state, a90.projector_state) == \
                pytest.approx(1.0, abs=1e-10)


def conditional(source, absorber, state):
    """P(partner in the allowed state | trigger) from arm_probabilities."""
    (marginal,), (joint,) = arm_probabilities(source, absorber,
                                              [AnalyzerSetting(state)])
    return joint / marginal


class TestTriggerProbability:
    def test_singlet_marginal_is_half(self):
        marginal, _ = arm_probabilities(
            src(), absorber_for(pol.HV, "plus"),
            [AnalyzerSetting(s) for s in (pol.H, pol.V, pol.D, pol.R)])
        assert marginal == pytest.approx(0.5, abs=1e-12)

    def test_werner_marginal_still_half(self):
        # direct-trace check that the mixture marginal stays maximally mixed
        s = src(0.8)
        rho = s.effective_state().matrix
        proj = np.kron(np.eye(2), pol.H.projector())
        assert np.trace(rho @ proj).real == pytest.approx(0.5, abs=1e-12)
        marginal, _ = arm_probabilities(s, absorber_for(pol.RL, "plus"),
                                        [AnalyzerSetting(pol.H)])
        assert marginal[0] == pytest.approx(0.5, abs=1e-12)


class TestHeraldedAbsorption:
    def test_orthogonal_setting_reaches_eta(self):
        # absorber allows H, analyzer V: partner of a V trigger is H
        ab = absorber_for(pol.HV, "plus")
        assert conditional(src(), ab, pol.V) == pytest.approx(1.0, abs=1e-12)

    def test_aligned_setting_blocked(self):
        ab = absorber_for(pol.HV, "plus")
        assert conditional(src(), ab, pol.H) == pytest.approx(0.0, abs=1e-12)

    def test_diagonal_analyzer(self):
        # partner of a D trigger is A; |<H|A>|^2 = 1/2
        ab = absorber_for(pol.HV, "plus")
        assert conditional(src(), ab, pol.D) == pytest.approx(0.5, abs=1e-12)

    def test_sum_rule(self):
        # complementary absorber outcomes split the trigger marginal
        rng = np.random.default_rng(11)
        for _ in range(25):
            w = rng.uniform(0.0, 1.0)
            ans = [scan_analyzer(pol.RL, a) for a in rng.uniform(0, 90, 4)]
            m1, j1 = arm_probabilities(src(w), absorber_for(pol.RL, "plus"),
                                       ans)
            m2, j2 = arm_probabilities(src(w), absorber_for(pol.RL, "minus"),
                                       ans)
            assert m1 == pytest.approx(m2, abs=1e-15)
            assert j1 + j2 == pytest.approx(m1, abs=1e-10)

    def test_joint_matches_kronecker_oracle(self):
        # random mixed ideal states, weights, absorbers and analyzers
        rng = np.random.default_rng(13)
        for _ in range(25):
            g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            m = g @ g.conj().T
            s = SourceModel(pol.TwoQubitDensityMatrix(m / np.trace(m).real),
                            rng.uniform(0.0, 1.0))
            ab = absorber_for(pol.BASES[rng.choice(list(pol.BASES))],
                              rng.choice(["plus", "minus"]))
            ans = [AnalyzerSetting(pol.from_poincare(v / np.linalg.norm(v)))
                   for v in rng.normal(size=(5, 3))]
            marginal, joint = arm_probabilities(s, ab, ans)
            rho = s.effective_state()
            assert joint == pytest.approx(
                [joint_probability(rho, ab.allowed, an.projector_state)
                 for an in ans], abs=1e-12)
            # the ion's qubit in either state of the basis
            assert marginal == pytest.approx(
                [joint_probability(rho, ab.basis.plus, an.projector_state)
                 + joint_probability(rho, ab.basis.minus, an.projector_state)
                 for an in ans], abs=1e-12)

    @pytest.mark.filterwarnings("error")
    def test_undefined_conditional(self):
        # |HH> never fires a V trigger: the conditional is undefined, and the
        # simulator makes no pair onsets instead of dividing by zero
        hh = SourceModel(pol.pure_state_dm([1, 0, 0, 0]), 1.0)
        ab = absorber_for(pol.HV, "plus")
        an = AnalyzerSetting(pol.V)
        marginal, joint = arm_probabilities(hh, ab, [an])
        assert marginal[0] == 0.0 and joint[0] == 0.0
        m = RunManifest(seed=1, duration_s=10.0, absorber=ab, analyzer=an,
                        source=hh, rates=RateConfig(pair_rate=50.0))
        stream = simulate_run(m)
        assert len(stream.apd_times()) == 0
        assert len(stream.onset_times()) == 0


class TestFringePrediction:
    def test_pure_singlet_zero_background_minimum_zero(self):
        ab = absorber_for(pol.RL, "plus")
        an = scan_analyzer(pol.RL, fringe_params(src(), ab, 0.0))
        _, joint = arm_probabilities(src(), ab, [an])
        assert joint[0] == pytest.approx(0.0, abs=1e-12)

    def test_matches_brute_force_matrix_model(self):
        # the sin^2 fringe through theta0 vs direct 4x4 evaluation
        rng = np.random.default_rng(12)
        for w in (1.0, 0.63):
            s = src(w)
            rho = s.effective_state()
            for basis in (pol.RL, pol.HV, pol.DA):
                ab = absorber_for(basis, "plus")
                theta0 = fringe_params(s, ab, 0.0)
                _, (lo, hi) = arm_probabilities(
                    s, ab, [scan_analyzer(basis, theta0),
                            scan_analyzer(basis, theta0 + 45.0)])
                angles = rng.uniform(-30, 120, size=40)
                ans = [scan_analyzer(basis, th) for th in angles]
                _, joint = arm_probabilities(s, ab, ans)
                sinusoid = lo + (hi - lo) * np.sin(
                    np.radians(2.0 * (angles - theta0))) ** 2
                brute = [joint_probability(rho, ab.allowed,
                                           an.projector_state) for an in ans]
                assert joint == pytest.approx(brute, abs=1e-12)
                assert sinusoid == pytest.approx(brute, abs=1e-9)

    def test_visibility_equals_singlet_weight(self):
        ab = absorber_for(pol.HV, "plus")
        for w in (1.0, 0.55, 0.82):
            theta0 = fringe_params(src(w), ab, 0.0)
            _, (lo, hi) = arm_probabilities(
                src(w), ab, [scan_analyzer(pol.HV, theta0),
                             scan_analyzer(pol.HV, theta0 + 45.0)])
            assert (hi - lo) / (hi + lo) == pytest.approx(w, abs=1e-9)

    def test_theta0_tracks_allowed_state(self):
        theta_plus = fringe_params(src(), absorber_for(pol.RL, "plus"), 0.0)
        theta_minus = fringe_params(src(), absorber_for(pol.RL, "minus"), 0.0)
        assert theta_plus == pytest.approx(0.0, abs=1e-9)
        assert abs(theta_minus) == pytest.approx(45.0, abs=1e-9)
        # the phase follows the scan's reference angle
        assert fringe_params(src(), absorber_for(pol.RL, "plus"), 10.0) == \
            pytest.approx(10.0, abs=1e-9)

    def test_paper_preset_maximum_near_one_per_minute(self):
        from ionherald import presets
        plan = presets.fringe_plan("rl")
        angles = np.linspace(0, 89, 90)
        bin0, _ = presets.expected_scan(
            plan.source, plan.absorber,
            [scan_analyzer(pol.RL, th) for th in angles], plan.rates,
            plan.sequence, 1.0)
        assert 0.8 < bin0.max() < 1.4
        assert angles[np.argmax(bin0)] == presets.ORTHOGONAL_ANGLE_DEG

    def test_rejects_non_finite_angles(self):
        for bad in (np.nan, np.inf):
            with pytest.raises(DataError):
                scan_analyzer(pol.RL, bad)
