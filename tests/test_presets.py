import numpy as np
import pytest
import scipy

from ionherald import polarization as pol
from ionherald import presets
from ionherald.biphoton import scan_analyzer
from ionherald.errors import ConfigError


# float.hex of (pair_rate, singlet_weight, dark_trigger_rate) per preset,
# recorded with numpy 2.4.6 / scipy 1.17.1 before the forward model became
# array-valued; a refactor of the model or the solve must keep every bit
CALIBRATION_NUMPY = "2.4.6"
CALIBRATION_SCIPY = "1.17.1"
CALIBRATION_HEX = {
    "rl": ("0x1.6b42ba5ef6125p+3", "0x1.941be53ae42ccp-1",
           "0x1.eccce9de31aabp+9"),
    "hv": ("0x1.a0caf2f2e4246p+2", "0x1.a7569f7d76d62p-1",
           "0x1.952b88116ebb7p+9"),
    "da": ("0x1.0df6844cde7bep+2", "0x1.d031e0170ede0p-1",
           "0x1.67a6a33354e72p+9"),
}


class TestCalibration:
    @pytest.mark.parametrize("name", ["rl", "hv", "da"])
    def test_forward_model_matches_targets(self, name):
        cal = presets.calibrate_fringe_preset(name)
        t = cal.targets
        basis = pol.BASES[t.basis_label]
        ab = presets.absorber_for(basis, "plus")
        analyzers = [scan_analyzer(basis, th)
                     for th in presets.SCAN_ANGLES_DEG]
        curve, bg = presets.expected_scan(cal.source, ab, analyzers,
                                          cal.rates, cal.sequence, t.minutes)
        i_max = presets.SCAN_ANGLES_DEG.index(presets.ORTHOGONAL_ANGLE_DEG)
        assert curve[i_max] == pytest.approx(t.coincidences, abs=1e-4)
        assert bg[i_max] == pytest.approx(t.background, abs=1e-4)
        vis = presets._mean_fitted_visibility(curve, presets.SCAN_ANGLES_DEG,
                                              presets.THETA_REF_DEG)
        assert vis == pytest.approx(t.visibility, abs=3e-3)

    @pytest.mark.parametrize("name", ["rl", "hv", "da"])
    def test_calibration_is_pinned(self, name):
        versions = (np.__version__, scipy.__version__)
        if [v.split(".")[:2] for v in versions] != \
                [v.split(".")[:2] for v in (CALIBRATION_NUMPY,
                                            CALIBRATION_SCIPY)]:
            pytest.skip(f"calibration recorded with numpy {CALIBRATION_NUMPY}"
                        f" / scipy {CALIBRATION_SCIPY}, this is "
                        f"numpy {versions[0]} / scipy {versions[1]}")
        cal = presets.calibrate_fringe_preset(name)
        assert (cal.source.pair_rate.hex(), cal.source.singlet_weight.hex(),
                cal.rates.dark_trigger_rate.hex()) == CALIBRATION_HEX[name]

    def test_calibration_deterministic(self):
        a = presets.calibrate_fringe_preset("rl")
        b = presets.calibrate_fringe_preset("rl")
        assert a.source.pair_rate == b.source.pair_rate

    def test_rates_physical(self):
        for name in ("rl", "hv", "da"):
            cal = presets.calibrate_fringe_preset(name)
            assert 0.0 < cal.source.singlet_weight <= 1.0
            assert cal.source.pair_rate > 0.0
            assert cal.rates.dark_trigger_rate > 0.0
            assert cal.rates.eta_herald == pytest.approx(0.07)
            assert cal.rates.branching_s == pytest.approx(0.94)

    def test_unknown_preset_rejected(self):
        with pytest.raises(ConfigError):
            presets.calibrate_fringe_preset("xy")
        with pytest.raises(ConfigError):
            presets.preset_manifest("nope", 0)


class TestPlans:
    def test_fringe_plan_manifests(self):
        plan = presets.fringe_plan("rl")
        m = presets.manifest_for_angle(plan, 45.0, seed=5)
        assert m.duration_s == pytest.approx(3600.0)
        assert m.analyzer.hwp_angle == pytest.approx(45.0)
        assert pol.overlap(m.analyzer.projector_state, pol.L) == \
            pytest.approx(1.0, abs=1e-10)
        assert pol.overlap(m.absorber.allowed, pol.R) == \
            pytest.approx(1.0, abs=1e-12)

    def test_tomo_plan(self):
        plan = presets.tomo_plan()
        assert len(plan.settings) == 16
        assert plan.source.singlet_weight == pytest.approx(
            presets.TOMO_SINGLET_WEIGHT)
        m = presets.manifest_for_setting(plan, plan.settings[1], seed=2)
        # setting HV: ion absorbs H, analyzer projects V
        assert pol.overlap(m.absorber.allowed, pol.H) == pytest.approx(
            1.0, abs=1e-12)
        assert pol.overlap(m.analyzer.projector_state, pol.V) == \
            pytest.approx(1.0, abs=1e-12)

    def test_absorber_map_covers_design_states(self):
        for label in ("H", "V", "D", "R"):
            ab = presets.absorber_for_design_state(label)
            assert pol.overlap(ab.allowed, pol.STATE_BY_LABEL[label]) == \
                pytest.approx(1.0, abs=1e-12)

    def test_scan_angles_distinct_modulo_period(self):
        angles = np.asarray(presets.SCAN_ANGLES_DEG) % 90.0
        assert len(np.unique(angles)) == len(angles)
        assert presets.ORTHOGONAL_ANGLE_DEG in presets.SCAN_ANGLES_DEG
