import dataclasses

import numpy as np
import pytest

from ionherald import polarization as pol
from ionherald import presets
from ionherald.biphoton import scan_analyzer
from ionherald.errors import ConfigError
from ionherald.tomography import DESIGN


# float.hex of (pair_rate, singlet_weight, dark_trigger_rate) per preset,
# recorded with numpy 2.4.6 and the damped Newton solve; a refactor of the
# model or the solve must keep every bit
CALIBRATION_NUMPY = "2.4.6"
CALIBRATION_HEX = {
    "rl": ("0x1.6b42ba5ef611bp+3", "0x1.941be53ae42ddp-1",
           "0x1.eccce9de31aa9p+9"),
    "hv": ("0x1.a0caf2f2e4246p+2", "0x1.a7569f7d76d40p-1",
           "0x1.952b88116eba5p+9"),
    "da": ("0x1.0df6844cde7b7p+2", "0x1.d031e0170edf8p-1",
           "0x1.67a6a33354e73p+9"),
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
        # the shipped constants: the same bits on every numpy release
        cal = presets.calibrate_fringe_preset(name)
        assert (cal.rates.pair_rate.hex(), cal.source.singlet_weight.hex(),
                cal.rates.dark_trigger_rate.hex()) == CALIBRATION_HEX[name]

    @pytest.mark.parametrize("name", ["rl", "hv", "da"])
    def test_solve_reproduces_pinned_calibration(self, name):
        if np.__version__.split(".")[:2] != CALIBRATION_NUMPY.split(".")[:2]:
            pytest.skip(f"calibration recorded with numpy {CALIBRATION_NUMPY},"
                        f" this is numpy {np.__version__}")
        solved = presets._solve_fringe_preset(name)
        assert (solved.rates.pair_rate.hex(),
                solved.source.singlet_weight.hex(),
                solved.rates.dark_trigger_rate.hex()) == CALIBRATION_HEX[name]
        # the shipped calibration has the solve's rates, sequence and targets
        shipped = presets.calibrate_fringe_preset(name)
        assert shipped.rates == solved.rates
        assert shipped.sequence == solved.sequence
        assert shipped.targets == solved.targets

    def test_calibration_deterministic(self):
        a = presets.calibrate_fringe_preset("rl")
        b = presets.calibrate_fringe_preset("rl")
        assert a.rates.pair_rate == b.rates.pair_rate

    def test_rates_physical(self):
        for name in ("rl", "hv", "da"):
            cal = presets.calibrate_fringe_preset(name)
            assert 0.0 < cal.source.singlet_weight <= 1.0
            assert cal.rates.pair_rate > 0.0
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

    def test_setting_absorbers_follow_the_design(self):
        plan = presets.tomo_plan()
        assert len(DESIGN) == 16
        for s in DESIGN:
            ab = presets.manifest_for_setting(plan, s, 0).absorber
            assert pol.overlap(ab.allowed, s.absorber_state) == \
                pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("name", ["rl", "hv", "da"])
    def test_fringe_plan_is_the_calibration(self, name):
        assert presets.fringe_plan(name) is \
            presets.calibrate_fringe_preset(name)

    def test_plans_hold_only_what_varies(self):
        names = [[f.name for f in dataclasses.fields(cls)]
                 for cls in (presets.FringePlan, presets.TomoPlan)]
        assert names == [["source", "rates", "targets"], ["source", "rates"]]

    def test_scan_angles_distinct_modulo_period(self):
        angles = np.asarray(presets.SCAN_ANGLES_DEG) % 90.0
        assert len(np.unique(angles)) == len(angles)
        assert presets.ORTHOGONAL_ANGLE_DEG in presets.SCAN_ANGLES_DEG
