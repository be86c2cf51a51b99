import hashlib

import numpy as np
import pytest

from ionherald import polarization as pol
from ionherald import presets
from ionherald.biphoton import AnalyzerSetting, SourceModel, absorber_for
from ionherald.errors import ConfigError, DataError
from ionherald.sim import (CHANNEL_APD, CHANNEL_PMT_ONSET, EventStream,
                           RateConfig, RunManifest, SequenceConfig, _finalize,
                           manifest_from_dict, manifest_to_dict, read_events,
                           simulate_run, write_events)

# the stream pins below were recorded with this numpy; another release may
# draw different Poisson streams from the same seeds
PINNED_NUMPY = "2.4.6"


def make_manifest(seed=0, duration_s=60.0, weight=1.0, analyzer=None,
                  **rate_kw):
    rates = dict(pair_rate=20.0, eta_trigger=0.5, eta_herald=0.07,
                 branching_s=0.94, dark_trigger_rate=50.0,
                 false_onset_rate=1.0)
    rates.update(rate_kw)
    return RunManifest(
        seed=seed, duration_s=duration_s,
        absorber=absorber_for(pol.RL, "plus"),
        analyzer=analyzer or AnalyzerSetting(pol.L, 45.0),
        source=SourceModel(pol.singlet(), weight, rates["pair_rate"]),
        sequence=SequenceConfig(),
        rates=RateConfig(**rates))


class TestSequenceConfig:
    def test_defaults_fit_period(self):
        seq = SequenceConfig()
        assert seq.duty_cycle == pytest.approx(0.5)

    def test_rejects_overlong_phases(self):
        with pytest.raises(ConfigError):
            SequenceConfig(rep_rate=10.0, cooling_ms=60.0, prep_ms=30.0,
                           detect_ms=50.0)

    def test_rejects_nonpositive_duration(self):
        with pytest.raises(ConfigError):
            SequenceConfig(detect_ms=0.0)

    def test_rejects_windows_closer_than_one_stamp(self):
        # adjacent detection windows are cooling + prep apart; below 1 ns
        # two trials could share a timestamp
        with pytest.raises(ConfigError, match="1e-6"):
            SequenceConfig(cooling_ms=4e-7, prep_ms=4e-7)
        SequenceConfig(cooling_ms=5e-7, prep_ms=5e-7)


class TestRateConfig:
    def test_zero_eta_herald_is_degenerate_but_legal(self):
        RateConfig(eta_herald=0.0)

    def test_rejects_negative_rate(self):
        with pytest.raises(ConfigError):
            RateConfig(dark_trigger_rate=-1.0)

    def test_pair_rate_mismatch_rejected(self):
        with pytest.raises(ConfigError):
            RunManifest(seed=0, duration_s=1.0,
                        absorber=absorber_for(pol.RL, "plus"),
                        analyzer=AnalyzerSetting(pol.L),
                        source=SourceModel(pol.singlet(), 1.0, 5.0),
                        rates=RateConfig(pair_rate=7.0))


class TestSimulateRun:
    def test_deterministic(self):
        m = make_manifest(seed=42, duration_s=30.0)
        assert simulate_run(m) == simulate_run(m)

    def test_no_absorption_channel_means_no_onsets(self):
        m = make_manifest(seed=1, duration_s=120.0, eta_herald=0.0,
                          false_onset_rate=0.0)
        stream = simulate_run(m)
        assert len(stream.onset_times()) == 0
        assert len(stream.apd_times()) > 0

    def test_zero_duration_yields_empty_stream(self):
        stream = simulate_run(make_manifest(seed=3, duration_s=0.0))
        assert len(stream) == 0

    def test_events_only_inside_detect_windows(self):
        m = make_manifest(seed=5, duration_s=30.0)
        stream = simulate_run(m)
        seq = m.sequence
        t = stream.t_ns / 1e9
        offset = t - stream.trial * seq.period_s
        assert np.all(offset >= seq.detect_offset_s - 1e-9)
        assert np.all(offset <= seq.detect_offset_s + seq.detect_s + 1e-6)

    def test_at_most_one_onset_per_trial(self):
        m = make_manifest(seed=7, duration_s=120.0, false_onset_rate=20.0)
        stream = simulate_run(m)
        trials = stream.trial[stream.channel == CHANNEL_PMT_ONSET]
        assert len(trials) > 100
        assert len(np.unique(trials)) == len(trials)

    def test_timestamps_strictly_increasing_per_channel(self):
        m = make_manifest(seed=8, duration_s=60.0, dark_trigger_rate=3000.0)
        stream = simulate_run(m)
        for code in (CHANNEL_APD, CHANNEL_PMT_ONSET):
            t = stream.channel_times(code)
            assert np.all(np.diff(t) > 0)

    def test_apd_rate_matches_analytics(self):
        # duty_cycle * (pair_rate * eta * marginal + dark) within 3 SE
        m = make_manifest(seed=9, duration_s=600.0)
        stream = simulate_run(m)
        rate = (m.rates.pair_rate * m.rates.eta_trigger * 0.5
                + m.rates.dark_trigger_rate)
        expected = m.sequence.duty_cycle * rate * m.duration_s
        n = len(stream.apd_times())
        assert abs(n - expected) < 3.0 * np.sqrt(expected)

    def test_heralding_ratio(self):
        # coincident onsets / APD count -> eta_herald * cond * branching
        m = make_manifest(seed=10, duration_s=3000.0, dark_trigger_rate=0.0,
                          false_onset_rate=0.0)
        stream = simulate_run(m)
        apd, onsets = stream.apd_times(), stream.onset_times()
        # count onsets within 20 us after a trigger
        idx = np.searchsorted(apd, onsets) - 1
        close = np.abs(onsets - apd[np.clip(idx, 0, len(apd) - 1)]) < 20_000
        ratio = close.sum() / len(apd)
        expected = 0.07 * 1.0 * 0.94   # orthogonal singlet setting
        sigma = np.sqrt(expected / len(apd))
        assert abs(ratio - expected) < 3.0 * sigma


def stream_digest(stream):
    h = hashlib.sha256()
    for column in (stream.trial, stream.channel, stream.t_ns):
        h.update(column.tobytes())
    return h.hexdigest()


class TestStreamPins:
    """Byte digests of the trial, channel and t_ns columns: any change to the
    random draws or to the output order of a stream fails here."""

    @pytest.fixture(autouse=True)
    def _pinned_numpy(self):
        if np.__version__.split(".")[:2] != PINNED_NUMPY.split(".")[:2]:
            pytest.skip(f"stream pins recorded with numpy {PINNED_NUMPY}, "
                        f"this is numpy {np.__version__}")

    def test_dense_dark_run(self):
        # ~1 M APD stamps in 1 s of detection time: 524 of them tie after
        # rounding and are bumped
        stream = simulate_run(make_manifest(seed=3, duration_s=2.0,
                                            dark_trigger_rate=1e6))
        assert len(stream) == 999_198
        assert stream_digest(stream) == (
            "aa4639701783351b36c97756a622cb1661c388286e55361cb01306f1f86cabee")

    def test_paper_hv_run(self):
        stream = simulate_run(presets.preset_manifest(
            "paper-hv", 7, angle_deg=45.0, minutes=5.0))
        assert (len(stream), len(stream.onset_times())) == (121_734, 134)
        assert stream_digest(stream) == (
            "6a01f49121afc250f31ecf301177bb9eb5e3cfcc7abbefd7e9eed003b1237084")


def ns(*values):
    return np.array(values, dtype=np.int64)


class TestFinalize:
    def test_output_order(self):
        m = make_manifest(seed=0, duration_s=0.1)
        # unsorted APD clicks: two tie at 200 ns, the later of them is bumped
        # to 201; onsets tie with an APD stamp at 100 and with the bumped one
        stream = _finalize(ns(0, 0, 0, 0), ns(300, 200, 100, 200),
                           ns(0, 0), ns(201, 100), m)
        apd, onset = CHANNEL_APD, CHANNEL_PMT_ONSET
        assert stream.t_ns.tolist() == [100, 100, 200, 201, 201, 300]
        assert stream.channel.tolist() == [apd, onset, apd, apd, onset, apd]
        assert stream.trial.tolist() == [0] * 6

    def test_trial_column_follows_time(self):
        m = make_manifest(seed=0, duration_s=0.3)
        stream = _finalize(ns(2, 0, 1, 0), ns(250, 50, 150, 60),
                           ns(1), ns(160), m)
        assert stream.t_ns.tolist() == [50, 60, 150, 160, 250]
        assert stream.trial.tolist() == [0, 0, 1, 1, 2]
        assert stream.channel.tolist() == [CHANNEL_APD] * 3 + [
            CHANNEL_PMT_ONSET, CHANNEL_APD]


class TestEventFileRoundTrip:
    def test_empty_stream(self, tmp_path):
        m = make_manifest(seed=3, duration_s=0.0)
        stream = simulate_run(m)
        path = tmp_path / "empty.txt"
        write_events(stream, path)
        assert path.read_text().count("\n") == 1   # manifest line only
        back = read_events(path)
        assert back == stream
        assert back.manifest.seed == m.seed

    def test_single_record(self, tmp_path):
        m = make_manifest(seed=0, duration_s=0.1)
        stream = EventStream(np.array([0]), np.array([CHANNEL_APD], np.int8),
                             np.array([50_000_123]), m)
        path = tmp_path / "one.txt"
        write_events(stream, path)
        back = read_events(path)
        assert back == stream
        assert int(back.t_ns[0]) == 50_000_123

    def test_round_trip_exact(self, tmp_path):
        m = make_manifest(seed=11, duration_s=60.0)
        stream = simulate_run(m)
        path = tmp_path / "run.txt"
        write_events(stream, path)
        back = read_events(path)
        assert back == stream

    def test_manifest_round_trip(self):
        m = make_manifest(seed=13, weight=0.83)
        m2 = manifest_from_dict(manifest_to_dict(m))
        assert m2.seed == m.seed
        assert m2.source.singlet_weight == pytest.approx(
            m.source.singlet_weight)
        np.testing.assert_allclose(m2.analyzer.projector_state.vector,
                                   m.analyzer.projector_state.vector)

    def test_identical_manifests_byte_identical_files(self, tmp_path):
        m = make_manifest(seed=17, duration_s=20.0)
        p1, p2 = tmp_path / "a.txt", tmp_path / "b.txt"
        write_events(simulate_run(m), p1)
        write_events(simulate_run(m), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_million_record_digest(self, tmp_path):
        # large-stream round trip checked by content digest
        m = make_manifest(seed=19, duration_s=700.0, dark_trigger_rate=3000.0)
        stream = simulate_run(m)
        assert len(stream) > 1_000_000
        p1, p2 = tmp_path / "big1.txt", tmp_path / "big2.txt"
        write_events(stream, p1)
        write_events(read_events(p1), p2)
        d1 = hashlib.sha256(p1.read_bytes()).hexdigest()
        d2 = hashlib.sha256(p2.read_bytes()).hexdigest()
        assert d1 == d2

    def test_malformed_line_reports_lineno(self, tmp_path):
        m = make_manifest(seed=0, duration_s=0.1)
        path = tmp_path / "bad.txt"
        write_events(simulate_run(m), path)
        with open(path, "a", encoding="utf-8") as fh:
            fh.write("totally broken line\n")
        with pytest.raises(DataError, match="malformed"):
            read_events(path)

    def test_non_monotone_rejected(self, tmp_path):
        m = make_manifest(seed=0, duration_s=0.1)
        path = tmp_path / "mono.txt"
        header = None
        write_events(simulate_run(m), path)
        header = path.read_text().splitlines()[0]
        path.write_text(header + "\n"
                        "0\tAPD\t100\tDETECT\n"
                        "0\tAPD\t90\tDETECT\n", encoding="utf-8")
        with pytest.raises(DataError, match="monotone"):
            read_events(path)

    def test_missing_manifest_rejected(self, tmp_path):
        path = tmp_path / "nohdr.txt"
        path.write_text("0\tAPD\t100\tDETECT\n", encoding="utf-8")
        with pytest.raises(DataError, match="manifest"):
            read_events(path)
