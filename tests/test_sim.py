import hashlib
import re

import numpy as np
import pytest

from ionherald import polarization as pol
from ionherald import presets, sim
from ionherald.biphoton import AnalyzerSetting, SourceModel, absorber_for
from ionherald.correlate import (histogram, histogram_from_stream,
                                 lag_reach_ns)
from ionherald.errors import ConfigError, DataError
from ionherald.sim import (CHANNEL_APD, CHANNEL_PMT_ONSET, EventStream,
                           RateConfig, RunManifest, SequenceConfig, _finalize,
                           _reached_trials,
                           manifest_from_dict, manifest_to_dict, read_events,
                           simulate_run, write_events)

# the stream pins below were recorded with this numpy; another release may
# draw different Poisson streams from the same seeds
PINNED_NUMPY = "2.4.6"


def make_manifest(seed=0, duration_s=60.0, weight=1.0, analyzer=None,
                  sequence=None, **rate_kw):
    rates = dict(pair_rate=20.0, eta_trigger=0.5, eta_herald=0.07,
                 branching_s=0.94, dark_trigger_rate=50.0,
                 false_onset_rate=1.0)
    rates.update(rate_kw)
    return RunManifest(
        seed=seed, duration_s=duration_s,
        absorber=absorber_for(pol.RL, "plus"),
        analyzer=analyzer or AnalyzerSetting(pol.L, 45.0),
        source=SourceModel(pol.singlet(), weight, rates["pair_rate"]),
        sequence=sequence or SequenceConfig(),
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

    @pytest.mark.parametrize("name", ["eta_trigger", "eta_herald",
                                      "branching_s"])
    def test_rejects_probability_outside_unit_interval(self, name):
        for bad in (-0.1, 1.5, np.nan):
            with pytest.raises(ConfigError):
                RateConfig(**{name: bad})

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


    def test_tie_bumps_match_pass_loop(self):
        # sorted stamps with long tie runs, some cascading into the next
        # distinct stamp, against the pass-per-nanosecond reference
        rng = np.random.default_rng(0)
        cases = [ns(), ns(7), ns(5, 5), ns(1, 2, 3), ns(0, 0, 0, 1, 1, 9)]
        for _ in range(200):
            distinct = np.cumsum(rng.integers(1, 6, size=rng.integers(1, 60)))
            cases.append(np.repeat(distinct,
                                   rng.integers(1, 40, size=len(distinct))))
        for t in cases:
            assert np.array_equal(sim._strictly_increasing(t),
                                  strictly_increasing_loop(t))


def strictly_increasing_loop(t):
    """Reference tie bump: one pass over the column per nanosecond of the
    longest cascade; each pass moves every violation to predecessor + 1."""
    t = t.copy()
    while True:
        bad = np.flatnonzero(np.diff(t) <= 0)
        if len(bad) == 0:
            return t
        t[bad + 1] = t[bad] + 1


def assert_counting_equals_full(m, bin_us=10.0, window_bins=50):
    """The counting-mode histogram equals the full stream's in every field;
    returns the counting-mode stream."""
    counted = simulate_run(m, reach_ns=lag_reach_ns(bin_us, window_bins))
    got = histogram_from_stream(counted, bin_us, window_bins)
    want = histogram_from_stream(simulate_run(m), bin_us, window_bins)
    assert np.array_equal(got.counts, want.counts)
    assert np.array_equal(got.lags, want.lags)
    assert (got.total_apd, got.total_onsets, got.duration_s,
            got.bin_width_us) == (want.total_apd, want.total_onsets,
                                  want.duration_s, want.bin_width_us)
    return counted


# detection windows 1 ns apart: tied stamps at a window's end are bumped
# into the next one
ONE_NS_GAP = SequenceConfig(rep_rate=9.9e6, cooling_ms=5e-7, prep_ms=5e-7,
                            detect_ms=1e-4)


class TestCountingMode:
    """simulate_run(m, reach_ns) keeps only the trials an onset can reach,
    and every histogram field stays that of the full stream."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("name", ["hv", "rl", "tomo"])
    def test_paper_manifests(self, name, seed):
        if name == "tomo":
            plan = presets.tomo_plan()
            m = presets.manifest_for_setting(plan, plan.settings[seed],
                                             seed, minutes=30.0)
        else:
            m = presets.manifest_for_angle(presets.fringe_plan(name),
                                           15.0 * seed, seed, minutes=30.0)
        counted = assert_counting_equals_full(m)
        # the onset's own trial is about 4 % of the detection time
        assert 0 < len(counted.apd_times()) < 0.1 * counted.apd_dropped

    @pytest.mark.parametrize("seed", range(4))
    def test_lag_window_spans_trials(self, seed):
        # trials 1 ms apart with 0.5 ms between windows, so the +-505 us
        # lag window reaches into the neighbouring trials
        seq = SequenceConfig(rep_rate=1000.0, cooling_ms=0.25, prep_ms=0.25,
                             detect_ms=0.5)
        counted = assert_counting_equals_full(make_manifest(
            seed=seed, duration_s=2.0, sequence=seq, dark_trigger_rate=2e4,
            false_onset_rate=20.0))
        assert counted.apd_dropped > 0

    def test_one_ns_gap_keeps_every_trial(self):
        # ~90 clicks per 100 ns window: tie cascades cross into the next
        # trial, and dropping the trials no onset reaches would shift the
        # stamps of the kept ones
        m = make_manifest(seed=4, duration_s=1e-4, sequence=ONE_NS_GAP,
                          dark_trigger_rate=9e8, false_onset_rate=3e6)
        counted = assert_counting_equals_full(m, bin_us=0.001, window_bins=3)
        assert counted.apd_dropped == 0
        assert counted == simulate_run(m)

    def test_tie_cascade_across_trials_keeps_every_trial(self):
        # trial 0's window ends at 200 ns, trial 1's starts at 202 ns; three
        # clicks tied at 200 ns are bumped to 200, 201 and 202, and push
        # trial 1's click from 202 to 203, 87 ns before an onset at 290
        t_start, w = np.array([100e-9, 202e-9]), 100e-9
        stream = _finalize(ns(0, 0, 0, 1), ns(200, 200, 200, 202),
                           ns(1), ns(290), None)
        assert stream.apd_times().tolist() == [200, 201, 202, 203]
        # trial 0 alone lies further than 87 ns from the onset, but without
        # it trial 1's click would stay at 202: every trial is kept
        keep = _reached_trials(t_start, w, ns(3, 1), ns(290), 87)
        assert keep.tolist() == [True, True]
        assert histogram(ns(203), ns(290), 0.001, 87).counts.sum() == 1
        assert histogram(ns(202), ns(290), 0.001, 87).counts.sum() == 0

    def test_no_trials(self):
        counted = assert_counting_equals_full(make_manifest(duration_s=0.0))
        assert len(counted) == 0 and counted.apd_dropped == 0

    def test_no_onsets(self):
        counted = assert_counting_equals_full(make_manifest(
            seed=5, duration_s=30.0, eta_herald=0.0, false_onset_rate=0.0))
        assert len(counted) == 0 and counted.apd_dropped > 0

    def test_no_dark_triggers(self):
        assert_counting_equals_full(make_manifest(
            seed=6, duration_s=120.0, dark_trigger_rate=0.0))

    @pytest.mark.parametrize("side", ["after", "before"])
    @pytest.mark.parametrize("inside", [True, False])
    def test_clicks_on_the_lag_window_edges(self, side, inside):
        # 1 us windows 20 us apart with ~1000 dark clicks each, so a click
        # often sits on a window's first nanosecond; the lag window is set
        # so that a click in the next or previous trial lies on its edge
        seq = SequenceConfig(rep_rate=5e4, cooling_ms=0.005, prep_ms=0.005,
                             detect_ms=0.001)
        m = make_manifest(seed=8, duration_s=2e-3, sequence=seq,
                          dark_trigger_rate=1e9, false_onset_rate=2e5)
        stream = simulate_run(m)
        t_start = (np.arange(m.n_trials) * seq.period_s
                   + seq.detect_offset_s)
        first_ns = np.rint(t_start * 1e9).astype(np.int64)
        apd = stream.apd_times()
        apd_trial = stream.trial[stream.channel == CHANNEL_APD]
        on = stream.onset_times()
        on_trial = stream.trial[stream.channel == CHANNEL_PMT_ONSET]
        if side == "after":
            # onset j and a click on the first nanosecond of the next trial
            j = next(j for j, k in enumerate(on_trial) if k + 1 < m.n_trials
                     and first_ns[k + 1] in apd)
            d = int(first_ns[on_trial[j] + 1] - on[j])
            # below = bin // 2 holds d, or stops 1 ns short of it
            bin_ns = 2 * d + 1 if inside else 2 * d - 1
        else:
            # onset j and the last click of the previous trial
            j = next(j for j, k in enumerate(on_trial) if k > 0)
            d = int(on[j] - apd[apd_trial == on_trial[j] - 1][-1])
            # above = bin - bin // 2 holds d only if it exceeds it
            bin_ns = 2 * d + 1 if inside else 2 * d
        assert_counting_equals_full(m, bin_us=bin_ns / 1000.0, window_bins=0)


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
        stream = simulate_run(m)
        write_events(stream, path)
        with open(path, "a", encoding="utf-8") as fh:
            fh.write("totally broken line\n")
        with pytest.raises(DataError, match=(
                f"bad.txt: line {len(stream) + 2}: malformed record "
                "'totally broken line'$")):
            read_events(path)

    @pytest.mark.parametrize("line, message", [
        (b"5\tAPX\t9\tDETECT",
         re.escape(r"malformed record '5\tAPX\t9\tDETECT'")),
        (b"5\tapd\t9\tDETECT", "malformed record"),
        (b"5\tPMT_ONSEX\t9\tDETECT", "malformed record"),
        (b"5\tAPD\t9\tDETECTED", "malformed record"),
        (b"5\tAPD\t9\tPREP", "malformed record"),
        (b"5\tAPD\t9", "malformed record"),
        (b"5\tAPD\t9\tDETECT\t", "malformed record"),
        (b"5\tAPD\t9\tDETECT\r\r", "malformed record"),
        (b"5\tAPD\t9\tDETECT\xff", "malformed record"),
        (b"5\tAPD\t\tDETECT", "non-integer field"),
        (b"\tAPD\t9\tDETECT", "non-integer field"),
        (b"5\tAPD\t9x\tDETECT", "non-integer field"),
        (b"5\tAPD\t+9\tDETECT", "non-integer field"),
        (b" 5\tAPD\t9\tDETECT", "non-integer field"),
        (b"5\tAPD\t1_000\tDETECT", "non-integer field"),
        ("5\tAPD\t\u0665\tDETECT".encode(), "non-integer field"),
        (b"5\tAPD\t9223372036854775808\tDETECT", "integer field longer"),
        (b"1000000000000000000\tAPD\t9\tDETECT", "integer field longer"),
    ])
    def test_bad_record_names_its_line(self, tmp_path, line, message):
        # two records, a blank line, then the bad one on line 5
        path = tmp_path / "bad.txt"
        write_events(EventStream(ns(0, 0), np.zeros(2, np.int8), ns(3, 4),
                                 make_manifest(duration_s=0.1)), path)
        path.write_bytes(path.read_bytes() + b"\r\n" + line + b"\n")
        with pytest.raises(DataError, match=f"bad.txt: line 5: {message}"):
            read_events(path)

    def test_bad_record_past_the_first_block(self, tmp_path):
        m = make_manifest(seed=19, duration_s=60.0, dark_trigger_rate=3000.0)
        path = tmp_path / "big.txt"
        write_events(simulate_run(m), path)
        data = bytearray(path.read_bytes())
        # break the first record that starts in the second reader block
        at = data.index(b"APD", sim.READ_BLOCK + 10_000)
        data[at:at + 3] = b"ADP"
        path.write_bytes(bytes(data))
        lineno = data.count(b"\n", 0, at) + 1
        assert lineno > sim.READ_BLOCK // 40
        with pytest.raises(DataError, match=f"line {lineno}: malformed"):
            read_events(path)

    def test_line_longer_than_any_record(self, tmp_path, monkeypatch):
        monkeypatch.setattr(sim, "READ_BLOCK", 64)
        path = tmp_path / "long.txt"
        write_events(EventStream(ns(0), np.zeros(1, np.int8), ns(3),
                                 make_manifest(duration_s=0.1)), path)
        path.write_bytes(path.read_bytes() + b"7" * 10_000)
        with pytest.raises(DataError,
                           match="line 3: malformed record '7{80}'$"):
            read_events(path)

    def test_trial_outside_the_manifest(self, tmp_path):
        path = tmp_path / "late.txt"
        write_events(simulate_run(make_manifest(seed=0, duration_s=0.3)), path)
        # three trials: 0, 1 and 2
        with open(path, "ab") as fh:
            fh.write(b"2\tAPD\t999999999\tDETECT\n\n3\tAPD\t1\tDETECT\n")
        n = path.read_bytes().count(b"\n")
        with pytest.raises(DataError, match=rf"late.txt: line {n}: trial 3 "
                           "outside the manifest's 3 trials"):
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


def reference_records(path):
    """Line-by-line reading of the record grammar in the sim docstring; the
    block-wise reader must agree with it."""
    names = {b"APD": CHANNEL_APD, b"PMT_ONSET": CHANNEL_PMT_ONSET}
    columns = ([], [], [])
    with open(path, "rb") as fh:
        fh.readline()
        for line in fh:
            line = line.removesuffix(b"\n").removesuffix(b"\r")
            if not line:
                continue
            trial, name, t, phase = line.split(b"\t")
            assert phase == b"DETECT"
            for field in (trial, t):
                assert 1 <= len(field) <= 18 and field.isdigit()
            for column, value in zip(columns, (int(trial), names[name],
                                               int(t))):
                column.append(value)
    return (np.array(columns[0], np.int64), np.array(columns[1], np.int8),
            np.array(columns[2], np.int64))


def reference_text(stream):
    """The records of a stream as the per-line writer formatted them."""
    names = {CHANNEL_APD: "APD", CHANNEL_PMT_ONSET: "PMT_ONSET"}
    return "".join(f"{tr}\t{names[ch]}\t{t}\tDETECT\n" for tr, ch, t in zip(
        stream.trial.tolist(), stream.channel.tolist(),
        stream.t_ns.tolist())).encode()


def random_stream(rng, n, onset_share):
    """A stream that keeps the file's invariants, with values of 1 to 18
    digits (0 and 10**18 - 1 included) in both number columns."""
    def spread():
        # n distinct values in increasing order
        values = {0, 10 ** 18 - 1}
        while len(values) < n:
            values.add(int(rng.random() * 10.0 ** rng.integers(1, 19)))
        return np.array(sorted(values) if n > 1 else [0] * n, np.int64)
    # distinct trials, so that one onset per trial holds
    # 1e18 trials at the default 10 Hz, so that every trial is in the run
    return EventStream(spread(), (rng.random(n) < onset_share).astype(np.int8),
                       spread(), make_manifest(duration_s=1e17))


class TestAgainstLineReference:
    @pytest.mark.parametrize("n, onset_share", [
        (0, 0.0), (1, 0.0), (1, 1.0), (50, 0.0), (50, 1.0), (3000, 0.3)])
    def test_writer_and_reader_match_reference(self, tmp_path, n,
                                               onset_share):
        stream = random_stream(np.random.default_rng(n), n, onset_share)
        path = tmp_path / "r.txt"
        write_events(stream, path)
        body = path.read_bytes().split(b"\n", 1)[1]
        assert body == reference_text(stream)
        back = read_events(path)
        assert back == stream
        for got, want in zip((back.trial, back.channel, back.t_ns),
                             reference_records(path)):
            assert got.dtype == want.dtype and np.array_equal(got, want)

    @pytest.mark.parametrize("seed", range(12))
    def test_line_ends_and_blocks(self, tmp_path, monkeypatch, seed):
        # CRLF and blank lines anywhere, maybe no final line end, and reader
        # blocks from shorter than one line to several lines
        rng = np.random.default_rng(100 + seed)
        monkeypatch.setattr(sim, "READ_BLOCK", int(rng.integers(8, 200)))
        stream = random_stream(rng, int(rng.integers(1, 400)),
                               float(rng.random()))
        path = tmp_path / "r.txt"
        write_events(stream, path)
        header, body = path.read_bytes().split(b"\n", 1)
        pieces = []
        for line in body.splitlines():
            for _ in range(rng.poisson(0.2)):
                pieces.append(b"\r\n" if rng.random() < 0.5 else b"\n")
            pieces.append(line + (b"\r\n" if rng.random() < 0.3 else b"\n"))
        text = b"".join(pieces)
        if rng.random() < 0.5:
            text = text.rstrip(b"\r\n")
        path.write_bytes(header + b"\n" + text)
        back = read_events(path)
        for got, want in zip((back.trial, back.channel, back.t_ns),
                             reference_records(path)):
            assert np.array_equal(got, want)
        assert back == stream


class TestWriterRefuses:
    @pytest.mark.parametrize("column, at, value", [
        ("trial", 0, -1), ("t_ns", 0, -1), ("t_ns", 1, 10 ** 18),
        ("trial", 1, 10 ** 18), ("channel", 1, 2)])
    def test_unwritable_stream(self, tmp_path, column, at, value):
        # each stream keeps both channels in time order
        stream = EventStream(ns(0, 1), np.zeros(2, np.int8), ns(5, 6),
                             make_manifest(duration_s=0.1))
        getattr(stream, column)[at] = value
        path = tmp_path / "never.txt"
        with pytest.raises(DataError):
            write_events(stream, path)
        assert not path.exists()

    def test_counting_mode_stream(self, tmp_path):
        stream = simulate_run(make_manifest(seed=1, duration_s=10.0),
                              reach_ns=lag_reach_ns())
        assert stream.apd_dropped > 0
        path = tmp_path / "never.txt"
        with pytest.raises(DataError, match="left out"):
            write_events(stream, path)
        assert not path.exists()
