import dataclasses
import hashlib
import json
import re
import tracemalloc

import numpy as np
import pytest

from conftest import (columns_of, file_columns, histogram_of,
                      reference_outside_window, reference_text, stream_fault,
                      stream_of)
from ionherald import polarization as pol
from ionherald import cli, presets, records, sim
from ionherald.biphoton import AnalyzerSetting, SourceModel, absorber_for
from ionherald.cli import EXIT_DATA, main
from ionherald.correlate import (histogram_from_stream, lag_reach_ns,
                                 write_histogram)
from ionherald.errors import ConfigError, DataError
from ionherald.sim import (CHANNEL_APD, CHANNEL_PMT_ONSET, RateConfig,
                           RunManifest, SequenceConfig, _finalize,
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
        source=SourceModel(pol.singlet(), weight),
        sequence=sequence or SequenceConfig(),
        rates=RateConfig(**rates))


class TestSequenceConfig:
    def test_defaults_fit_period(self):
        seq = SequenceConfig()
        assert seq.detect_s / seq.period_s == pytest.approx(0.5)

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

    def test_rejects_bad_pair_rate(self):
        # the pair flux is finite and > 0, other rates may be 0
        for bad in (0.0, -1.0, np.inf, np.nan):
            with pytest.raises(ConfigError, match="pair_rate"):
                RateConfig(pair_rate=bad)

    def test_run_totals_within_numpy_poisson(self):
        # 5e17 dark clicks per 50 ms window is legal for one trial, but the
        # clicks are drawn as one total over the run: 10 trials expect 5e18
        make_manifest(duration_s=0.1, dark_trigger_rate=1e19)
        for rates in ({"dark_trigger_rate": 1e19}, {"false_onset_rate": 1e19},
                      {"pair_rate": 1e19}):
            with pytest.raises(ConfigError, match="events per run"):
                make_manifest(duration_s=1.0, **rates)

    def test_trials_within_int64(self):
        # duration_s * rep_rate overflows to inf
        with pytest.raises(ConfigError, match="trials"):
            make_manifest(duration_s=1e308)


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
        for trial, t_ns in columns_of(stream):
            offset = t_ns / 1e9 - trial * seq.period_s
            assert np.all(offset >= seq.detect_offset_s - 1e-9)
            assert np.all(offset <= seq.detect_offset_s + seq.detect_s + 1e-6)

    def test_at_most_one_onset_per_trial(self):
        m = make_manifest(seed=7, duration_s=120.0, false_onset_rate=20.0)
        stream = simulate_run(m)
        trials = columns_of(stream)[CHANNEL_PMT_ONSET][0]
        assert len(trials) > 100
        assert len(np.unique(trials)) == len(trials)

    def test_timestamps_strictly_increasing_per_channel(self):
        m = make_manifest(seed=8, duration_s=60.0, dark_trigger_rate=3000.0)
        stream = simulate_run(m)
        for t in (stream.apd_times(), stream.onset_times()):
            assert np.all(np.diff(t) > 0)

    def test_stamps_stay_in_their_window(self):
        # a piece whose offset plus length overshoots its window, as
        # rounding can make it, still stamps inside the window
        seq = SequenceConfig()
        out = np.empty(1000, dtype=np.int64)
        pieces = (ns(0, 1), np.array([0.03, 0.0]), np.array([0.03, 0.06]))
        sim._stamp_uniform(np.random.default_rng(0), out, pieces,
                           ns(500, 500), seq)
        lo, hi = sim._stamp_range(sim._window_start(ns(0, 1), seq),
                                  seq.detect_s, 1)
        trial = np.repeat([0, 1], 500)
        assert np.all(out >= lo[trial]) and np.all(out <= hi[trial])
        assert np.sum(out == hi[trial]) > 100

    def test_apd_rate_matches_analytics(self):
        # detection time * (pair_rate * eta * marginal + dark) within 3 SE
        m = make_manifest(seed=9, duration_s=600.0)
        stream = simulate_run(m)
        rate = (m.rates.pair_rate * m.rates.eta_trigger * 0.5
                + m.rates.dark_trigger_rate)
        expected = m.n_trials * m.sequence.detect_s * rate
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
    for column in file_columns(stream):
        h.update(column.tobytes())
    return h.hexdigest()


class TestStreamPins:
    """Byte digests of the trial, channel and t_ns columns in file order: any
    change to the random draws or to the output order of a stream fails
    here."""

    @pytest.fixture(autouse=True)
    def _pinned_numpy(self):
        if np.__version__.split(".")[:2] != PINNED_NUMPY.split(".")[:2]:
            pytest.skip(f"stream pins recorded with numpy {PINNED_NUMPY}, "
                        f"this is numpy {np.__version__}")

    def test_dense_dark_run(self):
        # ~1 M APD stamps in 1 s of detection time: 525 of them tie after
        # rounding and are bumped
        stream = simulate_run(make_manifest(seed=3, duration_s=2.0,
                                            dark_trigger_rate=1e6))
        assert len(stream) == 1_000_957
        assert stream_digest(stream) == (
            "cb72799ec14d110d456871d75ad007bd191f87002b477f2b5150f98dacf9ed1a")

    def test_paper_hv_run(self):
        stream = simulate_run(presets.preset_manifest(
            "paper-hv", 7, angle_deg=45.0, minutes=5.0))
        assert (len(stream), len(stream.onset_times())) == (121_809, 109)
        assert stream_digest(stream) == (
            "ccc70c368bd202c30992128c6cf2a0ed9a72a3cf93254385d08957eed7f329ec")

    def test_sparse_far_run(self):
        # ~168 k far clicks over 400 k windows, so most pieces draw none:
        # they are drawn CHECK_BLOCK at a time and the stream comes as three
        # blocks
        m = make_manifest(seed=21, duration_s=40_000.0, pair_rate=2.0,
                          dark_trigger_rate=8.0, false_onset_rate=0.05)
        n_apd, n_onsets, blocks = sim._simulate_blocks(m)
        blocks = list(blocks)
        assert len(blocks) == 3
        stream = sim._joined(m, iter(blocks), (n_apd, n_onsets))
        assert (len(stream), len(stream.onset_times())) == (171_559, 1666)
        assert stream_digest(stream) == (
            "7ce5df6247820f33aa469350364026d9d35a4672d0b5657a5ed6f57f5bb2a78f")


def ns(*values):
    return np.array(values, dtype=np.int64)


class TestFinalize:
    def test_output_order(self):
        m = make_manifest(seed=0, duration_s=0.1)
        # unsorted APD clicks: two tie at 200 ns, the later of them is bumped
        # to 201; onsets tie with an APD stamp at 100 and with the bumped one
        stream = _finalize(ns(300, 200, 100, 200), (ns(0), ns(4)),
                           ns(201, 100), (ns(0), ns(2)), m)
        assert stream.apd_ns.tolist() == [100, 200, 201, 300]
        assert stream.onset_ns.tolist() == [100, 201]
        apd, onset = CHANNEL_APD, CHANNEL_PMT_ONSET
        trial, channel, t_ns = file_columns(stream)
        assert t_ns.tolist() == [100, 100, 200, 201, 201, 300]
        assert channel.tolist() == [apd, onset, apd, apd, onset, apd]
        assert trial.tolist() == [0] * 6

    def test_trial_column_follows_time(self):
        m = make_manifest(seed=0, duration_s=0.3)
        stream = _finalize(ns(250, 50, 150, 60), (ns(2, 0, 1), ns(1, 2, 1)),
                           ns(160), (ns(1), ns(1)), m)
        assert [r.tolist() for r in stream.apd_runs] == [[0, 1, 2], [2, 1, 1]]
        (apd_trial, _), (onset_trial, _) = columns_of(stream)
        assert apd_trial.tolist() == [0, 0, 1, 2]
        assert onset_trial.tolist() == [1]
        trial, channel, t_ns = file_columns(stream)
        assert t_ns.tolist() == [50, 60, 150, 160, 250]
        assert trial.tolist() == [0, 0, 1, 1, 2]
        assert channel.tolist() == [CHANNEL_APD] * 3 + [
            CHANNEL_PMT_ONSET, CHANNEL_APD]

    def test_tie_cascade_across_windows(self):
        # trial 0's window ends at 200 ns, trial 1's starts at 202 ns; three
        # clicks tied at 200 ns are bumped to 200, 201 and 202, and push
        # trial 1's click from 202 to 203; each record keeps the trial of
        # its position in its channel
        stream = _finalize(ns(200, 200, 200, 202), (ns(0, 1), ns(3, 1)),
                           ns(290), (ns(1), ns(1)), None)
        (apd_trial, apd_ns), (onset_trial, onset_ns) = columns_of(stream)
        assert apd_ns.tolist() == [200, 201, 202, 203]
        assert apd_trial.tolist() == [0, 0, 0, 1]
        assert (onset_trial.tolist(), onset_ns.tolist()) == ([1], [290])

    def test_onset_inside_a_run_of_clicks(self):
        # onsets between the clicks of one trial, one at the run's end and
        # one before the next trial's clicks, with empty trials between;
        # the runs come unsorted, with a trial split in two
        stream = _finalize(ns(10, 20, 30, 700, 710),
                           (ns(3, 0, 0), ns(2, 1, 2)),
                           ns(15, 30, 705), (ns(0, 3, 4), ns(1, 1, 1)), None)
        apd, onset = CHANNEL_APD, CHANNEL_PMT_ONSET
        trial, channel, t_ns = file_columns(stream)
        assert t_ns.tolist() == [10, 15, 20, 30, 30, 700, 705, 710]
        assert channel.tolist() == [apd, onset, apd, apd, onset, apd, onset,
                                    apd]
        assert trial.tolist() == [0, 0, 0, 0, 3, 3, 4, 3]

    def test_no_record_sized_temporary(self):
        # ~1 M records: the arrays of stamps become the stream's t_ns
        # columns, and besides the stream's runs _finalize holds a few
        # blocks of CHECK_BLOCK stamps and its runs' order
        rng = np.random.default_rng(1)
        n_trials = 20_000
        apd_trial = np.sort(rng.integers(0, n_trials, 1_000_000))
        onset_trial = np.unique(rng.integers(0, n_trials, 5_000))
        apd_ns = apd_trial * 100_000 + rng.integers(0, 50_000, len(apd_trial))
        onset_ns = onset_trial * 100_000 + 25_000
        apd_per_trial = np.bincount(apd_trial, minlength=n_trials)
        runs = np.unique(apd_trial, return_counts=True)
        shuffle = rng.permutation(len(runs[0]))
        runs = tuple(column[shuffle] for column in runs)
        del apd_trial
        tracemalloc.start()
        try:
            held = tracemalloc.get_traced_memory()[0]
            stream = _finalize(apd_ns, runs, onset_ns,
                               (onset_trial, np.ones_like(onset_trial)), None)
            peak = tracemalloc.get_traced_memory()[1] - held
        finally:
            tracemalloc.stop()
        assert stream.apd_ns is apd_ns and stream.onset_ns is onset_ns
        outputs = sum(r.nbytes for runs in (stream.apd_runs,
                                            stream.onset_runs) for r in runs)
        assert peak - outputs < 4 * 8 * sim.CHECK_BLOCK, (peak, outputs)
        (apd_trial, _), (onset_trial_read, _) = columns_of(stream)
        assert np.array_equal(apd_trial, np.repeat(np.arange(n_trials),
                                                   apd_per_trial))
        assert np.array_equal(onset_trial_read, onset_trial)

    def test_tie_bumps_match_pass_loop(self, monkeypatch):
        # sorted stamps with long tie runs, some cascading into the next
        # distinct stamp, against the pass-per-nanosecond reference
        rng = np.random.default_rng(0)
        cases = [ns(), ns(7), ns(5, 5), ns(1, 2, 3), ns(0, 0, 0, 1, 1, 9)]
        for _ in range(200):
            distinct = np.cumsum(rng.integers(1, 6, size=rng.integers(1, 60)))
            cases.append(np.repeat(distinct,
                                   rng.integers(1, 40, size=len(distinct))))
        for t in cases:
            bumped = t.copy()
            sim._strictly_increasing(bumped)
            assert np.array_equal(bumped, strictly_increasing_loop(t))
        # blocks of four stamps after the bumped stamp 10: one whose first
        # stamp is 10, one with a tie inside it, one with neither, and one
        # whose first stamp ties the bumped last of the block before it;
        # whole, one block at a time and without `last`
        monkeypatch.setattr(sim, "CHECK_BLOCK", 4)
        blocks = [ns(10, 12, 13, 14), ns(20, 21, 21, 25), ns(30, 31, 35, 40),
                  ns(40, 41, 42, 50)]
        cases = [(np.concatenate(blocks), 10)]
        cases += [(t, last) for last in (10, None) for t in blocks]
        for t, last in cases:
            bumped = t.copy()
            sim._strictly_increasing(bumped, last)
            expected = strictly_increasing_loop(
                t if last is None else np.append(last, t))
            assert np.array_equal(bumped, expected[last is not None:]), t

    @pytest.mark.parametrize("block", [1, 3, 7, 64])
    def test_bumps_and_merge_in_blocks(self, tmp_path, monkeypatch, block):
        # tie runs across the block edges of the bumps, and onsets before,
        # between, tied with and after the APD stamps across the writer's
        # blocks, against the pass-per-nanosecond bumps and one np.insert of
        # each whole column. The writer's merge alone: these streams lie
        # before trial 0's window and hold many onsets in it, so the rules
        # of a legal stream are not run
        monkeypatch.setattr(sim, "CHECK_BLOCK", block)
        monkeypatch.setattr(sim, "WRITE_BLOCK", block)
        monkeypatch.setattr(sim, "_checked", lambda blocks: blocks)
        monkeypatch.setattr(sim, "_form_fault", lambda stream: None)
        rng = np.random.default_rng(block)
        m = make_manifest(duration_s=0.1)
        path = tmp_path / "merged.events"
        for _ in range(300):
            apd = rng.integers(5, 65, size=rng.integers(0, 80))
            onsets = rng.integers(0, 150, size=rng.integers(0, 12))
            stream = _finalize(apd.copy(), (ns(0), ns(len(apd))),
                               onsets.copy(), sim._runs(0 * onsets), m)
            assert np.array_equal(stream.apd_ns,
                                  strictly_increasing_loop(np.sort(apd)))
            assert np.array_equal(stream.onset_ns,
                                  strictly_increasing_loop(np.sort(onsets)))
            write_events(stream, path)
            assert path.read_bytes().split(b"\n", 1)[1] \
                == reference_text(stream)


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
    """The counting-mode histogram, on a lag window that reaches no further
    than the default one, equals the full stream's in every field; returns
    the counting-mode stream."""
    counted = simulate_run(m, counting=True)
    got = histogram_from_stream(counted, bin_us, window_bins)
    want = histogram_from_stream(simulate_run(m), bin_us, window_bins)
    assert np.array_equal(got.counts, want.counts)
    assert np.array_equal(got.lags, want.lags)
    assert (got.total_apd, got.total_onsets, got.duration_s,
            got.bin_width_us) == (want.total_apd, want.total_onsets,
                                  want.duration_s, want.bin_width_us)
    return counted


def assert_records_in(part, whole, code):
    """Every record of the channel in `part` is one of `whole`'s, with its
    trial."""
    trial, t_ns = columns_of(part)[code]
    whole_trial, whole_t = columns_of(whole)[code]
    at = np.minimum(np.searchsorted(whole_t, t_ns), len(whole_t) - 1)
    assert np.array_equal(whole_t[at], t_ns)
    assert np.array_equal(whole_trial[at], trial)


def assert_counting_is_substream(m):
    """Counting mode draws what the full stream draws up to the clicks
    outside the regions: its onsets are the full stream's, its APD records
    are some of the full stream's, the others are counted in apd_dropped,
    and the histogram is the full stream's. Tie bumps could break this;
    these manifests have none near a kept click. Returns the counting-mode
    stream."""
    counted, full = simulate_run(m, counting=True), simulate_run(m)
    for got, want in zip(columns_of(counted)[CHANNEL_PMT_ONSET],
                         columns_of(full)[CHANNEL_PMT_ONSET]):
        assert np.array_equal(got, want)
    assert_records_in(counted, full, CHANNEL_APD)
    assert len(counted.apd_times()) + counted.apd_dropped \
        == len(full.apd_times())
    assert_counting_equals_full(m)
    return counted


# detection windows 1 ns apart: tied stamps at a window's end are bumped
# into the next one
ONE_NS_GAP = SequenceConfig(rep_rate=9.9e6, cooling_ms=5e-7, prep_ms=5e-7,
                            detect_ms=1e-4)

# 10 us windows every 20 us, so the +-55 us lag window of 5 bins of 10 us
# spans about five trials on either side of an onset
SHORT_WINDOWS = SequenceConfig(rep_rate=5e4, cooling_ms=0.005, prep_ms=0.005,
                               detect_ms=0.01)


class TestCountingMode:
    """simulate_run(m, counting=True) keeps every onset and every click of
    an absorbed pair, and of the other clicks only those drawn within the
    default lag window's reach of an onset. It is a sub-stream of the full
    stream, up to tie bumps."""

    def test_memory_follows_records_not_trials(self):
        # 10^7 trials and ~500 records: a per-trial array would be 80 MB
        m = make_manifest(seed=2, duration_s=1e6, pair_rate=1e-3,
                          dark_trigger_rate=1e-3, false_onset_rate=1e-3)
        assert m.n_trials == 10_000_000
        tracemalloc.start()
        try:
            held = tracemalloc.get_traced_memory()[0]
            stream = simulate_run(m, counting=True)
            peak = tracemalloc.get_traced_memory()[1] - held
        finally:
            tracemalloc.stop()
        assert 100 < len(stream) < 2000 and stream.apd_dropped > 100
        assert peak < 1e6, peak

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
        counted = assert_counting_is_substream(m)
        # the regions, +-505 us about each onset, are ~0.1 % of the
        # detection time
        assert 0 < len(counted.apd_times()) < 0.01 * counted.apd_dropped
        assert_counting_is_substream(dataclasses.replace(
            m, rates=dataclasses.replace(m.rates, dark_trigger_rate=0.0)))

    @pytest.mark.parametrize("seed", range(4))
    def test_lag_window_spans_trials(self, seed):
        # trials 1 ms apart with 0.5 ms between windows, so the +-505 us
        # lag window reaches into the neighbouring trials
        seq = SequenceConfig(rep_rate=1000.0, cooling_ms=0.25, prep_ms=0.25,
                             detect_ms=0.5)
        counted = assert_counting_is_substream(make_manifest(
            seed=seed, duration_s=2.0, sequence=seq, dark_trigger_rate=2e4,
            false_onset_rate=20.0))
        assert counted.apd_dropped > 0

    def test_regions_covering_the_run(self):
        # ~90 clicks per 100 ns window with tie cascades into the next
        # trial; the run is 100 us, far shorter than the default reach, so
        # the regions cover every window and the counting stream is the
        # full stream
        m = make_manifest(seed=4, duration_s=1e-4, sequence=ONE_NS_GAP,
                          dark_trigger_rate=9e8, false_onset_rate=3e6)
        counted = simulate_run(m, counting=True)
        assert counted.apd_dropped == 0 and len(counted) > 80_000
        assert counted == simulate_run(m)

    def test_lag_windows_within_reach(self):
        # 49 bins of 5 us reach 247.5 us, inside the default 505 us
        counted = assert_counting_equals_full(make_manifest(
            seed=7, duration_s=120.0, dark_trigger_rate=2000.0), 5.0, 49)
        assert counted.apd_dropped > 0

    def test_lag_window_beyond_reach_refused(self):
        # 51 bins of 10.5 us reach 540.75 us: the counting stream left out
        # clicks that such a window would bin
        m = make_manifest(seed=7, duration_s=120.0, dark_trigger_rate=2000.0)
        assert lag_reach_ns(10.5, 51) > lag_reach_ns()
        counted, full = simulate_run(m, counting=True), simulate_run(m)
        def pairs(s):
            return histogram_of(s.apd_ns, s.onset_ns, 10.5, 51).counts.sum()
        assert pairs(counted) < pairs(full)
        with pytest.raises(DataError, match="reaches further"):
            histogram_from_stream(counted, 10.5, 51)
        # the full stream holds every click and takes any window
        for bin_us, window_bins in ((10.5, 51), (10.0, 500), (1.0, 5)):
            hist = histogram_from_stream(full, bin_us, window_bins)
            assert len(hist.counts) == 2 * window_bins + 1

    def test_no_trials(self):
        counted = assert_counting_equals_full(make_manifest(duration_s=0.0))
        assert len(counted) == 0 and counted.apd_dropped == 0

    def test_no_onsets(self):
        counted = assert_counting_equals_full(make_manifest(
            seed=5, duration_s=30.0, eta_herald=0.0, false_onset_rate=0.0))
        assert len(counted) == 0 and counted.apd_dropped > 0

    def test_no_dark_triggers(self):
        assert_counting_is_substream(make_manifest(
            seed=6, duration_s=120.0, dark_trigger_rate=0.0))

    @pytest.mark.parametrize("side", ["after", "before"])
    @pytest.mark.parametrize("inside", [True, False])
    def test_clicks_on_the_lag_window_edges(self, side, inside):
        # 1 us windows 20 us apart and an onset in trial 2; the lag window
        # is set so that the first nanosecond of trial 3, or the last of
        # trial 1, lies on its edge or just past it
        seq = SequenceConfig(rep_rate=5e4, cooling_ms=0.005, prep_ms=0.005,
                             detect_ms=0.001)
        on_ns = 50_480
        if side == "after":
            trial, edge = 3, 70_000     # its window's first nanosecond
            d = edge - on_ns
            # below = bin // 2 holds d, or stops 1 ns short of it
            bin_ns = 2 * d + 1 if inside else 2 * d - 1
            rounds_to_edge = (edge, edge + 0.5)
        else:
            trial, edge = 1, 31_000     # its window's last nanosecond
            d = on_ns - edge
            # above = bin - bin // 2 holds d only if it exceeds it
            bin_ns = 2 * d + 1 if inside else 2 * d
            rounds_to_edge = (edge - 0.5, edge)
        bin_us = bin_ns / 1000.0
        assert histogram_of(ns(edge), ns(on_ns), bin_us, 0).counts.sum() \
            == inside
        reach = lag_reach_ns(bin_us, 0)
        lo, hi = sim._regions(ns(on_ns), reach)
        at, off, length = sim._pieces(sim._intervals(lo, hi, seq, 5), seq)
        start_ns = (sim._window_start(at, seq) + off) * 1e9
        stop_ns = start_ns + length * 1e9
        # a click left out of the regions rounds to no stamp the histogram
        # can use, and the regions reach at most 1.5 ns further
        if inside:
            k = np.flatnonzero(at == trial)
            assert len(k) == 1
            assert start_ns[k] <= rounds_to_edge[0] + 1e-3
            assert stop_ns[k] >= rounds_to_edge[1] - 1e-3
        assert start_ns.min() >= on_ns - reach - 1.5
        assert stop_ns.max() <= on_ns + reach + 1.5

    def test_regions_and_the_rest_tile_the_windows(self):
        # regions of +-55 us about onsets in 10 us windows every 20 us span
        # several windows, overlap each other and run past the run's ends;
        # with the rest of the detection time they cover each window once
        seq, n_trials = SHORT_WINDOWS, 40
        lo, hi = sim._regions(ns(10_003, 15_000, 95_000, 410_000, 799_990),
                              lag_reach_ns(10.0, 5))
        pieces = [sim._pieces(sim._intervals(lo, hi, seq, n_trials), seq),
                  sim._pieces(sim._intervals(np.append(-np.inf, hi),
                                             np.append(lo, np.inf), seq,
                                             n_trials), seq)]
        trial, off, length = (np.concatenate(c) for c in zip(*pieces))
        assert np.allclose(np.bincount(trial, length, n_trials),
                           seq.detect_s, rtol=0.0, atol=1e-15)
        # no two pieces of time overlap (empty pieces hold none)
        order = np.lexsort((off, trial))
        order = order[length[order] > 0]
        trial, off, length = trial[order], off[order], length[order]
        same = trial[1:] == trial[:-1]
        assert np.all(off[1:][same] >= off[:-1][same] + length[:-1][same]
                      - 1e-15)
        # the regions reach into neighbouring windows, not only the onset's
        assert len(np.unique(pieces[0][0])) > 5 * 3

    def test_histograms_agree_over_seeds(self):
        # +-5 bins of 10 us reach ~55 us, well inside the regions: the
        # counting streams leave out ~2.8e3 to ~4.8e3 clicks each, and every
        # bin, 550 to 2000 coincidences, is the full stream's
        for seed in range(8):
            counted = assert_counting_equals_full(make_manifest(
                seed=seed, duration_s=0.5, sequence=SHORT_WINDOWS,
                dark_trigger_rate=2e5, false_onset_rate=5e3), 10.0, 5)
            assert counted.apd_dropped > 1000


def one_call_pieces(lo, hi, seq, n_trials):
    """The pieces of the intervals [lo, hi] made in one call for all of
    them: the reference that ranges of pieces are checked against."""
    w = seq.detect_s
    first = np.clip(np.floor((lo - seq.detect_offset_s - w) / seq.period_s)
                    + 1, 0, n_trials - 1)
    last = np.clip(np.ceil((hi - seq.detect_offset_s) / seq.period_s) - 1,
                   0, n_trials - 1)
    n = np.maximum(last - first + 1, 0).astype(np.int64)
    trial = np.repeat(first - np.cumsum(n) + n, n).astype(np.int64) \
        + np.arange(n.sum())
    start = sim._window_start(trial, seq)
    off = np.clip(np.repeat(lo, n) - start, 0.0, w)
    return trial, off, np.clip(np.repeat(hi, n) - start, 0.0, w) - off


class TestFarPieces:
    """The far pieces are made from their intervals a range of pieces at a
    time: each range is, column by column and bit for bit, that part of the
    pieces of one call for the whole run."""

    SEQ, N_TRIALS = SHORT_WINDOWS, 200

    def far_intervals(self):
        # regions of +-55 us about onsets in 10 us windows every 20 us: two
        # overlap, so the time between them is an empty interval, and one
        # gap spans ~95 windows
        lo, hi = sim._regions(ns(10_003, 15_000, 95_000, 2_000_000,
                                 3_990_000), lag_reach_ns(10.0, 5))
        return np.append(-np.inf, hi), np.append(lo, np.inf)

    def edge_intervals(self):
        # intervals that start or end on a window's edge, or an ulp inside
        # it, and empty ones on the edges
        start = sim._window_start(np.arange(2, 40, 4), self.SEQ)
        end = start + self.SEQ.detect_s
        lo = np.concatenate([start, end, np.nextafter(end, -np.inf),
                             start + 1e-6])
        hi = np.concatenate([start, end, end + 5e-6,
                             np.nextafter(start + 4 * self.SEQ.period_s,
                                          np.inf)])
        order = np.argsort(lo, kind="stable")
        return lo[order], hi[order]

    @pytest.mark.parametrize("kind", ["far", "edge"])
    def test_ranges_match_one_call(self, kind):
        lo, hi = getattr(self, f"{kind}_intervals")()
        intervals = sim._intervals(lo, hi, self.SEQ, self.N_TRIALS)
        whole = sim._pieces(intervals, self.SEQ)
        reference = one_call_pieces(lo, hi, self.SEQ, self.N_TRIALS)
        for got, want in zip(whole, reference):
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()
        n = len(whole[0])
        assert n == intervals[3][-1] and n > 20
        # empty pieces, and those an ulp long on window edges, are pieces
        # like any other
        assert np.any(whole[2] == 0.0 if kind == "far"
                      else (whole[2] > 0.0) & (whole[2] < 1e-18))
        if kind == "far":
            assert np.max(np.diff(intervals[3])) > 90
        rng = np.random.default_rng(0)
        ranges = [(j, j + size) for size in (1, 2, 3, 7, 97)
                  for j in range(0, n, size)]
        ranges += [tuple(sorted(rng.integers(0, n + 1, 2)))
                   for _ in range(200)]
        for j0, j1 in ranges:
            part = sim._pieces(intervals, self.SEQ, slice(j0, j1))
            for got, want in zip(part, whole):
                assert got.tobytes() == want[j0:j1].tobytes(), (j0, j1)

    SPARSE = make_manifest(seed=5, duration_s=2000.0, pair_rate=2.0,
                           dark_trigger_rate=8.0, false_onset_rate=0.5)

    @pytest.mark.parametrize("block", [97, 1000])
    def test_sparse_stream_independent_of_block(self, monkeypatch, block):
        # ~8 k far clicks in 20 k windows drawn 97 or 1000 at a time, their
        # lengths made 6 or 62 pieces at a time: ranges that start and end
        # inside intervals of ~40 windows
        whole = simulate_run(self.SPARSE)
        assert 0 < len(whole.apd_ns) < self.SPARSE.n_trials / 2
        monkeypatch.setattr(sim, "CHECK_BLOCK", block)
        assert simulate_run(self.SPARSE) == whole


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
        stream = stream_of(ns(0), ns(50_000_123), ns(), ns(), m)
        path = tmp_path / "one.txt"
        write_events(stream, path)
        back = read_events(path)
        assert back == stream
        assert int(back.apd_ns[0]) == 50_000_123

    def test_round_trip_exact(self, tmp_path):
        m = make_manifest(seed=11, duration_s=60.0)
        stream = simulate_run(m)
        path = tmp_path / "run.txt"
        write_events(stream, path)
        back = read_events(path)
        assert back == stream

    def test_edited_manifest_reads_back_unequal(self, tmp_path):
        m = make_manifest(seed=3, duration_s=10.0)
        stream = simulate_run(m)
        path = tmp_path / "run.txt"
        write_events(stream, path)
        path.write_bytes(path.read_bytes().replace(b'"seed":3', b'"seed":4',
                                                   1))
        back = read_events(path)
        assert back.manifest.seed == 4
        assert back != stream
        assert back == dataclasses.replace(stream, manifest=back.manifest)

    def test_file_with_the_older_header_keys(self, tmp_path):
        # a header that still holds source.pair_rate, absorber.blocked and
        # absorber.geometry_note, as files written before they were dropped
        # do, reads as the stream
        stream = simulate_run(make_manifest(seed=5, duration_s=10.0))
        path = tmp_path / "run.txt"
        write_events(stream, path)
        header, body = path.read_bytes().split(b"\n", 1)
        d = json.loads(header[len(sim.FILE_MAGIC):])
        d["source"]["pair_rate"] = d["rates"]["pair_rate"]
        d["absorber"].update(blocked=sim._state_to_json(pol.L),
                             geometry_note="")
        path.write_bytes(b"%s%s\n%s" % (
            sim.FILE_MAGIC.encode(),
            json.dumps(d, sort_keys=True, separators=(",", ":")).encode(),
            body))
        assert read_events(path) == stream

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
        # line 5 lacks a digit and line 6 has one too many: line 5 is named
        (b"5\tAPD\t9x\tDETECT\n5\tAP1\t99\tDETECT", "non-integer field"),
    ])
    def test_bad_record_names_its_line(self, tmp_path, line, message):
        # two records, a blank line, then the bad one on line 5
        path = tmp_path / "bad.txt"
        write_events(stream_of(ns(0, 0), ns(50_000_003, 50_000_004), ns(),
                               ns(), make_manifest(duration_s=0.1)), path)
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
        write_events(stream_of(ns(0), ns(50_000_003), ns(), ns(),
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
            fh.write(b"\n3\tAPD\t1\tDETECT\n")
        n = path.read_bytes().count(b"\n")
        with pytest.raises(DataError, match=rf"late.txt: line {n}: trial 3 "
                           "outside the manifest's 3 trials"):
            read_events(path)

    def test_first_record_at_fault_is_named(self, tmp_path):
        # a stamp past trial 2's window, then a record of trial 3, past the
        # manifest's: the first record at fault in the file is named
        path = tmp_path / "late.txt"
        write_events(simulate_run(make_manifest(seed=0, duration_s=0.3)), path)
        n = path.read_bytes().count(b"\n") + 1
        with open(path, "ab") as fh:
            fh.write(b"2\tAPD\t999999999\tDETECT\n\n3\tAPD\t1\tDETECT\n")
        with pytest.raises(DataError, match=(
                rf"late.txt: line {n}: APD stamp 999999999 outside the "
                "detection window of trial 2$")):
            read_events(path)

    @pytest.mark.parametrize("block", [sim.READ_BLOCK, 256])
    def test_trial_past_the_manifest_before_a_bad_line(self, tmp_path,
                                                       monkeypatch, block):
        # 30 trials: trial 31 on line 11 is named before the malformed line
        # 21, whether both lie in one block or not
        path = tmp_path / "late.txt"
        write_events(simulate_run(presets.preset_manifest(
            "paper-hv", 3, angle_deg=45.0, minutes=0.05)), path)
        lines = path.read_bytes().split(b"\n")
        lines[10] = b"31" + lines[10][lines[10].index(b"\t"):]
        assert b"\tAPD\t" in lines[20]
        lines[20] = lines[20].replace(b"\tAPD\t", b"\tADP\t")
        path.write_bytes(b"\n".join(lines))
        monkeypatch.setattr(sim, "READ_BLOCK", block)
        with pytest.raises(DataError, match=(
                "late.txt: line 11: trial 31 outside the manifest's 30 "
                "trials$")):
            read_events(path)

    @pytest.mark.parametrize("late", [b"APD", b"PMT_ONSET"])
    def test_stamp_outside_window_names_the_first_line(self, tmp_path,
                                                        late):
        # trial 1's window is [150 ms, 200 ms]: one record of each channel
        # lies past it, and the error names the earlier line
        path = tmp_path / "outside.txt"
        write_events(simulate_run(make_manifest(duration_s=0.0)), path)
        first = b"APD" if late == b"PMT_ONSET" else b"PMT_ONSET"
        with open(path, "ab") as fh:
            fh.write(b"0\tAPD\t60000000\tDETECT\n"
                     b"1\t%s\t210000000\tDETECT\n\n"
                     b"1\t%s\t220000000\tDETECT\n" % (first, late))
        path.write_bytes(path.read_bytes().replace(b'"duration_s":0.0',
                                                   b'"duration_s":0.2'))
        with pytest.raises(DataError, match=(
                f"outside.txt: line 3: {first.decode()} stamp 210000000 "
                "outside the detection window of trial 1$")):
            read_events(path)

    def test_more_onsets_than_trials(self, tmp_path):
        path = tmp_path / "onsets.txt"
        write_events(simulate_run(make_manifest(duration_s=0.1)), path)
        with open(path, "ab") as fh:
            fh.write(b"0\tPMT_ONSET\t60000000\tDETECT\n"
                     b"0\tPMT_ONSET\t60000001\tDETECT\n")
        with pytest.raises(DataError, match="multiple PMT_ONSET"):
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

    @pytest.mark.parametrize("block", [sim.READ_BLOCK, 256])
    def test_non_monotone_names_its_line(self, tmp_path, monkeypatch,
                                         block):
        # an APD stamp made equal to the one before it, mid-file: the order
        # rule names that line, whether the two lie in one block or not
        path = tmp_path / "mono.txt"
        write_events(simulate_run(make_manifest(seed=2, duration_s=3.0)),
                     path)
        lines = path.read_bytes().split(b"\n")
        i = next(i for i in range(len(lines) // 2, len(lines))
                 if b"\tAPD\t" in lines[i - 1] and b"\tAPD\t" in lines[i])
        fields = lines[i].split(b"\t")
        fields[2] = lines[i - 1].split(b"\t")[2]
        lines[i] = b"\t".join(fields)
        path.write_bytes(b"\n".join(lines))
        monkeypatch.setattr(sim, "READ_BLOCK", block)
        with pytest.raises(DataError, match=(
                f"mono.txt: line {i + 1}: non-monotone timestamps in "
                "channel APD$")):
            read_events(path)

    def test_missing_manifest_rejected(self, tmp_path):
        path = tmp_path / "nohdr.txt"
        path.write_text("0\tAPD\t100\tDETECT\n", encoding="utf-8")
        with pytest.raises(DataError, match="manifest"):
            read_events(path)


def reference_records(path):
    """Line-by-line reading of the record grammar in the sim docstring: the
    trial and t_ns columns of each channel, APD first. The block-wise reader
    must agree with it."""
    names = {b"APD": CHANNEL_APD, b"PMT_ONSET": CHANNEL_PMT_ONSET}
    columns = (([], []), ([], []))
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
            for column, value in zip(columns[names[name]], (trial, t)):
                column.append(int(value))
    return [[np.array(column, np.int64) for column in pair]
            for pair in columns]


def assert_reads_as_reference(stream, path):
    for got, want in zip(columns_of(stream), reference_records(path)):
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and np.array_equal(g, w)


def write_raw(stream, path):
    """The records that write_events would write, without its checks: for
    streams that break a rule of a legal stream."""
    header = sim.FILE_MAGIC + json.dumps(manifest_to_dict(stream.manifest))
    path.write_bytes(header.encode() + b"\n" + reference_text(stream))


def random_stream(rng, n, onset_share):
    """A stream that keeps the file's invariants: distinct trials of 1 to 10
    digits (0 and 10**10 - 1 included), each with one stamp inside its
    detection window, so that the stamps have 1 to 18 digits."""
    values = {0, 10 ** 10 - 1}
    while len(values) < n:
        values.add(int(rng.random() * 10.0 ** rng.integers(1, 11)))
    trial = np.array(sorted(values) if n > 1 else [0] * n, np.int64)
    # 10 Hz trials, each detecting from 1 ns after its start to its end
    seq = SequenceConfig(cooling_ms=5e-7, prep_ms=5e-7,
                         detect_ms=100.0 - 1e-6)
    t_start = trial * seq.period_s + seq.detect_offset_s
    lo = np.rint(t_start * 1e9).astype(np.int64)
    hi = np.rint((t_start + seq.detect_s) * 1e9).astype(np.int64)
    u = rng.random(n)
    u[:1] = 0.0                         # trial 0 stamped at 2 ns
    t_ns = lo + 1 + (u * (hi - lo - 2)).astype(np.int64)
    onset = rng.random(n) < onset_share
    # 1e10 trials, so that every trial is in the run
    return stream_of(trial[~onset], t_ns[~onset], trial[onset], t_ns[onset],
                     make_manifest(duration_s=1e9, sequence=seq))


class TestAgainstLineReference:
    def test_digit_quads_table(self):
        # the writer's four-digit table against its text definition
        text = b"".join(b"%04d" % i for i in range(10000))
        assert records._DIGIT_QUADS.dtype == np.uint32
        assert records._DIGIT_QUADS.tobytes() == text

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
        assert_reads_as_reference(back, path)

    def test_trials_out_of_order(self, tmp_path):
        # a stream whose trials fall and rise across powers of ten, though
        # its stamps increase, is written as the per-line writer wrote it.
        # It is legal: trial j detects in [2j + 1, 2j + 2] ns, and trials 9
        # and 99 hold three clicks each, so the tie bumps stretch their
        # windows 2 ns, over those of trials 10 and 100
        seq = SequenceConfig(rep_rate=5e8, cooling_ms=5e-7, prep_ms=5e-7,
                             detect_ms=1e-6)
        stream = stream_of(ns(9, 9, 10, 9, 99, 99, 100, 99),
                           ns(19, 20, 21, 22, 199, 200, 201, 202),
                           ns(9, 100), ns(20, 202),
                           make_manifest(duration_s=101 * 2e-9, sequence=seq))
        path = tmp_path / "r.txt"
        write_events(stream, path)
        assert path.read_bytes().split(b"\n", 1)[1] == reference_text(stream)

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
        assert_reads_as_reference(back, path)
        assert back == stream


class TestWriterRefuses:
    @pytest.mark.parametrize("column, at, value", [
        ("trial", 0, -1), ("t_ns", 0, -1), ("t_ns", 1, 10 ** 18),
        ("trial", 1, 10 ** 18)])
    def test_unwritable_stream(self, tmp_path, column, at, value):
        # record 0 is an APD record, record 1 an onset; each stream keeps
        # both channels in time order
        stream = stream_of(ns(0), ns(5), ns(1), ns(6),
                           make_manifest(duration_s=0.1))
        _, (trial, _), t_ns = stream.channels()[at]
        {"trial": trial, "t_ns": t_ns}[column][0] = value
        path = tmp_path / "never.txt"
        with pytest.raises(DataError):
            write_events(stream, path)
        assert not path.exists()

    def test_counting_mode_stream(self, tmp_path):
        stream = simulate_run(make_manifest(seed=1, duration_s=10.0),
                              counting=True)
        assert stream.apd_dropped > 0
        path = tmp_path / "never.txt"
        with pytest.raises(DataError, match="left out"):
            write_events(stream, path)
        assert not path.exists()

    @pytest.mark.parametrize("columns, message", [
        ((ns(5), ns(550_000_000), ns(), ns()),
         "trial 5 outside the manifest's 1 trials"),
        ((ns(0), ns(3), ns(), ns()),
         "APD stamp 3 outside the detection window of trial 0"),
        ((ns(), ns(), ns(0, 0), ns(60_000_000, 70_000_000)),
         "multiple PMT_ONSET records in one trial")])
    def test_stream_that_reads_back_refused(self, tmp_path, columns,
                                            message):
        # one trial, detecting from 50 ms to 100 ms: each stream keeps
        # both channels in time order, but breaks a rule of the reader
        stream = stream_of(*columns, make_manifest(duration_s=0.1))
        path = tmp_path / "never.txt"
        with pytest.raises(DataError, match=f"^{message}$"):
            write_events(stream, path)
        assert not path.exists()


    @pytest.mark.parametrize("runs", [
        (ns(0, 1), ns(2, 0)), (ns(5, 0), ns(0, 2)), (ns(0, 0), ns(1, 1))],
        ids=["empty_last_run", "empty_first_run", "split_run"])
    def test_non_canonical_runs(self, tmp_path, runs):
        # two APD stamps of trial 0, in its window, held as runs that are
        # not the maximal runs of counts >= 1 that read_events makes
        stream = sim.EventStream(runs, ns(50_000_001, 50_000_002),
                                 (ns(), ns()), ns(),
                                 make_manifest(duration_s=0.1))
        path = tmp_path / "never.txt"
        with pytest.raises(DataError, match=(
                "^trial runs of channel APD are not the maximal runs of its "
                "2 records$")):
            write_events(stream, path)
        assert not path.exists()


class TestChecksInBlocks:
    # ~90 clicks per 100 ns window: the tie bumps carry ~3800 stamps past
    # their window's last nanosecond, within the k - 1 ns that the counts of
    # every block together allow
    DENSE = make_manifest(seed=4, duration_s=1e-4, sequence=ONE_NS_GAP,
                          dark_trigger_rate=9e8, false_onset_rate=3e6)

    @pytest.mark.parametrize("block", [97, 1000])
    def test_order_across_blocks(self, monkeypatch, block):
        monkeypatch.setattr(sim, "CHECK_BLOCK", block)
        stream = simulate_run(self.DENSE)
        assert stream_fault(stream) is None
        for code, _, t_ns in stream.channels():
            for j in range(1, len(t_ns), len(t_ns) // 20):
                t = t_ns.copy()
                t[j] = t[j - 1]
                tied = dataclasses.replace(
                    stream, **{("apd_ns", "onset_ns")[code]: t})
                assert stream_fault(tied) == (
                    "non-monotone timestamps in channel "
                    f"{sim.CHANNEL_NAMES[code]}", (code, j))

    @pytest.mark.parametrize("block", [97, 1000])
    def test_stream_independent_of_block(self, monkeypatch, block):
        # the tie cascades cross the block edges of the bumps
        whole = simulate_run(self.DENSE)
        monkeypatch.setattr(sim, "CHECK_BLOCK", block)
        assert simulate_run(self.DENSE) == whole

    @pytest.mark.parametrize("block", [97, 1000, sim.CHECK_BLOCK])
    def test_histogram_of_onset_first_file(self, tmp_path, monkeypatch,
                                           block):
        # every PMT_ONSET line moved ahead of the first APD line: each
        # channel is still in time order, so the file is valid, reads back
        # as the ordered file does, writes back byte for byte as it and bins
        # as it does; ~250 onsets among ~240 k clicks
        m = presets.preset_manifest("paper-hv", 5, angle_deg=45.0,
                                    minutes=10.0)
        ordered = tmp_path / "ordered.events"
        write_events(simulate_run(m), ordered)
        header, *records = ordered.read_bytes().splitlines(keepends=True)
        onset_first = tmp_path / "onset-first.events"
        onset_first.write_bytes(header + b"".join(sorted(
            records, key=lambda line: b"\tPMT_ONSET\t" not in line)))
        assert onset_first.read_bytes() != ordered.read_bytes()
        monkeypatch.setattr(sim, "CHECK_BLOCK", block)
        stream, moved = read_events(ordered), read_events(onset_first)
        assert moved == stream
        rewritten = tmp_path / "rewritten.events"
        write_events(moved, rewritten)
        assert rewritten.read_bytes() == ordered.read_bytes()
        want = histogram_of(stream.apd_times(), stream.onset_times(),
                            duration_s=m.duration_s)
        for got in (histogram_from_stream(stream),
                    histogram_from_stream(moved)):
            assert np.array_equal(got.counts, want.counts)
            assert (got.total_apd, got.total_onsets, got.duration_s) == (
                want.total_apd, want.total_onsets, want.duration_s)
        assert want.counts[len(want.counts) // 2] > 0

    @pytest.mark.parametrize("block", [97, 1000])
    def test_first_record_outside_window(self, monkeypatch, block):
        # from record i on, the stamps 1 ms later or the trials one later
        # (the last trial's kept): each channel stays in order, and its
        # first record outside, record i past its window or mostly one
        # before its own, is the record-by-record reference's
        monkeypatch.setattr(sim, "CHECK_BLOCK", block)
        stream = simulate_run(self.DENSE)
        m = stream.manifest
        before = 0          # relabelled streams with a record outside
        for code, (trial, t_ns) in enumerate(columns_of(stream)):
            assert reference_outside_window(m, trial, t_ns) is None
            for i in range(0, len(t_ns) - 1, len(t_ns) // 20):
                t, later = t_ns.copy(), trial.copy()
                t[i:] += 10 ** 6
                later[i:] = np.minimum(trial[i:] + 1, m.n_trials - 1)
                assert reference_outside_window(m, trial, t) == i
                for columns in ((trial, t), (later, t_ns)):
                    j = reference_outside_window(m, *columns)
                    both = columns_of(stream)
                    both[code] = columns
                    want = None if j is None else (
                        f"{sim.CHANNEL_NAMES[code]} stamp {columns[1][j]} "
                        f"outside the detection window of trial "
                        f"{columns[0][j]}", (code, j))
                    assert stream_fault(stream_of(*both[0], *both[1],
                                                  m)) == want
                before += j is not None
        assert before > 30


def kept(stream, keep, code=None):
    """The stream of the records whose trial `keep` takes, in channel `code`
    or in both."""
    columns = []
    for c, (trial, t_ns) in enumerate(columns_of(stream)):
        k = keep(trial) if code in (None, c) else np.ones(len(trial), bool)
        columns += [trial[k], t_ns[k]]
    return stream_of(*columns, stream.manifest)


def read_outcome(path):
    """What read_events makes of a file: its stream, or its error's text."""
    try:
        return read_events(path)
    except DataError as exc:
        return str(exc)


def general_outcome(path, monkeypatch):
    """read_outcome with every block sent to the line-at-a-time reference,
    _parse_records."""
    with monkeypatch.context() as m:
        m.setattr(sim, "_shaped_lines", lambda buf, end: None)
        return read_outcome(path)


class TestShapePath:
    # 1000 trials: past trial 99 every trial has three digits and every
    # stamp eleven, so each channel's lines have one shape; ~25 clicks and
    # ~0.1 onsets per trial
    M = make_manifest(seed=8, duration_s=100.0, dark_trigger_rate=500.0)

    @pytest.fixture
    def taken(self, monkeypatch):
        """Per block read by shape or not, in the order read."""
        taken = []
        shaped_lines = sim._shaped_lines

        def counted(buf, end):
            lines = shaped_lines(buf, end)
            taken.append(lines is not None)
            return lines
        monkeypatch.setattr(sim, "_shaped_lines", counted)
        return taken

    def one_shape(self, stop=1000):
        # the records of trials 100 to stop - 1
        stream = simulate_run(self.M)
        return kept(stream, lambda trial: (trial >= 100) & (trial < stop))

    @pytest.mark.parametrize("kind", ["interleaved", "no-onset", "onset-only",
                                      "onset-first"])
    def test_blocks_that_fit(self, tmp_path, monkeypatch, taken, kind):
        monkeypatch.setattr(sim, "READ_BLOCK", 1 << 14)
        stream = self.one_shape()
        assert len(stream.apd_ns) > 20_000 and len(stream.onset_ns) > 50
        if kind == "no-onset":
            stream = kept(stream, lambda trial: trial < 0, CHANNEL_PMT_ONSET)
        if kind == "onset-only":
            stream = kept(stream, lambda trial: trial < 0, CHANNEL_APD)
        path = tmp_path / "shape.events"
        write_events(stream, path)
        if kind == "onset-first":
            header, *records = path.read_bytes().splitlines(keepends=True)
            path.write_bytes(header + b"".join(sorted(
                records, key=lambda line: b"\tPMT_ONSET\t" not in line)))
        assert read_outcome(path) == stream
        assert taken and all(taken)
        assert general_outcome(path, monkeypatch) == stream

    def test_widest_fields(self, tmp_path, taken):
        # ten-digit trials, and stamps of eighteen digits: three chunks of
        # the decode; a few onsets, so that the block is read by shape
        stream = kept(random_stream(np.random.default_rng(5), 3000, 0.05),
                      lambda trial: trial >= 10 ** 9)
        assert len(stream.apd_ns) > 100 and len(stream.onset_ns) > 5
        assert min(stream.apd_ns.min(), stream.onset_ns.min()) >= 10 ** 17
        path = tmp_path / "wide.events"
        write_events(stream, path)
        assert read_outcome(path) == stream
        assert taken == [True]

    def test_width_change_inside_a_block(self, tmp_path, monkeypatch,
                                         taken):
        # the first block holds trials of one, two and three digits: each
        # channel's lines split into runs of one line length
        stream = simulate_run(self.M)
        path = tmp_path / "widths.events"
        write_events(stream, path)
        assert read_outcome(path) == stream
        assert taken == [True]
        monkeypatch.setattr(sim, "READ_BLOCK", 1 << 12)
        taken.clear()
        assert read_outcome(path) == stream
        assert len(taken) > 100 and all(taken)
        assert general_outcome(path, monkeypatch) == stream

    def test_wide_trials_that_differ_in_their_last_digits(self, tmp_path,
                                                          monkeypatch,
                                                          taken):
        # trials of 8, 9 and 10 digits in one block, neighbours that differ
        # in their last digit only, the ninth or tenth byte of the line: a
        # trial field wider than one word
        trials = ns(99999998, 99999999, 100000000, 123456780, 123456781,
                    1234567890, 1234567891)
        stream = wide_trial_stream(trials)
        path = tmp_path / "wide.events"
        write_events(stream, path)
        assert path.read_bytes().split(b"\n", 1)[1] == reference_text(stream)
        assert read_outcome(path) == stream
        assert taken == [True]
        # under a manifest of 123456781 trials, trial 123456781 is past it
        short = dataclasses.replace(stream.manifest, duration_s=12345678.15)
        write_raw(dataclasses.replace(stream, manifest=short), path)
        data = path.read_bytes()
        line = data.count(b"\n", 0, data.index(b"\n123456781\t")) + 2
        outcome = read_outcome(path)
        assert outcome == (f"{path}: line {line}: trial 123456781 outside "
                           "the manifest's 123456781 trials")
        assert general_outcome(path, monkeypatch) == outcome

    def test_tail_of_the_flat_compare(self, tmp_path, monkeypatch):
        # the APD lines of trials 10 to 99, one shape, are a run of several
        # compare chunks and a part of one; each byte of its last line
        # replaced by a digit, a letter, a tab or a line end
        monkeypatch.setattr(records, "_CHECK_ROWS", 64)
        stream = simulate_run(self.M)
        path = tmp_path / "tail.events"
        write_events(kept(stream, lambda trial: (trial >= 10)
                          & (trial <= 100)), path)
        data = path.read_bytes()
        run = [line for line in data.split(b"\n") if re.fullmatch(
            rb"\d\d\tAPD\t\d{10}\tDETECT", line)]
        assert len(run) > 64 and len(run) % 64
        start = data.index(run[-1] + b"\n")
        for i in range(start, start + len(run[-1]) + 1):
            for byte in b"5x\t\n":
                path.write_bytes(data[:i] + bytes([byte]) + data[i + 1:])
                assert read_outcome(path) == general_outcome(
                    path, monkeypatch), (i - start, byte)

    @pytest.mark.parametrize("variant", ["crlf", "blank-lines",
                                         "mixed-line-ends"])
    def test_line_ends_and_blank_lines(self, tmp_path, monkeypatch, taken,
                                       variant):
        # every line end CRLF; a blank line after every fifth line; every
        # third line end CRLF: each reads as the LF file, all by shape
        monkeypatch.setattr(sim, "READ_BLOCK", 1 << 14)
        stream = self.one_shape()
        path = tmp_path / "shape.events"
        write_events(stream, path)
        header, *records = path.read_bytes().splitlines(keepends=True)
        if variant == "crlf":
            records = [line[:-1] + b"\r\n" for line in records]
        elif variant == "blank-lines":
            records = [line + b"\n" * (i % 5 == 4)
                       for i, line in enumerate(records)]
        else:
            records = [line[:-1] + b"\r\n" if i % 3 == 2 else line
                       for i, line in enumerate(records)]
        path.write_bytes(header + b"".join(records))
        assert read_outcome(path) == stream
        assert len(taken) > 20 and all(taken)
        assert general_outcome(path, monkeypatch) == stream

    def test_trial_past_the_manifest(self, tmp_path, monkeypatch, taken):
        # well-formed records of trial 999 under a manifest of 999 trials
        monkeypatch.setattr(sim, "READ_BLOCK", 1 << 14)
        path = tmp_path / "late.events"
        write_events(self.one_shape(), path)
        data = path.read_bytes()
        path.write_bytes(data.replace(b'"duration_s":100.0',
                                      b'"duration_s":99.9', 1))
        line = data.count(b"\n", 0, data.index(b"\n999\t")) + 2
        outcome = read_outcome(path)
        assert outcome == (f"{path}: line {line}: trial 999 outside the "
                           "manifest's 999 trials")
        # every block has the shape; the last one's trials send it to the
        # line-at-a-time reference
        assert all(taken)
        assert general_outcome(path, monkeypatch) == outcome

    @pytest.mark.parametrize("name", [b"APD", b"PMT_ONSET"])
    def test_each_byte_of_a_line(self, tmp_path, monkeypatch, name):
        # each byte of a record line replaced by a digit, a letter, a tab or
        # a line end, or dropped; the APD line lies inside a block, the
        # onset line is the first of its run
        monkeypatch.setattr(sim, "READ_BLOCK", 2048)
        path = tmp_path / "edited.events"
        write_events(self.one_shape(stop=120), path)
        data = path.read_bytes()
        at = data.index(b"\t%s\t" % name, len(data) // 2 if name == b"APD"
                        else data.index(b"\n") + 1)
        start = data.rindex(b"\n", 0, at) + 1
        for i in range(start, data.index(b"\n", at) + 1):
            for byte in (b"5", b"x", b"\t", b"\n", b""):
                path.write_bytes(data[:i] + byte + data[i + 1:])
                assert read_outcome(path) == general_outcome(
                    path, monkeypatch), (i - start, byte)

    @pytest.mark.parametrize("name", ["APD", "PMT_ONSET"])
    def test_stamp_outside_window_in_a_late_block(self, tmp_path,
                                                  monkeypatch, name):
        # the first record of the channel in a late trial, moved 10 ms
        # ahead of its window: still in time order in its channel
        monkeypatch.setattr(sim, "READ_BLOCK", 256)
        stream = self.one_shape()
        trial, t_ns = columns_of(stream)[name == "PMT_ONSET"]
        i = int(np.searchsorted(trial, trial[-1]))
        t_ns[i] = trial[i] * 100_000_000 + 40_000_000
        path = tmp_path / "outside.events"
        write_raw(stream, path)
        data = path.read_bytes()
        at = data.index(b"\t%s\t%d\t" % (name.encode(), t_ns[i]))
        line = data.count(b"\n", 0, at) + 1
        assert line > 20_000
        outcome = read_outcome(path)
        assert outcome == (f"{path}: line {line}: {name} stamp {t_ns[i]} "
                           f"outside the detection window of trial "
                           f"{trial[i]}")
        assert general_outcome(path, monkeypatch) == outcome


def wide_trial_stream(trials):
    """A legal stream of three APD records and one onset in each trial, of
    the default 10 Hz sequence, stamped 60 ms into the trial."""
    apd_trial = np.repeat(trials, 3)
    apd_ns = apd_trial * 100_000_000 + 60_000_000 + np.tile(ns(0, 1, 3),
                                                            len(trials))
    return stream_of(apd_trial, apd_ns, trials,
                     trials * 100_000_000 + 60_000_002,
                     make_manifest(duration_s=1.3e8))


def reordered(path, first=None):
    """The event file at path with its lines of channel `first` moved ahead
    of the other channel's, each channel's lines kept in order; as it is
    for None."""
    if first is None:
        return path
    header, *lines = path.read_bytes().splitlines(keepends=True)
    moved = path.with_name(f"{first}-first.events")
    moved.write_bytes(header + b"".join(sorted(
        lines, key=lambda line: b"\t%s\t" % first.encode() not in line)))
    return moved


class TestStreamedPaths:
    """`simulate` writes its stream block by block as it is drawn, and `g2`
    bins a file block by block as it is read: the same bytes and counts as
    the whole stream held in memory."""

    @pytest.mark.parametrize("reach_ns", [None, 5])
    @pytest.mark.parametrize("block", [97, 1000])
    def test_blocks_of_a_dense_stream(self, tmp_path, monkeypatch, block,
                                      reach_ns):
        # the onsets' regions cover DENSE's run: it has no far clicks and is
        # one block. With regions of 5 ns the far clicks lie next to the
        # onsets, and the tie bumps carry stamps past their window's end and
        # past onsets of later trials: a block ends only where each
        # channel's records come before the other's after it in the file
        monkeypatch.setattr(sim, "CHECK_BLOCK", block)
        if reach_ns is not None:
            monkeypatch.setattr(sim, "lag_reach_ns", lambda: reach_ns)
        m = TestChecksInBlocks.DENSE
        _, _, blocks = sim._simulate_blocks(m)
        blocks = list(blocks)
        assert len(blocks) == 1 if reach_ns is None else len(blocks) > 50
        streamed, whole = tmp_path / "streamed.events", tmp_path / "w.events"
        write_events(iter(blocks), streamed)
        write_events(simulate_run(m), whole)
        assert streamed.read_bytes() == whole.read_bytes()

    def test_simulate_command(self, tmp_path):
        # ~45 blocks of the far clicks; the file is the whole stream's
        out = tmp_path / "hv.events"
        assert main(["simulate", "--preset", "paper-hv", "--angle", "45",
                     "--minutes", "30", "--seed", "11", "--out",
                     str(out)]) == 0
        whole = tmp_path / "whole.events"
        write_events(simulate_run(presets.preset_manifest(
            "paper-hv", 11, angle_deg=45.0, minutes=30.0)), whole)
        assert out.read_bytes() == whole.read_bytes()
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "hv.events", "whole.events"]

    @pytest.mark.parametrize("first", [None, "PMT_ONSET", "APD"],
                             ids=["writer-order", "onset-first", "apd-first"])
    def test_g2_bins_as_the_whole_stream(self, tmp_path, monkeypatch, first):
        # at random block sizes, g2 writes the histogram of the stream that
        # read_events returns, without reading the file whole
        m = presets.preset_manifest("paper-hv", 2, angle_deg=45.0,
                                    minutes=2.0)
        m = dataclasses.replace(m, rates=dataclasses.replace(
            m.rates, false_onset_rate=20.0))
        path = tmp_path / "run.events"
        write_events(simulate_run(m), path)
        path = reordered(path, first)
        expected = tmp_path / "expected.hist.txt"
        hist = histogram_from_stream(read_events(path))
        assert hist.counts.sum() > 100
        write_histogram(hist, expected)

        def whole(*args):
            raise AssertionError("g2 read the file whole")
        monkeypatch.setattr(cli, "read_events", whole)
        rng = np.random.default_rng(len(first or ""))
        for block in [*rng.integers(1 << 10, 1 << 17, 3), sim.READ_BLOCK]:
            monkeypatch.setattr(sim, "READ_BLOCK", int(block))
            assert main(["g2", "--events", str(path), "--out-prefix",
                         str(tmp_path / "g")]) == 0
            assert (tmp_path / "g.hist.txt").read_bytes() \
                == expected.read_bytes()

    @pytest.mark.parametrize("fault", ["late-onset", "two-onsets",
                                       "bad-line"])
    def test_g2_fault_in_a_late_block(self, tmp_path, monkeypatch, capsys,
                                      fault):
        # a file of many blocks that breaks a rule, or the grammar, only
        # near its end: g2 has binned the blocks before it, then exits 3
        # with read_events' message and line, and writes nothing
        monkeypatch.setattr(sim, "READ_BLOCK", 1 << 12)
        stream = simulate_run(make_manifest(seed=8, duration_s=100.0,
                                            dark_trigger_rate=500.0))
        trial, t_ns = columns_of(stream)[CHANNEL_PMT_ONSET]
        if fault == "late-onset":
            t_ns[-1] += 60_000_000          # past its trial's window
        elif fault == "two-onsets":
            trial[-1] = trial[-2]
            t_ns[-1] = t_ns[-2] + 1
        path = tmp_path / "late.events"
        write_raw(stream_of(*columns_of(stream)[CHANNEL_APD], trial, t_ns,
                            stream.manifest), path)
        if fault == "bad-line":
            data = path.read_bytes()
            path.write_bytes(data[:-3] + b"x" + data[-2:])
        assert path.stat().st_size > 100 * sim.READ_BLOCK
        with pytest.raises(DataError) as refused:
            read_events(path)
        binned = []
        monkeypatch.setattr(cli, "histogram_of_blocks", lambda blocks, *a: [
            binned.append(block) for block in blocks])
        assert main(["g2", "--events", str(path), "--out-prefix",
                     str(tmp_path / "g")]) == EXIT_DATA
        assert capsys.readouterr().err == f"data error: {refused.value}\n"
        assert len(binned) > 50
        assert not (tmp_path / "g.hist.txt").exists()

    def test_refused_blocks_leave_no_file(self, tmp_path, monkeypatch):
        # the last block past the manifest's trials: the file that was at
        # the path stays, and no part of the new one is left
        monkeypatch.setattr(sim, "CHECK_BLOCK", 64)
        m = make_manifest(seed=2, duration_s=20.0)
        stream = simulate_run(m)
        blocks = list(sim._cut(stream))
        assert len(blocks) > 3
        late = blocks[-1]
        blocks[-1] = dataclasses.replace(late, apd_runs=(
            late.apd_runs[0] + m.n_trials, late.apd_runs[1]))
        path = tmp_path / "run.events"
        path.write_bytes(b"before")
        with pytest.raises(DataError, match="outside the manifest's"):
            write_events(iter(blocks), path)
        assert path.read_bytes() == b"before"
        assert [p.name for p in tmp_path.iterdir()] == ["run.events"]

    def test_run_split_at_a_block_boundary(self, tmp_path, monkeypatch):
        # one trial's records held as two runs, cut between them: each block
        # is the maximal runs of its records, and the boundary is not
        monkeypatch.setattr(sim, "CHECK_BLOCK", 2)
        stream = sim.EventStream((ns(0, 0), ns(2, 2)),
                                 50_000_001 + np.arange(4), (ns(), ns()),
                                 ns(), make_manifest(duration_s=1.0))
        assert len(list(sim._cut(stream))) == 2
        path = tmp_path / "never.events"
        with pytest.raises(DataError, match=(
                "^trial runs of channel APD are not the maximal runs of its "
                "4 records$")):
            write_events(stream, path)
        assert not path.exists()


class TestMemoryBound:
    def test_full_stream_phases(self, tmp_path):
        # a 30-min paper-hv stream, ~0.73 M records: each phase of the
        # simulate -> write -> read -> histogram path allocates, at its peak,
        # less than a bound in units of 16 bytes per record (a trial and a
        # t_ns column) on top of what it holds. No phase makes a trial
        # column: simulate_run and read_events hold each t_ns column and
        # the trials' runs, and the histogram makes no array of the stream's
        # length but a mask of its APD stamps' order
        m = presets.preset_manifest("paper-hv", 11, angle_deg=45.0,
                                    minutes=30.0)
        path = tmp_path / "hv.events"
        warm_up_the_check(path)
        peaks = {}

        def traced(name, call):
            tracemalloc.reset_peak()
            held = tracemalloc.get_traced_memory()[0]
            out = call()
            peaks[name] = tracemalloc.get_traced_memory()[1] - held
            return out

        tracemalloc.start()
        try:
            stream = traced("simulate_run", lambda: simulate_run(m))
            traced("write_events", lambda: write_events(stream, path))
            back = traced("read_events", lambda: read_events(path))
            traced("histogram_from_stream",
                   lambda: histogram_from_stream(back))
        finally:
            tracemalloc.stop()
        assert back == stream and len(back) > 500_000
        record_bytes = 16 * len(back)
        for name, peak in peaks.items():
            assert peak < 2 * record_bytes, (name, peak, record_bytes)
        assert peaks["simulate_run"] < 0.85 * record_bytes, peaks
        # measured 0.116: the largest part of one block written
        assert peaks["write_events"] < 0.15 * record_bytes, peaks
        assert peaks["read_events"] < 1.05 * record_bytes, peaks
        assert peaks["histogram_from_stream"] < 0.1 * record_bytes, peaks

    def test_streamed_phases(self, tmp_path):
        # simulate to a file and g2 from it, on 10- and 30-min paper-hv
        # streams: each holds one block at a time and what grows with the
        # trials (the far clicks' counts), not the stream. At 30 min,
        # simulate-to-file measured 0.222 and g2 0.299 of the record bytes
        # (g2's read buffer and one block's gathered APD lines are 2 MB of
        # it); from 10 to 30 minutes their peaks grew by 0.022 and -0.001 of
        # the record bytes added
        path = tmp_path / "hv.events"
        warm_up_the_check(path)
        peaks, record_bytes = [], []
        tracemalloc.start()
        try:
            for minutes in (10.0, 30.0):
                m = presets.preset_manifest("paper-hv", 11, angle_deg=45.0,
                                            minutes=minutes)
                peak = []
                for call in (
                        lambda: write_events(sim._simulate_blocks(m)[2], path),
                        lambda: main(["g2", "--events", str(path),
                                      "--out-prefix", str(tmp_path / "g")])):
                    tracemalloc.reset_peak()
                    held = tracemalloc.get_traced_memory()[0]
                    call()
                    peak.append(tracemalloc.get_traced_memory()[1] - held)
                peaks.append(peak)
                kv = read_kv(tmp_path / "g.res.txt")
                record_bytes.append(16 * (int(kv["total_apd"])
                                          + int(kv["total_onsets"])))
        finally:
            tracemalloc.stop()
        (sim_10, g2_10), (sim_30, g2_30) = peaks
        added = record_bytes[1] - record_bytes[0]
        assert record_bytes[1] > 8_000_000, record_bytes
        assert sim_30 < 0.3 * record_bytes[1], peaks
        assert g2_30 < 0.4 * record_bytes[1], peaks
        assert sim_30 - sim_10 < 0.035 * added, (peaks, added)
        assert g2_30 - g2_10 < 0.01 * added, (peaks, added)

    def test_draw_per_trial(self, tmp_path):
        # the draws of _simulate_blocks for the 30-min paper-hv run, up to
        # its first block: it holds, once it returns, the far clicks' counts
        # as their running sums (8 bytes a piece, ~1.04 pieces a trial), and
        # the other kinds' clicks and the onsets, 11.5 bytes a trial; at its
        # peak it also holds the pieces' shares of the far clicks and their
        # counts drawn, 23.8 bytes a trial
        warm_up_the_check(tmp_path / "warm.events")
        m = presets.preset_manifest("paper-hv", 11, angle_deg=45.0,
                                    minutes=30.0)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            drawn = sim._simulate_blocks(m)
            held, peak = (x - before for x in tracemalloc.get_traced_memory())
        finally:
            tracemalloc.stop()
        assert drawn[0] > 400_000
        assert held < 15 * m.n_trials, held / m.n_trials
        assert peak < 30 * m.n_trials, peak / m.n_trials

    def test_g2_fault_path(self, tmp_path):
        # the 30-min file of test_streamed_phases with a stamp digit made
        # "x" near its end: g2 reads it once, block by block, and allocates
        # no more than on the good file's path before it exits 3
        path = tmp_path / "hv.events"
        warm_up_the_check(path)
        m = presets.preset_manifest("paper-hv", 11, angle_deg=45.0,
                                    minutes=30.0)
        write_events(sim._simulate_blocks(m)[2], path)
        assert main(["g2", "--events", str(path), "--out-prefix",
                     str(tmp_path / "g")]) == 0
        kv = read_kv(tmp_path / "g.res.txt")
        record_bytes = 16 * (int(kv["total_apd"]) + int(kv["total_onsets"]))
        data = bytearray(path.read_bytes())
        at = data.rindex(b"\tDETECT", 0, len(data) - 40) - 1
        assert data[at:at + 1].isdigit()
        data[at] = ord("x")
        path.write_bytes(bytes(data))
        tracemalloc.start()
        try:
            code = main(["g2", "--events", str(path), "--out-prefix",
                         str(tmp_path / "bad")])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == EXIT_DATA
        assert peak < 0.4 * record_bytes, (peak, record_bytes)


def warm_up_the_check(path):
    """Write a small stream: numpy's set routines, which the check of a
    stream calls, import a module (~1 MB) at their first call, which no
    phase measured after this counts."""
    write_events(simulate_run(make_manifest(seed=1, duration_s=1.0)), path)


def read_kv(path):
    return dict(line.split("=", 1)
                for line in path.read_text().splitlines() if "=" in line)
