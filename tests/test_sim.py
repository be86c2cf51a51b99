import dataclasses
import hashlib
import re
import tracemalloc

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


def ns(*values):
    return np.array(values, dtype=np.int64)


class TestFinalize:
    def test_output_order(self):
        m = make_manifest(seed=0, duration_s=0.1)
        # unsorted APD clicks: two tie at 200 ns, the later of them is bumped
        # to 201; onsets tie with an APD stamp at 100 and with the bumped one
        stream = _finalize(ns(300, 200, 100, 200), ns(4), ns(201, 100),
                           ns(2), m)
        apd, onset = CHANNEL_APD, CHANNEL_PMT_ONSET
        assert stream.t_ns.tolist() == [100, 100, 200, 201, 201, 300]
        assert stream.channel.tolist() == [apd, onset, apd, apd, onset, apd]
        assert stream.trial.tolist() == [0] * 6

    def test_trial_column_follows_time(self):
        m = make_manifest(seed=0, duration_s=0.3)
        stream = _finalize(ns(250, 50, 150, 60), ns(2, 1, 1), ns(160),
                           ns(0, 1, 0), m)
        assert stream.t_ns.tolist() == [50, 60, 150, 160, 250]
        assert stream.trial.tolist() == [0, 0, 1, 1, 2]
        assert stream.channel.tolist() == [CHANNEL_APD] * 3 + [
            CHANNEL_PMT_ONSET, CHANNEL_APD]

    def test_tie_cascade_across_windows(self):
        # trial 0's window ends at 200 ns, trial 1's starts at 202 ns; three
        # clicks tied at 200 ns are bumped to 200, 201 and 202, and push
        # trial 1's click from 202 to 203; each record keeps the trial of
        # its position in its channel
        stream = _finalize(ns(200, 200, 200, 202), ns(3, 1), ns(290),
                           ns(0, 1), None)
        assert stream.t_ns.tolist() == [200, 201, 202, 203, 290]
        assert stream.trial.tolist() == [0, 0, 0, 1, 1]

    def test_onset_inside_a_run_of_clicks(self):
        # onsets between the clicks of one trial, one at the run's end and
        # one before the next trial's clicks, with empty trials between
        stream = _finalize(ns(10, 20, 30, 700, 710), ns(3, 0, 0, 2, 0),
                           ns(15, 30, 705), ns(1, 0, 0, 1, 1), None)
        apd, onset = CHANNEL_APD, CHANNEL_PMT_ONSET
        assert stream.t_ns.tolist() == [10, 15, 20, 30, 30, 700, 705, 710]
        assert stream.channel.tolist() == [apd, onset, apd, apd, onset, apd,
                                           onset, apd]
        assert stream.trial.tolist() == [0, 0, 0, 0, 3, 3, 4, 3]

    def test_no_record_sized_temporary(self):
        # ~1 M records: besides its three output columns, _finalize holds
        # less than one more int64 column
        rng = np.random.default_rng(1)
        n_trials = 20_000
        apd_trial = np.sort(rng.integers(0, n_trials, 1_000_000))
        apd_ns = apd_trial * 100_000 + rng.integers(0, 50_000, len(apd_trial))
        onset_trial = np.unique(rng.integers(0, n_trials, 5_000))
        onset_ns = onset_trial * 100_000 + 25_000
        apd_per_trial = np.bincount(apd_trial, minlength=n_trials)
        onset_per_trial = np.bincount(onset_trial, minlength=n_trials)
        del apd_trial
        tracemalloc.start()
        try:
            held = tracemalloc.get_traced_memory()[0]
            stream = _finalize(apd_ns, apd_per_trial, onset_ns,
                               onset_per_trial, None)
            peak = tracemalloc.get_traced_memory()[1] - held
        finally:
            tracemalloc.stop()
        outputs = (stream.trial.nbytes + stream.channel.nbytes
                   + stream.t_ns.nbytes)
        assert peak - outputs < 8 * len(stream), (peak, outputs)
        # the labels of the per-channel layout
        at = stream.channel == CHANNEL_APD
        assert np.array_equal(stream.trial[at], np.repeat(
            np.arange(n_trials), apd_per_trial))
        assert np.array_equal(stream.trial[~at], onset_trial)


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
            bumped = t.copy()
            sim._strictly_increasing(bumped)
            assert np.array_equal(bumped, strictly_increasing_loop(t))


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


def channel_columns(stream, code):
    at = stream.channel == code
    return stream.trial[at], stream.t_ns[at]


def assert_records_in(part, whole, code):
    """Every record of the channel in `part` is one of `whole`'s, with its
    trial."""
    trial, t_ns = channel_columns(part, code)
    whole_trial, whole_t = channel_columns(whole, code)
    at = np.minimum(np.searchsorted(whole_t, t_ns), len(whole_t) - 1)
    assert np.array_equal(whole_t[at], t_ns)
    assert np.array_equal(whole_trial[at], trial)


def assert_counting_is_substream(m):
    """At the default reach, counting mode draws what the full stream draws
    up to the clicks outside the regions: its onsets are the full stream's,
    its APD records are some of the full stream's, the others are counted in
    apd_dropped, and the histogram is the full stream's. Tie bumps could
    break this; these manifests have none near a kept click. Returns the
    counting-mode stream."""
    counted, full = simulate_run(m, reach_ns=lag_reach_ns()), simulate_run(m)
    for got, want in zip(channel_columns(counted, CHANNEL_PMT_ONSET),
                         channel_columns(full, CHANNEL_PMT_ONSET)):
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


def chi2_critical(dof, z=3.719):
    """The chi-square quantile at the standard normal quantile z (3.719 for
    p = 1e-4), by the Wilson-Hilferty approximation."""
    a = 2.0 / (9.0 * dof)
    return dof * (1.0 - a + z * np.sqrt(a)) ** 3


class TestCountingMode:
    """simulate_run(m, reach_ns) keeps every onset and every click of an
    absorbed pair, and of the other clicks only those drawn within reach_ns
    of an onset. At the default reach it is a sub-stream of the full stream,
    up to tie bumps; at any reach it shares the onsets and the absorbed
    pairs' clicks with it, and the other clicks only in law."""

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
        counted = simulate_run(m, reach_ns=lag_reach_ns())
        assert counted.apd_dropped == 0 and len(counted) > 80_000
        assert counted == simulate_run(m)

    @pytest.mark.parametrize("seed", range(3))
    def test_onsets_and_absorbed_clicks_at_any_reach(self, seed):
        # at reach 0 the regions are 2 ns wide and hold almost no other
        # click: the APD records are the absorbed pairs' clicks, which every
        # reach keeps
        m = make_manifest(seed=seed, duration_s=120.0, eta_herald=0.5)
        absorbed = simulate_run(m, reach_ns=0)
        assert len(absorbed.apd_times()) > 50
        for other in (simulate_run(m, reach_ns=lag_reach_ns(10.0, 5)),
                      simulate_run(m, reach_ns=lag_reach_ns()),
                      simulate_run(m)):
            for got, want in zip(channel_columns(absorbed, CHANNEL_PMT_ONSET),
                                 channel_columns(other, CHANNEL_PMT_ONSET)):
                assert np.array_equal(got, want)
            assert_records_in(absorbed, other, CHANNEL_APD)

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
        assert histogram(ns(edge), ns(on_ns), bin_us, 0).counts.sum() \
            == inside
        reach = lag_reach_ns(bin_us, 0)
        lo, hi = sim._regions(ns(on_ns), reach)
        at, off, length = sim._pieces(lo, hi, seq, 5)
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
        pieces = [sim._pieces(lo, hi, seq, n_trials),
                  sim._pieces(np.append(-np.inf, hi), np.append(lo, np.inf),
                              seq, n_trials)]
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
        # the same seeds in both modes: onsets and absorbed pairs' clicks
        # cancel in counted - full, and the other clicks within reach are
        # independent draws, so each bin's difference has mean 0 and at most
        # the variance counted + full; 5e3 to 1.5e4 coincidences per bin
        bin_us, window_bins = 10.0, 5
        reach_ns = lag_reach_ns(bin_us, window_bins)
        counted, full = 0, 0
        for seed in range(8):
            m = make_manifest(seed=seed, duration_s=0.5,
                              sequence=SHORT_WINDOWS, dark_trigger_rate=2e5,
                              false_onset_rate=5e3)
            counted = counted + histogram_from_stream(
                simulate_run(m, reach_ns=reach_ns), bin_us,
                window_bins).counts
            full = full + histogram_from_stream(
                simulate_run(m), bin_us, window_bins).counts
        chi2 = float(np.sum((counted - full) ** 2 / (counted + full)))
        assert chi2 < chi2_critical(len(full)), (chi2, counted, full)


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
    # 1e10 trials, so that every trial is in the run
    return EventStream(trial, (rng.random(n) < onset_share).astype(np.int8),
                       t_ns, make_manifest(duration_s=1e9, sequence=seq))


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
        assert sim._unordered_channel(stream) is None
        for code in (CHANNEL_APD, CHANNEL_PMT_ONSET):
            at = np.flatnonzero(stream.channel == code)
            for j in range(1, len(at), len(at) // 20):
                t = stream.t_ns.copy()
                t[at[j]] = t[at[j - 1]]
                tied = EventStream(stream.trial, stream.channel, t,
                                   stream.manifest)
                assert sim._unordered_channel(tied) == code

    @pytest.mark.parametrize("block", [97, 1000])
    def test_first_record_outside_window(self, monkeypatch, block):
        monkeypatch.setattr(sim, "CHECK_BLOCK", block)
        stream = simulate_run(self.DENSE)
        assert sim._first_outside_window(stream) is None
        for i in range(0, len(stream) - 1, len(stream) // 20):
            t = stream.t_ns.copy()
            t[[i, -1]] = 0          # before every detection window
            moved = EventStream(stream.trial, stream.channel, t,
                                stream.manifest)
            assert sim._first_outside_window(moved) == i


class TestMemoryBound:
    def test_full_stream_phases(self, tmp_path):
        # a 30-min paper-hv stream, ~0.73 M records: each phase of the
        # simulate -> write -> read -> histogram path allocates, at its peak,
        # less than twice the stream's column bytes on top of what it holds
        m = presets.preset_manifest("paper-hv", 11, angle_deg=45.0,
                                    minutes=30.0)
        path = tmp_path / "hv.events"
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
        column_bytes = back.trial.nbytes + back.channel.nbytes \
            + back.t_ns.nbytes
        for name, peak in peaks.items():
            assert peak < 2 * column_bytes, (name, peak, column_bytes)
