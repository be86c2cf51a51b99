import numpy as np
import pytest

from ionherald.correlate import (CoincidenceHistogram, extract, histogram,
                                 read_histogram, write_histogram)
from ionherald.errors import DataError

US = 1000          # ns per us
MS = 1_000_000


def poisson_times(rng, rate, duration_s):
    n = rng.poisson(rate * duration_s)
    return np.sort(rng.integers(0, int(duration_s * 1e9), size=n))


class TestBinning:
    def test_onset_at_apd_time_lands_in_bin_zero(self):
        h = histogram([1_000_000], [1_000_000])
        assert h.counts[h.zero_bin_index] == 1
        assert h.counts.sum() == 1

    def test_boundary_25us_lands_in_bin_three(self):
        # bin 2 covers [15, 25) us, bin 3 covers [25, 35): 25 us -> bin 3
        h = histogram([0], [25 * US])
        assert h.counts[h.zero_bin_index + 3] == 1
        assert h.counts.sum() == 1

    def test_just_below_boundary_lands_in_bin_two(self):
        h = histogram([0], [25 * US - 1])
        assert h.counts[h.zero_bin_index + 2] == 1

    def test_negative_lags(self):
        # onset before the trigger: tau = -7 us -> bin -1 ([-15,-5) us)
        h = histogram([7 * US], [0])
        assert h.counts[h.zero_bin_index - 1] == 1

    def test_window_edges(self):
        # tau = 504.999 us inside, tau = 505 us outside (50-bin window)
        h = histogram([0], [505 * US - 1, 505 * US])
        assert h.counts.sum() == 1
        assert h.counts[-1] == 1

    def test_odd_width_top_bin_is_full(self):
        # 7 ns bins: bin 1 covers [4, 11) ns, its last nanosecond included
        h = histogram([0], [10], bin_width_us=0.007, window_bins=1)
        assert h.counts.tolist() == [0, 0, 1]

    @pytest.mark.parametrize("bin_us", [0.0, 1e-4, float("nan"),
                                        float("inf")])
    def test_bin_below_one_ns_rejected(self, bin_us):
        with pytest.raises(DataError):
            histogram([0], [0], bin_width_us=bin_us)

    def test_unsorted_input_rejected(self):
        with pytest.raises(DataError):
            histogram([5, 3], [])


class TestHistogramProperties:
    def test_exact_integer_reproducibility(self):
        rng = np.random.default_rng(21)
        apd = poisson_times(rng, 300.0, 5.0)
        onsets = poisson_times(rng, 3.0, 5.0)
        h1 = histogram(apd, onsets)
        h2 = histogram(apd, onsets)
        assert np.array_equal(h1.counts, h2.counts)

    def test_time_translation_invariance(self):
        rng = np.random.default_rng(22)
        apd = poisson_times(rng, 500.0, 2.0)
        onsets = poisson_times(rng, 5.0, 2.0)
        base = histogram(apd, onsets)
        for shift in (1, 12_345, 10**12):
            shifted = histogram(apd + shift, onsets + shift)
            assert np.array_equal(base.counts, shifted.counts)

    def test_segment_merge_equals_whole(self):
        # cut at a guard gap wider than the lag window
        rng = np.random.default_rng(23)
        gap = 2 * MS
        a1 = poisson_times(rng, 400.0, 1.0)
        o1 = poisson_times(rng, 10.0, 1.0)
        a2 = poisson_times(rng, 400.0, 1.0) + int(1e9) + gap
        o2 = poisson_times(rng, 10.0, 1.0) + int(1e9) + gap
        whole = histogram(np.concatenate([a1, a2]), np.concatenate([o1, o2]))
        merged = histogram(a1, o1).merged_with(histogram(a2, o2))
        assert np.array_equal(whole.counts, merged.counts)

    def test_flat_for_independent_streams_1hz(self):
        # two independent 1 Hz Poisson streams over 1e4 s: flat histogram
        rng = np.random.default_rng(29)
        duration = 1e4
        apd = poisson_times(rng, 1.0, duration)
        onsets = poisson_times(rng, 1.0, duration)
        h = histogram(apd, onsets)
        mean = 1.0 * 1.0 * 10e-6 * duration   # rate_a*rate_b*bin*T = 0.1
        assert np.all(np.abs(h.counts - mean) <= 4.0 * np.sqrt(mean) + mean)
        res = extract(h)
        assert not res.signal_is_peak

    def test_flat_for_independent_streams_strong(self):
        # higher-rate variant where the 4-sigma band is meaningful
        rng = np.random.default_rng(31)
        duration = 1e4
        apd = poisson_times(rng, 10.0, duration)
        onsets = poisson_times(rng, 10.0, duration)
        h = histogram(apd, onsets)
        mean = 10.0 * 10.0 * 10e-6 * duration   # 10 per bin
        assert np.all(np.abs(h.counts - mean) <= 4.0 * np.sqrt(mean))


def naive_counts(apd, onsets, bin_ns, window_bins):
    """O(N*M) reference: every (onset, APD) lag tested against every bin
    k = [k*bin - bin//2, k*bin - bin//2 + bin)."""
    tau = np.subtract.outer(np.asarray(onsets, dtype=np.int64),
                            np.asarray(apd, dtype=np.int64))
    lower = np.arange(-window_bins, window_bins + 1) * bin_ns - bin_ns // 2
    return np.array([np.count_nonzero((tau >= lo) & (tau < lo + bin_ns))
                     for lo in lower], dtype=np.int64)


class TestAgainstNaiveReference:
    @pytest.mark.parametrize("seed", range(24))
    def test_random_streams(self, seed):
        rng = np.random.default_rng(1000 + seed)
        bin_ns = int(rng.choice([1, 2, 7, 10, 1000, 10_000]))
        window_bins = int(rng.integers(0, 12))
        reach = window_bins * bin_ns + bin_ns // 2
        span = 3 * reach + 10
        # small ranges give tied stamps; onsets reach past both stream ends
        apd = np.sort(rng.integers(0, span, size=rng.integers(0, 300)))
        onsets = np.sort(rng.integers(-reach - 5, span + reach + 5,
                                      size=rng.integers(0, 40)))
        h = histogram(apd, onsets, bin_ns / 1000.0, window_bins)
        assert np.array_equal(h.counts,
                              naive_counts(apd, onsets, bin_ns, window_bins))

    @pytest.mark.parametrize("n_apd,n_onsets", [(0, 0), (0, 5), (5, 0)])
    def test_empty_channels(self, n_apd, n_onsets):
        apd = np.arange(n_apd) * 3 * US
        onsets = np.arange(n_onsets) * 5 * US
        h = histogram(apd, onsets)
        assert np.array_equal(h.counts, naive_counts(apd, onsets, 10 * US, 50))
        assert h.counts.sum() == 0

    def test_lags_on_reach_edges(self):
        # tau = t_on - t_apd: -reach and reach - 1 are in, reach and
        # -reach - 1 are out (50-bin window of 10 us: reach = 505 us)
        t_on, reach = 10 * MS, 505 * US
        apd = np.array([t_on - reach, t_on - reach + 1, t_on + reach,
                        t_on + reach + 1])
        h = histogram(apd, [t_on])
        assert np.array_equal(h.counts, naive_counts(apd, [t_on], 10 * US, 50))
        assert (h.counts[0], h.counts[-1], h.counts.sum()) == (1, 1, 2)


class TestExtract:
    def test_all_zero(self):
        h = histogram([], [])
        res = extract(h)
        assert res.coincidences == 0
        assert res.background_per_bin == 0.0
        assert not res.signal_is_peak

    def test_flat_histogram(self):
        lags = np.arange(-50, 51)
        h = CoincidenceHistogram(10.0, lags, np.full(101, 7), 1000, 1000, 1.0)
        res = extract(h)
        assert res.coincidences == 7
        assert res.background_per_bin == pytest.approx(7.0)
        assert not res.signal_is_peak

    def test_peak_detection_and_errors(self):
        lags = np.arange(-50, 51)
        counts = np.full(101, 15)
        counts[50] = 73
        h = CoincidenceHistogram(10.0, lags, counts, 10_000, 1000, 3600.0)
        res = extract(h)
        assert res.coincidences == 73
        assert res.coincidence_err == pytest.approx(np.sqrt(73.0))
        # D12: the mean includes the peak bin
        assert res.background_per_bin == pytest.approx(
            (100 * 15 + 73) / 101)
        assert res.background_err == pytest.approx(
            np.sqrt(res.background_per_bin))
        assert res.signal_is_peak

    def test_exclude_zero_bin_flag(self):
        lags = np.arange(-50, 51)
        counts = np.full(101, 15)
        counts[50] = 73
        h = CoincidenceHistogram(10.0, lags, counts, 10_000, 1000, 3600.0)
        res = extract(h, include_zero_bin=False)
        assert res.background_per_bin == pytest.approx(15.0)


class TestHistogramIO:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(24)
        h = histogram(poisson_times(rng, 200.0, 3.0),
                      poisson_times(rng, 10.0, 3.0), duration_s=3.0)
        path = tmp_path / "hist.txt"
        write_histogram(h, path)
        back = read_histogram(path)
        assert np.array_equal(back.counts, h.counts)
        assert np.array_equal(back.lags, h.lags)
        assert back.total_apd == h.total_apd
        assert back.duration_s == h.duration_s

    @pytest.mark.parametrize("edit,line", [
        (lambda t: t.replace(" total_apd=", " total_apd ", 1), 1),
        (lambda t: t.replace(" total_onsets=", " n_onsets=", 1), 1),
        (lambda t: t.replace("bin_width_us=10.0", "bin_width_us=ten", 1), 1),
        (lambda t: t.replace("bin_width_us=10.0", "bin_width_us=0", 1), 1),
        (lambda t: t.replace("\t0\t0\n", "\t1.5\t0\n", 1), 3),
        (lambda t: t.replace("\t0\t0\n", "\tzero\t0\n", 1), 3),
        (lambda t: t.replace("-500\t", "inf\t", 1), 3),
    ])
    def test_malformed_file_names_path_and_line(self, tmp_path, edit, line):
        path = tmp_path / "hist.txt"
        write_histogram(histogram([], []), path)
        path.write_text(edit(path.read_text()), encoding="utf-8")
        with pytest.raises(DataError, match=f"hist.txt: line {line}:"):
            read_histogram(path)
