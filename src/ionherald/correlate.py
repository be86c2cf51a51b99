"""Absorption-trigger coincidence histogram and count extraction.

Builds the second-order correlation histogram between APD trigger clicks and
fluorescence onsets on exact integer nanosecond tags: lag tau = t_onset -
t_apd, binned on a 10 us grid with half-open intervals [lower, upper), bin 0
spanning [-bin/2, +bin/2). The tau=0 bin count is the coincidence number;
the background is the mean over the whole histogram window.

One binner, histogram_of_blocks, counts the pairs of every stream: of an
event file's blocks as they are read, and of a whole stream in memory as
one block. A pair is counted in the block that brings the later of its two
records. Between blocks it holds only the tails a later record can still
meet: the APD stamps within the window of the last onset so far (all of
them before the first onset), joined only in a block that brings an onset,
and the onsets within the window of the last click so far.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import DataError

DEFAULT_BIN_US = 10.0
DEFAULT_WINDOW_BINS = 50
MAX_WINDOW_NS = 10 ** 18
# the histogram holds 2 * window_bins + 1 int64 bins
MAX_WINDOW_BINS = 10 ** 6


@dataclass(frozen=True, eq=False)
class CoincidenceHistogram:
    """Lag histogram between triggers and onsets, plus stream totals."""

    bin_width_us: float
    lags: np.ndarray          # integer bin indices, -window..+window
    counts: np.ndarray        # int64, same length as lags
    total_apd: int
    total_onsets: int
    duration_s: float

    def __post_init__(self):
        lags = np.asarray(self.lags, dtype=np.int64)
        counts = np.asarray(self.counts, dtype=np.int64)
        if lags.shape != counts.shape:
            raise DataError("lags and counts length mismatch")
        if np.any(counts < 0):
            raise DataError("negative histogram count")
        if counts.sum() > self.total_apd * self.total_onsets:
            raise DataError("histogram counts exceed pair bound")
        lags.flags.writeable = False
        counts.flags.writeable = False
        object.__setattr__(self, "lags", lags)
        object.__setattr__(self, "counts", counts)

    @property
    def zero_bin_index(self) -> int:
        idx = np.flatnonzero(self.lags == 0)
        if len(idx) != 1:
            raise DataError("histogram window does not contain the tau=0 bin")
        return int(idx[0])


@dataclass(frozen=True)
class CoincidenceResult:
    """Counts extracted at tau=0 and the accidental background level."""

    coincidences: int
    coincidence_err: float        # sqrt(N)
    background_per_bin: float
    background_err: float
    signal_is_peak: bool


def _check_sorted(t: np.ndarray, name: str):
    """t must not decrease."""
    if np.any(t[1:] < t[:-1]):
        raise DataError(f"{name} events are not time-ordered")


def _lag_window_ns(bin_width_us: float, window_bins: int):
    """Bin width and lag window in integer ns: (bin_ns, below, above).

    The window spans bins -window_bins .. window_bins, so tau = t_on - t_apd
    lies in [-below, above), that is t_apd in (t_on - above, t_on + below].
    """
    if not 0.0 < bin_width_us < np.inf or window_bins < 0:
        raise DataError("bin width must be finite and > 0, "
                        "and window_bins >= 0")
    if window_bins > MAX_WINDOW_BINS:
        raise DataError(f"lag window of {window_bins} bins is wider than "
                        f"{MAX_WINDOW_BINS} bins")
    bin_ns = int(round(bin_width_us * 1000.0))
    if bin_ns < 1:
        raise DataError(f"bin width {bin_width_us} us is below 1 ns")
    # so that stamps (below 1e18 ns) plus or minus the window fit int64
    if (window_bins + 1) * bin_ns > MAX_WINDOW_NS:
        raise DataError(f"lag window of {window_bins} bins of {bin_width_us}"
                        f" us is wider than {MAX_WINDOW_NS:.0e} ns")
    half_ns = bin_ns // 2
    return (bin_ns, window_bins * bin_ns + half_ns,
            window_bins * bin_ns - half_ns + bin_ns)


def lag_reach_ns(bin_width_us: float = DEFAULT_BIN_US,
                 window_bins: int = DEFAULT_WINDOW_BINS) -> int:
    """The largest |t_apd - t_on| in ns that a lag bin can hold: an APD click
    further than this from every onset never enters the histogram."""
    _, below, above = _lag_window_ns(bin_width_us, window_bins)
    return max(below, above - 1)


def _lag_counts(apd, onsets, window) -> np.ndarray:
    """Pairs per lag bin of the ascending int64 stamps apd and onsets;
    window is _lag_window_ns's (bin_ns, below, above)."""
    bin_ns, below, above = window
    lo = np.searchsorted(apd, onsets - above, side="right")
    n = np.searchsorted(apd, onsets + below, side="right") - lo
    # all pairs in the window: onset j meets apd[lo[j]:lo[j] + n[j]]
    first = np.cumsum(n) - n
    pair_apd = np.arange(n.sum()) + np.repeat(lo - first, n)
    tau = np.repeat(onsets, n) - apd[pair_apd]
    # bin k starts at k * bin - half = (k + window_bins) * bin - below, and
    # the window holds (below + above) // bin = 2 * window_bins + 1 bins
    return np.bincount((tau + below) // bin_ns,
                       minlength=(below + above) // bin_ns)


def histogram_of_blocks(blocks, bin_width_us: float = DEFAULT_BIN_US,
                        window_bins: int = DEFAULT_WINDOW_BINS,
                        duration_s: float = 0.0) -> CoincidenceHistogram:
    """Count (onset, trigger) pairs per lag bin of a stream given as blocks,
    each with an apd_ns and an onset_ns column of int64 nanosecond stamps,
    each channel ascending in a block and strictly increasing from block to
    block (a stamp tied across a cut may miss its pairs).

    All binning is exact integer arithmetic; with half = bin // 2, bin k
    covers [k*bin - half, k*bin - half + bin) in nanoseconds. A pair is
    counted once, in the block that brings the later of its two records.
    Only the tails a later record can still meet are held, and so copied
    (module docstring)."""
    window = _lag_window_ns(bin_width_us, window_bins)
    bin_ns, below, above = window
    counts = np.zeros((below + above) // bin_ns, np.int64)
    # the held APD stamps, in pieces: joined only where an onset moves the
    # cut, so that a stretch of blocks without one is not copied block by
    # block
    apd, onsets = [], np.empty(0, np.int64)
    total_apd = total_onsets = 0
    for block in blocks:
        new_apd, new_onsets = block.apd_ns, block.onset_ns
        onsets = np.concatenate([onsets, new_onsets])
        counts += _lag_counts(new_apd, onsets, window)
        if len(new_onsets):
            for piece in apd:
                counts += _lag_counts(piece, new_onsets, window)
        total_apd += len(new_apd)
        total_onsets += len(new_onsets)
        # what a later record can still meet
        if len(new_onsets):
            last_onset = new_onsets[-1]
        if len(new_apd):
            last_apd = new_apd[-1]
        if total_onsets:
            cut = last_onset - above
            new_apd = new_apd[np.searchsorted(new_apd, cut, side="right"):]
        if len(new_onsets):
            apd = [np.concatenate([
                *(piece[np.searchsorted(piece, cut, side="right"):]
                  for piece in apd), new_apd])]
        elif len(new_apd):
            apd.append(new_apd)
        if total_apd:
            onsets = onsets[np.searchsorted(onsets, last_apd - below,
                                            side="right"):]
    return CoincidenceHistogram(
        bin_width_us, np.arange(-window_bins, window_bins + 1), counts,
        total_apd, total_onsets, float(duration_s))


def histogram_from_stream(stream, bin_width_us: float = DEFAULT_BIN_US,
                          window_bins: int = DEFAULT_WINDOW_BINS) -> CoincidenceHistogram:
    """Histogram of a stream's two channels, each in time order, over the
    run's duration. APD clicks a counting-mode stream left out
    (``apd_dropped``) still count in total_apd; such a stream holds every
    pair only within ``lag_reach_ns()``, so a wider window is refused."""
    if stream.apd_dropped and \
            lag_reach_ns(bin_width_us, window_bins) > lag_reach_ns():
        raise DataError("counting-mode stream holds the clicks within "
                        f"{lag_reach_ns()} ns of an onset only; the lag "
                        f"window of {window_bins} bins of {bin_width_us} us "
                        "reaches further")
    _check_sorted(stream.apd_ns, "APD")
    _check_sorted(stream.onset_ns, "onset")
    hist = histogram_of_blocks((stream,), bin_width_us, window_bins,
                               stream.manifest.duration_s)
    return replace(hist, total_apd=hist.total_apd + int(stream.apd_dropped))


def extract(hist: CoincidenceHistogram) -> CoincidenceResult:
    """Coincidences = tau=0 bin count; background = mean over the whole
    window, the peak bin included. A window of the tau=0 bin alone has no
    background to take."""
    if len(hist.counts) < 2:
        raise DataError("histogram has no side bin to take the background "
                        "from; window_bins must be >= 1")
    coincidences = int(hist.counts[hist.zero_bin_index])
    background = float(hist.counts.sum()) / len(hist.counts)
    # Poisson deviation of a single bin at the background level (the same
    # sigma the quadrature rule sqrt(N + bg) uses downstream)
    background_err = float(np.sqrt(background))
    return CoincidenceResult(
        coincidences=coincidences,
        coincidence_err=float(np.sqrt(coincidences)),
        background_per_bin=background,
        background_err=background_err,
        signal_is_peak=bool(coincidences > background + 3.0 * background_err),
    )


def write_histogram(hist: CoincidenceHistogram, path) -> None:
    """Tabular export: lag_us_center, counts, poisson_err; metadata header."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# bin_width_us={hist.bin_width_us}"
                 f" window_bins={(len(hist.lags) - 1) // 2}"
                 f" total_apd={hist.total_apd}"
                 f" total_onsets={hist.total_onsets}"
                 f" duration_s={hist.duration_s}\n")
        fh.write("lag_us_center\tcounts\tpoisson_err\n")
        for lag, n in zip(hist.lags.tolist(), hist.counts.tolist()):
            fh.write(f"{lag * hist.bin_width_us:.6g}\t{n}\t{np.sqrt(n):.6g}\n")
