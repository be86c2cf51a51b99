"""Absorption-trigger coincidence histogram and count extraction.

Builds the second-order correlation histogram between APD trigger clicks and
fluorescence onsets on exact integer nanosecond tags: lag tau = t_onset -
t_apd, binned on a 10 us grid with half-open intervals [lower, upper), bin 0
spanning [-bin/2, +bin/2). The tau=0 bin count is the coincidence number;
the background is the mean over the whole histogram window.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError

DEFAULT_BIN_US = 10.0
DEFAULT_WINDOW_BINS = 50


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

    def merged_with(self, other: "CoincidenceHistogram") -> "CoincidenceHistogram":
        """Elementwise sum of histograms from disjoint data segments."""
        if self.bin_width_us != other.bin_width_us \
                or not np.array_equal(self.lags, other.lags):
            raise DataError("histograms have incompatible binning")
        return CoincidenceHistogram(
            self.bin_width_us, self.lags, self.counts + other.counts,
            self.total_apd + other.total_apd,
            self.total_onsets + other.total_onsets,
            self.duration_s + other.duration_s)


@dataclass(frozen=True)
class CoincidenceResult:
    """Counts extracted at tau=0 and the accidental background level."""

    coincidences: int
    coincidence_err: float        # sqrt(N)
    background_per_bin: float
    background_err: float
    signal_is_peak: bool


def _check_sorted(t: np.ndarray, name: str):
    if len(t) > 1 and np.any(np.diff(t) < 0):
        raise DataError(f"{name} events are not time-ordered")


def histogram(apd_events, onset_events, bin_width_us: float = DEFAULT_BIN_US,
              window_bins: int = DEFAULT_WINDOW_BINS, total_apd=None,
              total_onsets=None, duration_s: float = 0.0) -> CoincidenceHistogram:
    """Count (onset, trigger) pairs per lag bin.

    Parameters
    ----------
    apd_events, onset_events : int arrays of nanosecond timestamps, ascending.
    bin_width_us : lag grid pitch (default 10 us).
    window_bins : half-width of the symmetric lag window in bins.

    All binning is exact integer arithmetic; with half = bin // 2, bin k
    covers [k*bin - half, k*bin - half + bin) in nanoseconds.
    """
    apd = np.asarray(apd_events, dtype=np.int64)
    onsets = np.asarray(onset_events, dtype=np.int64)
    _check_sorted(apd, "APD")
    _check_sorted(onsets, "onset")
    if not 0.0 < bin_width_us < np.inf or window_bins < 0:
        raise DataError("bin width must be finite and > 0, "
                        "and window_bins >= 0")
    bin_ns = int(round(bin_width_us * 1000.0))
    if bin_ns < 1:
        raise DataError(f"bin width {bin_width_us} us is below 1 ns")

    half_ns = bin_ns // 2
    lags = np.arange(-window_bins, window_bins + 1, dtype=np.int64)
    # the window spans bins -window_bins .. window_bins: tau = t_on - t_apd
    # in [-below, above)  <=>  t_apd in (t_on - above, t_on + below]
    below = window_bins * bin_ns + half_ns
    above = window_bins * bin_ns - half_ns + bin_ns
    lo = np.searchsorted(apd, onsets - above, side="right")
    n = np.searchsorted(apd, onsets + below, side="right") - lo
    # all pairs in the window: onset j meets apd[lo[j]:lo[j] + n[j]]
    first = np.cumsum(n) - n
    pair_apd = np.arange(n.sum()) + np.repeat(lo - first, n)
    tau = np.repeat(onsets, n) - apd[pair_apd]
    counts = np.bincount((tau + half_ns) // bin_ns + window_bins,
                         minlength=len(lags))

    return CoincidenceHistogram(
        bin_width_us, lags, counts,
        int(total_apd if total_apd is not None else len(apd)),
        int(total_onsets if total_onsets is not None else len(onsets)),
        float(duration_s))


def histogram_from_stream(stream, bin_width_us: float = DEFAULT_BIN_US,
                          window_bins: int = DEFAULT_WINDOW_BINS) -> CoincidenceHistogram:
    duration = stream.manifest.duration_s if stream.manifest else 0.0
    return histogram(stream.apd_times(), stream.onset_times(), bin_width_us,
                     window_bins, duration_s=duration)


def extract(hist: CoincidenceHistogram,
            include_zero_bin: bool = True) -> CoincidenceResult:
    """Coincidences = tau=0 bin count; background = mean over the window.

    include_zero_bin=False drops the peak bin from the background average
    (the default keeps it, matching an average over the whole function).
    """
    if len(hist.counts) == 0:
        raise DataError("empty histogram")
    zi = hist.zero_bin_index
    coincidences = int(hist.counts[zi])
    if include_zero_bin:
        bg_counts = hist.counts
    else:
        bg_counts = np.delete(hist.counts, zi)
        if len(bg_counts) == 0:
            raise DataError("no bins left for the background estimate")
    n_bins = len(bg_counts)
    background = float(bg_counts.sum()) / n_bins
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


def read_histogram(path) -> CoincidenceHistogram:
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline()
        if not header.startswith("# "):
            raise DataError(f"{path}: line 1: missing histogram header")
        meta = {}
        for token in header[2:].split():
            key, sep, value = token.partition("=")
            if not sep:
                raise DataError(f"{path}: line 1: header field {token!r} "
                                "is not key=value")
            meta[key] = value
        try:
            bin_us = float(meta["bin_width_us"])
            total_apd = int(meta["total_apd"])
            total_onsets = int(meta["total_onsets"])
            duration_s = float(meta["duration_s"])
        except KeyError as exc:
            raise DataError(f"{path}: line 1: header lacks {exc}") from exc
        except ValueError as exc:
            raise DataError(
                f"{path}: line 1: bad header value: {exc}") from exc
        if not 0.0 < bin_us < np.inf:
            raise DataError(f"{path}: line 1: bin_width_us must be finite "
                            "and > 0")
        fh.readline()  # column names
        lags, counts = [], []
        for lineno, line in enumerate(fh, start=3):
            if not line.strip():
                continue
            parts = line.split("\t")
            if len(parts) != 3:
                raise DataError(f"{path}: line {lineno}: malformed row")
            try:
                lags.append(int(round(float(parts[0]) / bin_us)))
                counts.append(int(parts[1]))
            except (ValueError, OverflowError) as exc:
                raise DataError(f"{path}: line {lineno}: bad number: "
                                f"{exc}") from exc
    return CoincidenceHistogram(bin_us, np.array(lags), np.array(counts),
                                total_apd, total_onsets, duration_s)
