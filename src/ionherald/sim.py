"""Seeded Monte Carlo generator of time-tagged detector event streams.

Each trial runs the three-phase sequence (cooling, state preparation,
detection); detectors are gated on only during the detection phase. Within
that window, pair arrivals, dark APD triggers and false fluorescence onsets
are Poisson processes. A pair fires the APD with the trigger probability of
the biphoton model; a fired trigger is followed by a fluorescence onset with
probability eta_herald * conditional-absorption * branching, delayed by an
exponential latency plus Gaussian detection jitter. The ion leaves the
metastable manifold at its first onset, so a trial contains at most one
PMT_ONSET record.

By the colouring theorem for Poisson processes, the detection phase splits
into three independent Poisson processes: (a) pairs that fire the APD and
are absorbed, each an APD click and an onset candidate; (b) clicks only,
fired pairs that are not absorbed and dark triggers; (c) false onsets.
Pairs that do not fire are never observed and never drawn. The random draws
happen in a fixed order:

1. (a), then (c), over the whole run: a Poisson total, uniform trials,
   uniform times in their windows, and for (a) the latencies and jitters.
   The first in-window candidate of each trial is its onset.
2. (b) on the regions, the times within reach + 1 ns of an onset stamp cut
   at the window edges: a Poisson count per piece. A region may span the
   windows of several trials.
3. A Poisson total of the (b) clicks outside the regions.
4. The times of the regions' clicks; in a full stream, then those of the
   clicks outside, spread over their pieces by a multinomial draw.

The regions use the reach of the default lag window,
``correlate.lag_reach_ns()``. ``simulate_run(m)`` is the full stream. The
counting stream, ``simulate_run(m, counting=True)``, makes the same draws
but stops before the times of the clicks outside the regions. It keeps
every onset, every (a) click and the (b) clicks of the regions, and
``apd_dropped`` counts the (b) clicks outside them. So it is a sub-stream
of the full stream, up to tie bumps, with the same total_apd. No click left
out rounds to a stamp within the reach of an onset, so a coincidence
histogram whose lags span at most that reach is the full stream's. An event
file promises the full stream: ``write_events`` refuses a stream with
``apd_dropped > 0``.

A finalized stream holds per channel a t_ns column in time order and its
records' trials as (trial, count) runs: the maximal runs of equal trials in
record order, each count at least 1. Within one channel, stamps that tie
after rounding are bumped +1 ns until they strictly increase, so each
channel's stamps are unique.
Detection windows of adjacent trials are at least 1 ns apart, so stamps only
tie within one trial and time order is also trial order: the onset
candidates are grouped by trial, and a record takes its trial, by sorting
times and trials each on its own. ``write_events`` interleaves the two
channels into one time-ordered file; where an APD and a PMT_ONSET record
share a nanosecond stamp, the APD record comes first.
``read_events`` takes the two channels' records interleaved in any order.

An event file is text. Its first line is ``#MANIFEST `` followed by the
manifest as one JSON object. Every later line is a record or blank::

    record  = trial TAB channel TAB t_ns TAB "DETECT"
    trial   = 1 to 18 ASCII digits
    t_ns    = 1 to 18 ASCII digits
    channel = "APD" | "PMT_ONSET"

Lines end in LF or CRLF, the last line end is optional, and blank lines are
skipped. Nothing else is a record: no sign, space, separator or non-ASCII
digit. A legal stream keeps four rules, each of one record, in this order:
its trial is below the manifest's n_trials; its stamp is above the one
before it in its channel; it is not a second PMT_ONSET record of its trial;
its stamp lies in its trial's detection window, from its first rounded
nanosecond to its last plus j - 1 ns for the j-th record of the trial in its
channel (the tie bumps above). A stream's fault is its first record at fault
in file order, named by the first rule it breaks. Both ends check the rules
a block at a time (_Rules): ``write_events`` refuses a stream that breaks
one and leaves no file; ``read_events`` and ``g2`` name the line of the
first record at fault or bad line. A stream the writer takes reads back as
itself.

Both ends work a block at a time, so that neither holds a whole stream it
is not given; a whole stream given to ``write_events`` is one block.
``_simulate_blocks`` makes simulate_run's draws in the same order and gives
the stream as blocks of whole trials, drawing the (b) clicks outside the
regions CHECK_BLOCK at a time as the blocks are taken, from their counts
per piece; ``simulate_run`` is their join, and the ``simulate`` command
writes them as they come, beside the path, renaming its file over the path
once the last block is written.
``_parsed_blocks`` reads a file once, so a pipe reads too, and gives its
records as checked blocks; ``read_events`` is their join, and ``g2`` bins
them as they come. The first block that fails holds the file's first fault,
named from that block's text.

Record text is written and read a block at a time by record shape
(``ionherald.records``); only a block that breaks the grammar or a rule goes
to a line-at-a-time reading of the grammar, which gives the lines.
"""

from __future__ import annotations

import contextlib
import json
import os
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .errors import ConfigError, DataError, IonHeraldError
from . import polarization as pol
from .correlate import lag_reach_ns
from .biphoton import (AbsorberSetting, AnalyzerSetting, SourceModel,
                       arm_probabilities)
from .records import (CHANNEL_APD, CHANNEL_NAMES, CHANNEL_PMT_ONSET,
                      MAX_DIGITS, _LF, _MAX_LINE,
                      _decode_digits, _line_starts, _parse_records,
                      _record_text, _runs_within, _shaped_lines,
                      _write_records)

FILE_MAGIC = "#MANIFEST "
WRITE_BLOCK = 1 << 14       # records formatted at a time in write_events
READ_BLOCK = 1 << 20        # bytes per block read from an event file
CHECK_BLOCK = 1 << 16       # records per block in the checks and draws
MAX_PER_RUN = 1e18          # trials, or events of one kind, in a run


@dataclass(frozen=True)
class SequenceConfig:
    """Trial timing: cooling (I), preparation (II), detection (III)."""

    rep_rate: float = 10.0
    cooling_ms: float = 30.0
    prep_ms: float = 20.0
    detect_ms: float = 50.0

    def __post_init__(self):
        for name in ("rep_rate", "cooling_ms", "prep_ms", "detect_ms"):
            if not 0.0 < getattr(self, name) < np.inf:
                raise ConfigError(f"{name} must be finite and > 0")
        # detection windows are at least cooling + prep apart; below one
        # stamp (1 ns) adjacent trials could share a timestamp
        if self.cooling_ms + self.prep_ms < 1e-6:
            raise ConfigError(
                "cooling_ms + prep_ms must be >= 1e-6 (1 ns between the "
                "detection windows of adjacent trials)")
        total = self.cooling_ms + self.prep_ms + self.detect_ms
        if total > 1000.0 / self.rep_rate + 1e-9:
            raise ConfigError(
                f"sequence phases ({total} ms) exceed the {self.rep_rate} Hz period")

    @property
    def period_s(self) -> float:
        return 1.0 / self.rep_rate

    @property
    def detect_s(self) -> float:
        return self.detect_ms / 1000.0

    @property
    def detect_offset_s(self) -> float:
        return (self.cooling_ms + self.prep_ms) / 1000.0

    def n_trials(self, duration_s: float) -> int:
        """Trials in a run of duration_s: the whole periods it holds."""
        return int(np.floor(duration_s * self.rep_rate + 1e-9))


@dataclass(frozen=True)
class RateConfig:
    """Detection-phase rates and per-event probabilities.

    pair_rate is the pair flux (pairs/s reaching the beam-splitter outputs),
    finite and > 0; the source's state is biphoton.SourceModel. Heralds
    whose partner photon was lost enter through eta_herald < 1;
    spontaneous decay out of the metastable level enters as false_onset_rate.
    Onset latency/jitter shape the absorption-to-fluorescence delay.
    """

    pair_rate: float = 1.0
    eta_trigger: float = 0.1
    eta_herald: float = 0.07
    branching_s: float = 0.94
    dark_trigger_rate: float = 0.0
    false_onset_rate: float = 0.0
    onset_latency_us: float = 1.0
    onset_jitter_ns: float = 100.0

    def __post_init__(self):
        if not 0.0 < self.pair_rate < np.inf:
            raise ConfigError(
                f"pair_rate must be finite and > 0, got {self.pair_rate}")
        for name in ("dark_trigger_rate", "false_onset_rate",
                     "onset_latency_us", "onset_jitter_ns"):
            if not 0.0 <= getattr(self, name) < np.inf:
                raise ConfigError(f"{name} must be finite and >= 0")
        # eta_* = 0 is degenerate but legal (yields empty channels)
        for name in ("eta_trigger", "eta_herald", "branching_s"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ConfigError(f"{name} outside [0, 1]")


@dataclass(frozen=True)
class RunManifest:
    """Everything that determines an output stream, seed included, each
    fact once."""

    seed: int
    duration_s: float
    absorber: AbsorberSetting
    analyzer: AnalyzerSetting
    source: SourceModel
    sequence: SequenceConfig = field(default_factory=SequenceConfig)
    rates: RateConfig = field(default_factory=RateConfig)

    def __post_init__(self):
        if not 0.0 <= self.duration_s < np.inf:
            raise ConfigError("duration_s must be finite and >= 0")
        if (isinstance(self.seed, bool)
                or not isinstance(self.seed, (int, np.integer))
                or self.seed < 0):
            raise ConfigError("seed must be a non-negative integer")
        # numpy draws Poisson counts of mean below ~9.2e18 only, and the
        # clicks and false onsets are drawn as totals over the whole run
        if not self.duration_s * self.sequence.rep_rate <= MAX_PER_RUN:
            raise ConfigError(f"duration_s: over {MAX_PER_RUN:.0e} trials")
        for name in ("pair_rate", "dark_trigger_rate", "false_onset_rate"):
            if getattr(self.rates, name) * self.sequence.detect_s \
                    * self.n_trials > MAX_PER_RUN:
                raise ConfigError(f"{name} expects over {MAX_PER_RUN:.0e} "
                                  f"events per run")

    @property
    def n_trials(self) -> int:
        return self.sequence.n_trials(self.duration_s)


@dataclass
class EventStream:
    """One run's records: per channel, after finalize(), a t_ns column in
    time order and its trials as (trial, count) runs (module docstring)."""

    apd_runs: tuple         # (trial, count), int64 arrays
    apd_ns: np.ndarray      # int64
    onset_runs: tuple
    onset_ns: np.ndarray
    manifest: RunManifest
    apd_dropped: int = 0    # APD clicks left out in counting mode

    def __len__(self):
        return len(self.apd_ns) + len(self.onset_ns)

    def apd_times(self) -> np.ndarray:
        return self.apd_ns

    def onset_times(self) -> np.ndarray:
        return self.onset_ns

    def channels(self):
        """(code, (trial, count) runs, t_ns) of each channel, APD first."""
        return ((CHANNEL_APD, self.apd_runs, self.apd_ns),
                (CHANNEL_PMT_ONSET, self.onset_runs, self.onset_ns))

    def __eq__(self, other):
        if not isinstance(other, EventStream):
            return NotImplemented
        mine, theirs = ([*s.apd_runs, s.apd_ns, *s.onset_runs, s.onset_ns]
                        for s in (self, other))
        return (all(map(np.array_equal, mine, theirs))
                and self.apd_dropped == other.apd_dropped
                and manifest_to_dict(self.manifest)
                == manifest_to_dict(other.manifest))


def _strictly_increasing(t: np.ndarray, last=None) -> None:
    """Bump duplicate sorted integer timestamps (post-rounding ties) by +1 ns,
    in place, the first above `last` too, the bumped stamp before them (None
    for none).

    Each stamp becomes max(its own, the previous bumped stamp + 1), in one
    pass: t[k] - k is non-decreasing after the bumps, so it is the running
    maximum of the input's t[k] - k, carried from block to block of
    CHECK_BLOCK stamps. A block already strictly increasing and above the
    bumped stamp before it, as nearly every block is, is left as it is.
    """
    top = np.iinfo(np.int64).min if last is None else last + 1
    for part in _chunks(len(t)):
        block = t[part]
        if block[0] - part.start >= top and np.all(block[1:] > block[:-1]):
            top = block[-1] - (part.stop - 1)   # no tie: nothing bumped
            continue
        i = np.arange(part.start, part.stop)
        block -= i
        block[0] = max(block[0], top)
        np.maximum.accumulate(block, out=block)
        top = block[-1]
        block += i


def _finalize(apd_ns, apd_runs, onset_ns, onset_runs, manifest,
              last=None) -> EventStream:
    """The stream of the APD stamps, with their records as (trial, count)
    runs of counts >= 1 in any order, and of the onset stamps, with the
    stream's runs; the APD stamps are bumped above `last`, the last bumped
    APD stamp of the trials before them (None for none).

    Each channel's stamps are sorted and tie-bumped in place and become its
    t_ns column; the APD runs are stably sorted by trial and merged. Time
    order is trial order (see the module docstring), so a record takes the
    trial of its position within its channel."""
    apd_ns.sort()
    onset_ns.sort(kind="stable")    # drawn in order: one pass
    for t, floor in ((apd_ns, last), (onset_ns, None)):
        _strictly_increasing(t, floor)
    order = np.argsort(apd_runs[0], kind="stable")
    return EventStream(_runs(*(c[order] for c in apd_runs)), apd_ns,
                       onset_runs, onset_ns, manifest)


def _run_starts(x):
    """The index of the first item of each run of equal items of x."""
    return np.concatenate(([True], x[1:] != x[:-1]))[:len(x)].nonzero()[0]


def _runs(trial, count=None):
    """The maximal (trial, count) runs of records given in order, one each
    (count None) or as runs of counts >= 1: equal neighbours summed."""
    first = _run_starts(trial)
    if count is None:
        return trial[first], np.diff(first, append=len(trial))
    return trial[first], np.add.reduceat(count, first)


def simulate_run(m: RunManifest, counting: bool = False) -> EventStream:
    """Generate the event stream for one run. Deterministic given the manifest.

    With counting, the stream is the counting stream of the module
    docstring: a sub-stream of the full stream, up to tie bumps. It keeps
    every onset and every APD click of an absorbed pair, but of the other
    clicks only those within the default lag window's reach of an onset,
    and counts the rest in apd_dropped. The stream is the join of
    _simulate_blocks' blocks."""
    n_apd, n_onsets, blocks = _simulate_blocks(m, counting)
    return _joined(m, blocks, (n_apd, n_onsets))


def _simulate_blocks(m: RunManifest, counting: bool = False):
    """simulate_run's stream as blocks: its numbers of APD and onset
    records, and an iterator of finalized streams of whole trials, in
    order, whose join is the stream.

    Every draw up to the times of the (b) clicks outside the regions (the
    far clicks) happens here. Of their pieces it holds only the intervals
    between the regions and each piece's count, and the pieces' shares of
    the far clicks during their draw. The far clicks are drawn as the
    blocks are taken, CHECK_BLOCK at a time, in time order piece by piece;
    after each draw the trials before the next piece's are whole, and with
    the (a) and region clicks held for them they make the next block,
    sorted and tie-bumped from the last block's last stamp on. A block ends
    only where each channel's records come before the other's after it in
    file order, so that writing the blocks one by one interleaves the
    channels as writing the whole stream does. A counting stream, or one
    without far clicks, is one block."""
    rng = np.random.default_rng(m.seed)
    seq, rates, n_trials = m.sequence, m.rates, m.n_trials
    (marginal,), (joint,) = arm_probabilities(m.source, m.absorber,
                                              [m.analyzer])
    pair_clicks = rates.pair_rate * rates.eta_trigger * marginal
    p_abs = (rates.eta_herald * (joint / marginal) * rates.branching_s
             if marginal > 0.0 else 0.0)
    run_s = seq.detect_s * n_trials     # detection time of the whole run
    # fixed draw order (see module docstring)
    n_a = rng.poisson(pair_clicks * p_abs * run_s)
    a_trial = rng.integers(n_trials, size=n_a)
    a_t = _window_start(a_trial, seq) + rng.random(n_a) * seq.detect_s
    # abs: -0.0 passes RateConfig, but numpy refuses its sign
    latency_s = rng.exponential(abs(rates.onset_latency_us) * 1e-6, n_a)
    jitter_s = rng.normal(0.0, abs(rates.onset_jitter_ns) * 1e-9, n_a)
    n_c = rng.poisson(rates.false_onset_rate * run_s)
    c_trial = rng.integers(n_trials, size=n_c)
    c_t = _window_start(c_trial, seq) + rng.random(n_c) * seq.detect_s

    # first onset candidate per trial wins; later ones never happen because
    # the ion has already left the metastable manifold
    cand_t = np.concatenate([a_t + np.maximum(latency_s + jitter_s, 1e-9),
                             c_t])
    cand_trial = np.concatenate([a_trial, c_trial])
    inside = cand_t < _window_start(cand_trial, seq) + seq.detect_s
    # grouped by trial, each trial's earliest first (module docstring)
    cand_t, cand_trial = np.sort(cand_t[inside]), np.sort(cand_trial[inside])
    first = _run_starts(cand_trial)
    onset_trial = cand_trial[first]
    onset_ns = np.rint(cand_t[first] * 1e9).astype(np.int64)

    # the (b) clicks: the regions' and the others' totals, the regions'
    # times, and in a full stream the others' times
    b_rate = pair_clicks * (1.0 - p_abs) + rates.dark_trigger_rate
    lo, hi = _regions(onset_ns, lag_reach_ns())
    near = _pieces(_intervals(lo, hi, seq, n_trials), seq)
    near_s = near[2].sum()
    near_count = rng.poisson(b_rate * near[2])
    kept = near_count.nonzero()[0]      # an empty piece takes no draw
    near, near_count = [c[kept] for c in near], near_count[kept]
    n_near = int(near_count.sum())
    n_far = rng.poisson(b_rate * max(run_s - near_s, 0.0))
    near_ns = np.empty(n_near, np.int64)
    _stamp_uniform(rng, near_ns, near, near_count, seq)

    # each kind of APD click as (trial, count) runs and their stamps: the
    # (a) clicks one a run, the region clicks one run a piece; and the
    # onsets as one-record runs
    kinds = [(a_trial, np.ones(n_a, np.int64),
              np.rint(a_t * 1e9).astype(np.int64)),
             (near[0], near_count, near_ns),
             (onset_trial, np.ones_like(onset_trial), onset_ns)]
    if counting or not n_far:
        block, _ = _trials_block(m, kinds)
        block.apd_dropped = n_far if counting else 0
        return n_a + n_near, len(onset_ns), iter([block])
    # the far pieces' lengths, the one whole-run float array, made a
    # sixteenth of CHECK_BLOCK at a time (_pieces takes ~40 bytes a piece);
    # their counts drawn are held as running sums
    far = _intervals(np.append(-np.inf, hi), np.append(lo, np.inf), seq,
                     n_trials)
    p = np.empty(far[3][-1])
    for part in _chunks(len(p), CHECK_BLOCK // 16 or 1):
        p[part] = _pieces(far, seq, part)[2]
    p /= p.sum()
    ends = rng.multinomial(n_far, p)
    del p
    np.cumsum(ends, out=ends)
    # blocks are cut by trial, where the onsets' final stamps allow
    kinds[0] = tuple(c[np.argsort(a_trial, kind="stable")] for c in kinds[0])
    _strictly_increasing(onset_ns)

    def blocks():
        # what is left of each kind, the far clicks as far as drawn, from
        # trial `start` on, and the last APD stamp given
        left, start, last = [(near_ns[:0],) * 3, *kinds], 0, None
        for part in _chunks(n_far):
            # the far clicks held, and CHECK_BLOCK more drawn after them;
            # the pieces that draw none are left out
            trial, count, held = left[0]
            k, c = _runs_within(ends, part.start, part.stop)
            pieces = _pieces(far, seq, k)
            stamps = np.empty(len(held) + part.stop - part.start, np.int64)
            stamps[:len(held)] = held
            _stamp_part(rng, stamps[len(held):], pieces, c, seq)
            kept = c > 0
            left[0] = (np.concatenate((trial, pieces[0][kept])),
                       np.concatenate((count, c[kept])), stamps)
            # the trials before that of the piece of the next click are
            # whole; as a rule it is the last piece drawn from
            j = np.searchsorted(ends, part.stop, side="right")
            if j < k.stop:
                stop = pieces[0][-1]
            else:
                stop = (_pieces(far, seq, slice(j, j + 1))[0][0]
                        if j < len(ends) else n_trials)
            if stop == n_trials or stop == start:
                continue
            block, rest = _trials_block(m, left, stop, last)
            apd_last = block.apd_ns[-1] if len(block.apd_ns) else last
            # the block's APD stamps must not pass the next onset, nor its
            # onsets reach a later APD stamp, which is at least the rounded
            # start of trial stop's window
            next_onset = rest[-1][2][:1]
            if ((len(next_onset) and apd_last is not None
                 and apd_last > next_onset[0])
                    or (len(block.onset_ns) and block.onset_ns[-1] >= np.rint(
                        _window_start(stop, seq) * 1e9))):
                continue
            left = [tuple(column.copy() for column in rest[0]), *rest[1:]]
            start, last = stop, apd_last
            yield block
            del block, rest     # held no longer than needed
        yield _trials_block(m, left, n_trials, last)[0]
    return n_a + n_near + n_far, len(onset_ns), blocks()


def _trials_block(m: RunManifest, kinds, stop=None, last=None):
    """The finalized block of the trials before `stop` (None for all) of
    the kinds of APD clicks and the onsets, kinds[-1], each (trial, count)
    runs in trial order and their stamps; and what is left of each kind.
    The APD stamps are bumped above `last` (see _finalize)."""
    heads, rest = [], []
    for trial, count, stamps in kinds:
        r = len(trial) if stop is None else np.searchsorted(trial, stop)
        n = int(count[:r].sum())
        heads.append((trial[:r], count[:r], stamps[:n]))
        rest.append((trial[r:], count[r:], stamps[n:]))
    *apd, (onset_trial, onset_count, onset_ns) = heads
    trial, count, apd_ns = (np.concatenate(c) for c in zip(*apd))
    return _finalize(apd_ns, (trial, count), onset_ns,
                     (onset_trial, onset_count), m, last), rest


def _joined(manifest: RunManifest, blocks, sizes=(0, 0)) -> EventStream:
    """The stream of the blocks joined in order: one block is the stream,
    else each channel's stamps are copied into a column of sizes[channel]
    records, grown in place by a quarter, or to fit, where the blocks hold
    more, and its runs are merged; only a counting stream, one block, leaves
    out clicks."""
    first, second = next(blocks), next(blocks, None)
    if second is None:
        return first
    columns = [np.empty(n, np.int64) for n in sizes]
    filled, pieces = [0, 0], ([], [])

    def add(block):
        for code, runs, t_ns in block.channels():
            n, stop = filled[code], filled[code] + len(t_ns)
            if stop > len(columns[code]):
                # in place: a copy would hold the old column and the new
                columns[code].resize(max(stop, len(columns[code]) * 5 // 4),
                                     refcheck=False)
            columns[code][n:stop] = t_ns
            pieces[code].append(runs)
            filled[code] = stop

    add(first)
    add(second)
    del first, second   # each block is held no longer than it is copied
    for block in blocks:
        add(block)
        del block
    for column, n in zip(columns, filled):
        column.resize(n, refcheck=False)
    return EventStream(*(x for runs, column in zip(pieces, columns)
                         for x in (_runs(*map(np.concatenate, zip(*runs))),
                                   column)),
                       manifest=manifest)


def _window_start(trial, seq: SequenceConfig):
    """Start (s) of the detection windows of the given trials."""
    return trial * seq.period_s + seq.detect_offset_s


def _regions(onset_ns, reach_ns: int):
    """The times (s) within reach_ns + 1 ns of an onset stamp, as disjoint
    ascending intervals [lo, hi]: no time outside them rounds to a stamp
    within reach_ns of an onset."""
    lo = (onset_ns - (reach_ns + 1.0)) * 1e-9
    hi = (onset_ns + (reach_ns + 1.0)) * 1e-9
    # overlapping ones are cut, so no time is drawn twice
    lo[1:] = np.maximum(lo[1:], hi[:-1])
    return lo, hi


def _intervals(lo, hi, seq: SequenceConfig, n_trials: int):
    """The disjoint ascending intervals [lo, hi] (s) as _pieces takes them:
    lo, hi, each one's first trial, that of the first window that ends
    after lo, and the index of each one's first piece, with the number of
    pieces last. A piece is the part of an interval in one window."""
    w = seq.detect_s
    first = (np.floor((lo - seq.detect_offset_s - w) / seq.period_s)
             + 1).clip(0, n_trials - 1)
    # to the last window that starts before hi
    last = (np.ceil((hi - seq.detect_offset_s) / seq.period_s)
            - 1).clip(0, n_trials - 1)
    n = np.maximum(last - first + 1, 0).astype(np.int64)
    return lo, hi, first, np.append(0, np.cumsum(n))


def _pieces(intervals, seq: SequenceConfig, part=slice(0, None)):
    """The pieces `part` of _intervals' intervals, all by default: the
    trial, window offset (s) and length of each, the same in any part (a
    trial exact below 2**53)."""
    lo, hi, first, starts = intervals
    j0, j1, _ = part.indices(starts[-1])
    # the intervals i0 to i1 - 1 hold the part's pieces, n[i] of them each
    i0 = np.searchsorted(starts, j0, side="right") - 1
    i1 = max(np.searchsorted(starts, j1), i0)
    n = np.minimum(starts[i0 + 1:i1 + 1], j1) - np.maximum(starts[i0:i1], j0)
    trial = np.repeat(first[i0:i1] - starts[i0:i1], n).astype(np.int64) \
        + np.arange(j0, j1)
    start = _window_start(trial, seq)
    w = seq.detect_s
    off = (lo[i0:i1].repeat(n) - start).clip(0.0, w)
    return trial, off, (hi[i0:i1].repeat(n) - start).clip(0.0, w) - off


def _stamp_uniform(rng, out, pieces, count, seq: SequenceConfig) -> None:
    """Stamp count[i] uniform times in piece i into out, in piece order,
    CHECK_BLOCK at a time."""
    if len(out) <= CHECK_BLOCK:     # one part: the pieces as they are
        return _stamp_part(rng, out, pieces, count, seq)
    ends = np.cumsum(count)
    for part in _chunks(len(out)):
        k, c = _runs_within(ends, part.start, part.stop)
        _stamp_part(rng, out[part], [column[k] for column in pieces], c, seq)


def _stamp_part(rng, out, pieces, count, seq: SequenceConfig) -> None:
    """Stamp count[i] uniform times in piece i into out, in piece order."""
    trial, off, length = pieces
    t = rng.random(len(out))
    t *= length.repeat(count)
    t += off.repeat(count)
    # within its window, whatever the rounding
    np.minimum(t, seq.detect_s, out=t)
    t += _window_start(trial, seq).repeat(count)
    t *= 1e9
    out[:] = np.rint(t, out=t)


def _stamp_range(t_start, w, k):
    """First and last nanosecond stamp of the detection windows that open at
    t_start (s) and last w (s), for k stamps each in one channel: the last
    rounded nanosecond of a window plus k - 1 ns, the furthest that tie bumps
    move a stamp (see the module docstring)."""
    lo = np.rint(t_start * 1e9).astype(np.int64)
    # t_start + u * w <= t_start + w in floating point for u < 1
    return lo, np.rint((t_start + w) * 1e9).astype(np.int64) + k - 1


# --- manifest and event-file serialization ----------------------------------


def _state_to_json(s: pol.PolarizationState):
    return [[float(s.c_h.real), float(s.c_h.imag)],
            [float(s.c_v.real), float(s.c_v.imag)]]


def _state_from_json(v) -> pol.PolarizationState:
    return pol.PolarizationState(complex(v[0][0], v[0][1]),
                                 complex(v[1][0], v[1][1]))


def manifest_to_dict(m: RunManifest) -> dict:
    return {
        "seed": int(m.seed),
        "duration_s": float(m.duration_s),
        "absorber": {
            "basis": m.absorber.basis.label,
            "allowed": _state_to_json(m.absorber.allowed),
        },
        "analyzer": {
            "projector_state": _state_to_json(m.analyzer.projector_state),
            "hwp_angle": m.analyzer.hwp_angle,
        },
        "source": {
            # + 0.0 canonicalizes negative zeros for byte-stable output
            "ideal_state_re": (np.real(m.source.ideal_state.matrix) + 0.0).tolist(),
            "ideal_state_im": (np.imag(m.source.ideal_state.matrix) + 0.0).tolist(),
            "singlet_weight": m.source.singlet_weight,
        },
        "sequence": asdict(m.sequence),
        "rates": asdict(m.rates),
    }


def manifest_from_dict(d: dict) -> RunManifest:
    """The manifest of manifest_to_dict's dict. Every section is read key by
    key, so a key it does not know, such as those older files also hold
    (source.pair_rate, absorber.blocked, absorber.geometry_note), is passed
    over."""
    ab = d["absorber"]
    absorber = AbsorberSetting(pol.BASES[ab["basis"]],
                               _state_from_json(ab["allowed"]))
    an = d["analyzer"]
    analyzer = AnalyzerSetting(_state_from_json(an["projector_state"]),
                               an.get("hwp_angle"))
    s = d["source"]
    ideal = pol.TwoQubitDensityMatrix(
        np.array(s["ideal_state_re"]) + 1j * np.array(s["ideal_state_im"]))
    source = SourceModel(ideal, s["singlet_weight"])
    return RunManifest(d["seed"], d["duration_s"], absorber, analyzer, source,
                       *(kind(**{k: v for k, v in d[name].items()
                                 if k in {f.name for f in fields(kind)}})
                         for kind, name in ((SequenceConfig, "sequence"),
                                            (RateConfig, "rates"))))


def write_events(stream, path) -> None:
    """Write a finalized stream, or the blocks of one in order, as
    _simulate_blocks gives them: manifest line, then one tab-separated
    record per line (trial, channel, t_ns, phase). Timestamps stay exact
    integers.

    The two channels are interleaved in time order, a block at a time and
    WRITE_BLOCK records at a time within it: each onset goes after every
    APD stamp <= its own. Each channel's records of a block are formatted
    by record shape, and the onset lines are spliced into the APD text. The
    file is written beside `path` and renamed over it once its last block
    is written, so a stream that is refused leaves nothing at `path`.

    Each block is checked as it is written (_checked), a whole stream as
    one block. A stream that breaks a rule is refused with read_events'
    message less its path and line, such as "non-monotone timestamps in
    channel APD"; so a stream it writes reads back as itself."""
    if isinstance(stream, EventStream):
        stream = (stream,)
    part = f"{os.fspath(path)}.{os.getpid()}.part"
    try:
        with open(part, "wb") as fh:
            for i, block in enumerate(_checked(stream)):
                if not i:
                    fh.write(FILE_MAGIC.encode() + json.dumps(
                        manifest_to_dict(block.manifest), sort_keys=True,
                        separators=(",", ":")).encode("utf-8") + b"\n")
                _write_block(fh, block)
        os.replace(part, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(part)
        raise


def _write_block(fh, block: EventStream) -> None:
    """Write the records of one block, its channels interleaved: its onset
    lines formatted once, its APD lines a part at a time."""
    before = np.searchsorted(block.apd_ns, block.onset_ns, side="right")
    at = before + np.arange(len(before))    # the onsets' places in the file
    onset, onset_runs = _record_text(b"PMT_ONSET", *block.onset_runs,
                                     block.onset_ns)
    onset_starts = _line_starts(onset_runs, np.arange(len(at) + 1))
    (trial, count), apd_ns = block.apd_runs, block.apd_ns
    ends = np.cumsum(count)
    # in parts of about WRITE_BLOCK records
    bounds = np.linspace(0, len(block), max(round(len(block) / WRITE_BLOCK),
                                            1) + 1).astype(np.int64).tolist()
    for i, stop in zip(bounds, bounds[1:]):
        # the APD records a0:a1 and the onsets k0:k1 of this part
        k0, k1 = np.searchsorted(at, [i, stop])
        a0, a1 = i - k0, stop - k1
        k, c = _runs_within(ends, a0, a1)
        _write_records(fh, *_record_text(b"APD", trial[k], c, apd_ns[a0:a1]),
                       onset, onset_starts[k0:k1 + 1], before[k0:k1] - a0)


def _checked(blocks):
    """Each block of a stream, cut anywhere, once it is checked: DataError
    at the first block that leaves out clicks, breaks a rule of form or
    holds a record at fault, named by the one written first. A stream is
    legal exactly when each of its blocks passes."""
    rules = None
    for block in blocks:
        if block.apd_dropped:
            raise DataError("counting-mode stream left out "
                            f"{block.apd_dropped} APD clicks; its manifest "
                            "promises them all")
        rules = rules or _Rules(block.manifest)
        if fault := (_form_fault(block)
                     or _first_written(block, rules.faults(block))):
            raise DataError(fault[0])
        yield block


def read_events(path) -> EventStream:
    """Parse an event file back into a stream, refused unless it is legal:
    the join of _parsed_blocks' blocks, in one read of the file."""
    with open(path, "rb") as fh:
        manifest, blocks = _parsed_blocks(fh, path)
        return _joined(manifest, blocks)


def _parsed_blocks(fh, path):
    """The manifest of the event file open in `fh` (binary, at its start;
    `path` names it in messages), and an iterator of its records as checked
    blocks, read from `fh` as they are taken, once, so a pipe reads too.

    The file is read in blocks of READ_BLOCK bytes into one buffer, each
    cut after its last line end; the partial line after the cut moves to
    the buffer's front. Each block is read by record shape (see
    ionherald.records, and _decoded); a block that does not fit, or holds a
    trial past the manifest's, goes to _parse_records, which reads it up to
    its first bad line. Its records are checked (_Rules); where one is at
    fault, or a line is bad, the first of them is named, its line found in
    the buffer. Only the buffer and one block's columns are held."""
    manifest = _read_manifest(fh.readline(), path)
    n_trials, rules = manifest.n_trials, _Rules(manifest)
    # room for a partial line of up to _MAX_LINE bytes, a block and LF
    buf = bytearray(READ_BLOCK + _MAX_LINE + 1)
    view = memoryview(buf)
    lineno = 2

    def block(end):
        # the records of buf[:end], checked: by record shape, else line by
        # line, which also gives their lines where one is at fault
        nonlocal lineno
        shaped = _shaped_lines(buf, end)
        channels = shaped and _decoded(shaped[1], n_trials)
        bad = lines = None
        if channels:
            n_lines = shaped[0]
        else:
            records, bad, n_lines = _parse_records(bytes(view[:end]), lineno,
                                                   n_trials)
            channels = [x for trial, t_ns, _ in records
                        for x in (_runs(trial), t_ns)]
            lines = [line for _, _, line in records]
        stream = EventStream(*channels, manifest=manifest)
        faults = rules.faults(stream)
        if bad or any(faults):
            lines = lines or [line for *_, line in _parse_records(
                bytes(view[:end]), lineno, n_trials)[0]]
            line, message = min([(int(lines[code][f[0]]), f[1])
                                 for code, f in enumerate(faults) if f]
                                + ([bad] if bad else []))
            raise DataError(f"{path}: line {line}: {message}")
        lineno += n_lines
        return stream

    def blocks(kept=0):             # kept: bytes of a partial line
        while got := fh.readinto(view[kept:kept + READ_BLOCK]):
            end = kept + got
            cut = buf.rfind(b"\n", 0, end) + 1
            if cut:
                yield block(cut)
            kept = end - cut
            view[:kept] = view[cut:end]
            if kept > _MAX_LINE:    # longer than any record: refused below
                break
        buf[kept] = _LF             # the last line end is optional
        if kept or lineno == 2:     # a file of no record is one block
            yield block(kept + 1 if kept else 0)
    return manifest, blocks()


def _decoded(shapes, n_trials: int):
    """Per channel, the (trial, count) runs and stamps of its runs of lines
    of one shape, as _shaped_lines gives them, as flat [runs, t_ns, runs,
    t_ns]; None where a trial is not below n_trials.

    In a run of one shape, each trial field has the same width and template
    bytes after it, so a row starts a trial run where the words of its
    field's bytes differ from the row's before: only those rows' trials are
    decoded."""
    channels = []
    for channel_runs in shapes:
        t_ns = np.empty(sum(len(rows) for rows, _, _ in channel_runs),
                        np.int64)
        pieces, n = [_runs(t_ns[:0])], 0
        for rows, trial, t in channel_runs:
            changed = np.zeros(len(rows) - 1, bool)
            for i in range(trial.start, trial.stop, 8):
                word = np.ascontiguousarray(rows[:, i:i + 8].view("<u8"))
                changed |= word[1:, 0] != word[:-1, 0]
            first = np.flatnonzero(np.append(True, changed))
            trials = np.empty(len(first), np.int64)
            _decode_digits(rows[first], trial, trials)
            if trials.max() >= n_trials:
                return None
            pieces.append((trials, np.diff(first, append=len(rows))))
            _decode_digits(rows, t, t_ns[n:n + len(rows)])
            n += len(rows)
        channels += [_runs(*map(np.concatenate, zip(*pieces))), t_ns]
    return channels


def _chunks(n: int, size: int = 0):
    """Slices of `size`, else CHECK_BLOCK, records that cover n records."""
    size = size or CHECK_BLOCK
    return (slice(i, min(i + size, n)) for i in range(0, n, size))


def _form_fault(stream: EventStream):
    """The first rule of form that `stream` breaks, rules that name no
    record: each channel's runs are the maximal runs of its records, each
    count at least 1, and every trial and t_ns is writable. (message,
    None), or None."""
    channels = stream.channels()
    for code, (trial, count), t_ns in channels:
        if not (len(trial) == len(count) and np.all(count >= 1)
                and np.all(trial[1:] != trial[:-1])
                and count.sum() == len(t_ns)):
            return (f"trial runs of channel {CHANNEL_NAMES[code]} are not "
                    f"the maximal runs of its {len(t_ns)} records"), None
    for _, (trial, _), t_ns in channels:
        for name, column in zip(("trial", "t_ns"), (trial, t_ns)):
            if len(column) and not (column.min() >= 0
                                    and column.max() < 10 ** MAX_DIGITS):
                return (f"{name} outside [0, 1e{MAX_DIGITS}): not writable "
                        f"as 1 to {MAX_DIGITS} digits"), None
    return None


class _Rules:
    """The rules of a legal stream (module docstring), record by record,
    over a stream given as consecutive blocks of its records, cut anywhere,
    with what a block needs of the records before it: per channel, its last
    stamp and the trials that a later record could still join within the
    window rule, with their records; and the trials of the onsets."""

    def __init__(self, manifest: RunManifest):
        self.manifest = manifest
        self.last = [None, None]
        self.open = [{}, {}]        # trial: (its records, its window's end)
        self.onset_trials, self.top_onset = [np.empty(0, np.int64)], -1

    def faults(self, block: EventStream):
        """Per channel, APD first, the index of its first record at fault
        in the block and the message of the first rule that record breaks,
        or None where it has none. A block without one is taken: what the
        next block needs of it is carried."""
        found, carried = zip(*(self._channel(code, runs, t_ns)
                               for code, runs, t_ns in block.channels()))
        if found == (None, None):
            self.last, self.open = map(list, zip(*carried))
            if len(trials := block.onset_runs[0]):
                self.onset_trials.append(trials)
                self.top_onset = trials[-1]
        return list(found)

    def _channel(self, code: int, runs, t_ns):
        """The channel's first record at fault in the block, (index,
        message) or None, and what the next block needs of its records."""
        m, name = self.manifest, CHANNEL_NAMES[code]
        seq = m.sequence
        trial, count = runs
        end = np.cumsum(count)
        start = end - count
        fault, n = None, len(t_ns)      # n: the records ahead of it

        def found(i, message):
            nonlocal fault, n
            fault, n = (int(i), message), int(i)

        for r in np.flatnonzero(trial >= m.n_trials)[:1]:
            found(start[r], f"trial {trial[r]} outside the manifest's "
                            f"{m.n_trials} trials")
        # the order rule: each stamp against the one before it
        if n and self.last[code] is not None and t_ns[0] <= self.last[code]:
            found(0, f"non-monotone timestamps in channel {name}")
        for part in _chunks(n - 1):
            if len(bad := np.flatnonzero(t_ns[part.start + 1:part.stop + 1]
                                         <= t_ns[part])):
                found(part.start + 1 + bad[0], "non-monotone timestamps in "
                                               f"channel {name}")
                break
        if n < len(t_ns):   # the runs of the records ahead of those faults
            keep = np.searchsorted(start, n)
            trial, start, end = trial[:keep], start[:keep], \
                np.minimum(end[:keep], n)
            count = end - start
        # per run, the records of its trial up to its end: in the open
        # trials, in the block's runs before it and its own
        k = count.copy()
        for t, (records, _) in self.open[code].items():
            k[trial == t] += records
        if np.any(trial[1:] <= trial[:-1]):     # a trial of several runs
            order = np.argsort(trial, kind="stable")
            t, c = trial[order], count[order]
            before = np.cumsum(c) - c
            first = _run_starts(t)
            k[order] += before - np.repeat(before[first],
                                           np.diff(first, append=len(t)))
        if code == CHANNEL_PMT_ONSET:
            # a trial's second onset: the first of a run whose trial has
            # one ahead of it, else the second of a run
            seen = k > count
            if len(trial) and trial.min() <= self.top_onset:
                taken = np.concatenate(self.onset_trials)
                j = np.searchsorted(taken, trial).clip(max=len(taken) - 1)
                seen |= taken[j] == trial
            for r in np.flatnonzero(seen | (count > 1))[:1]:
                found(start[r] + (not seen[r]),
                      "multiple PMT_ONSET records in one trial")
        # the window rule: as the stamps increase, a run breaks it only if
        # its first or last stamp does; then record p of the run lies from
        # lo to reach - count + 1 + p, and a search finds the first that
        # does not
        lo, reach = _stamp_range(_window_start(trial, seq), seq.detect_s, k)
        for r in np.flatnonzero((t_ns[start] < lo)
                                | (t_ns[end - 1] > reach))[:1]:
            i = start[r]
            if t_ns[i] >= lo[r]:
                i += np.searchsorted(t_ns[i:end[r]] - np.arange(count[r]),
                                     reach[r] - count[r] + 1, side="right")
            if i < n:
                found(i, f"{name} stamp {t_ns[i]} outside the detection "
                         f"window of trial {trial[r]}")
        if fault is not None or not len(t_ns):
            return fault, (self.last[code], self.open[code])
        # the open trials: those whose window, widened by their records so
        # far, reaches the last stamp; a trial's last run holds its records
        last = t_ns[-1]
        opened = {t: v for t, v in self.open[code].items() if v[1] >= last}
        for r in np.flatnonzero(reach >= last).tolist():
            opened[int(trial[r])] = int(k[r]), int(reach[r])
        return fault, (last, opened)


def _first_written(stream: EventStream, faults):
    """Of the first records at fault of the stream's channels, as
    _Rules.faults gives them, the one that write_events writes first:
    (message, (channel, index)), or None. The channels are written in time
    order, APD first at a tie, and a stamp not above the one before it in
    its channel is written right after that one: each record goes by the
    greatest stamp of its channel up to it."""
    at = [(t_ns[:f[0] + 1].max(), code, *f)
          for (code, _, t_ns), f in zip(stream.channels(), faults) if f]
    if at:
        _, code, i, message = min(at)
        return message, (code, i)
    return None


def _read_manifest(line: bytes, path) -> RunManifest:
    if not line.startswith(FILE_MAGIC.encode()):
        raise DataError(f"{path}: line 1: missing manifest record")
    try:
        return manifest_from_dict(json.loads(
            line[len(FILE_MAGIC):].decode("utf-8"),
            parse_constant=_reject_non_finite))
    # UnicodeDecodeError and JSONDecodeError are ValueErrors; the others come
    # from building a manifest out of JSON of the wrong types or shapes
    except (ValueError, KeyError, IndexError, TypeError, AttributeError,
            OverflowError, RecursionError, IonHeraldError) as exc:
        raise DataError(f"{path}: line 1: bad manifest: {exc}") from exc


def _reject_non_finite(name: str):
    raise ValueError(f"non-finite number {name}")

