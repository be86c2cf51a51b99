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
tie within one trial and time order is also trial order. ``write_events``
interleaves the two channels into one time-ordered file; where an APD and a
PMT_ONSET record share a nanosecond stamp, the APD record comes first.
``read_events`` takes the two channels' records interleaved in any order.

An event file is text. Its first line is ``#MANIFEST `` followed by the
manifest as one JSON object. Every later line is a record or blank::

    record  = trial TAB channel TAB t_ns TAB "DETECT"
    trial   = 1 to 18 ASCII digits
    t_ns    = 1 to 18 ASCII digits
    channel = "APD" | "PMT_ONSET"

Lines end in LF or CRLF, the last line end is optional, and blank lines are
skipped. Nothing else is a record: no sign, space, separator or non-ASCII
digit. In a legal stream, each trial is below the manifest's n_trials, each
channel's stamps strictly increase, a trial has at most one PMT_ONSET
record, and each stamp lies in its trial's detection window, from its first
rounded nanosecond to its last plus k - 1 ns for a trial with k records in
the channel (the tie bumps above). Both ends check them with one function:
``write_events`` refuses a stream that breaks one before it opens the file,
``read_events`` names the first line that breaks the grammar or trial range,
else the first rule broken. A stream the writer takes reads back as itself.

Within one channel, trials and stamps only grow, so their digit counts
change only a few times per file, and nearly every line is a row of one of
two templates, ``<digits>\tAPD\t<digits>\tDETECT\n`` or the same with
PMT_ONSET. Both directions work by that record shape: the writer fills rows
of a template four digits at a time, and the reader splits each block's
lines of one channel into runs of one line length and checks each run's
rows against the template of its first line in one compare. A CRLF
template is the LF one with CR before LF; a block with blank lines or line
ends that switch is read by shape once more with plain LF line ends. Only
a block that breaks the grammar or a rule goes to a line-at-a-time reading
of the grammar above, which names the bad line.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, asdict

import numpy as np

from .errors import ConfigError, DataError, IonHeraldError
from . import polarization as pol
from .correlate import lag_reach_ns
from .biphoton import (AbsorberSetting, AnalyzerSetting, SourceModel,
                       arm_probabilities)

CHANNEL_APD = 0
CHANNEL_PMT_ONSET = 1
CHANNEL_NAMES = {CHANNEL_APD: "APD", CHANNEL_PMT_ONSET: "PMT_ONSET"}

FILE_MAGIC = "#MANIFEST "
MAX_DIGITS = 18             # of trial and t_ns, so every value fits int64
WRITE_BLOCK = 1 << 14       # records per block in write_events
READ_BLOCK = 1 << 20        # bytes per block in read_events
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


def _strictly_increasing(t: np.ndarray) -> None:
    """Bump duplicate sorted integer timestamps (post-rounding ties) by +1 ns,
    in place.

    Each stamp becomes max(its own, the previous bumped stamp + 1), in one
    pass: t[k] - k is non-decreasing after the bumps, so it is the running
    maximum of the input's t[k] - k, carried from block to block of
    CHECK_BLOCK stamps.
    """
    top = np.iinfo(np.int64).min
    for part in _chunks(len(t)):
        i = np.arange(part.start, part.stop)
        block = t[part]
        block -= i
        block[0] = max(block[0], top)
        np.maximum.accumulate(block, out=block)
        top = block[-1]
        block += i


def _finalize(apd_ns, apd_runs, onset_ns, onset_runs,
              manifest) -> EventStream:
    """The stream of the APD stamps, with their records as (trial, count)
    runs of counts >= 1 in any order, and of the onset stamps, with the
    stream's runs.

    Each channel's stamps are sorted and tie-bumped in place and become its
    t_ns column; the APD runs are stably sorted by trial and merged. Time
    order is trial order (see the module docstring), so a record takes the
    trial of its position within its channel."""
    for t in (apd_ns, onset_ns):
        t.sort()
        _strictly_increasing(t)
    order = np.argsort(apd_runs[0], kind="stable")
    return EventStream(_runs(*(c[order] for c in apd_runs)), apd_ns,
                       onset_runs, onset_ns, manifest)


def _runs(trial, count=None):
    """The maximal (trial, count) runs of records given in order, one each
    (count None) or as runs of counts >= 1: equal neighbours summed."""
    first = np.flatnonzero(np.diff(trial, prepend=trial[:1] - 1))
    if count is None:
        return trial[first], np.diff(first, append=len(trial))
    return trial[first], np.add.reduceat(count, first)


def simulate_run(m: RunManifest, counting: bool = False) -> EventStream:
    """Generate the event stream for one run. Deterministic given the manifest.

    With counting, the stream is the counting stream of the module
    docstring: a sub-stream of the full stream, up to tie bumps. It keeps
    every onset and every APD click of an absorbed pair, but of the other
    clicks only those within the default lag window's reach of an onset,
    and counts the rest in apd_dropped."""
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
    cand_t, cand_trial = cand_t[inside], cand_trial[inside]
    order = np.argsort(cand_trial)
    first = np.flatnonzero(np.diff(cand_trial[order], prepend=-1) > 0)
    onset_trial = cand_trial[order][first]
    onset_ns = np.rint(np.minimum.reduceat(cand_t[order], first)
                       * 1e9).astype(np.int64)

    # the (b) clicks: the regions' and the others' totals, the regions'
    # times, and in a full stream the others' times
    b_rate = pair_clicks * (1.0 - p_abs) + rates.dark_trigger_rate
    lo, hi = _regions(onset_ns, lag_reach_ns())
    near = _pieces(lo, hi, seq, n_trials)
    near_s = near[2].sum()
    near, near_count = _drawn(near, rng.poisson(b_rate * near[2]))
    n_near = int(near_count.sum())
    n_far = rng.poisson(b_rate * max(run_s - near_s, 0.0))

    # the APD stamps, drawn straight into the stream's column
    n_apd = n_a + n_near + (0 if counting else n_far)
    apd_ns = np.empty(n_apd, dtype=np.int64)
    apd_ns[:n_a] = np.rint(a_t * 1e9)
    _stamp_uniform(rng, apd_ns[n_a:n_a + n_near], near, near_count, seq)
    runs = [(a_trial, np.ones(n_a, np.int64)), (near[0], near_count)]
    if not counting and n_far:
        far = _pieces(np.append(-np.inf, hi), np.append(lo, np.inf), seq,
                      n_trials)
        far, far_count = _drawn(far, rng.multinomial(n_far,
                                                     far[2] / far[2].sum()))
        _stamp_uniform(rng, apd_ns[n_a + n_near:n_apd], far, far_count, seq)
        runs.append((far[0], far_count))
    stream = _finalize(apd_ns, [np.concatenate(c) for c in zip(*runs)],
                       onset_ns, (onset_trial, np.ones_like(onset_trial)), m)
    stream.apd_dropped = n_far if counting else 0
    return stream


def _drawn(pieces, count):
    """The pieces that drew at least one click, and their counts: an empty
    piece holds no stamp and takes no uniform draw."""
    kept = count > 0
    return tuple(column[kept] for column in pieces), count[kept]


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


def _pieces(lo, hi, seq: SequenceConfig, n_trials: int):
    """The parts of the disjoint ascending intervals [lo, hi] (s) that lie
    in detection windows: the trial, window offset (s) and length of each."""
    w = seq.detect_s
    # from the first window that ends after lo to the last that starts
    # before hi
    first = np.clip(np.floor((lo - seq.detect_offset_s - w) / seq.period_s)
                    + 1, 0, n_trials - 1)
    last = np.clip(np.ceil((hi - seq.detect_offset_s) / seq.period_s) - 1,
                   0, n_trials - 1)
    n = np.maximum(last - first + 1, 0).astype(np.int64)
    trial = np.repeat(first - np.cumsum(n) + n, n).astype(np.int64) \
        + np.arange(n.sum())
    start = _window_start(trial, seq)
    off = np.clip(np.repeat(lo, n) - start, 0.0, w)
    return trial, off, np.clip(np.repeat(hi, n) - start, 0.0, w) - off


def _stamp_uniform(rng, out, pieces, count, seq: SequenceConfig) -> None:
    """Stamp count[i] uniform times in piece i into out, in piece order,
    CHECK_BLOCK at a time."""
    trial, off, length = pieces
    ends = np.cumsum(count)
    for part in _chunks(len(out)):
        # the pieces with points in this block, and how many
        k, c = _runs_within(ends, count, part.start, part.stop)
        t = np.repeat(off[k], c)
        t += rng.random(len(t)) * np.repeat(length[k], c)
        # within its window, whatever the rounding
        np.minimum(t, seq.detect_s, out=t)
        t += np.repeat(_window_start(trial[k], seq), c)
        out[part] = np.rint(t * 1e9)


def _runs_within(ends, count, start, stop):
    """The runs of count[i] items, the last one before ends[i], with items
    start to stop - 1: as a slice of them, and how many each holds there."""
    k = slice(np.searchsorted(ends, start, side="right"),
              np.searchsorted(ends, stop - 1, side="right") + 1)
    return k, np.minimum(ends[k], stop) - np.maximum(ends[k] - count[k], start)


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
    """The manifest of manifest_to_dict's dict. Its sections are read key by
    key, so the keys that older files also hold (source.pair_rate,
    absorber.blocked, absorber.geometry_note) are passed over."""
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
                       SequenceConfig(**d["sequence"]), RateConfig(**d["rates"]))


def write_events(stream: EventStream, path) -> None:
    """Write a finalized stream: manifest line, then one tab-separated record
    per line (trial, channel, t_ns, phase). Timestamps stay exact integers.

    The two channels are interleaved in time order, WRITE_BLOCK records at
    a time: each onset goes after every APD stamp <= its own. Each
    channel's records of a block are formatted by record shape, and the
    onset lines are spliced into the APD text. A stream that breaks a rule
    (_stream_fault) is refused before the file is opened, with read_events'
    message less its path and line, such as "non-monotone timestamps in
    channel APD"; so a stream it writes reads back as itself."""
    if stream.apd_dropped:
        raise DataError(f"counting-mode stream left out {stream.apd_dropped} "
                        "APD clicks; its manifest promises them all")
    if fault := _stream_fault(stream):
        raise DataError(fault[0])
    header = FILE_MAGIC + json.dumps(manifest_to_dict(stream.manifest),
                                     sort_keys=True, separators=(",", ":"))
    before = np.searchsorted(stream.apd_ns, stream.onset_ns, side="right")
    at = before + np.arange(len(before))    # the onsets' places in the file
    channels = [(CHANNEL_NAMES[code].encode(), runs, np.cumsum(runs[1]), t)
                for code, runs, t in stream.channels()]
    with open(path, "wb") as fh:
        fh.write(header.encode("utf-8") + b"\n")
        for i in range(0, len(stream), WRITE_BLOCK):
            # the APD records a0:a1 and the onsets k0:k1 of this block
            k0, k1 = np.searchsorted(at, [i, i + WRITE_BLOCK])
            a0, a1 = i - k0, min(i + WRITE_BLOCK, len(stream)) - k1
            texts = []
            for (name, (trial, count), ends, t_ns), (j0, j1) in zip(
                    channels, ((a0, a1), (k0, k1))):
                k, c = _runs_within(ends, count, j0, j1)
                texts += _record_text(name, trial[k], c, t_ns[j0:j1])
            _write_records(fh, *texts, before[k0:k1] - a0)


def _write_records(fh, apd, apd_runs, onset, onset_runs, gaps):
    """Write the APD lines with the onset lines spliced in, onset k ahead of
    APD record gaps[k]: each channel's text and runs from _record_text."""
    cuts = _line_starts(apd_runs, gaps).tolist()
    ends = _line_starts(onset_runs, np.arange(len(gaps) + 1)).tolist()
    apd, onset = memoryview(apd), memoryview(onset)
    for a, b, o0, o1 in zip([0, *cuts], cuts, ends, ends[1:]):
        fh.write(apd[a:b])
        fh.write(onset[o0:o1])
    fh.write(apd[cuts[-1] if cuts else 0:])


def read_events(path) -> EventStream:
    """Parse an event file back into a stream, refused unless it is legal.

    The file is read twice, in blocks of READ_BLOCK bytes, into one buffer:
    once to count its line ends, which bounds its number of records, and
    once to parse each block, cut after its last line end, into each
    channel's columns; the partial line after the cut moves to the buffer's
    front. The onset t_ns column holds one record per trial, and grows only
    in a file that breaks a rule. Each block is read by record shape (see
    the module docstring): per run of lines of one shape, its trials are
    decoded into its stamps' place in the t_ns column and kept as (trial,
    count) runs, then its stamps are decoded there; a block that does not
    fit goes to _parse_records, which names the bad line. Besides the
    columns and runs, the buffer and one block's digit rows are held. Then
    _stream_fault, the writer's check, runs on the whole stream, and
    _record_line finds the line of a record at fault: the path must name a
    file that can be read again."""
    with open(path, "rb") as fh:
        manifest = _read_manifest(fh.readline(), path)
        n_trials = manifest.n_trials
        # room for a partial line of up to _MAX_LINE bytes, a block and LF
        buf = bytearray(READ_BLOCK + _MAX_LINE + 1)
        view = memoryview(buf)
        start, lines, size = fh.tell(), 0, 0
        while got := fh.readinto(view[:READ_BLOCK]):
            block = np.frombuffer(buf, np.uint8, got)
            lines += np.count_nonzero(block == _LF)
            size += got
        fh.seek(start)
        # a record is a line of at least _MIN_RECORD bytes with its line
        # end, and the last line end is optional
        n_max = min(lines + 1, (size + 1) // _MIN_RECORD)
        columns = [np.empty(n, np.int64) for n in (n_max, min(n_max, n_trials))]
        runs = tuple([_runs(c[:0])] for c in columns)  # per channel, by piece
        filled, lineno, kept = [0, 0], 2, 0     # kept: bytes of a partial line

        def parse_shaped(end) -> bool:
            # the block buf[:end] by record shape, straight into the columns;
            # False for a block that does not fit, or that parse() reads line
            # by line: a trial past the manifest's, onsets past their columns
            nonlocal lineno
            shaped = _shaped_lines(buf, end)
            if shaped is None:
                return False
            n_lines, shapes = shaped
            counts = [sum(len(digits) for digits, _, _ in r) for r in shapes]
            if (sum(filled) + sum(counts) > n_max
                    or filled[CHANNEL_PMT_ONSET] + counts[CHANNEL_PMT_ONSET]
                    > len(columns[CHANNEL_PMT_ONSET])):
                return False
            found = ([], [])
            for channel_runs, column, n, pieces in zip(shapes, columns,
                                                       filled, found):
                for digits, trial, t_ns in channel_runs:
                    k = n + len(digits)
                    _decode_digits(digits, trial, column[n:k])
                    if column[n:k].max() >= n_trials:
                        return False
                    pieces.append(_runs(column[n:k]))
                    _decode_digits(digits, t_ns, column[n:k])
                    n = k
            for pieces, more in zip(runs, found):
                pieces += more
            filled[:] = [n + k for n, k in zip(filled, counts)]
            lineno += n_lines
            return True

        def parse(end):
            nonlocal lineno
            if parse_shaped(end):
                return
            records, k = _parse_records(bytes(view[:end]), path, lineno,
                                        n_trials)
            if sum(filled) + sum(len(trial) for trial, _ in records) > n_max:
                raise DataError(f"{path}: changed while it was read")
            for code, (trial, t_ns) in enumerate(records):
                n = filled[code]
                stop = n + len(trial)
                # more onsets than trials: read on, _stream_fault names why
                if stop > len(columns[code]):
                    columns[code] = np.resize(columns[code], n_max)
                columns[code][n:stop] = t_ns
                runs[code].append(_runs(np.array(trial, np.int64)))
                filled[code] = stop
            lineno += k

        while got := fh.readinto(view[kept:kept + READ_BLOCK]):
            end = kept + got
            cut = buf.rfind(b"\n", 0, end) + 1
            if cut:
                parse(cut)
            kept = end - cut
            view[:kept] = view[cut:end]
            if kept > _MAX_LINE:        # longer than any record: raises below
                break
        if kept:                        # the last line end is optional
            buf[kept] = _LF
            parse(kept + 1)
    stream = EventStream(*(x for pieces, column, n in zip(runs, columns, filled)
                           for x in (_runs(*map(np.concatenate, zip(*pieces))),
                                     column[:n])), manifest=manifest)
    if fault := _stream_fault(stream, lambda *at: _record_line(path, *at)):
        message, at = fault
        line = "" if at is None else f"line {_record_line(path, *at)}: "
        raise DataError(f"{path}: {line}{message}")
    return stream


def _chunks(n: int):
    """Slices of CHECK_BLOCK records that cover n records."""
    return (slice(i, min(i + CHECK_BLOCK, n))
            for i in range(0, n, CHECK_BLOCK))


def _stream_fault(stream: EventStream, line=lambda code, index: code):
    """The first rule of a legal stream (module docstring) that `stream`
    breaks: its message, and the (channel, index) of the record at fault or
    None for a rule of a whole channel; None if it breaks none. The rules
    run in order: the runs' shape (the maximal runs of the channel's
    records, each count at least 1), digits, trial range, each channel's order (APD first), one
    onset per trial, the windows. Where records of both channels break the
    trial or window rule, the first of each that does is a candidate, and
    the lower line(code, index) wins: read_events passes the file line,
    write_events takes the APD record."""
    m, channels = stream.manifest, stream.channels()

    def first(found):       # the trial and t_ns of the winner, and its place
        code, i, trial = min(found, key=lambda at: line(*at[:2]))
        return trial, channels[code][2][i], (code, i)
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
    if late := [(code, int(count[:r].sum()), trial[r])
                for code, (trial, count), _ in channels
                for r in np.flatnonzero(trial >= m.n_trials)[:1]]:
        trial, _, at = first(late)
        return f"trial {trial} outside the manifest's {m.n_trials} trials", at
    for code, _, t in channels:
        for part in _chunks(len(t) - 1):    # stamp k + 1 against stamp k
            if np.any(t[part.start + 1:part.stop + 1] <= t[part]):
                return (f"non-monotone timestamps in channel "
                        f"{CHANNEL_NAMES[code]}"), None
    if len(np.unique(stream.onset_runs[0])) < len(stream.onset_ns):
        return "multiple PMT_ONSET records in one trial", None
    if outside := [(code, *at) for code, runs, t_ns in channels
                   if (at := _first_outside_window(m, runs, t_ns))]:
        trial, t, at = first(outside)
        return (f"{CHANNEL_NAMES[at[0]]} stamp {t} outside the detection "
                f"window of trial {trial}"), at
    return None


def _first_outside_window(m: RunManifest, runs, t_ns):
    """The index and trial of a channel's first stamp outside its trial's
    detection window, widened by k - 1 ns for k stamps of the trial in the
    channel, or None. The stamps increase (the order rule), so only a run
    whose first or last stamp is outside is searched, for the first."""
    trial, count = runs
    index = np.unique(trial, return_inverse=True)[1]
    k = np.bincount(index, count).astype(np.int64)   # the stamps of a trial
    lo, hi = _stamp_range(_window_start(trial, m.sequence),
                          m.sequence.detect_s, k[index])
    end = np.cumsum(count)
    start = end - count
    for r in np.flatnonzero((t_ns[start] < lo) | (t_ns[end - 1] > hi))[:1]:
        i = start[r]
        if t_ns[i] >= lo[r]:
            i += np.searchsorted(t_ns[i:end[r]], hi[r], side="right")
        return int(i), trial[r]
    return None


def _record_line(path, code: int, index: int) -> int:
    """File line number of the channel's record at `index`, in a file that
    has been parsed: each of its lines holds its channel's name once.

    The name is counted a READ_BLOCK at a time, each block cut after its
    last line end, up to the block that holds the record; the record is
    then found in that block."""
    name = b"\t%s\t" % CHANNEL_NAMES[code].encode()
    with open(path, "rb") as fh:
        fh.readline()
        lineno, rest = 2, b""
        while True:
            data = fh.read(READ_BLOCK)
            block = rest + data
            # the last line end is optional
            cut = block.rfind(b"\n") + 1 if data else len(block)
            count = block.count(name, 0, cut)
            if index < count:
                at = -1
                for _ in range(index + 1):
                    at = block.find(name, at + 1, cut)
                return lineno + block.count(b"\n", 0, at)
            if not data:
                raise DataError(f"{path}: changed while it was read")
            index -= count
            lineno += block.count(b"\n", 0, cut)
            rest = block[cut:]


# --- record text, a block at a time ----------------------------------------

_LF, _ZERO = 10, ord("0")
# the shortest record line with its LF, and the longest less its LF
_MIN_RECORD = len(b"0\tAPD\t0\tDETECT\n")
_MAX_LINE = len(b"%s\tPMT_ONSET\t%s\tDETECT\r"
                % (b"9" * MAX_DIGITS, b"9" * MAX_DIGITS))
# "0000" ... "9999" as uint32, so that one take() places four digits. In
# uint16 each temporary stays under glibc's 128 KiB mmap threshold; freeing a
# larger one raises that threshold, and the process's peak RSS by ~0.5 MB.
_DIGIT_QUADS = (np.arange(10000, dtype=np.uint16)[:, None]
                // np.array([1000, 100, 10, 1], np.uint16) % 10
                + ord("0")).astype(np.uint8).view(np.uint32).ravel()
_DIGIT_BYTES = _DIGIT_QUADS.view(np.uint8).reshape(-1, 4)
_CHANNEL_CODES = {name.encode(): code for code, name in CHANNEL_NAMES.items()}
_POW10 = 10 ** np.arange(1, MAX_DIGITS, dtype=np.int64)
# _decode_digits' steps over eight digits, one a byte: the shift to the next
# group, the scale of a group and the mask of the sums of pairs, fours and
# eights
_DIGIT_SUMS = [(np.uint64(8), np.uint64(10), np.uint64(0x00FF00FF00FF00FF)),
               (np.uint64(16), np.uint64(100), np.uint64(0x0000FFFF0000FFFF)),
               (np.uint64(32), np.uint64(10000), np.uint64(0xFFFFFFFF))]


def _record_text(name: bytes, trial, count, t_ns):
    """The lines of one channel's records, of trials (trial, count) runs, as
    uint8, and its runs of lines of one shape: the first line of each run,
    its byte offset in the text and its line length, with a last entry one
    past the end.

    Within a run, every trial and every t_ns has the same number of digits,
    so each line is a row of one template. A run ends where a column
    crosses a power of ten: between two trial runs, or in t_ns, which is in
    order (write_events checks it). A trial run's digits are made once."""
    ends = np.cumsum(count)
    width = np.searchsorted(_POW10, trial, side="right") + 1
    first = np.union1d([0, len(t_ns)], np.concatenate(
        [(ends - count)[1:][width[1:] != width[:-1]],
         np.searchsorted(t_ns, _POW10)]))
    starts = first[:-1]
    w_trial = width[np.searchsorted(ends, starts, side="right")]
    w_t = np.searchsorted(_POW10, t_ns[starts], side="right") + 1
    length = w_trial + len(name) + w_t + len(b"\t\t\tDETECT\n")
    offset = np.append(0, np.cumsum(np.diff(first) * length))
    text = np.empty(offset[-1], np.uint8)
    for j0, j1, b0, b1, wa, wb in zip(first.tolist(), first[1:].tolist(),
                                      offset.tolist(), offset[1:].tolist(),
                                      w_trial.tolist(), w_t.tolist()):
        template = b"%s\t%s\t%s\tDETECT\n" % (b"0" * wa, name, b"0" * wb)
        text[b0:b1] = np.frombuffer(template * (j1 - j0), np.uint8)
        rows = text[b0:b1].reshape(j1 - j0, -1)
        k, c = _runs_within(ends, count, j0, j1)
        digits = np.empty((len(c), wa), np.uint8)
        _put_digits(digits, trial[k], wa, wa)
        rows[:, :wa] = np.repeat(digits, c, axis=0)
        _put_digits(rows, t_ns[j0:j1], wa + len(name) + 2 + wb, wb)
    return text, (first, offset, np.append(length, 0))


def _line_starts(runs, j: np.ndarray) -> np.ndarray:
    """Byte offsets of the lines j (up to one past the last) in a text of
    the runs that _record_text returned."""
    first, offset, length = runs
    r = np.searchsorted(first, j, side="right") - 1
    return offset[r] + (j - first[r]) * length[r]


def _put_digits(rows: np.ndarray, v: np.ndarray, stop: int, width: int):
    """Write v, each of `width` digits, in rows[:, stop - width:stop].

    Four digits at a time, from the right, through a uint32 view of the
    rows; the leftmost four overlap the ones on their right when width is
    not a multiple of four."""
    if width < 4:
        rows[:, stop - width:stop] = _DIGIT_BYTES[v, 4 - width:]
        return
    top = v // 10 ** (width - 4)
    for start in range(stop - 4, stop - width, -4):
        high = v // 10000
        rows[:, start:start + 4].view(np.uint32)[:, 0] = _DIGIT_QUADS.take(
            v - high * 10000)
        v = high
    rows[:, stop - width:stop - width + 4].view(np.uint32)[:, 0] = \
        _DIGIT_QUADS.take(top)


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


def _shaped_lines(buf, end: int):
    """The block buf[:end], which ends in LF, by record shape: its number of
    lines and, per channel, APD first, the runs of lines of one shape that
    _shaped_rows returns. None if the block does not fit.

    A block that does not fit as it is, for blank lines or line ends that
    switch between LF and CRLF, is read once more with each CRLF rewritten
    as LF and its blank lines dropped; a CR left after that is not a line
    end, and the block does not fit."""
    runs = _channel_runs(buf, end)
    if runs is not None:
        return sum(len(digits) for r in runs for digits, _, _ in r), runs
    text = bytes(memoryview(buf)[:end]).replace(b"\r\n", b"\n")
    while b"\n\n" in text:
        text = text.replace(b"\n\n", b"\n")
    text = text.removeprefix(b"\n")
    if len(text) == end or b"\r" in text:
        return None
    runs = _channel_runs(text, len(text))
    return None if runs is None else (buf.count(b"\n", 0, end), runs)


def _channel_runs(buf, end: int):
    """Per channel, APD first, what _shaped_rows returns for its lines of
    the block buf[:end], which ends in LF; None if either is None.

    The onset lines are found with find, a run of adjacent ones at a time:
    of the two names, only PMT_ONSET holds a "_" and only APD an "A". The
    find only splits the block; the shape check then reads every line."""
    a = np.frombuffer(buf, np.uint8, end)
    runs = [0]          # the bounds of the APD and onset runs, alternating
    while (at := buf.find(b"_", runs[-1], end)) >= 0:
        start = buf.rfind(b"\n", 0, at) + 1
        apd = buf.find(b"A", at, end)
        stop = buf.rfind(b"\n", 0, apd) + 1 if apd >= 0 else end
        if stop <= start:
            return None
        runs += [start, stop]
    runs.append(end)
    shaped = []
    for name, first in ((b"APD", 0), (b"PMT_ONSET", 1)):
        pieces = [a[i:j] for i, j in zip(runs[first::2], runs[first + 1::2])]
        lines = _shaped_rows(pieces[0] if len(pieces) == 1
                             else np.concatenate([a[:0], *pieces]), name)
        if lines is None:
            return None
        shaped.append(lines)
    return shaped


def _shaped_rows(text: np.ndarray, name: bytes):
    """The lines of text (uint8, each ending in LF), split into runs where
    the line length changes, if every line has the shape of its run's
    first, a record of the channel `name` that ends in LF or CRLF. Per run,
    its rows less their template, which hold the digits in the digit
    columns and 0 elsewhere, and the trial and t_ns columns. Else None, and
    None past 2 * MAX_DIGITS runs: a channel in time order changes its
    digit counts fewer times, and each run scans the rest of the text.

    Every byte of a run is checked against its first line in one compare:
    the rows less the template, with '0' in the digit columns, lie within 9
    of 0 in the digit columns and are 0 in the others."""
    runs, start = [], 0
    while start < len(text):
        if len(runs) == 2 * MAX_DIGITS:
            return None
        head = text[start:start + _MAX_LINE + 1].tobytes()
        width = head.find(b"\n") + 1
        fields = head[:width].split(b"\t")
        if (len(fields) != 4 or fields[1] != name
                or fields[3] not in (b"DETECT\n", b"DETECT\r\n")
                or not all(len(f) <= MAX_DIGITS and f.isdigit()
                           for f in fields[::2])):
            return None
        # the run ends at the first row that does not end in LF
        rest = text[start:]
        n = len(rest) // width
        stops = np.flatnonzero(rest[width - 1:n * width:width] != _LF)
        n = int(stops[0]) if len(stops) else n
        t_stop = width - len(fields[3]) - 1
        trial = slice(0, len(fields[0]))
        t_ns = slice(t_stop - len(fields[2]), t_stop)
        template = np.frombuffer(head, np.uint8, width).copy()
        span = np.zeros(width, np.uint8)
        for f in (trial, t_ns):
            template[f], span[f] = _ZERO, 9
        digits = rest[:n * width].reshape(n, width) - template
        if not (digits <= span).all():
            return None
        runs.append((digits, trial, t_ns))
        start += n * width
    return runs


def _decode_digits(digits: np.ndarray, field: slice, out: np.ndarray):
    """The values of the decimal digits digits[:, field] into out.

    Eight digits at a time: their bytes, read as one little-endian uint64
    (first digit lowest) and shifted left until the last of them is the top
    byte, are summed in pairs, fours and eights by multiply, shift and mask.
    A field is followed by at least eight bytes of its row."""
    x, low = np.empty(len(digits), np.uint64), np.empty(len(digits), np.uint64)
    for start in range(field.start, field.stop, 8):
        k = min(8, field.stop - start)
        np.left_shift(digits[:, start:start + 8].view("<u8")[:, 0],
                      np.uint64(64 - 8 * k), out=x)
        for shift, scale, mask in _DIGIT_SUMS:
            np.right_shift(x, shift, out=low)
            x *= scale
            x += low
            x &= mask
        if start > field.start:
            out *= 10 ** k
            out += x.view(np.int64)
        else:
            out[:] = x


def _parse_records(text: bytes, path, lineno: int, n_trials: int):
    """Per channel, APD first, the trial and t_ns columns (lists) of the
    records in `text`, whose every line ends in LF, and its number of lines;
    `lineno` is the file line number of its first line.

    One line at a time, by the grammar of the module docstring; DataError
    names the first line that breaks it or whose trial is not below
    n_trials."""
    columns = (([], []), ([], []))
    lines = text.split(b"\n")[:-1]
    for i, line in enumerate(lines, lineno):
        line = line.removesuffix(b"\r")
        if not line:                # blank lines are skipped
            continue
        fields = line.split(b"\t")
        if (len(fields) != 4 or fields[1] not in _CHANNEL_CODES
                or fields[3] != b"DETECT"):
            shown = line.decode("utf-8", "backslashreplace")
            raise DataError(f"{path}: line {i}: malformed record "
                            f"{shown[:80]!r}")
        trial, name, t_ns, _ = fields
        if not (trial.isdigit() and t_ns.isdigit()):
            raise DataError(f"{path}: line {i}: non-integer field")
        if max(len(trial), len(t_ns)) > MAX_DIGITS:
            raise DataError(f"{path}: line {i}: integer field longer than "
                            f"{MAX_DIGITS} digits")
        trial = int(trial)
        if trial >= n_trials:
            raise DataError(f"{path}: line {i}: trial {trial} outside the "
                            f"manifest's {n_trials} trials")
        for column, value in zip(columns[_CHANNEL_CODES[name]],
                                 (trial, int(t_ns))):
            column.append(value)
    return columns, len(lines)
