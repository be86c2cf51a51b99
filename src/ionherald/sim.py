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

``simulate_run(m)`` is the full stream; its regions use the default reach,
``correlate.lag_reach_ns()``. In counting mode, ``simulate_run(m,
reach_ns)``, the stream keeps every onset, every (a) click and the (b)
clicks of the regions at reach_ns, and ``apd_dropped`` counts the (b)
clicks outside them, so total_apd is the full stream's in law. No click
left out rounds to a stamp within reach_ns of an onset, so a coincidence
histogram whose lags span at most reach_ns has the full stream's law. At
the default reach, every draw of a counting stream is the full stream's: it
is a sub-stream of the full stream, up to tie bumps. At another reach it
shares the onsets and (a) clicks, and the (b) clicks only in law. An event
file promises the full stream: ``write_events`` refuses a stream with
``apd_dropped > 0``.

A finalized stream is in time order. Where an APD and a PMT_ONSET record share
a nanosecond stamp, the APD record comes first. Within one channel, stamps
that tie after rounding are bumped +1 ns until they strictly increase, so each
channel's stamps are unique. Detection windows of adjacent trials are at least
1 ns apart, so stamps only tie within one trial and time order is also trial
order.

An event file is text. Its first line is ``#MANIFEST `` followed by the
manifest as one JSON object. Every later line is a record or blank::

    record  = trial TAB channel TAB t_ns TAB "DETECT"
    trial   = 1 to 18 ASCII digits
    t_ns    = 1 to 18 ASCII digits
    channel = "APD" | "PMT_ONSET"

Lines end in LF or CRLF, the last line end is optional, and blank lines are
skipped. Nothing else is a record: no sign, space, separator or non-ASCII
digit. A record's trial is one of the manifest's, below its n_trials, and
its stamp lies in that trial's detection window, from its first rounded
nanosecond to its last plus k - 1 ns for a trial with k records in the
channel (the tie bumps above).
``write_events`` refuses a stream it cannot write in this grammar, and
``read_events`` names the first line that breaks it.
"""

from __future__ import annotations

import itertools
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

    @property
    def duty_cycle(self) -> float:
        return self.detect_ms * self.rep_rate / 1000.0


@dataclass(frozen=True)
class RateConfig:
    """Detection-phase rates and per-event probabilities.

    Heralds whose partner photon was lost enter through eta_herald < 1;
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
        for name in ("pair_rate", "dark_trigger_rate", "false_onset_rate",
                     "onset_latency_us", "onset_jitter_ns"):
            if not 0.0 <= getattr(self, name) < np.inf:
                raise ConfigError(f"{name} must be finite and >= 0")
        # eta_* = 0 is degenerate but legal (yields empty channels)
        for name in ("eta_trigger", "eta_herald", "branching_s"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ConfigError(f"{name} outside [0, 1]")


@dataclass(frozen=True)
class RunManifest:
    """Everything that determines an output stream, seed included."""

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
        # the pair rate is stated in two places; they must agree
        if abs(self.source.pair_rate - self.rates.pair_rate) \
                > 1e-9 * max(self.source.pair_rate, self.rates.pair_rate):
            raise ConfigError(
                f"pair_rate mismatch: source {self.source.pair_rate} "
                f"vs rates {self.rates.pair_rate}")
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
        return int(np.floor(self.duration_s * self.sequence.rep_rate + 1e-9))


@dataclass
class EventStream:
    """Column-oriented event stream (one run), time-ordered after finalize()."""

    trial: np.ndarray       # int64
    channel: np.ndarray     # int8, CHANNEL_APD / CHANNEL_PMT_ONSET
    t_ns: np.ndarray        # int64
    manifest: RunManifest | None = None
    apd_dropped: int = 0    # APD clicks left out in counting mode

    def __len__(self):
        return len(self.t_ns)

    def channel_times(self, code: int) -> np.ndarray:
        return self.t_ns[self.channel == code]

    def apd_times(self) -> np.ndarray:
        return self.channel_times(CHANNEL_APD)

    def onset_times(self) -> np.ndarray:
        return self.channel_times(CHANNEL_PMT_ONSET)

    def __eq__(self, other):
        if not isinstance(other, EventStream):
            return NotImplemented
        return (np.array_equal(self.trial, other.trial)
                and np.array_equal(self.channel, other.channel)
                and np.array_equal(self.t_ns, other.t_ns)
                and self.apd_dropped == other.apd_dropped)


def _strictly_increasing(t: np.ndarray) -> None:
    """Bump duplicate sorted integer timestamps (post-rounding ties) by +1 ns,
    in place.

    Each stamp becomes max(its own, the previous bumped stamp + 1), in one
    pass: t[k] - k is non-decreasing after the bumps, so it is the running
    maximum of the input's t[k] - k.
    """
    i = np.arange(len(t))
    t -= i
    np.maximum.accumulate(t, out=t)
    t += i


def _finalize(apd_ns, apd_per_trial, onset_ns, onset_per_trial,
              manifest) -> EventStream:
    """Merge the APD and onset columns into one stream in the output order
    (see the module docstring).

    apd_ns and onset_ns are int64 stamps in any order; each is sorted and
    tie-bumped in place. *_per_trial count each trial's records in the
    channel. Time order is trial order, so a channel's trial column is its
    counts laid out in trial order: each record takes the trial of its
    position within its own channel. Besides the output columns, one bool
    mask of the stream's length is held at the peak.
    """
    for t in (apd_ns, onset_ns):
        t.sort()
        _strictly_increasing(t)
    # each onset goes after every APD stamp <= its own
    before = np.searchsorted(apd_ns, onset_ns, side="right")
    at = before + np.arange(len(onset_ns))
    t_ns = np.insert(apd_ns, before, onset_ns)
    channel = np.full(len(t_ns), CHANNEL_APD, dtype=np.int8)
    channel[at] = CHANNEL_PMT_ONSET
    # each trial's run of APD records, widened by the onsets that go into
    # it or at its end; then each onset takes its own trial
    runs = np.flatnonzero(apd_per_trial > 0)
    width = apd_per_trial[runs] + np.bincount(
        np.searchsorted(np.cumsum(apd_per_trial[runs]), before),
        minlength=len(runs))
    trial = np.repeat(runs, width) if len(runs) \
        else np.empty(len(t_ns), dtype=np.int64)
    onsets = np.flatnonzero(onset_per_trial > 0)
    trial[at] = np.repeat(onsets, onset_per_trial[onsets])
    return EventStream(trial, channel, t_ns, manifest)


def simulate_run(m: RunManifest, reach_ns: int | None = None) -> EventStream:
    """Generate the event stream for one run. Deterministic given the manifest.

    With reach_ns, the stream is the counting-mode stream of the module
    docstring: it keeps every onset and every APD click of an absorbed
    pair, but of the other clicks only those within reach_ns of an onset,
    and counts the rest in apd_dropped."""
    rng = np.random.default_rng(m.seed)
    seq, rates, n_trials = m.sequence, m.rates, m.n_trials
    (marginal,), (joint,) = arm_probabilities(m.source, m.absorber,
                                              [m.analyzer])
    pair_clicks = m.source.pair_rate * rates.eta_trigger * marginal
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
    full = reach_ns is None
    lo, hi = _regions(onset_ns, lag_reach_ns() if full else reach_ns)
    near = _pieces(lo, hi, seq, n_trials)
    near_count = rng.poisson(b_rate * near[2])
    n_near = int(near_count.sum())
    n_far = rng.poisson(b_rate * max(run_s - near[2].sum(), 0.0))

    apd_ns = np.empty(n_a + n_near + (n_far if full else 0), dtype=np.int64)
    apd_ns[:n_a] = np.rint(a_t * 1e9)
    per_trial = np.bincount(a_trial, minlength=n_trials)
    _stamp_uniform(rng, apd_ns[n_a:n_a + n_near], near, near_count, seq)
    np.add.at(per_trial, near[0], near_count)
    if full and n_far:
        far = _pieces(np.append(-np.inf, hi), np.append(lo, np.inf), seq,
                      n_trials)
        far_count = rng.multinomial(n_far, far[2] / far[2].sum())
        _stamp_uniform(rng, apd_ns[n_a + n_near:], far, far_count, seq)
        np.add.at(per_trial, far[0], far_count)
    stream = _finalize(apd_ns, per_trial, onset_ns,
                       np.bincount(onset_trial, minlength=n_trials), m)
    stream.apd_dropped = 0 if full else n_far
    return stream


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
        k = slice(np.searchsorted(ends, part.start, side="right"),
                  np.searchsorted(ends, part.stop - 1, side="right") + 1)
        c = (np.minimum(ends[k], part.stop)
             - np.maximum(ends[k] - count[k], part.start))
        t = np.repeat(off[k], c)
        t += rng.random(len(t)) * np.repeat(length[k], c)
        # within its window, whatever the rounding
        np.minimum(t, seq.detect_s, out=t)
        t += np.repeat(_window_start(trial[k], seq), c)
        out[part] = np.rint(t * 1e9)


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
            "blocked": _state_to_json(m.absorber.blocked),
            "allowed": _state_to_json(m.absorber.allowed),
            "geometry_note": m.absorber.geometry_note,
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
            "pair_rate": m.source.pair_rate,
        },
        "sequence": asdict(m.sequence),
        "rates": asdict(m.rates),
    }


def manifest_from_dict(d: dict) -> RunManifest:
    ab = d["absorber"]
    absorber = AbsorberSetting(
        pol.BASES[ab["basis"]], _state_from_json(ab["blocked"]),
        _state_from_json(ab["allowed"]), ab.get("geometry_note", ""))
    an = d["analyzer"]
    analyzer = AnalyzerSetting(_state_from_json(an["projector_state"]),
                               an.get("hwp_angle"))
    s = d["source"]
    ideal = pol.TwoQubitDensityMatrix(
        np.array(s["ideal_state_re"]) + 1j * np.array(s["ideal_state_im"]))
    source = SourceModel(ideal, s["singlet_weight"], s["pair_rate"])
    return RunManifest(d["seed"], d["duration_s"], absorber, analyzer, source,
                       SequenceConfig(**d["sequence"]), RateConfig(**d["rates"]))


def write_events(stream: EventStream, path) -> None:
    """Write a finalized stream: manifest line, then one tab-separated record
    per line (trial, channel, t_ns, phase). Timestamps stay exact integers.

    A stream whose records the grammar in the module docstring cannot hold
    is refused before the file is opened."""
    if stream.manifest is None:
        raise DataError("stream has no manifest; cannot write a valid file")
    if stream.apd_dropped:
        raise DataError(f"counting-mode stream left out {stream.apd_dropped} "
                        "APD clicks; its manifest promises them all")
    for name, column in (("trial", stream.trial), ("t_ns", stream.t_ns)):
        if len(column) and not (column.min() >= 0
                                and column.max() < 10 ** MAX_DIGITS):
            raise DataError(f"{name} outside [0, 1e{MAX_DIGITS}): not "
                            f"writable as 1 to {MAX_DIGITS} digits")
    # the two codes are 0 and 1
    if len(stream) and not (stream.channel.min() >= CHANNEL_APD
                            and stream.channel.max() <= CHANNEL_PMT_ONSET):
        raise DataError("stream has a channel code other than APD/PMT_ONSET")
    if _unordered_channel(stream) is not None:
        raise DataError("stream not finalized: non-monotone timestamps")
    header = FILE_MAGIC + json.dumps(manifest_to_dict(stream.manifest),
                                     sort_keys=True, separators=(",", ":"))
    with open(path, "wb") as fh:
        fh.write(header.encode("utf-8") + b"\n")
        for i in range(0, len(stream), WRITE_BLOCK):
            block = slice(i, i + WRITE_BLOCK)
            fh.write(_record_text(stream.trial[block], stream.channel[block],
                                  stream.t_ns[block]))


def read_events(path) -> EventStream:
    """Parse an event file back into a stream; validates format and ordering.

    The file is read twice, in blocks of READ_BLOCK bytes: once to count its
    line ends, which bounds its number of records, and once to parse each
    block, cut after its last line end, straight into the columns. Besides
    the columns, one block and its parse are held; the order and window
    checks then run CHECK_BLOCK records at a time. The path must name a
    file that can be read again."""
    with open(path, "rb") as fh:
        manifest = _read_manifest(fh.readline(), path)
        n_trials = manifest.n_trials
        start, lines, size = fh.tell(), 0, 0
        while chunk := fh.read(READ_BLOCK):
            lines += np.count_nonzero(np.frombuffer(chunk, np.uint8) == _LF)
            size += len(chunk)
        fh.seek(start)
        # a record is a line of at least _MIN_RECORD bytes with its line
        # end, and the last line end is optional
        n_max = min(lines + 1, (size + 1) // _MIN_RECORD)
        columns = (np.empty(n_max, np.int64), np.empty(n_max, np.int8),
                   np.empty(n_max, np.int64))
        n, lineno, rest = 0, 2, b""

        def parse(buf):
            nonlocal n, lineno
            records, k = _parse_records(buf, path, lineno, n_trials)
            stop = n + len(records[0])
            if stop > n_max:
                raise DataError(f"{path}: changed while it was read")
            for column, values in zip(columns, records):
                column[n:stop] = values
            n, lineno = stop, lineno + k

        while chunk := fh.read(READ_BLOCK):
            block = rest + chunk
            cut = block.rfind(b"\n") + 1
            rest = block[cut:]
            if cut:
                parse(block[:cut])
            if len(rest) > _MAX_LINE:
                # longer than any record, so this raises
                parse(rest + b"\n")
        if rest:                        # the last line end is optional
            parse(rest + b"\n")
    stream = EventStream(*(column[:n] for column in columns),
                         manifest=manifest)
    code = _unordered_channel(stream)
    if code is not None:
        raise DataError(f"{path}: non-monotone timestamps in channel "
                        f"{CHANNEL_NAMES[code]}")
    # at most one onset per trial is a hard invariant of the format
    onset_trials = stream.trial[stream.channel == CHANNEL_PMT_ONSET]
    if len(onset_trials) != len(np.unique(onset_trials)):
        raise DataError(f"{path}: multiple PMT_ONSET records in one trial")
    i = _first_outside_window(stream)
    if i is not None:
        raise DataError(f"{path}: line {_record_line(path, i)}: "
                        f"{CHANNEL_NAMES[stream.channel[i]]} stamp "
                        f"{stream.t_ns[i]} outside the detection window of "
                        f"trial {stream.trial[i]}")
    return stream


def _chunks(n: int):
    """Slices of CHECK_BLOCK records that cover n records."""
    return (slice(i, min(i + CHECK_BLOCK, n))
            for i in range(0, n, CHECK_BLOCK))


def _unordered_channel(stream: EventStream) -> int | None:
    """The first channel, APD before PMT_ONSET, whose stamps do not strictly
    increase, or None; the stamps must be >= 0."""
    for code in (CHANNEL_APD, CHANNEL_PMT_ONSET):
        last = np.array([-1])
        for part in _chunks(len(stream)):
            t = np.concatenate(
                [last, stream.t_ns[part][stream.channel[part] == code]])
            if np.any(t[1:] <= t[:-1]):
                return code
            last = t[-1:]
    return None


def _first_outside_window(stream: EventStream) -> int | None:
    """Index of the first record whose stamp lies outside its trial's
    detection window, widened by k - 1 ns for k records of the trial in the
    channel, or None."""
    seq, n_trials = stream.manifest.sequence, stream.manifest.n_trials
    if n_trials <= len(stream):
        trials, index = np.arange(n_trials), stream.trial
    else:                   # fewer records than trials: number those seen
        trials, index = np.unique(stream.trial, return_inverse=True)
    t_start = np.repeat(_window_start(trials, seq), 2)
    counts = np.zeros(len(t_start), np.int64)
    for part in _chunks(len(stream)):
        np.add.at(counts, 2 * index[part] + stream.channel[part], 1)
    lo, hi = _stamp_range(t_start, seq.detect_s, counts)
    for part in _chunks(len(stream)):
        key = 2 * index[part] + stream.channel[part]
        t = stream.t_ns[part]
        outside = np.flatnonzero((t < lo[key]) | (t > hi[key]))
        if len(outside):
            return part.start + int(outside[0])
    return None


def _record_line(path, index: int) -> int:
    """File line number of the record at `index`; blank lines are skipped."""
    with open(path, "rb") as fh:
        lines = (k for k, text in enumerate(fh, start=1)
                 if k > 1 and text.strip(b"\r\n"))
        return next(itertools.islice(lines, index, None))


# --- record text, a block at a time ----------------------------------------

_TAB, _LF, _CR, _ZERO = 9, 10, 13, ord("0")
# the shortest record line with its LF, and the longest less its LF
_MIN_RECORD = len(b"0\tAPD\t0\tDETECT\n")
_MAX_LINE = len(b"%s\tPMT_ONSET\t%s\tDETECT\r"
                % (b"9" * MAX_DIGITS, b"9" * MAX_DIGITS))
# "0000" ... "9999" as uint32, so that one take() places four digits
_DIGIT_QUADS = np.frombuffer(b"".join(b"%04d" % i for i in range(10000)),
                             np.uint32)
_POW10 = 10 ** np.arange(1, MAX_DIGITS, dtype=np.int64)
_PMT_ONSET = np.frombuffer(b"PMT_ONSET", np.uint8)


def _digit_counts(v: np.ndarray) -> tuple[np.ndarray | None, int]:
    """Number of digits of each value (None if all have the same number),
    and the largest."""
    width = len(str(v.max()))
    if len(str(v.min())) == width:
        return None, width
    return np.searchsorted(_POW10, v, side="right") + 1, width


def _put_digits(rows: np.ndarray, v: np.ndarray, stop: int, width: int):
    """Write v zero-padded to `width` digits in rows[:, stop - width:stop]."""
    quads = np.empty((len(v), -(-width // 4)), np.uint32)
    for k in range(quads.shape[1] - 1, -1, -1):
        high = v // 10000
        quads[:, k] = _DIGIT_QUADS.take(v - high * 10000)
        v = high
    rows[:, stop - width:stop] = quads.view(np.uint8)[:, -width:]


def _record_text(trial, channel, t_ns) -> np.ndarray:
    """The file text of a block of records, as uint8.

    Each record is laid out in a row wide enough for the block's longest
    trial, channel name and t_ns; then the bytes that pad shorter ones are
    dropped."""
    n_trial, w_trial = _digit_counts(trial)
    n_t, w_t = _digit_counts(t_ns)
    onset = channel == CHANNEL_PMT_ONSET
    at = np.flatnonzero(onset)
    w_name = len(_PMT_ONSET) if len(at) else len("APD")
    layout = b"%s\t%s\t%s\tDETECT\n" % (b"0" * w_trial, b"APD".ljust(w_name),
                                       b"0" * w_t)
    name = w_trial + 1                  # first column of the channel name
    t_col = name + w_name + 1           # first column of t_ns
    rows = np.empty((len(t_ns), len(layout)), np.uint8)
    rows[:] = np.frombuffer(layout, np.uint8)
    _put_digits(rows, trial, w_trial, w_trial)
    _put_digits(rows, t_ns, t_col + w_t, w_t)
    if len(at):
        rows[at, name:name + w_name] = _PMT_ONSET
    keep = np.ones(rows.shape, bool)
    keep[:, name + 3:name + w_name] = onset[:, None]
    if n_trial is not None:
        keep[:, :w_trial] = np.arange(w_trial) >= (w_trial - n_trial)[:, None]
    if n_t is not None:
        keep[:, t_col:t_col + w_t] = np.arange(w_t) >= (w_t - n_t)[:, None]
    return rows[keep]


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


def _parse_records(buf: bytes, path, lineno: int, n_trials: int):
    """The trial, channel and t_ns columns of the records in `buf`, whose
    every line ends in LF, and its number of lines; `lineno` is the file
    line number of its first line. A trial must be below n_trials.

    Each check runs over all lines at once; DataError names the first line
    that breaks the grammar."""
    a = np.frombuffer(buf, np.uint8)
    ends = np.flatnonzero(a == _LF)
    starts = np.empty_like(ends)
    starts[0] = 0
    starts[1:] = ends[:-1] + 1
    stops = ends
    if b"\r" in buf:
        stops = ends - ((a[ends - 1] == _CR) & (ends > starts))
    line = np.flatnonzero(stops > starts)           # blank lines are skipped
    starts, stops = starts[line], stops[line]
    tabs = np.flatnonzero(a == _TAB)
    n = len(line)
    # with 3n tabs, every line holds three if its group of three lies in it
    if len(tabs) != 3 * n or not (np.all(tabs[0::3] >= starts)
                                  and np.all(tabs[2::3] < stops)):
        count = np.searchsorted(tabs, stops) - np.searchsorted(tabs, starts)
        n = int(np.argmax(count != 3))      # check the lines before it
    tab1, tab2, tab3 = tabs[:3 * n].reshape(n, 3).T
    first, stop = starts[:n], stops[:n]
    onset = tab2 - tab1 == len(_PMT_ONSET) + 1
    malformed = ~onset & (tab2 - tab1 != len("APD") + 1) | (stop - tab3 != 7)
    for k, c in enumerate(b"APD", 1):
        malformed |= ~onset & (a[k:].take(tab1) != c)
    at = np.flatnonzero(onset)
    malformed[at] |= (a.take(tab1[at, None] + np.arange(1, 10))
                      != _PMT_ONSET).any(axis=1)
    for k, c in enumerate(b"DETECT", 1):
        malformed |= a[k:].take(tab3, mode="clip") != c
    # a well-formed line holds no digit outside its two number fields
    n_trial, n_t = tab1 - first, tab3 - tab2 - 1
    is_digit = a[:stop[-1] if n else 0] - np.uint8(_ZERO) <= 9
    not_integer = (n_trial == 0) | (n_t == 0)
    if np.count_nonzero(is_digit) != (n_trial + n_t).sum():
        not_integer |= np.add.reduceat(is_digit, first) != n_trial + n_t
    too_long = (n_trial > MAX_DIGITS) | (n_t > MAX_DIGITS)
    bad = malformed | not_integer | too_long
    if bad.any() or n < len(line):
        i = int(np.argmax(bad)) if bad.any() else n
        where = f"{path}: line {lineno + line[i]}"
        if i == n or malformed[i]:
            text = buf[starts[i]:stops[i]].decode("utf-8", "backslashreplace")
            raise DataError(f"{where}: malformed record {text[:80]!r}")
        if not_integer[i]:
            raise DataError(f"{where}: non-integer field")
        raise DataError(f"{where}: integer field longer than {MAX_DIGITS} "
                        f"digits")
    trial = _field_values(a, tab1, n_trial)
    late = np.flatnonzero(trial >= n_trials)
    if len(late):
        i = late[0]
        raise DataError(f"{path}: line {lineno + line[i]}: trial {trial[i]} "
                        f"outside the manifest's {n_trials} trials")
    return (trial,
            np.where(onset, CHANNEL_PMT_ONSET, CHANNEL_APD).astype(np.int8),
            _field_values(a, tab3, n_t)), len(ends)


def _field_values(a: np.ndarray, stop: np.ndarray, length: np.ndarray):
    """Values of the decimal fields a[stop - length:stop], which the caller
    has checked are 1 to MAX_DIGITS ASCII digits; one pass per digit
    position."""
    width = int(length.max(initial=0))
    full = int(length.min(initial=width))   # digits every field has
    at = stop - width
    value = np.zeros(len(stop), np.int64)
    for k in range(width):
        if k < width - full:    # some fields start after this position
            digit = np.where(length >= width - k,
                             a.take(at, mode="clip"), _ZERO)
        else:
            digit = a.take(at)
        value *= 10
        value += digit
        at += 1
    # each position added its ASCII offset: subtract 48 * 11...1
    return value - _ZERO * ((10 ** width - 1) // 9)
