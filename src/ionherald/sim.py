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

Streams are reproducible: a manifest (including its seed) fully determines
the byte content of the written event file. Random draws happen in a fixed
documented order (pair counts, pair times, trigger uniforms, absorption
uniforms, latencies, jitters, dark counts, dark times, false-onset counts,
false-onset times).

A finalized stream is in time order. Where an APD and a PMT_ONSET record share
a nanosecond stamp, the APD record comes first. Within one channel, stamps
that tie after rounding are bumped +1 ns until they strictly increase, so each
channel's stamps are unique. Detection windows of adjacent trials are at least
1 ns apart, so stamps only tie within one trial and time order is also trial
order.

In counting mode, ``simulate_run(m, reach_ns)``, a stream keeps only what a
coincidence histogram whose lags span at most reach_ns nanoseconds can use.
It makes every random draw of the full stream and keeps every onset. It keeps
the APD clicks (pair clicks and dark triggers) of a trial only if an onset
stamp lies within reach_ns of the trial's stamp range: from the first rounded
nanosecond of its detection window to the last, plus k - 1 ns for a trial of
k APD clicks (the furthest a tie bump can move a stamp). The other trials'
clicks are never stamped, and ``apd_dropped`` counts them, so the histogram
of a counting-mode stream equals the full stream's in every field. A kept
click has its full-stream stamp as long as no tie bump carries a stamp from
one window into the next; so where the narrowest gap between windows, in ns,
is not larger than the most APD clicks of any one trial, every trial is kept.
An event file promises the full stream: ``write_events`` refuses a stream
with ``apd_dropped > 0``.

An event file is text. Its first line is ``#MANIFEST `` followed by the
manifest as one JSON object. Every later line is a record or blank::

    record  = trial TAB channel TAB t_ns TAB "DETECT"
    trial   = 1 to 18 ASCII digits
    t_ns    = 1 to 18 ASCII digits
    channel = "APD" | "PMT_ONSET"

Lines end in LF or CRLF, the last line end is optional, and blank lines are
skipped. Nothing else is a record: no sign, space, separator or non-ASCII
digit. A record's trial is one of the manifest's, below its n_trials.
``write_events`` refuses a stream it cannot write in this grammar, and
``read_events`` names the first line that breaks it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, asdict

import numpy as np

from .errors import ConfigError, DataError, IonHeraldError
from . import polarization as pol
from .biphoton import (AbsorberSetting, AnalyzerSetting, SourceModel,
                       arm_probabilities)

CHANNEL_APD = 0
CHANNEL_PMT_ONSET = 1
CHANNEL_NAMES = {CHANNEL_APD: "APD", CHANNEL_PMT_ONSET: "PMT_ONSET"}

FILE_MAGIC = "#MANIFEST "
MAX_DIGITS = 18             # of trial and t_ns, so every value fits int64
WRITE_BLOCK = 1 << 14       # records per block in write_events
READ_BLOCK = 1 << 20        # bytes per block in read_events


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


def _strictly_increasing(t: np.ndarray) -> np.ndarray:
    """Bump duplicate sorted integer timestamps (post-rounding ties) by +1 ns.

    Each stamp becomes max(its own, the previous bumped stamp + 1), in one
    pass: t[k] - k is non-decreasing after the bumps, so it is the running
    maximum of the input's t[k] - k.
    """
    i = np.arange(len(t))
    return np.maximum.accumulate(t - i) + i


def _sorted_column(trial, t_ns):
    """One channel in time order: the trial of each event and its stamp.

    Time order is trial order, so the trial column is the sorted trials.
    """
    per_trial = np.bincount(trial)
    return (np.repeat(np.arange(len(per_trial)), per_trial),
            _strictly_increasing(np.sort(t_ns)))


def _finalize(apd_trial, apd_t_ns, onset_trial, onset_t_ns,
              manifest) -> EventStream:
    """Merge the APD and onset columns into one stream in the output order
    (see the module docstring)."""
    apd_trial, apd_t = _sorted_column(apd_trial, apd_t_ns)
    onset_trial, onset_t = _sorted_column(onset_trial, onset_t_ns)
    # each onset goes after every APD stamp <= its own
    at = (np.searchsorted(apd_t, onset_t, side="right")
          + np.arange(len(onset_t)))
    channel = np.full(len(apd_t) + len(onset_t), CHANNEL_APD, dtype=np.int8)
    channel[at] = CHANNEL_PMT_ONSET
    is_apd = channel == CHANNEL_APD
    trial = np.empty(len(channel), dtype=np.int64)
    trial[is_apd] = apd_trial
    trial[at] = onset_trial
    t_ns = np.empty(len(channel), dtype=np.int64)
    t_ns[is_apd] = apd_t
    t_ns[at] = onset_t
    return EventStream(trial, channel, t_ns, manifest)


def simulate_run(m: RunManifest, reach_ns: int | None = None) -> EventStream:
    """Generate the event stream for one run. Deterministic given the manifest.

    With reach_ns, the stream is the counting-mode stream of the module
    docstring: it keeps every onset, but only the APD clicks of the trials
    that can reach an onset within reach_ns, and counts the rest in
    apd_dropped."""
    rng = np.random.default_rng(m.seed)
    seq, rates = m.sequence, m.rates
    n_trials = m.n_trials
    w = seq.detect_s

    if n_trials == 0:
        empty = np.empty(0, dtype=np.int64)
        return _finalize(empty, empty, empty, empty, m)

    (marginal,), (joint,) = arm_probabilities(m.source, m.absorber,
                                              [m.analyzer])
    p_trig = rates.eta_trigger * marginal
    if rates.eta_herald > 0.0 and marginal > 0.0:
        p_abs = rates.eta_herald * (joint / marginal) * rates.branching_s
    else:
        p_abs = 0.0

    t_start = (np.arange(n_trials, dtype=np.float64) * seq.period_s
               + seq.detect_offset_s)

    # fixed draw order (see module docstring)
    n_pair = rng.poisson(m.source.pair_rate * w, n_trials)
    total_pairs = int(n_pair.sum())
    pair_u = rng.random(total_pairs)
    u_trig = rng.random(total_pairs)
    u_abs = rng.random(total_pairs)
    latency_s = rng.exponential(rates.onset_latency_us * 1e-6, total_pairs)
    jitter_s = rng.normal(0.0, rates.onset_jitter_ns * 1e-9, total_pairs) \
        if rates.onset_jitter_ns > 0 else np.zeros(total_pairs)
    n_dark = rng.poisson(rates.dark_trigger_rate * w, n_trials)
    dark_u = rng.random(int(n_dark.sum()))
    n_false = rng.poisson(rates.false_onset_rate * w, n_trials)
    false_u = rng.random(int(n_false.sum()))

    pair_trial = np.repeat(np.arange(n_trials), n_pair)
    pair_t = t_start[pair_trial] + pair_u * w

    fired = u_trig < p_trig
    apd_pair_t = pair_t[fired]
    apd_pair_trial = pair_trial[fired]

    onset_mask = fired & (u_abs < p_abs)
    delay = np.maximum(latency_s[onset_mask] + jitter_s[onset_mask], 1e-9)
    cand_t = pair_t[onset_mask] + delay
    cand_trial = pair_trial[onset_mask]

    false_trial = np.repeat(np.arange(n_trials), n_false)
    false_t = t_start[false_trial] + false_u * w

    # first onset candidate per trial wins; later ones never happen because
    # the ion has already left the metastable manifold
    all_cand_t = np.concatenate([cand_t, false_t])
    all_cand_trial = np.concatenate([cand_trial, false_trial])
    in_window = all_cand_t < t_start[all_cand_trial] + w
    all_cand_t = all_cand_t[in_window]
    all_cand_trial = all_cand_trial[in_window]
    if len(all_cand_t):
        order = np.lexsort((all_cand_t, all_cand_trial))
        tr_sorted = all_cand_trial[order]
        first = np.ones(len(tr_sorted), dtype=bool)
        first[1:] = tr_sorted[1:] != tr_sorted[:-1]
        onset_t = all_cand_t[order][first]
        onset_trial = tr_sorted[first]
    else:
        onset_t = np.empty(0)
        onset_trial = np.empty(0, dtype=np.int64)

    onset_ns = np.rint(onset_t * 1e9).astype(np.int64)

    apd_dropped = 0
    if reach_ns is not None:
        per_trial = np.bincount(apd_pair_trial, minlength=n_trials) + n_dark
        keep = _reached_trials(t_start, w, per_trial, onset_ns, reach_ns)
        apd_dropped = int(per_trial[~keep].sum())
        kept_pair = keep[apd_pair_trial]
        apd_pair_t = apd_pair_t[kept_pair]
        apd_pair_trial = apd_pair_trial[kept_pair]
        dark_u = dark_u[np.repeat(keep, n_dark)]
        n_dark = np.where(keep, n_dark, 0)

    dark_trial = np.repeat(np.arange(n_trials), n_dark)
    dark_t = t_start[dark_trial] + dark_u * w

    apd_t = np.concatenate([apd_pair_t, dark_t])
    apd_trial = np.concatenate([apd_pair_trial, dark_trial])
    stream = _finalize(apd_trial, np.rint(apd_t * 1e9).astype(np.int64),
                       onset_trial, onset_ns, m)
    stream.apd_dropped = apd_dropped
    return stream


def _reached_trials(t_start, w, per_trial, onset_ns, reach_ns) -> np.ndarray:
    """Per trial, whether one of its APD stamps can lie within reach_ns of
    an onset stamp (see the module docstring); all True where a tie bump
    could carry a stamp into the next trial's window."""
    lo = np.rint(t_start * 1e9).astype(np.int64)
    # t_start + u * w <= t_start + w in floating point for u < 1
    hi = np.rint((t_start + w) * 1e9).astype(np.int64)
    if len(lo) > 1 and np.min(lo[1:] - hi[:-1]) <= per_trial.max():
        return np.ones(len(lo), dtype=bool)
    # k tied stamps of one trial are bumped at most k - 1 ns past its window
    hi += np.maximum(per_trial - 1, 0)
    first = np.searchsorted(hi, onset_ns - reach_ns, side="left")
    stop = np.searchsorted(lo, onset_ns + reach_ns, side="right")
    # trials first[j] .. stop[j] - 1 reach onset j
    edges = (np.bincount(first, minlength=len(lo) + 1)
             - np.bincount(stop, minlength=len(lo) + 1))
    return np.cumsum(edges[:-1]) > 0


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
    if not np.isin(stream.channel, (CHANNEL_APD, CHANNEL_PMT_ONSET)).all():
        raise DataError("stream has a channel code other than APD/PMT_ONSET")
    for code in (CHANNEL_APD, CHANNEL_PMT_ONSET):
        t = stream.channel_times(code)
        if len(t) > 1 and np.any(np.diff(t) <= 0):
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

    The records are read in blocks of READ_BLOCK bytes, each cut after its
    last line end, so besides the parsed columns one block is held."""
    columns = [(np.empty(0, np.int64), np.empty(0, np.int8),
                np.empty(0, np.int64))]
    with open(path, "rb") as fh:
        manifest = _read_manifest(fh.readline(), path)
        n_trials = manifest.n_trials
        lineno, rest = 2, b""
        while chunk := fh.read(READ_BLOCK):
            block = rest + chunk
            cut = block.rfind(b"\n") + 1
            rest = block[cut:]
            if cut:
                records, lines = _parse_records(block[:cut], path, lineno,
                                                n_trials)
                columns.append(records)
                lineno += lines
            if len(rest) > _MAX_LINE:
                # longer than any record, so this raises
                _parse_records(rest + b"\n", path, lineno, n_trials)
        if rest:                        # the last line end is optional
            columns.append(
                _parse_records(rest + b"\n", path, lineno, n_trials)[0])
    stream = EventStream(*(np.concatenate(c) for c in zip(*columns)),
                         manifest=manifest)
    for code in (CHANNEL_APD, CHANNEL_PMT_ONSET):
        t = stream.channel_times(code)
        if len(t) > 1 and np.any(np.diff(t) <= 0):
            raise DataError(f"{path}: non-monotone timestamps in channel "
                            f"{CHANNEL_NAMES[code]}")
    # at most one onset per trial is a hard invariant of the format
    onset_trials = stream.trial[stream.channel == CHANNEL_PMT_ONSET]
    if len(onset_trials) != len(np.unique(onset_trials)):
        raise DataError(f"{path}: multiple PMT_ONSET records in one trial")
    return stream


# --- record text, a block at a time ----------------------------------------

_TAB, _LF, _CR, _ZERO = 9, 10, 13, ord("0")
# the longest line the grammar allows, less its LF
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
