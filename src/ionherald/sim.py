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
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, asdict

import numpy as np

from .errors import ConfigError, DataError
from . import polarization as pol
from .biphoton import AbsorberSetting, AnalyzerSetting, SourceModel

CHANNEL_APD = 0
CHANNEL_PMT_ONSET = 1
CHANNEL_NAMES = {CHANNEL_APD: "APD", CHANNEL_PMT_ONSET: "PMT_ONSET"}
CHANNEL_CODES = {v: k for k, v in CHANNEL_NAMES.items()}

FILE_MAGIC = "#MANIFEST "


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
        if self.seed < 0:
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
                and np.array_equal(self.t_ns, other.t_ns))


def _strictly_increasing(t: np.ndarray) -> np.ndarray:
    """Bump duplicate integer timestamps (post-rounding ties) by +1 ns.

    Ties are O(1)-rare, so each pass only touches violations; a run of k
    equal stamps resolves in at most k passes.
    """
    if len(t) < 2 or np.all(np.diff(t) > 0):
        return t
    t = t.copy()
    while True:
        bad = np.flatnonzero(np.diff(t) <= 0)
        if len(bad) == 0:
            return t
        t[bad + 1] = t[bad] + 1


def _finalize(trial, channel, t_ns, manifest) -> EventStream:
    trial = np.asarray(trial, dtype=np.int64)
    channel = np.asarray(channel, dtype=np.int8)
    t_ns = np.asarray(t_ns, dtype=np.int64)
    for code in (CHANNEL_APD, CHANNEL_PMT_ONSET):
        mask = channel == code
        if mask.any():
            order = np.argsort(t_ns[mask], kind="stable")
            fixed = _strictly_increasing(t_ns[mask][order])
            idx = np.flatnonzero(mask)[order]
            t_ns[idx] = fixed
            trial[idx] = trial[mask][order]
    order = np.lexsort((channel, t_ns))
    return EventStream(trial[order], channel[order], t_ns[order], manifest)


def simulate_run(m: RunManifest) -> EventStream:
    """Generate the event stream for one run. Deterministic given the manifest."""
    rng = np.random.default_rng(m.seed)
    seq, rates = m.sequence, m.rates
    n_trials = m.n_trials
    w = seq.detect_s

    if n_trials == 0:
        return _finalize(np.empty(0), np.empty(0), np.empty(0), m)

    rho_marginal = pol.marginal_projection_probability(
        m.source.effective_state(), m.analyzer.projector_state, side="B")
    p_trig = rates.eta_trigger * rho_marginal
    if rates.eta_herald > 0.0 and rho_marginal > 0.0:
        joint = pol.joint_projection_probability(
            m.source.effective_state(), m.absorber.allowed,
            m.analyzer.projector_state)
        p_abs = rates.eta_herald * (joint / rho_marginal) * rates.branching_s
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

    dark_trial = np.repeat(np.arange(n_trials), n_dark)
    dark_t = t_start[dark_trial] + dark_u * w

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

    apd_t = np.concatenate([apd_pair_t, dark_t])
    apd_trial = np.concatenate([apd_pair_trial, dark_trial])

    trial = np.concatenate([apd_trial, onset_trial]).astype(np.int64)
    channel = np.concatenate([
        np.full(len(apd_t), CHANNEL_APD, dtype=np.int8),
        np.full(len(onset_t), CHANNEL_PMT_ONSET, dtype=np.int8)])
    t_ns = np.rint(np.concatenate([apd_t, onset_t]) * 1e9).astype(np.int64)
    return _finalize(trial, channel, t_ns, m)


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
    per line (trial, channel, t_ns, phase). Timestamps stay exact integers."""
    if stream.manifest is None:
        raise DataError("stream has no manifest; cannot write a valid file")
    for code in (CHANNEL_APD, CHANNEL_PMT_ONSET):
        t = stream.channel_times(code)
        if len(t) > 1 and np.any(np.diff(t) <= 0):
            raise DataError("stream not finalized: non-monotone timestamps")
    header = FILE_MAGIC + json.dumps(manifest_to_dict(stream.manifest),
                                     sort_keys=True, separators=(",", ":"))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        chunks = []
        names = CHANNEL_NAMES
        for tr, ch, t in zip(stream.trial.tolist(), stream.channel.tolist(),
                             stream.t_ns.tolist()):
            chunks.append(f"{tr}\t{names[ch]}\t{t}\tDETECT\n")
            if len(chunks) >= 65536:
                fh.write("".join(chunks))
                chunks = []
        fh.write("".join(chunks))


def read_events(path) -> EventStream:
    """Parse an event file back into a stream; validates format and ordering."""
    with open(path, "r", encoding="utf-8") as fh:
        first = fh.readline()
        if not first.startswith(FILE_MAGIC):
            raise DataError(f"{path}: line 1: missing manifest record")
        try:
            manifest = manifest_from_dict(json.loads(first[len(FILE_MAGIC):]))
        except (json.JSONDecodeError, KeyError, TypeError) as exc:
            raise DataError(f"{path}: line 1: bad manifest: {exc}") from exc
        trials, channels, times = [], [], []
        for lineno, line in enumerate(fh, start=2):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 4 or parts[1] not in CHANNEL_CODES \
                    or parts[3] != "DETECT":
                raise DataError(f"{path}: line {lineno}: malformed record "
                                f"{line!r}")
            try:
                trials.append(int(parts[0]))
                times.append(int(parts[2]))
            except ValueError as exc:
                raise DataError(
                    f"{path}: line {lineno}: non-integer field") from exc
            channels.append(CHANNEL_CODES[parts[1]])
    stream = EventStream(np.array(trials, dtype=np.int64),
                         np.array(channels, dtype=np.int8),
                         np.array(times, dtype=np.int64), manifest)
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
