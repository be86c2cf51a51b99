"""Shared test plumbing: collects acceptance-criterion verdict lines and
prints them as a block at the end of the session; bins stamp columns as
blocks of the one binner and counts their pairs by brute force; builds
event streams from per-record columns, lays them out again and writes their
records as the writer orders them; and assembles, scores and compares
tomography states, the Werner states among them."""

from types import SimpleNamespace

import numpy as np

from ionherald import polarization as pol
from ionherald import sim
from ionherald import tomography as tom
from ionherald.errors import DataError
from ionherald.correlate import histogram_of_blocks

ACCEPTANCE_LINES = []


def record_acceptance(criterion: int, ok: bool, detail: str) -> None:
    line = f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}"
    ACCEPTANCE_LINES.append((criterion, line))
    print(line)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for _, line in sorted(ACCEPTANCE_LINES):
        terminalreporter.write_line(line)


def block_of(apd_ns, onset_ns):
    """A block of histogram_of_blocks: its two stamp columns as int64."""
    return SimpleNamespace(apd_ns=np.asarray(apd_ns, np.int64),
                           onset_ns=np.asarray(onset_ns, np.int64))


def histogram_of(apd_ns, onset_ns, *args, **kwargs):
    """histogram_of_blocks of the two stamp columns as one block."""
    return histogram_of_blocks([block_of(apd_ns, onset_ns)], *args, **kwargs)


def naive_counts(apd, onsets, bin_ns, window_bins):
    """O(N*M) reference: every (onset, APD) lag tested against every bin
    k = [k*bin - bin//2, k*bin - bin//2 + bin)."""
    tau = np.subtract.outer(np.asarray(onsets, dtype=np.int64),
                            np.asarray(apd, dtype=np.int64))
    lower = np.arange(-window_bins, window_bins + 1) * bin_ns - bin_ns // 2
    return np.array([np.count_nonzero((tau >= lo) & (tau < lo + bin_ns))
                     for lo in lower], dtype=np.int64)


def stream_of(apd_trial, apd_ns, onset_trial, onset_ns, manifest):
    """The EventStream of per-record trial and t_ns columns: each channel's
    trial column kept as its (trial, count) runs, as read_events keeps it."""
    return sim.EventStream(sim._runs(np.asarray(apd_trial, np.int64)), apd_ns,
                           sim._runs(np.asarray(onset_trial, np.int64)),
                           onset_ns, manifest)


def stream_fault(stream):
    """The first fault of a whole stream, checked as one block: (message,
    None) for a rule of form, else (message, (channel, index)) of its first
    record at fault as write_events writes it; None if it breaks no rule."""
    return sim._form_fault(stream) or sim._first_written(
        stream, sim._Rules(stream.manifest).faults(stream))


def columns_of(stream):
    """Per channel, APD first, the trial and t_ns columns of the stream: its
    runs laid out one trial per record, and its own t_ns column."""
    return [(np.repeat(*runs), t_ns) for _, runs, t_ns in stream.channels()]


def reference_outside_window(m, trial, t_ns):
    """Index of a channel's first stamp that lies outside its trial's
    detection window, widened by j - 1 ns for the j-th record of the trial
    in the channel, or None: record by record, from its trial column,
    whatever the order of its stamps."""
    trials, index = np.unique(trial, return_inverse=True)
    order = np.argsort(index, kind="stable")
    # j: the records of its trial up to it, itself included
    j = np.empty(len(trial), np.int64)
    j[order] = np.arange(len(trial)) - np.searchsorted(index[order],
                                                       index[order]) + 1
    lo, hi = sim._stamp_range(sim._window_start(trials, m.sequence)[index],
                              m.sequence.detect_s, j)
    outside = np.flatnonzero((t_ns < lo) | (t_ns > hi))
    return int(outside[0]) if len(outside) else None


def file_columns(stream):
    """The trial, channel and t_ns columns of the stream's records in file
    order: one np.insert of each whole column, its runs laid out, each onset
    after every APD stamp <= its own. A stamp not above the one before it
    in its channel goes right after that one, as the writer orders a stream
    that breaks the order rule: each record goes by the greatest stamp of
    its channel up to it."""
    (apd_trial, _), (onset_trial, _) = columns_of(stream)
    before = np.searchsorted(np.maximum.accumulate(stream.apd_ns),
                             np.maximum.accumulate(stream.onset_ns),
                             side="right")
    channel = np.full(len(stream.apd_ns), sim.CHANNEL_APD, np.int8)
    return (np.insert(apd_trial, before, onset_trial),
            np.insert(channel, before, sim.CHANNEL_PMT_ONSET),
            np.insert(stream.apd_ns, before, stream.onset_ns))


def reference_text(stream):
    """The records of a stream in file order, as the per-line writer
    formatted them."""
    return "".join(f"{tr}\t{sim.CHANNEL_NAMES[ch]}\t{t}\tDETECT\n"
                   for tr, ch, t in zip(*(column.tolist() for column
                                          in file_columns(stream)))).encode()


def maximally_mixed() -> pol.TwoQubitDensityMatrix:
    return pol.TwoQubitDensityMatrix(np.eye(4, dtype=complex) / 4.0)


def werner(weight: float) -> pol.TwoQubitDensityMatrix:
    """weight * singlet + (1 - weight) * I/4."""
    if not 0.0 <= weight <= 1.0:
        raise DataError(f"Werner weight outside [0, 1]: {weight}")
    return pol.TwoQubitDensityMatrix(
        weight * pol.singlet().matrix
        + (1.0 - weight) * np.eye(4, dtype=complex) / 4.0)


def counts_table_from_values(values, raw=None, background=None,
                             duration_s: float = 1.0) -> tom.CountsTable:
    """Assemble a CountsTable from 16 corrected values in design order."""
    values = np.asarray(values, dtype=float)
    rows = []
    for i, s in enumerate(tom.DESIGN):
        rows.append(tom.CountsRow(
            s, float(max(values[i], 0.0)),
            int(raw[i]) if raw is not None else int(round(max(values[i], 0.0))),
            float(background[i]) if background is not None else 0.0,
            duration_s))
    return tom.CountsTable(tuple(rows))


def nll_of_state(rho, counts: tom.CountsTable) -> float:
    """Poisson NLL of an arbitrary physical state for the given counts."""
    m = rho.matrix if isinstance(rho, tom.TwoQubitDensityMatrix) else rho
    return tom._nll(tom._probabilities(np.asarray(m)), counts.corrected(),
                    tom.settings_normalization(counts))


def trace_distance(a, b) -> float:
    ma = a.matrix if isinstance(a, tom.TwoQubitDensityMatrix) else np.asarray(a)
    mb = b.matrix if isinstance(b, tom.TwoQubitDensityMatrix) else np.asarray(b)
    vals = np.linalg.eigvalsh(ma - mb)
    return float(0.5 * np.sum(np.abs(vals)))
