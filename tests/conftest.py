"""Shared test plumbing: collects acceptance-criterion verdict lines and
prints them as a block at the end of the session; builds event streams
from per-record columns, lays them out again and writes their records as
the writer orders them."""

import numpy as np

from ionherald import sim

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
