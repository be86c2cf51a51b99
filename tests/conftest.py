"""Shared test plumbing: collects acceptance-criterion verdict lines and
prints them as a block at the end of the session; builds event streams
from per-record columns and lays them out again."""

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


def columns_of(stream):
    """Per channel, APD first, the trial and t_ns columns of the stream: its
    runs laid out one trial per record, and its own t_ns column."""
    return [(np.repeat(*runs), t_ns) for _, runs, t_ns in stream.channels()]


def reference_outside_window(m, trial, t_ns):
    """Index of a channel's first stamp that lies outside its trial's
    detection window, widened by k - 1 ns for k stamps of the trial in the
    channel, or None: record by record, from its trial column, whatever the
    order of its stamps."""
    trials, index = np.unique(trial, return_inverse=True)
    lo, hi = sim._stamp_range(sim._window_start(trials, m.sequence),
                              m.sequence.detect_s,
                              np.bincount(index, minlength=len(trials)))
    outside = np.flatnonzero((t_ns < lo[index]) | (t_ns > hi[index]))
    return int(outside[0]) if len(outside) else None
