"""Fuzzed input files: `g2` exits 0 or 3 on any bytes, `fringe`, `tomo` and
`simulate --config` exit 0, 2, 3 or 4; none ends in a raw exception or
reports a NaN. Fuzzed argv of every command, `reproduce` included, exits 0,
2, 3 or 4, and `reproduce` leaves a complete report or no directory.
Fuzzed (trial, count) runs lay out the trial column that a dense per-trial
count would, and a trial column encoded as runs lays out as itself. On
small streams, the stream check names the record that a record-by-record
reading of the trial range and window rules names. A fuzzed event file
reads the same by record shape as by the line-at-a-time reference parse,
and names the same first fault whatever the read block.
A small stream, legal or not, is refused by `write_events` exactly when
`read_events` refuses its records, and cut at trial boundaries, its blocks
pass the checks exactly when the whole stream does. On windows 1 ns apart,
the reader and the writer name the first record at fault in file order
that a record-by-record reading of the rules names. Strictly increasing
stamps cut into blocks at any points bin as the whole stream does."""

import dataclasses
import json
import re
import tempfile
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

import numpy as np  # noqa: E402

from conftest import (block_of, counts_table_from_values,  # noqa: E402
                      file_columns, histogram_of, naive_counts,
                      reference_outside_window, reference_text,
                      stream_fault, stream_of, werner)
from ionherald import presets, sim  # noqa: E402
from ionherald import tomography as tom  # noqa: E402
from ionherald.correlate import histogram_of_blocks  # noqa: E402
from ionherald.cli import (EXIT_CONFIG, EXIT_CONVERGENCE, EXIT_DATA,  # noqa
                           EXIT_OK, load_manifest_config, main)
from ionherald.errors import ConfigError, DataError  # noqa: E402

# one edit: (position, kind, byte); bytes that JSON and the records use are
# drawn as often as all the others together
EDIT = st.tuples(st.integers(0, 1 << 16),
                 st.sampled_from(["replace", "insert", "delete"]),
                 st.one_of(st.integers(0, 255),
                           st.sampled_from(b'0123456789-+.eE"[]{},:\t\r\n')))


@pytest.fixture(scope="module")
def event_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "ok.txt"
    assert main(["simulate", "--preset", "paper-hv", "--minutes", "0.05",
                 "--seed", "3", "--out", str(path)]) == 0
    return path.read_bytes()


def mutate(data: bytes, edits, span: int) -> bytes:
    data = bytearray(data)
    for at, kind, byte in edits:
        at %= min(span, len(data)) or 1
        if kind == "replace" and at < len(data):
            data[at] = byte
        elif kind == "insert":
            data.insert(at, byte)
        else:
            del data[at:at + 1]
    return bytes(data)


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(edits=st.lists(EDIT, min_size=1, max_size=8), in_header=st.booleans())
def test_g2_exits_0_or_3(tmp_path, event_file, edits, in_header):
    # half the examples edit only the manifest line
    span = event_file.index(b"\n") + 1 if in_header else len(event_file)
    path = tmp_path / "fuzzed.txt"
    path.write_bytes(mutate(event_file, edits, span))
    assert main(["g2", "--events", str(path),
                 "--out-prefix", str(tmp_path / "g")]) in (0, EXIT_DATA)


@pytest.fixture(scope="module")
def onset_event_file(tmp_path_factory):
    # 30 trials, ~1250 APD lines, and an onset in most trials; trials of one
    # and two digits, stamps of eight to ten
    m = presets.preset_manifest("paper-hv", 3, angle_deg=45.0, minutes=0.05)
    m = dataclasses.replace(m, rates=dataclasses.replace(
        m.rates, false_onset_rate=40.0))
    path = tmp_path_factory.mktemp("fuzz") / "onsets.txt"
    sim.write_events(sim.simulate_run(m), path)
    return path.read_bytes()


def read_outcome(path):
    """What read_events makes of a file: its stream, or its error's text."""
    try:
        return sim.read_events(path)
    except DataError as exc:
        return str(exc)


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(edits=st.lists(EDIT, min_size=1, max_size=8),
       block=st.integers(64, 4096))
def test_shape_path_reads_as_the_general_parse(tmp_path, onset_event_file,
                                               edits, block):
    # a file of several blocks, edited in its records: read by record shape
    # where a block fits, it gives the stream or the error text, line number
    # included, that the line-at-a-time reference parse of every block gives
    header, records = onset_event_file.split(b"\n", 1)
    path = tmp_path / "fuzzed.txt"
    path.write_bytes(header + b"\n" + mutate(records, edits, len(records)))
    with pytest.MonkeyPatch.context() as m:
        m.setattr(sim, "READ_BLOCK", block)
        shaped = read_outcome(path)
        m.setattr(sim, "_shaped_lines", lambda buf, end: None)
        assert read_outcome(path) == shaped


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(edits=st.lists(EDIT, min_size=2, max_size=8))
def test_first_fault_whatever_the_block(tmp_path, onset_event_file, edits):
    # a file edited in two to eight places in its records: whatever the read
    # block, read_events gives the same stream, or names the same first
    # fault in file order, line included
    header, records = onset_event_file.split(b"\n", 1)
    path = tmp_path / "fuzzed.txt"
    path.write_bytes(header + b"\n" + mutate(records, edits, len(records)))
    outcomes = []
    with pytest.MonkeyPatch.context() as m:
        for block in (1 << 10, 1 << 12, 1 << 20):
            m.setattr(sim, "READ_BLOCK", block)
            outcomes.append(read_outcome(path))
    assert outcomes[1] == outcomes[0] and outcomes[2] == outcomes[0]


# a record near an edge of a detection window of the 3-trial manifest below,
# where trial j detects from j * 100 ms + 50 ms to (j + 1) * 100 ms: its
# trial (one time in 31 trial 3, past the manifest's), the trial of the
# window (one time in five its neighbour's), the edge, and the stamp's offset
# from it in ns
RECORD = st.tuples(st.sampled_from([0, 1, 2] * 10 + [3]),
                   st.sampled_from([0] * 8 + [-1, 1]), st.booleans(),
                   st.integers(-2, 2)).map(
    lambda r: (r[0], (r[0] + r[1]) * 100_000_000
               + (100_000_000 if r[2] else 50_000_000) + r[3]))
# one time in four, a value that no record can hold, for one of the four
# columns
UNWRITABLE = st.sampled_from([None] * 24 + [
    (column, value) for column in range(4) for value in (-1, 10 ** 18)])


@pytest.fixture(scope="module")
def three_trials():
    return presets.preset_manifest("paper-hv", 3, angle_deg=45.0,
                                   minutes=0.005)


@settings(max_examples=500, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(apd=st.lists(RECORD, max_size=6), onset=st.lists(RECORD, max_size=5),
       in_order=st.sampled_from([True] * 3 + [False]),
       unwritable=UNWRITABLE)
def test_writer_refuses_what_the_reader_refuses(tmp_path, three_trials, apd,
                                                onset, in_order, unwritable):
    # the stream's raw file is the manifest line, then its lines as the
    # writer orders them, each channel's in column order. Where every value
    # is writable, the writer's message is the reader's less its path and
    # line; a stream the writer takes reads back as itself
    if in_order:        # ties stay
        apd, onset = (sorted(r, key=lambda record: record[1])
                      for r in (apd, onset))
    columns = [np.array([record[k] for record in records], np.int64)
               for records in (apd, onset) for k in (0, 1)]
    if unwritable is not None and len(columns[unwritable[0]]):
        columns[unwritable[0]][0] = unwritable[1]
    stream = stream_of(*columns, three_trials)
    raw = tmp_path / "raw.events"
    raw.write_bytes((sim.FILE_MAGIC + json.dumps(sim.manifest_to_dict(
        three_trials)) + "\n").encode() + reference_text(stream))
    written = tmp_path / "written.events"
    written.unlink(missing_ok=True)
    try:
        sim.write_events(stream, written)
    except DataError as exc:
        refused = str(exc)
    else:
        refused = None
    outcome = read_outcome(raw)
    if refused is None:
        assert outcome == stream and sim.read_events(written) == stream
        return
    assert isinstance(outcome, str) and not written.exists()
    if all(0 <= column.min() and column.max() < 10 ** 18
           for column in columns if len(column)):
        assert re.sub(r"^line \d+: ", "", outcome.removeprefix(
            f"{raw}: ")) == refused


# three trials of 100 ns windows 1 ns apart, so that stamps bumped past a
# window's last nanosecond meet the next window's. A channel as the runs of
# its trials 0 to 2, each k records on consecutive nanoseconds, as tie bumps
# leave them, from its window's first or last nanosecond and an offset; and
# one time in ten, a record of trial 3, past the manifest's
ADJACENT = sim.SequenceConfig(rep_rate=9.9e6, cooling_ms=5e-7, prep_ms=5e-7,
                              detect_ms=1e-4)
_FIRST, _LAST = (e.tolist() for e in sim._stamp_range(
    sim._window_start(np.arange(4), ADJACENT), ADJACENT.detect_s, 1))


def channel(counts):
    """Records of one channel as above, k records a trial drawn from
    counts."""
    run = st.tuples(st.sampled_from(counts), st.booleans(),
                    st.sampled_from([-1, 0, 0, 0, 1]))
    return st.tuples(run, run, run, st.sampled_from([0] * 9 + [1])).map(
        lambda runs: [(trial, (_LAST if at_last else _FIRST)[trial] + off + i)
                      for trial, (k, at_last, off) in enumerate(runs[:3])
                      for i in range(k)] + [(3, _FIRST[3])] * runs[3])


@pytest.fixture(scope="module")
def adjacent_windows(three_trials):
    return dataclasses.replace(three_trials, sequence=ADJACENT,
                               duration_s=3 / ADJACENT.rep_rate)


@settings(max_examples=500, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(apd=channel([0, 1, 2, 3]), onset=channel([0, 0, 1, 1, 1, 2]),
       cuts=st.sets(st.sampled_from([1, 2, 3])), unwritable=UNWRITABLE)
def test_blocks_are_legal_as_the_stream_is(adjacent_windows, apd, onset,
                                           cuts, unwritable):
    # each channel's records in trial order, cut at trial boundaries: every
    # block and every boundary between blocks passes the checks exactly
    # when the whole stream breaks no rule
    m = adjacent_windows
    assert m.n_trials == 3
    columns = [np.array([record[k] for record in records], np.int64)
               for records in (apd, onset) for k in (0, 1)]
    if unwritable is not None and len(columns[unwritable[0]]):
        columns[unwritable[0]][0] = unwritable[1]
    bounds = [-np.inf, *sorted(cuts), np.inf]
    blocks = []
    for lo, hi in zip(bounds, bounds[1:]):
        kept = [(trial >= lo) & (trial < hi) for trial in columns[::2]]
        blocks.append(stream_of(*(column[kept[i // 2]]
                                  for i, column in enumerate(columns)), m))
    try:
        list(sim._checked(iter(blocks)))
    except DataError:
        legal = False
    else:
        legal = True
    assert legal == (stream_fault(stream_of(*columns, m)) is None)


# a record of one channel under adjacent_windows: near the first or last
# nanosecond of window 0 to 2, mostly of that window's trial, now and then
# of the trial before or after it (trial 3 is past the manifest's)
NEAR_AN_EDGE = st.tuples(st.integers(0, 2), st.booleans(),
                         st.integers(-2, 3),
                         st.sampled_from([0] * 8 + [-1, 1])).map(
    lambda r: (max(r[0] + r[3], 0),
               max((_LAST if r[1] else _FIRST)[r[0]] + r[2], 0)))


def first_fault(m, records):
    """The rules of a legal stream record by record, in file order: the
    index of the first (trial, channel, t_ns) record that breaks one, and
    the message of the first rule it breaks; None if none does."""
    last, seen, onsets = [None, None], [{}, {}], set()
    for i, (trial, code, t) in enumerate(records):
        name = sim.CHANNEL_NAMES[code]
        j = seen[code][trial] = seen[code].get(trial, 0) + 1
        lo, hi = sim._stamp_range(sim._window_start(trial, m.sequence),
                                  m.sequence.detect_s, j)
        if trial >= m.n_trials:
            return i, f"trial {trial} outside the manifest's {m.n_trials} trials"
        if last[code] is not None and t <= last[code]:
            return i, f"non-monotone timestamps in channel {name}"
        if code and trial in onsets:
            return i, "multiple PMT_ONSET records in one trial"
        if not lo <= t <= hi:
            return i, (f"{name} stamp {t} outside the detection window of "
                       f"trial {trial}")
        last[code] = t
        onsets |= {trial} if code else set()
    return None


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(apd=st.lists(NEAR_AN_EDGE, max_size=12),
       onset=st.lists(NEAR_AN_EDGE, max_size=4),
       in_order=st.sampled_from([True] * 9 + [False]),
       block=st.sampled_from([3, 1000]))
# trial 0 joined again after a record of trial 1, in the widened end of its
# window; a second onset of trial 0 after one of trial 1; and channels out
# of order across the order rule's chunks, whose first fault as written is
# the second onset's
@example(apd=[(0, 100), (0, 101), (1, 102), (0, 103)], onset=[],
         in_order=True, block=3)
@example(apd=[], onset=[(0, 50), (1, 150), (0, 160)], in_order=True,
         block=3)
@example(apd=[(0, 1), (1, 202), (1, 102), (0, 1)], onset=[(1, 102), (0, 1)],
         in_order=False, block=3)
def test_first_record_at_fault(tmp_path, adjacent_windows, apd, onset,
                               in_order, block):
    # windows 1 ns apart, each channel's stamps in order or not, its trials
    # out of order now and then: read at any block size, the file names the
    # record that a record-by-record reading of the rules names, and the
    # writer, checking the whole stream as one block with the order rule
    # in chunks of `block` records, refuses it with the same message, or
    # writes it and reads it back
    m = adjacent_windows
    if in_order:
        apd, onset = (sorted(r, key=lambda record: record[1])
                      for r in (apd, onset))
    stream = stream_of(*(np.array([record[k] for record in records],
                                  np.int64)
                         for records in (apd, onset) for k in (0, 1)), m)
    raw = tmp_path / "raw.events"
    raw.write_bytes((sim.FILE_MAGIC + json.dumps(sim.manifest_to_dict(m))
                     + "\n").encode() + reference_text(stream))
    want = first_fault(m, list(zip(*(c.tolist()
                                      for c in file_columns(stream)))))
    with pytest.MonkeyPatch.context() as patch:
        for size in (16, 64, 1 << 20):
            patch.setattr(sim, "READ_BLOCK", size)
            assert read_outcome(raw) == (stream if want is None else
                                         f"{raw}: line {want[0] + 2}: "
                                         f"{want[1]}")
        patch.setattr(sim, "CHECK_BLOCK", block)
        written = tmp_path / "written.events"
        try:
            sim.write_events(stream, written)
        except DataError as exc:
            assert want is not None and str(exc) == want[1]
        else:
            assert want is None and sim.read_events(written) == stream


def assert_no_nan(tmp_path, out: str) -> None:
    assert "nan" not in out.lower()
    for path in tmp_path.glob("out*"):
        assert "nan" not in path.read_text(encoding="utf-8").lower()


SCAN_POINT = ("coincidences={}\nbackground_per_bin=4.5\nduration_s=3600.0\n"
              "basis=RL\nhwp_angle_deg={}.0\n")


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(edits=st.lists(EDIT, min_size=1, max_size=8),
       point=st.integers(0, 5))
def test_fringe_exits_0_2_3_or_4(tmp_path, capsys, edits, point):
    scan = tmp_path / "scan"
    scan.mkdir(exist_ok=True)
    for i, (angle, counts) in enumerate(zip((0, 15, 30, 45, 60, 75),
                                            (9, 30, 70, 95, 72, 28))):
        data = SCAN_POINT.format(counts, angle).encode()
        if i == point:
            data = mutate(data, edits, len(data))
        (scan / f"p{angle}.res.txt").write_bytes(data)
    code = main(["fringe", "--scan-dir", str(scan), "--theta0", "0",
                 "--out-prefix", str(tmp_path / "out")])
    assert code in (EXIT_OK, EXIT_CONFIG, EXIT_DATA, EXIT_CONVERGENCE)
    if code == EXIT_OK:
        assert_no_nan(tmp_path, capsys.readouterr().out)


@pytest.fixture(scope="module")
def counts_table(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "counts.txt"
    lam = tom.expected_counts(werner(0.9), normalization=120.0)
    raw = np.random.default_rng(4).poisson(lam + 6.0)
    tom.write_counts_table(counts_table_from_values(
        np.maximum(raw - 6.0, 0.0), raw=raw, background=np.full(16, 6.0),
        duration_s=5400.0), path)
    return path.read_bytes()


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(edits=st.lists(EDIT, min_size=1, max_size=8))
def test_tomo_exits_0_2_3_or_4(tmp_path, capsys, counts_table, edits):
    path = tmp_path / "counts.txt"
    path.write_bytes(mutate(counts_table, edits, len(counts_table)))
    code = main(["tomo", "--counts", str(path),
                 "--out-prefix", str(tmp_path / "out")])
    assert code in (EXIT_OK, EXIT_CONFIG, EXIT_DATA, EXIT_CONVERGENCE)
    if code == EXIT_OK:
        assert_no_nan(tmp_path, capsys.readouterr().out)


CONFIG = (b"[run]\nseed = 2\nduration_s = 2\n"
          b"[source]\nsinglet_weight = 0.9\n[sequence]\ndetect_ms = 50\n"
          b"[rates]\ndark_trigger_rate = 100\nfalse_onset_rate = 1\n"
          b"[absorber]\nbasis = HV\n[analyzer]\nhwp_deg = 45\n")


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(edits=st.lists(EDIT, min_size=1, max_size=8))
def test_simulate_config_exits_0_2_3_or_4(tmp_path, capsys, edits):
    path = tmp_path / "run.cfg"
    path.write_bytes(mutate(CONFIG, edits, len(CONFIG)))
    argv = ["simulate", "--config", str(path),
            "--out", str(tmp_path / "e.txt")]
    try:
        m = load_manifest_config(path)
    except ConfigError:
        assert main(argv) == EXIT_CONFIG
    else:
        # only runs that stay small: a mutated duration or rate could ask
        # for any number of trials or clicks
        events = (m.rates.pair_rate + m.rates.dark_trigger_rate
                  + m.rates.false_onset_rate) * m.sequence.detect_s
        if m.n_trials > 1000 or events * m.n_trials > 1e5:
            return
        assert main(argv) in (EXIT_OK, EXIT_CONFIG, EXIT_DATA,
                              EXIT_CONVERGENCE)
    assert "Traceback" not in capsys.readouterr().err


# --- argv ---------------------------------------------------------------------

# numbers as argv text: non-finite and non-numeric, negative, huge
SPECIAL = st.sampled_from(["nan", "-nan", "inf", "-inf", "1e309", "0",
                           "1e-300", "abc", "", " ", "1_0", "0x10"])
NEGATIVE = st.sampled_from(["-1", "-3", "-0", "-1e-300", "-1e300"])
HUGE = st.sampled_from(["1e300", "1e18", "9223372036854775808"])
NUMBER = st.one_of(SPECIAL, NEGATIVE, HUGE,
                   st.floats(allow_nan=False).map(repr),
                   st.integers(-3, 1 << 70).map(str))
# values that size a run, a rate or a histogram stay within 1e3, so that no
# example allocates or loops without bound
BOUNDED = st.one_of(SPECIAL, NEGATIVE, st.floats(-1e3, 1e3).map(repr),
                    st.integers(-3, 1000).map(str))
# a run is at most 0.05 minutes: 30 trials of the default sequence
MINUTES = st.one_of(st.sampled_from(["nan", "inf", "-inf", "-1", "0", "x"]),
                    st.floats(-1.0, 0.05).map(repr))
OVERRIDE_KEY = st.sampled_from(
    ["rates.pair_rate", "rates.eta_trigger", "rates.eta_herald",
     "rates.dark_trigger_rate", "rates.false_onset_rate",
     "rates.onset_latency_us", "rates.onset_jitter_ns", "source.pair_rate",
     "source.singlet_weight", "sequence.rep_rate", "sequence.cooling_ms",
     "sequence.prep_ms", "sequence.detect_ms", "rates.nope", "run.seed",
     "nodot", "", "."])
OVERRIDE = st.one_of(st.tuples(OVERRIDE_KEY, BOUNDED).map("=".join),
                     st.sampled_from(["novalue", "=", "rates.eta_herald"]))


@st.composite
def flags(draw, options: dict):
    """Every option with its valid value, in any order, but for one or two
    that are fuzzed or left out; now and then a flag no command knows."""
    names = draw(st.permutations(sorted(options)))
    changed = draw(st.lists(st.sampled_from(names), min_size=1, max_size=2,
                            unique=True))
    argv = []
    for name in names:
        ok, fuzzed = options[name]
        value = draw(st.one_of(st.none(), fuzzed)) if name in changed else ok
        if value is not None:
            argv += [name, value]
    if draw(st.integers(0, 7)) == 0:
        argv += ["--bogus", "1"]
    return argv


@pytest.fixture(scope="module")
def argv_inputs(tmp_path_factory, event_file, counts_table):
    root = tmp_path_factory.mktemp("argv")
    (root / "events.txt").write_bytes(event_file)
    (root / "counts.txt").write_bytes(counts_table)
    scan = root / "scan"
    scan.mkdir()
    for angle, counts in zip((0, 15, 30, 45, 60, 75), (9, 30, 70, 95, 72, 28)):
        (scan / f"p{angle}.res.txt").write_text(
            SCAN_POINT.format(counts, angle), encoding="utf-8")
    (root / "run.cfg").write_text(
        "[run]\nseed = 2\nduration_s = 2\n[rates]\ndark_trigger_rate = 100\n"
        "false_onset_rate = 1\n", encoding="utf-8")
    return root


def command_argv(root):
    """argv of simulate, g2, fringe or tomo. Input paths exist or do not,
    outputs go to root or to a directory that does not exist."""
    out, gone = str(root / "out"), str(root / "no" / "out")
    simulate = flags({
        "--preset": ("paper-hv", st.sampled_from(["paper-xx", "", "hv"])),
        "--config": (str(root / "run.cfg"), st.just(str(root / "no.cfg"))),
        "--angle": ("45", NUMBER), "--minutes": ("0.05", MINUTES),
        "--seed": ("3", NUMBER), "--out": (out, st.just(gone))})
    simulate = st.tuples(simulate, st.lists(OVERRIDE, max_size=3)).map(
        lambda t: t[0] + [a for o in t[1] for a in ("--override", o)])
    g2 = flags({
        "--events": (str(root / "events.txt"), st.just(str(root / "no"))),
        "--bin-us": ("10", NUMBER), "--window-bins": ("50", BOUNDED),
        "--out-prefix": (out, st.just(gone))})
    fringe = flags({
        "--scan-dir": (str(root / "scan"), st.just(str(root / "no"))),
        "--theta0": ("0", NUMBER), "--out-prefix": (out, st.just(gone))})
    tomo = flags({
        "--counts": (str(root / "counts.txt"), st.just(str(root / "no"))),
        "--bootstrap": ("2", st.sampled_from(["-1", "0", "1", "nan", "x"])),
        "--seed": ("1", NUMBER), "--out-prefix": (out, st.just(gone))})
    return st.one_of(*(args.map(lambda a, name=name: [name, *a])
                       for name, args in (("simulate", simulate), ("g2", g2),
                                          ("fringe", fringe),
                                          ("tomo", tomo))))


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_argv_exits_0_2_3_or_4(capsys, argv_inputs, data):
    argv = data.draw(command_argv(argv_inputs))
    try:
        code = main(argv)
    except SystemExit as exc:       # argparse: a usage error or --help
        code = exc.code
    assert code in (EXIT_OK, EXIT_CONFIG, EXIT_DATA, EXIT_CONVERGENCE), argv
    assert "Traceback" not in capsys.readouterr().err


# reproduce runs all 34 runs of the paper, so its scales are few and small
SCALE = st.sampled_from(["0", "1e-9", "nan", "0.005", "0.02"])


@settings(max_examples=8, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(seed=NUMBER, scale=SCALE, overrides=st.lists(OVERRIDE, max_size=2))
def test_reproduce_argv_exits_0_2_3_or_4(tmp_path, capsys, seed, scale,
                                         overrides):
    # a fresh directory per example: a complete report or none at all
    out = Path(tempfile.mkdtemp(dir=tmp_path)) / "r"
    argv = ["reproduce", "--seed", seed, "--scale", scale, "--quiet",
            "--out-dir", str(out)]
    argv += [a for o in overrides for a in ("--override", o)]
    try:
        code = main(argv)
    except SystemExit as exc:       # argparse: a seed that is no integer
        code = exc.code
    assert code in (EXIT_OK, EXIT_CONFIG, EXIT_DATA, EXIT_CONVERGENCE), argv
    assert "Traceback" not in capsys.readouterr().err
    if code == EXIT_OK:
        assert (out / "report.kv").exists() and (out / "tomo_rho.txt").exists()
    else:
        assert not out.exists(), argv


@settings(max_examples=300, deadline=None)
@given(runs=st.lists(st.tuples(st.integers(0, 40), st.integers(1, 5)),
                     max_size=60))
def test_trial_column_from_runs(runs):
    # unsorted and repeated runs, finalized, against the dense per-trial
    # layout: the stream's runs are maximal
    trials = np.array([t for t, _ in runs], np.int64)
    counts = np.array([c for _, c in runs], np.int64)
    per_trial = np.zeros(41, np.int64)
    np.add.at(per_trial, trials, counts)
    t_ns = np.arange(counts.sum(), dtype=np.int64)
    stream = sim._finalize(t_ns, (trials, counts), t_ns[:0].copy(),
                           (trials[:0], counts[:0]), None)
    trial, count = stream.apd_runs
    assert trial.dtype == count.dtype == np.int64
    assert np.all(count >= 1) and np.all(trial[1:] != trial[:-1])
    assert np.array_equal(np.repeat(trial, count),
                          np.repeat(np.arange(41), per_trial))


@settings(max_examples=300, deadline=None)
@given(column=st.lists(st.integers(0, 10 ** 18 - 1) | st.integers(0, 3),
                       max_size=40))
def test_runs_lay_out_as_the_column(column):
    # trials out of order, repeated, adjacent or not: encoded as runs and
    # laid out again, a column is itself
    column = np.array(column, np.int64)
    trial, count = sim._runs(column)
    assert np.all(count >= 1) and np.all(trial[1:] != trial[:-1])
    assert np.array_equal(np.repeat(trial, count), column)
    assert [r.tolist() for r in sim._runs(trial, count)] == [
        trial.tolist(), count.tolist()]


# a channel of a small stream under the 3-trial manifest of three_trials,
# whose trial j detects from j * 100 ms + 50 ms to (j + 1) * 100 ms: per
# record the gap (ns) after the stamp before it, from 1 ns to a period, and
# its trial less that of the window at or before its stamp, mostly 0
CHANNEL = st.lists(st.tuples(
    st.sampled_from([1, 2, 3, 10 ** 6, 25_000_000, 50_000_000, 100_000_000]),
    st.sampled_from([0] * 6 + [-1, 1])), max_size=12)


def reference_fault(m, columns):
    """The trial range and window rules, record by record on the trial
    columns: the message and (channel, index) of the first record that
    breaks one, in time order, APD first at a tie, or None. A record that
    breaks both breaks the trial range first."""
    found = []
    for code, (trial, t_ns) in enumerate((columns[:2], columns[2:])):
        late = np.flatnonzero(trial >= m.n_trials)
        i = reference_outside_window(m, trial, t_ns)
        if len(late) and (i is None or late[0] <= i):
            i, message = int(late[0]), (f"trial {trial[late[0]]} outside the "
                                        f"manifest's {m.n_trials} trials")
        elif i is not None:
            message = (f"{sim.CHANNEL_NAMES[code]} stamp {t_ns[i]} outside "
                       f"the detection window of trial {trial[i]}")
        else:
            continue
        found.append((t_ns[i], code, message, i))
    if found:
        _, code, message, i = min(found)
        return message, (code, i)
    return None


@settings(max_examples=500, deadline=None)
@given(apd=CHANNEL, onset=CHANNEL, start=st.integers(-10, 10))
def test_window_rule_on_runs(three_trials, apd, onset, start):
    # each channel's stamps increase and its trials need not, and the
    # onsets keep the first record of each trial: on the runs, the stream
    # check names the record that the record-by-record reference names
    columns = []
    for records in (apd, onset):
        gap = np.array([g for g, _ in records], np.int64)
        t_ns = 50_000_000 + start + np.cumsum(gap)
        trial = np.maximum((t_ns - 50_000_000) // 100_000_000
                           + np.array([d for _, d in records], np.int64), 0)
        columns += [trial, t_ns]
    first = np.sort(np.unique(columns[2], return_index=True)[1])
    columns[2:] = [column[first] for column in columns[2:]]
    assert stream_fault(stream_of(*columns, three_trials)) \
        == reference_fault(three_trials, columns)


@st.composite
def cut_stamps(draw, max_size, blocks):
    """Strictly increasing stamps, from gaps of 1 to 40 ns, often of a few,
    and their cut into `blocks` slices at random points, often at either
    end, so that slices are empty."""
    gap = st.integers(1, 3) | st.integers(1, 40)
    stamps = draw(st.integers(-60, 60)) + np.cumsum(np.array(draw(
        st.lists(gap, max_size=max_size)), np.int64))
    point = st.integers(0, len(stamps)) | st.sampled_from([0, len(stamps)])
    cuts = draw(st.lists(point, min_size=blocks - 1, max_size=blocks - 1))
    return stamps, np.split(stamps, sorted(cuts))


@settings(max_examples=500, deadline=None)
@given(data=st.data(), blocks=st.integers(1, 6),
       bin_ns=st.sampled_from([1, 2, 7, 10]), window_bins=st.integers(0, 6))
def test_blocks_bin_as_the_whole_stream(data, blocks, bin_ns, window_bins):
    # each channel cut at its own points: a block may bring clicks only or
    # onsets only, as in an APD-first or onset-first file; the blocks'
    # pairs are the one-block and the brute-force count
    apd, apd_cut = data.draw(cut_stamps(60, blocks))
    onsets, onset_cut = data.draw(cut_stamps(15, blocks))
    got = histogram_of_blocks(map(block_of, apd_cut, onset_cut),
                              bin_ns / 1000.0, window_bins)
    whole = histogram_of(apd, onsets, bin_ns / 1000.0, window_bins)
    assert np.array_equal(got.counts, naive_counts(apd, onsets, bin_ns,
                                                   window_bins))
    assert np.array_equal(got.counts, whole.counts)
    assert (got.total_apd, got.total_onsets) == (
        whole.total_apd, whole.total_onsets) == (len(apd), len(onsets))
