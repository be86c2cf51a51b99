"""Fuzzed input files: `g2` exits 0 or 3 on any bytes, `fringe`, `tomo` and
`simulate --config` exit 0, 2, 3 or 4; none ends in a raw exception or
reports a NaN. Fuzzed argv of every command, `reproduce` included, exits 0,
2, 3 or 4, and `reproduce` leaves a complete report or no directory.
Fuzzed (trial, count) runs lay out the trial column that a dense per-trial
count would. A fuzzed event file reads the same by record shape as by the
line-at-a-time reference parse."""

import dataclasses
import tempfile
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

import numpy as np  # noqa: E402

from ionherald import polarization as pol  # noqa: E402
from ionherald import presets, sim  # noqa: E402
from ionherald import tomography as tom  # noqa: E402
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
    lam = tom.expected_counts(pol.werner(0.9), normalization=120.0)
    raw = np.random.default_rng(4).poisson(lam + 6.0)
    tom.write_counts_table(tom.counts_table_from_values(
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
@given(runs=st.lists(st.tuples(st.integers(0, 40), st.integers(0, 5)),
                     max_size=60))
def test_trial_column_from_runs(runs):
    # unsorted, repeated and empty runs against the dense per-trial layout
    trials = np.array([t for t, _ in runs], np.int64)
    counts = np.array([c for _, c in runs], np.int64)
    per_trial = np.zeros(41, np.int64)
    np.add.at(per_trial, trials, counts)
    column = sim._trial_column(trials, counts)
    assert column.dtype == np.int64
    assert np.array_equal(column, np.repeat(np.arange(41), per_trial))
