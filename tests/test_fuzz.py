"""Fuzzed input files: `g2` exits 0 or 3 on any bytes, `fringe` and `tomo`
exit 0, 2, 3 or 4; none ends in a raw exception or reports a NaN."""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

import numpy as np  # noqa: E402

from ionherald import polarization as pol  # noqa: E402
from ionherald import tomography as tom  # noqa: E402
from ionherald.cli import (EXIT_CONFIG, EXIT_CONVERGENCE, EXIT_DATA,  # noqa
                           EXIT_OK, main)

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
