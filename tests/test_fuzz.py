"""Fuzzed event files: `g2` exits 0 or 3 on any bytes, never with a raw
exception."""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from ionherald.cli import EXIT_DATA, main  # noqa: E402

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
