"""Event-file record text, a block at a time: the grammar of a record line
is in the ``ionherald.sim`` docstring.

Within one channel, trials and stamps only grow, so their digit counts
change only a few times per file, and nearly every line is a row of one of
two templates, ``<digits>\tAPD\t<digits>\tDETECT\n`` or the same with
PMT_ONSET. Both directions work by that record shape: the writer fills rows
of a template four digits at a time, and the reader splits each block's
lines of one channel into runs of one line length and checks each run's
rows against the template of its first line, a few thousand rows a
compare, then decodes their digit columns from the text. A CRLF template
is the LF one with CR before LF; a block with blank lines or line ends that
switch is read by shape once more with plain LF line ends. Only a block
that breaks the grammar or a rule goes to a line-at-a-time reading of the
grammar, which gives each record's line, so that the first bad line or
record at fault is named.
"""

from __future__ import annotations

import io

import numpy as np

CHANNEL_APD = 0
CHANNEL_PMT_ONSET = 1
CHANNEL_NAMES = {CHANNEL_APD: "APD", CHANNEL_PMT_ONSET: "PMT_ONSET"}
MAX_DIGITS = 18             # of trial and t_ns, so every value fits int64

_LF, _ZERO = 10, ord("0")
# the longest record line less its LF
_MAX_LINE = len(b"%s\tPMT_ONSET\t%s\tDETECT\r"
                % (b"9" * MAX_DIGITS, b"9" * MAX_DIGITS))
# "0000" ... "9999" as uint32, so that one take() places four digits. In
# uint16 each temporary stays under glibc's 128 KiB mmap threshold; freeing a
# larger one raises that threshold, and the process's peak RSS by ~0.5 MB.
_DIGIT_QUADS = (np.arange(10000, dtype=np.uint16)[:, None]
                // np.array([1000, 100, 10, 1], np.uint16) % 10
                + ord("0")).astype(np.uint8).view(np.uint32).ravel()
_DIGIT_BYTES = _DIGIT_QUADS.view(np.uint8).reshape(-1, 4)
_CHANNEL_CODES = {name.encode(): code for code, name in CHANNEL_NAMES.items()}
_POW10 = 10 ** np.arange(1, MAX_DIGITS, dtype=np.int64)
# rows a time in the shape check, ~128 KiB of temporaries: per block, the
# reader makes no temporary as large as the block, which the allocator
# would hand back to the system and fault in again for the next one
_CHECK_ROWS = 4096
_ZEROS = np.uint64(0x3030303030303030)     # "00000000"
# _decode_digits' steps over eight digits, one a byte: the shift to the next
# group, the scale of a group and the mask of the sums of pairs, fours and
# eights
_DIGIT_SUMS = [(np.uint64(8), np.uint64(10), np.uint64(0x00FF00FF00FF00FF)),
               (np.uint64(16), np.uint64(100), np.uint64(0x0000FFFF0000FFFF)),
               (np.uint64(32), np.uint64(10000), np.uint64(0xFFFFFFFF))]


def _runs_within(ends, count, start, stop):
    """The runs of count[i] items, the last one before ends[i], with items
    start to stop - 1: as a slice of them, and how many each holds there."""
    k = slice(np.searchsorted(ends, start, side="right"),
              np.searchsorted(ends, stop - 1, side="right") + 1)
    return k, np.minimum(ends[k], stop) - np.maximum(ends[k] - count[k], start)


def _record_text(name: bytes, trial, count, t_ns):
    """The lines of one channel's records, of trials (trial, count) runs, as
    uint8, and its runs of lines of one shape: the first line of each run,
    its byte offset in the text and its line length, with a last entry one
    past the end.

    Within a run, every trial and every t_ns has the same number of digits,
    so each line is a row of one template. A run ends where a column
    crosses a power of ten: between two trial runs, or in t_ns, which is in
    order (write_events checks it). A trial run's digits are made once."""
    ends = np.cumsum(count)
    width = np.searchsorted(_POW10, trial, side="right") + 1
    first = np.union1d([0, len(t_ns)], np.concatenate(
        [(ends - count)[1:][width[1:] != width[:-1]],
         np.searchsorted(t_ns, _POW10)]))
    starts = first[:-1]
    w_trial = width[np.searchsorted(ends, starts, side="right")]
    w_t = np.searchsorted(_POW10, t_ns[starts], side="right") + 1
    length = w_trial + len(name) + w_t + len(b"\t\t\tDETECT\n")
    offset = np.append(0, np.cumsum(np.diff(first) * length))
    text = np.empty(offset[-1], np.uint8)
    for j0, j1, b0, b1, wa, wb in zip(first.tolist(), first[1:].tolist(),
                                      offset.tolist(), offset[1:].tolist(),
                                      w_trial.tolist(), w_t.tolist()):
        template = b"%s\t%s\t%s\tDETECT\n" % (b"0" * wa, name, b"0" * wb)
        text[b0:b1] = np.frombuffer(template * (j1 - j0), np.uint8)
        rows = text[b0:b1].reshape(j1 - j0, -1)
        k, c = _runs_within(ends, count, j0, j1)
        digits = np.empty((len(c), wa), np.uint8)
        _put_digits(digits, trial[k], wa, wa)
        rows[:, :wa] = np.repeat(digits, c, axis=0)
        _put_digits(rows, t_ns[j0:j1], wa + len(name) + 2 + wb, wb)
    return text, (first, offset, np.append(length, 0))


def _line_starts(runs, j: np.ndarray) -> np.ndarray:
    """Byte offsets of the lines j (up to one past the last) in a text of
    the runs that _record_text returned."""
    first, offset, length = runs
    r = np.searchsorted(first, j, side="right") - 1
    return offset[r] + (j - first[r]) * length[r]


def _put_digits(rows: np.ndarray, v: np.ndarray, stop: int, width: int):
    """Write v, each of `width` digits, in rows[:, stop - width:stop].

    Four digits at a time, from the right, through a uint32 view of the
    rows; the leftmost four overlap the ones on their right when width is
    not a multiple of four."""
    if width < 4:
        rows[:, stop - width:stop] = _DIGIT_BYTES[v, 4 - width:]
        return
    top = v // 10 ** (width - 4)
    for start in range(stop - 4, stop - width, -4):
        high = v // 10000
        rows[:, start:start + 4].view(np.uint32)[:, 0] = _DIGIT_QUADS.take(
            v - high * 10000)
        v = high
    rows[:, stop - width:stop - width + 4].view(np.uint32)[:, 0] = \
        _DIGIT_QUADS.take(top)


def _write_records(fh, apd, apd_runs, onset, onset_runs, gaps):
    """Write the APD lines with the onset lines spliced in, onset k ahead of
    APD record gaps[k]: each channel's text and runs from _record_text."""
    cuts = _line_starts(apd_runs, gaps).tolist()
    ends = _line_starts(onset_runs, np.arange(len(gaps) + 1)).tolist()
    apd, onset = memoryview(apd), memoryview(onset)
    for a, b, o0, o1 in zip([0, *cuts], cuts, ends, ends[1:]):
        fh.write(apd[a:b])
        fh.write(onset[o0:o1])
    fh.write(apd[cuts[-1] if cuts else 0:])


def _shaped_lines(buf, end: int):
    """The block buf[:end], which ends in LF, by record shape: its number of
    lines and, per channel, APD first, the runs of lines of one shape that
    _shaped_rows returns. None if the block does not fit.

    A block that does not fit as it is, for blank lines or line ends that
    switch between LF and CRLF, is read once more with each CRLF rewritten
    as LF and its blank lines dropped; a CR left after that is not a line
    end, and the block does not fit."""
    runs = _channel_runs(buf, end)
    if runs is not None:
        return sum(len(rows) for r in runs for rows, _, _ in r), runs
    text = bytes(memoryview(buf)[:end]).replace(b"\r\n", b"\n")
    while b"\n\n" in text:
        text = text.replace(b"\n\n", b"\n")
    text = text.removeprefix(b"\n")
    if len(text) == end or b"\r" in text:
        return None
    runs = _channel_runs(text, len(text))
    return None if runs is None else (buf.count(b"\n", 0, end), runs)


def _channel_runs(buf, end: int):
    """Per channel, APD first, what _shaped_rows returns for its lines of
    the block buf[:end], which ends in LF; None if either is None.

    The onset lines are found with find, a run of adjacent ones at a time:
    of the two names, only PMT_ONSET holds a "_" and only APD an "A". The
    find only splits the block; the shape check then reads every line."""
    a = np.frombuffer(buf, np.uint8, end)
    runs = [0]          # the bounds of the APD and onset runs, alternating
    while (at := buf.find(b"_", runs[-1], end)) >= 0:
        start = buf.rfind(b"\n", 0, at) + 1
        apd = buf.find(b"A", at, end)
        stop = buf.rfind(b"\n", 0, apd) + 1 if apd >= 0 else end
        if stop <= start:
            return None
        runs += [start, stop]
    runs.append(end)
    shaped = []
    for name, first in ((b"APD", 0), (b"PMT_ONSET", 1)):
        pieces = [a[i:j] for i, j in zip(runs[first::2], runs[first + 1::2])]
        lines = _shaped_rows(pieces[0] if len(pieces) == 1
                             else np.concatenate([a[:0], *pieces]), name)
        if lines is None:
            return None
        shaped.append(lines)
    return shaped


def _shaped_rows(text: np.ndarray, name: bytes):
    """The lines of text (uint8, each ending in LF), split into runs where
    the line length changes, if every line has the shape of its run's
    first, a record of the channel `name` that ends in LF or CRLF. Per run,
    its rows, a view of text, and its trial and t_ns columns. Else None,
    and None past 2 * MAX_DIGITS runs: a channel in time order changes its
    digit counts fewer times, and each run scans the rest of the text.

    Every byte of a run is checked against its first line, _CHECK_ROWS rows
    at a time in one compare: the rows less the template, with '0' in the
    digit columns, lie within 9 of 0 in the digit columns and are 0 in the
    others."""
    runs, start = [], 0
    while start < len(text):
        if len(runs) == 2 * MAX_DIGITS:
            return None
        head = text[start:start + _MAX_LINE + 1].tobytes()
        width = head.find(b"\n") + 1
        fields = head[:width].split(b"\t")
        if (len(fields) != 4 or fields[1] != name
                or fields[3] not in (b"DETECT\n", b"DETECT\r\n")
                or not all(len(f) <= MAX_DIGITS and f.isdigit()
                           for f in fields[::2])):
            return None
        # the run ends at the first row that does not end in LF
        rest = text[start:]
        n = len(rest) // width
        stops = np.flatnonzero(rest[width - 1:n * width:width] != _LF)
        n = int(stops[0]) if len(stops) else n
        t_stop = width - len(fields[3]) - 1
        trial = slice(0, len(fields[0]))
        t_ns = slice(t_stop - len(fields[2]), t_stop)
        template = np.frombuffer(head, np.uint8, width).copy()
        span = np.zeros(width, np.uint8)
        for f in (trial, t_ns):
            template[f], span[f] = _ZERO, 9
        rows = rest[:n * width].reshape(n, width)
        if not all((rows[i:i + _CHECK_ROWS] - template <= span).all()
                   for i in range(0, n, _CHECK_ROWS)):
            return None
        runs.append((rows, trial, t_ns))
        start += n * width
    return runs


def _decode_digits(rows: np.ndarray, field: slice, out: np.ndarray):
    """The values of the ASCII decimal digits rows[:, field] into out.

    Eight digits at a time: their bytes, read as one little-endian uint64
    (first digit lowest) and shifted left until the last of them is the top
    byte, less '0' in each, are summed in pairs, fours and eights by
    multiply, shift and mask. A field is followed by at least eight bytes
    of its row."""
    x, low = np.empty(len(rows), np.uint64), np.empty(len(rows), np.uint64)
    for start in range(field.start, field.stop, 8):
        k = min(8, field.stop - start)
        up = np.uint64(64 - 8 * k)
        np.left_shift(rows[:, start:start + 8].view("<u8")[:, 0], up, out=x)
        x -= _ZEROS << up
        for shift, scale, mask in _DIGIT_SUMS:
            np.right_shift(x, shift, out=low)
            x *= scale
            x += low
            x &= mask
        if start > field.start:
            out *= 10 ** k
            out += x.view(np.int64)
        else:
            out[:] = x


def _parse_records(text: bytes, lineno: int, n_trials: int):
    """The records of `text`, whose every line ends in LF, one line at a
    time by the grammar of the sim docstring; `lineno` is the file line
    number of its first line.

    Per channel, APD first, the trial, t_ns and line number columns (int64)
    of its records up to the first line that breaks the grammar or whose
    trial is not below n_trials; that line's number and message, or None;
    and the number of lines of `text`."""
    # per record: its channel, trial, t_ns and line
    rows = np.empty((text.count(b"\n"), 4), np.int64)
    n, bad, i = 0, None, lineno - 1
    for i, line in enumerate(io.BytesIO(text), lineno):
        line = line[:-1].removesuffix(b"\r")
        if not line:                # blank lines are skipped
            continue
        fields = line.split(b"\t")
        if (len(fields) != 4 or fields[1] not in _CHANNEL_CODES
                or fields[3] != b"DETECT"):
            shown = line.decode("utf-8", "backslashreplace")
            bad = f"malformed record {shown[:80]!r}"
        elif not (fields[0].isdigit() and fields[2].isdigit()):
            bad = "non-integer field"
        elif max(len(fields[0]), len(fields[2])) > MAX_DIGITS:
            bad = f"integer field longer than {MAX_DIGITS} digits"
        elif (trial := int(fields[0])) >= n_trials:
            bad = f"trial {trial} outside the manifest's {n_trials} trials"
        if bad:
            bad = i, bad
            break
        rows[n] = _CHANNEL_CODES[fields[1]], trial, int(fields[2]), i
        n += 1
    rows = rows[:n]
    return ([[rows[rows[:, 0] == code, k] for k in (1, 2, 3)]
             for code in CHANNEL_NAMES], bad, i - lineno + 1)
