"""Trace CSV, antenna profile CSV, packed bitstream, and commitment file formats.

Trace CSV: header `round,mode,x_a,x_b,rss_ma,rss_mb,injected`, one row
per probing round. The same format is the replay-ingestion input;
replayed experiment captures may omit the mode and injected columns.
The file holds exactly a MeasurementTrace's columns: the scheme, the
calibrated transmit power and the injection power are not in it, and a
replay takes them from its config. The `round` column is required but
never read: rows replay in file order, and their round values are not checked.

Precision contract: dBm values are written as `%.4f`, 4 decimals
rounded half-to-even from the exact binary value (0.03125 -> 0.0312,
-0.00001 -> -0.0000; -inf erasures stay -inf). Ingesting an exported
value v therefore returns float("%.4f" % v), not v, and a replayed
session can differ from the simulated one where that rounding moves a
value across a quantization threshold.

Export writes the bytes `_ROW_FORMAT` gives, chunk by chunk with numpy:
each field is looked up in space-padded digit tables and the padding is
dropped. A `%.4f` value goes through the tables only where rounding
|v| * 1e4 to an integer is certain to match the exact binary value
(`_fixed4`); a row holding any other value, or a negative mode, is
formatted by `_ROW_FORMAT` itself. The sidecar writer shares the
integer tables and the chunk size `_CHUNK_ROWS`, so both writers' working
sets are a fixed size, chosen to fit in a core's cache, whatever the
trace length.

Ingest reads a file whose header line is export's with a numpy kernel
for the rows export writes (`_export_rows`): blocks of the file are
checked with whole-block byte counts, and each number is read from the
8-byte word ending at its field. A file holding anything else (-inf
erasures, |v| >= 1000 dBm, modes past 8 digits, spaces, CRLF, blank
lines, exponents) is read whole by `_read_any_form`, which defines the
accepted grammar, the values and the located errors; the kernel's rows
come out the same bit for bit.

Antenna profile CSV: header `mode,angle_deg,gain_linear`, rows read by
`_Table` as the general reader's are: one grammar, int64 rule and error rule.

Bitstreams: packed binary, MSB-first within bytes, zero-padded tail,
plus a `<name>.rounds` sidecar listing each bit's source round (one
per line, so the sidecar also fixes the exact bit count).

Commitment file: little-endian header (magic, m, n, k, block count)
followed by one 32-byte digest plus one packed delta blob per block.
"""
from __future__ import annotations

import functools
import itertools
import shutil
import struct
import warnings
from decimal import Decimal, InvalidOperation
from pathlib import Path

import numpy as np

from .antenna import _INT64_MODES, AntennaProfile
from .errors import ContractError, ProfileError, TraceFormatError
from .fuzzy import Commitments, pack_bits, unpack_bits
from .quantize import Bitstream
from .reed_solomon import RsParams
from .session import MeasurementTrace

TRACE_HEADER = ["round", "mode", "x_a", "x_b", "rss_ma", "rss_mb", "injected"]
REQUIRED_COLUMNS = ["round", "x_a", "x_b", "rss_ma", "rss_mb"]
_ROW_FORMAT = "%d,%d,%.4f,%.4f,%.4f,%.4f,%d\n"
_EXPORT_HEADER = (",".join(TRACE_HEADER) + "\n").encode()
# rows formatted per write by export and by the sidecar writer. Their
# temporaries take about 190 B (export) and 46 B (sidecar) per row, so
# 8,192 rows keep export's near 1.5 MiB, inside one core's 2 MiB L2 on
# the Xeon this was measured on; 4,096 to 16,384 rows wrote fastest there,
# and 65,536 rows took 11.7 MiB and wrote slower (100k and 1.5M rows)
_CHUNK_ROWS = 8_192
# bytes read per block by the export-form reader, and the word it reads fields in
_READ_BLOCK = 1 << 18
_WORD = 8
_COMMIT_MAGIC = b"PKFC"
_COMMIT_HEADER = struct.Struct("<BHHI")


def export_trace_csv(trace: MeasurementTrace, path) -> None:
    columns = (trace.mode, trace.x_a, trace.x_b, trace.rss_ma, trace.rss_mb, trace.injected)
    with open(path, "wb") as fh:
        fh.write(_EXPORT_HEADER)
        for lo in range(0, trace.n_rounds, _CHUNK_ROWS):
            fh.write(_csv_rows(lo, *(c[lo:lo + _CHUNK_ROWS] for c in columns)))


def _csv_rows(lo: int, mode, x_a, x_b, rss_ma, rss_mb, injected) -> bytes:
    """`_ROW_FORMAT` of rows lo, lo + 1, ... of the given columns, byte for byte.

    A row with a negative mode, or with a value `_fixed4` cannot round
    (exact and near ties, |v| >= 10**4, inf, nan), is formatted by
    `_ROW_FORMAT` itself.
    """
    tables = _digit_tables()
    mode = np.asarray(mode, dtype=np.int64)
    bad = mode < 0
    fields = _int_fields(np.arange(lo, lo + mode.size, dtype=np.int64), tables["units_comma"])
    fields += _int_fields(np.where(bad, 0, mode), tables["units_comma"])
    for column in (x_a, x_b, rss_ma, rss_mb):
        whole, frac, exact = _fixed4(np.asarray(column, dtype=np.float64))
        fields += (tables["whole"][whole], tables["frac"][frac])
        bad |= ~exact
    fields.append(tables["flag"][np.asarray(injected, dtype=np.int64)])
    columns = (mode, x_a, x_b, rss_ma, rss_mb, injected)
    return _join_rows(
        fields, bad, lambda i: _ROW_FORMAT % (lo + i, *(c[i].item() for c in columns))
    )


def _fixed4(v: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """`%.4f` of v as (sign and integer part, 4 decimals, exact) table indices.

    For y = |v| * 1e4 and k = rint(y), `%.4f` rounds v to k / 1e4 with v's
    sign whenever |y - k| <= 0.5 - 2**-18 and k < 10**8: below 10**8, y
    is within 2**-27 of the exact product, so k is its nearest integer.
    Where that test fails, `exact` is False and the indices are 0.
    """
    y = np.abs(v) * 1e4
    k = np.rint(y)
    with np.errstate(invalid="ignore"):
        exact = (np.abs(y - k) <= 0.5 - 2.0**-18) & (k < 1e8)
    whole, frac = np.divmod(np.where(exact, k, 0.0).astype(np.int64), 10_000)
    whole += np.signbit(v) * 10_000
    return whole, frac, exact


def _int_fields(values: np.ndarray, units: np.ndarray) -> list[np.ndarray]:
    """`%d` of the non-negative int64 `values` as string columns of 4-digit
    groups, most significant first; the last group comes from `units`."""
    top = int(values.max()) if values.size else 0
    inner = _digit_tables()["group"]
    fields = []
    rest = values
    for j in range((len(str(top)) + 3) // 4):
        rest, group = np.divmod(rest, 10_000)
        fields.append((inner if j else units)[group + (rest == 0) * 10_000])
    return fields[::-1]


def _join_rows(fields: list[np.ndarray], bad: np.ndarray, fallback) -> bytes:
    """The rows of the string columns `fields`, joined with their padding
    spaces dropped; row i is `fallback(i)` instead where `bad[i]`.

    Empties `fields`, so each column is freed once it is copied."""
    rows = np.empty(bad.size, dtype=[(f"f{i}", f.dtype) for i, f in enumerate(fields)])
    for i, f in enumerate(fields):
        rows[f"f{i}"] = f
    fields.clear()
    if not bad.any():
        padded = rows.tobytes()
        del rows
        return padded.translate(None, b" ")
    out, start = [], 0
    for i in np.flatnonzero(bad).tolist():
        out += (rows[start:i].tobytes().translate(None, b" "), fallback(i).encode())
        start = i + 1
    out.append(rows[start:].tobytes().translate(None, b" "))
    return b"".join(out)


@functools.cache
def _digit_tables() -> dict[str, np.ndarray]:
    """Space-padded lookup tables of the CSV and sidecar writers.

    Integers print as 4-digit groups. `group` holds an inner group q as
    `%04d` at [q], and a leading one as `%4d` at [10**4 + q], blank for 0.
    `units_comma` and `units_newline` hold the last group the same way,
    except that a lone 0 prints, followed by its terminator. `whole`
    holds the sign and integer part of a `%.4f` value and its point:
    `%5d` of +q at [q], "-q" right-aligned at [10**4 + q]. `frac` holds
    the 4 decimals and a comma, `flag` the injected flag and the newline.
    """
    q = np.arange(10_000)[:, None]
    zero = (q // 10 ** np.arange(3, -1, -1) % 10 + ord("0")).astype(np.uint8)
    ndigits = 1 + (q >= 10) + (q >= 100) + (q >= 1000)
    lead = np.where(np.arange(4) < 4 - ndigits, ord(" "), zero).astype(np.uint8)
    blank0 = lead.copy()
    blank0[0] = ord(" ")
    plus = np.hstack([np.full_like(q, ord(" "), dtype=np.uint8), lead])
    minus = plus.copy()
    minus[q[:, 0], 4 - ndigits[:, 0]] = ord("-")
    return {
        "group": _strings(np.vstack([zero, blank0])),
        "units_comma": _strings(np.vstack([zero, lead]), b","),
        "units_newline": _strings(np.vstack([zero, lead]), b"\n"),
        "whole": _strings(np.vstack([plus, minus]), b"."),
        "frac": _strings(zero, b","),
        "flag": _strings(zero[:2, 3:], b"\n"),
    }


def _strings(cells: np.ndarray, end: bytes = b"") -> np.ndarray:
    """Each row of the uint8 array `cells`, followed by `end`, as one `S` string."""
    tail = np.broadcast_to(np.frombuffer(end, np.uint8), (len(cells), len(end)))
    block = np.ascontiguousarray(np.hstack([cells, tail]))
    block.flags.writeable = False  # the tables are shared by every caller
    return block.view(f"S{block.shape[1]}")[:, 0]


def ingest_trace(path) -> MeasurementTrace:
    """Parse a trace CSV back into a replay-ready MeasurementTrace.

    The trace holds the file's per-round columns only; a replay takes the
    run-level facts (scheme, calibrated power, injection power) from its
    config.

    Requires the round,x_a,x_b,rss_ma,rss_mb columns; mode and injected
    are optional (zero when absent, as in raw experiment captures).
    `round` must hold a number but is never read: rows replay in file
    order. Every field is a number as Python's `float` reads it; blank lines
    are skipped. The required columns must be finite or -inf, the
    erasure sentinel the simulator records for a zero-gain round and
    export writes as `-inf`; NaN and +inf are refused. mode must be an
    integer in the int64 range, and comes back exactly as written;
    injected must be 0 or 1. Errors name the file line as `row N`: a
    field count or a number that does not parse first, then the first
    line in file order with a bad value (`_Table.refuse`).

    A file whose header line is export's, byte for byte, and whose rows
    are all in the narrow form export writes (no -inf, no |value| >= 1000
    dBm, modes of up to 8 digits) is read by `_read_export_form`. Any
    other file goes whole to `_read_any_form`, which defines the grammar,
    the values and the errors; the columns are the ones it would return,
    bit for bit.
    """
    with open(path, "rb") as fh:
        columns = _read_export_form(fh) if fh.readline() == _EXPORT_HEADER else None
    return MeasurementTrace(*(_read_any_form(path) if columns is None else columns))


def _read_export_form(fh) -> tuple[np.ndarray, ...] | None:
    """(mode, x_a, x_b, rss_ma, rss_mb, injected) of the rest of `fh`, or
    None unless `_export_rows` reads every block and at least one row, the
    last ended by a newline.

    `fh` is read in `_READ_BLOCK` blocks, each parsed up to its last
    newline, so the working set stays small on long traces.
    """
    parts, carry = [], b""
    for chunk in iter(functools.partial(fh.read, _READ_BLOCK), b""):
        buf = bytes(_WORD) + carry + chunk
        del chunk  # one copy of the block at a time keeps the peak down
        end = buf.rfind(b"\n") + 1
        if end:
            part = _export_rows(buf, end)
            if part is None:
                return None
            mode, values, injected = part
            parts.append((mode, *values, injected))
        carry = buf[max(end, _WORD):]
    if carry or not parts:
        return None
    return parts[0] if len(parts) == 1 else tuple(np.concatenate(c) for c in zip(*parts))


def _export_rows(buf: bytes, end: int) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """(mode, (4, rows) dBm values, injected) of the rows in buf[_WORD:end],
    or None unless each is `round,mode,x_a,x_b,rss_ma,rss_mb,injected\n`
    with round 1 to 19 digits, mode an optional `-` and 1 to 8 digits, each
    dBm value an optional `-`, 0 to 3 digits, `.` and 4 digits, and
    injected `0` or `1`. The first _WORD bytes of buf are padding.

    The rules are checked with whole-block counts. The bytes below `-` are
    the field ends: 6 commas and a newline per row. The bytes `-`, `.` and
    `/` are only the signs found at field starts and the points found 5
    bytes before each dBm field's end; no byte is above `9`. So every other
    byte is a digit. Each numeric field is read as the 8-byte little-endian
    word ending at its end, the bytes before its digits set to `0`, and
    its digits combined by three multiply-shift steps (Lemire, "Number
    Parsing at a Gigabyte per Second", 2021). A dBm value is its digits
    k < 2**53 over 1e4, negated as a float: one exact division rounded
    once, as `float` rounds the text, and `-0.0000` keeps its sign.
    """
    block = np.frombuffer(buf, np.uint8, count=end)
    body = block[_WORD:]
    flat = np.flatnonzero(body < ord("-"))
    rows = flat.size // 7
    if (
        flat.size != 7 * rows
        or np.count_nonzero(body == ord(",")) != 6 * rows
        or body.max() > ord("9")
    ):
        return None
    ends = np.add(flat.reshape(rows, 7).T, _WORD, order="C")  # (7, rows)
    del flat
    starts = np.empty_like(ends)
    starts[0, 0] = _WORD
    starts[0, 1:] = ends[6, :-1] + 1
    starts[1:] = ends[:-1] + 1
    lengths = ends - starts
    sign = block[starts[1:6]] == ord("-")  # of mode and the dBm fields
    digits = lengths[1:6] - sign  # bytes after the sign, a dBm field's point included
    flag = block[starts[6]]
    if (
        (block[ends[6]] != ord("\n")).any()
        or lengths[0].min() < 1 or lengths[0].max() > 19
        or digits[0].min() < 1 or digits[0].max() > 8
        or digits[1:].min() < 5 or digits[1:].max() > 8
        or (lengths[6] != 1).any() or flag.max() > ord("1")
        # with each dBm field's point found below, no other byte is - . or /
        or np.count_nonzero((body - np.uint8(ord("-"))) < 3) != 4 * rows + np.count_nonzero(sign)
    ):
        return None
    # words[i] is the 8 bytes buf[i:i + 8]
    words = np.ndarray((end - 7,), dtype="<u8", buffer=buf, strides=(1,))
    dbm = words[ends[2:6] - _WORD]
    if ((dbm & np.uint64(0xFF << 24)) != np.uint64(ord(".") << 24)).any():
        return None
    values = _swar_digits(dbm, digits[1:], point=True) / 1e4
    np.negative(values, out=values, where=sign[1:])
    mode = _swar_digits(words[ends[1] - _WORD], digits[0], point=False).astype(np.int64)
    np.negative(mode, out=mode, where=sign[0])
    return mode, values, flag == ord("1")


def _swar_digits(words: np.ndarray, count: np.ndarray, point: bool) -> np.ndarray:
    """The number the last `count` (1 to 8) bytes of each little-endian word
    spell in ASCII digits, most significant first; the bytes before them
    read as `0`. With `point`, byte 3 (5th from the end) is a `.` to skip."""
    u = np.uint64
    # the bytes to subtract, and the weights of byte pairs 0 and 1 (pairs 2
    # and 3 weigh 100 and 1); with the point, pair 1 is a digit and a 0
    zeros, w0, w1 = (
        (0x303030302E303030, 10**5, 10**3) if point else (0x3030303030303030, 10**6, 10**4)
    )
    keep = ~u(0) << (u(8) - count.astype(u)) * u(8)
    d = words & keep
    d -= u(zeros) & keep  # one digit value per byte
    d = d * u(10) + (d >> u(8))  # pairs
    pairs = u(0x000000FF000000FF)
    return ((d & pairs) * u(100 + (w0 << 32)) + ((d >> u(16)) & pairs) * u(1 + (w1 << 32))) >> u(32)


def _read_any_form(path) -> tuple[np.ndarray, ...]:
    """(mode, x_a, x_b, rss_ma, rss_mb, injected) of any trace CSV
    `ingest_trace` accepts; else the TraceFormatError naming its first bad row."""
    # undecodable bytes become U+FFFD, which no number or column name
    # holds, so they are reported at their line instead of raising
    with open(path, "r", encoding="utf-8", errors="replace") as fh:
        header_line = fh.readline().strip()
        if not header_line:
            raise TraceFormatError(f"{path}: empty file")
        columns = [c.strip() for c in header_line.split(",")]
        missing = [c for c in REQUIRED_COLUMNS if c not in columns]
        if missing:
            raise TraceFormatError(f"{path}: missing column(s) {', '.join(missing)}")
        idx = {c: columns.index(c) for c in columns}
        table = _Table(path, fh, len(columns), TraceFormatError, "row")
        data = table.data
        if not data.shape[0]:
            raise TraceFormatError(f"{path}: no data rows")
        none = np.zeros(data.shape[0], dtype=np.int64)
        mode, not_int = table.exact_ints(idx["mode"]) if "mode" in idx else (none, none != 0)
        injected = data[:, idx["injected"]] if "injected" in idx else np.zeros(data.shape[0])
        table.refuse([
            (~(data[:, [idx[c] for c in REQUIRED_COLUMNS]] < np.inf).all(axis=1),
             "non-finite value other than -inf"),
            (not_int, "mode is not an integer"),
            ((injected != 0) & (injected != 1), "injected is not 0 or 1"),
        ])
    return (mode, *(data[:, idx[c]] for c in REQUIRED_COLUMNS[1:]), injected.astype(bool))


def load_antenna_profile(path) -> AntennaProfile:
    """Load a profile CSV with header mode,angle_deg,gain_linear.

    Rows are read as a trace's (`_Table`): a mode is any number `float`
    reads that is an int64, so `5.0` and `1e3` are modes 5 and 1000. Every
    mode must list the same angle set, in any row order; the interpolation
    rule covers the gaps. Errors name the file line as `line N`: a field
    count or a number that does not parse first, then the first line in
    file order with a bad mode, gain or angle or a repeated (mode, angle).
    """
    # undecodable bytes become U+FFFD, which no number holds
    with open(path, "r", encoding="utf-8", errors="replace") as fh:
        header = fh.readline().strip()
        if header.replace(" ", "") != "mode,angle_deg,gain_linear":
            raise ProfileError(f"{path}: line 1: expected header "
                               f"'mode,angle_deg,gain_linear', got {header!r}")
        table = _Table(path, fh, 3, ProfileError, "line")
        if not table.data.shape[0]:
            raise ProfileError(f"{path}: no profile rows")
        modes, not_int = table.exact_ints(0)
        angles, gains = table.data[:, 1], table.data[:, 2]
        # stable, so a run of one (mode, angle) pair keeps file order and
        # each row of it after the first repeats an earlier line
        order = np.lexsort((angles, modes))
        m, a = modes[order], angles[order]
        repeat = np.zeros(order.size, dtype=bool)
        repeat[order[1:]] = (m[1:] == m[:-1]) & (a[1:] == a[:-1])
        r = np.argmax(repeat)  # the first repeat, the only one a refusal names
        table.refuse([
            (not_int, "mode must be an int64, got {0}"),
            (~((gains >= 0.0) & (gains < np.inf)), "gain must be finite and >= 0, got {v[2]}"),
            (~((angles >= 0.0) & (angles < 360.0)), "angle must be in [0, 360), got {v[1]}"),
            (repeat, f"duplicate (mode, angle) = ({modes[r]}, {angles[r]})"),
        ])
    modes, listed = np.unique(m, return_counts=True)  # and the angles each lists
    if (listed != listed[0]).any() or (a.reshape(modes.size, -1) != a[:listed[0]]).any():
        raise ProfileError(f"{path}: modes list different angle sets")
    gains = gains[order].reshape(modes.size, -1)
    return AntennaProfile(tuple(modes.tolist()), a[:listed[0]], gains)


def save_antenna_profile(profile: AntennaProfile, path) -> None:
    # each float as the shortest text `float` reads back to it, so a
    # saved profile loads back exactly
    angles = profile.angles_deg.tolist()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("mode,angle_deg,gain_linear\n")
        for mode, gains in zip(profile.modes, profile.gains.tolist()):
            fh.writelines(f"{mode},{a!r},{g!r}\n" for a, g in zip(angles, gains))


class _Table:
    """The data rows of a CSV file from line `first_line` on, as `_read_rows`'s
    float64 `(rows, width)` array `data`, with the exact int64 columns and
    located refusals of the trace, profile and sidecar readers."""

    def __init__(self, path, fh, width: int, error, label: str, first_line: int = 2):
        self.path, self.fh, self.error, self.label = path, fh, error, label
        self.start, self.first = fh.tell(), first_line
        self.data = _read_rows(path, fh, width, label, first_line, error)

    def _fields(self):  # (line number, stripped fields) of each row, read again
        self.fh.seek(self.start)
        return ((n, [f.strip() for f in ln.split(",")]) for n, ln in _data_lines(self.fh, self.first))

    def exact_ints(self, column: int) -> tuple[np.ndarray, np.ndarray]:
        """The column as int64, exactly as written, and the mask of rows that
        hold no int64 (0 there). A float holds each integer below 2**53
        exactly; from there on, one pass over the text gives the values."""
        values = self.data[:, column]
        wide = np.abs(values) >= 2.0**53
        exact = []
        if wide.any():
            exact = [_exact_int(f[column]) for (_, f), w in zip(self._fields(), wide) if w]
        bad = values != np.floor(values)
        bad[wide] = [v is None for v in exact]
        ints = np.where(wide | bad, 0.0, values).astype(np.int64)
        ints[wide] = [v or 0 for v in exact]
        return ints, bad

    def refuse(self, checks) -> None:
        """Raise the file's error at the first row any `(mask, why)` check
        flags, in file order; on one row the earlier check wins. `why` is
        formatted with the row's fields as text and its numbers as `v`."""
        flagged = [(int(np.argmax(bad)), k) for k, (bad, _) in enumerate(checks) if bad.any()]
        if flagged:
            row, k = min(flagged)
            lineno, fields = next(itertools.islice(self._fields(), row, None))
            why = checks[k][1].format(*fields, v=self.data[row])
            raise self.error(f"{self.path}: {self.label} {lineno}: {why}")


def _exact_int(text: str) -> int | None:
    """The value of a number `float` reads, if it is an int64; else None."""
    try:
        value = Decimal(text)
    except InvalidOperation:
        return None
    if value == value.to_integral_value() and _INT64_MODES.start <= value < _INT64_MODES.stop:
        return int(value)
    return None


def _read_rows(path, fh, width: int, label: str, first_line: int, error) -> np.ndarray:
    """The rest of `fh` as a float64 `(rows, width)` array of comma-separated numbers.

    One `np.loadtxt` pass reads well-formed input. What it accepts is a
    subset of `float` on each stripped field, with the same values, so
    when it fails or finds another width the lines are scanned again one
    by one with `float`. That raises `error` naming the first bad line as
    `<label> N`, or returns the rows of input only `float` reads (`1_000`,
    whitespace-only lines).
    """
    start = fh.tell()
    try:
        with warnings.catch_warnings():
            # an empty body is reported by the caller, not as a warning
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            data = np.loadtxt(fh, dtype=np.float64, delimiter=",", comments=None, ndmin=2)
        if data.shape[1] == width or not data.size:
            return data.reshape(-1, width)
    except ValueError:
        pass
    fh.seek(start)
    rows = []
    for lineno, line in _data_lines(fh, first_line):
        parts = line.split(",")
        if len(parts) != width:
            raise error(f"{path}: {label} {lineno}: expected {width} fields, got {len(parts)}")
        try:
            rows.append([float(v) for v in parts])
        except (ValueError, OverflowError) as exc:
            raise error(f"{path}: {label} {lineno}: {exc}") from None
    return np.array(rows, dtype=np.float64).reshape(-1, width)


def _data_lines(fh, first_line: int):
    """(line number, stripped text) of each non-blank line left in `fh`."""
    for lineno, line in enumerate(fh, start=first_line):
        line = line.strip()
        if line:
            yield lineno, line


def _sidecar(path: Path) -> Path:
    return path.with_suffix(path.suffix + ".rounds")


def write_bitstream(path, stream: Bitstream, same_rounds_as=None) -> None:
    """Write stream's packed bits to path and its source rounds to path's
    `.rounds` sidecar. `same_rounds_as` names a bitstream file already
    written with the same source rounds: its sidecar is copied instead."""
    path = Path(path)
    path.write_bytes(pack_bits(stream.bits))
    if same_rounds_as is not None:
        shutil.copyfile(_sidecar(Path(same_rounds_as)), _sidecar(path))
        return
    rounds = np.asarray(stream.source_rounds, dtype=np.int64)
    with open(_sidecar(path), "wb") as fh:
        for lo in range(0, rounds.size, _CHUNK_ROWS):
            chunk = rounds[lo:lo + _CHUNK_ROWS]
            bad = chunk < 0
            fields = _int_fields(np.where(bad, 0, chunk), _digit_tables()["units_newline"])
            fh.write(_join_rows(fields, bad, lambda i: "%d\n" % chunk[i]))


def read_bitstream(path) -> Bitstream:
    """Read a packed bitstream; the sidecar fixes length and source rounds.

    With a sidecar listing n rounds, the payload must be exactly the
    ceil(n / 8) bytes `write_bitstream` writes. Without one the whole
    padded byte payload is taken as bits and source rounds default to
    0..n-1. Sidecar lines are read as a trace's rows (`_Table`, no header):
    a round is any int64 `float` reads (`1e3` is 1000), rounds increase
    strictly, and errors name the file line as `line N`.
    """
    path = Path(path)
    blob = path.read_bytes()
    sidecar = _sidecar(path)
    if sidecar.exists():
        with open(sidecar, "r", encoding="utf-8", errors="replace") as fh:
            table = _Table(sidecar, fh, 1, TraceFormatError, "line", first_line=1)
            rounds, not_int = table.exact_ints(0)
            down = np.r_[False, rounds[1:] <= rounds[:-1]]
            table.refuse([(not_int, "round must be an int64, got {0}"),
                          (down, "rounds must be strictly increasing, got {0}")])
        need = -(-rounds.size // 8)
        if len(blob) != need:
            raise TraceFormatError(
                f"{path}: holds {8 * len(blob)} bits, but {sidecar.name} lists {rounds.size}, "
                f"which pack into {need} byte(s)"
            )
        return Bitstream(bits=unpack_bits(blob, rounds.size), source_rounds=rounds)
    bits = np.unpackbits(np.frombuffer(blob, dtype=np.uint8))
    return Bitstream(bits=bits, source_rounds=np.arange(bits.size, dtype=np.int64))


def write_commitments(path, commitments: Commitments, params: RsParams) -> None:
    """Write the record and its code; a record of another code's block
    width is refused with a ContractError before the file is opened."""
    commitments.check_width(params)
    blocks = np.hstack([commitments.digests, np.packbits(commitments.deltas, axis=1)])
    with open(path, "wb") as fh:
        fh.write(_COMMIT_MAGIC + _COMMIT_HEADER.pack(params.m, params.n, params.k, len(blocks)))
        fh.write(blocks.tobytes())


def read_commitments(path) -> tuple[Commitments, RsParams]:
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != _COMMIT_MAGIC:
            raise TraceFormatError(f"{path}: not a commitment file")
        header = fh.read(_COMMIT_HEADER.size)
        if len(header) != _COMMIT_HEADER.size:
            raise TraceFormatError(f"{path}: truncated header")
        m, n, k, count = _COMMIT_HEADER.unpack(header)
        try:
            params = RsParams(m=m, n=n, k=k)
        except ContractError as exc:
            raise TraceFormatError(f"{path}: {exc}") from None
        if not count:
            raise TraceFormatError(f"{path}: holds no blocks")
        body = fh.read()
    width = 32 + (params.block_bits + 7) // 8  # a block's digest, then its packed delta
    extra = len(body) - count * width
    if extra < 0:
        raise TraceFormatError(f"{path}: truncated block {len(body) // width}")
    if extra:
        raise TraceFormatError(f"{path}: {extra} trailing byte(s) after the last block")
    blocks = np.frombuffer(body, np.uint8).reshape(count, width)
    deltas = np.unpackbits(blocks[:, 32:], axis=1, count=params.block_bits)
    return Commitments(deltas, blocks[:, :32]), params
