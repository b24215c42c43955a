"""Trace CSV, packed bitstream, and commitment file formats.

Trace CSV: header `round,mode,x_a,x_b,rss_ma,rss_mb,injected`, one row
per probing round. The same format is the replay-ingestion input;
replayed experiment captures may omit the mode and injected columns.

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
integer tables.

Ingest reads a file whose header line is export's with a numpy kernel
for the rows export writes (`_export_rows`): blocks of the file are
checked with whole-block byte counts, and each number is read from the
8-byte word ending at its field. A file holding anything else (-inf
erasures, |v| >= 1000 dBm, modes past 8 digits, spaces, CRLF, blank
lines, exponents) is read whole by `_read_any_form`, which defines the
accepted grammar, the values and the located errors; the kernel returns
the same columns bit for bit, or leaves the file to it.

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

from .errors import ContractError, TraceFormatError
from .fuzzy import Commitment, pack_bits, unpack_bits
from .quantize import Bitstream
from .reed_solomon import RsParams
from .session import MeasurementTrace

TRACE_HEADER = ["round", "mode", "x_a", "x_b", "rss_ma", "rss_mb", "injected"]
REQUIRED_COLUMNS = ["round", "x_a", "x_b", "rss_ma", "rss_mb"]
_ROW_FORMAT = "%d,%d,%.4f,%.4f,%.4f,%.4f,%d\n"
_EXPORT_HEADER = (",".join(TRACE_HEADER) + "\n").encode()
# rows formatted per write, so export memory stays flat on long traces
_CHUNK_ROWS = 65_536
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


def ingest_trace(
    path,
    p_x_dbm: float = 0.0,
    injection_power_dbm: float | None = None,
    coherence_block_rounds: int = 1,
    scheme: str = "RAKG",
) -> MeasurementTrace:
    """Parse a trace CSV back into a replay-ready MeasurementTrace.

    Requires the round,x_a,x_b,rss_ma,rss_mb columns; mode and injected
    are optional (zero when absent, as in raw experiment captures).
    Every field is a number as Python's `float` reads it; blank lines
    are skipped. The required columns must be finite or -inf, the
    erasure sentinel the simulator records for a zero-gain round and
    export writes as `-inf`; NaN and +inf are refused. mode must be an
    integer in the int64 range, and comes back exactly as written;
    injected must be 0 or 1. Errors name the file line as `row N`.

    A file whose header line is export's, byte for byte, is read by
    `_read_export_form` when every row is in the narrow form export
    writes (no -inf, no |value| >= 1000 dBm, modes of up to 8 digits);
    it returns the same columns `_read_any_form` would, contiguous. Any
    other file goes whole to `_read_any_form`, which defines the grammar,
    the values and the errors.
    """
    with open(path, "rb") as fh:
        columns = _read_export_form(fh) if fh.readline() == _EXPORT_HEADER else None
    if columns is None:
        columns = _read_any_form(path)
    return MeasurementTrace(
        *columns,
        p_x_dbm=p_x_dbm,
        injection_power_dbm=p_x_dbm if injection_power_dbm is None else injection_power_dbm,
        coherence_block_rounds=coherence_block_rounds,
        scheme=scheme,
    )


def _read_export_form(fh) -> tuple[np.ndarray, ...] | None:
    """(mode, x_a, x_b, rss_ma, rss_mb, injected) of the rest of `fh`, or
    None unless it holds rows, each in the form `_export_rows` reads and
    ended by a newline.

    `fh` is read in `_READ_BLOCK` blocks, each parsed up to its last
    newline, so the working set stays small on long traces.
    """
    parts, carry = [], b""
    for chunk in iter(functools.partial(fh.read, _READ_BLOCK), b""):
        buf = bytes(_WORD) + carry + chunk
        del chunk  # one copy of the block at a time keeps the peak down
        end = buf.rfind(b"\n") + 1
        carry = buf[max(end, _WORD):]
        if end:
            part = _export_rows(buf, end)
            if part is None:
                return None
            parts.append(part)
    if carry or not parts:
        return None
    mode = np.concatenate([p[0] for p in parts])
    values = [np.concatenate([p[1][j] for p in parts]) for j in range(4)]
    return mode, *values, np.concatenate([p[2] for p in parts])


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
        body = fh.tell()
        data = _read_rows(path, fh, len(columns), float, np.float64, "row", first_line=2)
        if not data.shape[0]:
            raise TraceFormatError(f"{path}: no data rows")

        def rows():  # (line number, fields) of each data row
            fh.seek(body)
            return ((lineno, line.split(",")) for lineno, line in _data_lines(fh, first_line=2))

        mode = data[:, idx["mode"]] if "mode" in idx else np.zeros(data.shape[0])
        injected = data[:, idx["injected"]] if "injected" in idx else np.zeros(data.shape[0])
        # a float holds each integer below 2**53 exactly; from there on, the
        # field's text gives the value
        wide = np.abs(mode) >= 2.0**53
        exact = []
        if wide.any():
            exact = [_exact_int(f[idx["mode"]]) for (_, f), w in zip(rows(), wide) if w]
        not_int = ~(mode == np.floor(mode))
        not_int[wide] = [v is None for v in exact]
        for bad, why in (
            (~(data[:, [idx[c] for c in REQUIRED_COLUMNS]] < np.inf).all(axis=1),
             "non-finite value other than -inf"),
            (not_int, "mode is not an integer"),
            ((injected != 0) & (injected != 1), "injected is not 0 or 1"),
        ):
            if bad.any():
                lineno, _ = next(itertools.islice(rows(), int(np.argmax(bad)), None))
                raise TraceFormatError(f"{path}: row {lineno}: {why}")
    mode = (np.where(wide, 0.0, mode) if exact else mode).astype(np.int64)
    mode[wide] = exact
    return (mode, *(data[:, idx[c]] for c in REQUIRED_COLUMNS[1:]), injected.astype(bool))


def _exact_int(text: str) -> int | None:
    """The value of a number `float` reads, if it is an int64; else None."""
    try:
        value = Decimal(text)
    except InvalidOperation:
        return None
    if value == value.to_integral_value() and -(2**63) <= value < 2**63:
        return int(value)
    return None


def _read_rows(path, fh, width: int, parse, dtype, label: str, first_line: int) -> np.ndarray:
    """The rest of `fh` as a `(rows, width)` array of comma-separated numbers.

    One `np.loadtxt` pass reads well-formed input. What it accepts is a
    subset of `parse` (`float` or `_int64`) on each stripped field, with
    the same values, so when it fails or finds another width the lines
    are scanned again one by one with `parse`. That raises a
    TraceFormatError naming the first bad line as `<label> N`, or returns
    the rows of input only `parse` reads (`1_000`, whitespace-only lines).
    """
    start = fh.tell()
    try:
        with warnings.catch_warnings():
            # an empty body is reported by the caller, not as a warning
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            data = np.loadtxt(fh, dtype=dtype, delimiter=",", comments=None, ndmin=2)
        if data.shape[1] == width or not data.size:
            return data
    except ValueError:
        pass
    fh.seek(start)
    rows = []
    for lineno, line in _data_lines(fh, first_line):
        parts = line.split(",")
        if len(parts) != width:
            raise TraceFormatError(
                f"{path}: {label} {lineno}: expected {width} fields, got {len(parts)}"
            )
        try:
            rows.append([parse(v) for v in parts])
        except (ValueError, OverflowError) as exc:
            raise TraceFormatError(f"{path}: {label} {lineno}: {exc}") from None
    return np.array(rows, dtype=dtype).reshape(-1, width)


def _data_lines(fh, first_line: int):
    """(line number, stripped text) of each non-blank line left in `fh`."""
    for lineno, line in enumerate(fh, start=first_line):
        line = line.strip()
        if line:
            yield lineno, line


def _int64(text: str) -> np.int64:
    return np.int64(int(text))


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

    Without a sidecar the whole padded byte payload is taken as bits and
    source rounds default to 0..n-1. Sidecar errors name the file line.
    """
    path = Path(path)
    blob = path.read_bytes()
    sidecar = _sidecar(path)
    if sidecar.exists():
        with open(sidecar, "r", encoding="utf-8", errors="replace") as fh:
            rounds = _read_rows(sidecar, fh, 1, _int64, np.int64, "line", first_line=1)[:, 0]
        if 8 * len(blob) < rounds.size:
            raise TraceFormatError(
                f"{path}: holds {8 * len(blob)} bits, but {sidecar.name} lists {rounds.size}"
            )
        return Bitstream(bits=unpack_bits(blob, rounds.size), source_rounds=rounds)
    bits = np.unpackbits(np.frombuffer(blob, dtype=np.uint8))
    return Bitstream(bits=bits, source_rounds=np.arange(bits.size, dtype=np.int64))


def write_commitments(path, commitments: list[Commitment], params: RsParams) -> None:
    blob_len = (params.block_bits + 7) // 8
    with open(path, "wb") as fh:
        fh.write(_COMMIT_MAGIC)
        fh.write(_COMMIT_HEADER.pack(params.m, params.n, params.k, len(commitments)))
        for cm in commitments:
            fh.write(cm.verifier_digest)
            packed = pack_bits(cm.delta)
            assert len(packed) == blob_len
            fh.write(packed)


def read_commitments(path) -> tuple[list[Commitment], RsParams]:
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
        blob_len = (params.block_bits + 7) // 8
        commitments = []
        for b in range(count):
            digest = fh.read(32)
            blob = fh.read(blob_len)
            if len(digest) != 32 or len(blob) != blob_len:
                raise TraceFormatError(f"{path}: truncated block {b}")
            delta = unpack_bits(blob, params.block_bits)
            commitments.append(
                Commitment(delta=delta, verifier_digest=digest, params=params)
            )
    return commitments, params
