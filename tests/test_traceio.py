import struct
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phykey import traceio
from phykey.cli import main
from phykey.config import config_from_mapping
from phykey.errors import TraceFormatError
from phykey.fuzzy import commit_stream
from phykey.pipeline import run_experiment
from phykey.quantize import Bitstream
from phykey.reed_solomon import RsParams
from phykey.session import MeasurementTrace
from phykey.traceio import (
    TRACE_HEADER,
    export_trace_csv,
    ingest_trace,
    read_bitstream,
    read_commitments,
    write_bitstream,
    write_commitments,
)

# Reference oracles: the per-row writer and readers the one-pass paths
# replaced. Export and the sidecar writer must match them byte for byte,
# ingest and the sidecar reader bit for bit.


def oracle_export(trace, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(TRACE_HEADER) + "\n")
        for i in range(trace.n_rounds):
            fh.write(
                f"{i},{int(trace.mode[i])},{trace.x_a[i]:.4f},{trace.x_b[i]:.4f},"
                f"{trace.rss_ma[i]:.4f},{trace.rss_mb[i]:.4f},{int(trace.injected[i])}\n"
            )


def oracle_parse(path):
    """Header columns and the float() parse of every non-blank row."""
    with open(path, "r", encoding="utf-8") as fh:
        columns = [c.strip() for c in fh.readline().strip().split(",")]
        rows = []
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != len(columns):
                raise TraceFormatError(
                    f"{path}: row {lineno}: expected {len(columns)} fields, got {len(parts)}"
                )
            try:
                rows.append([float(v) for v in parts])
            except ValueError as exc:
                raise TraceFormatError(f"{path}: row {lineno}: {exc}") from None
    return columns, np.asarray(rows, dtype=float).reshape(-1, len(columns))


def oracle_sidecar_text(stream):
    return "".join(f"{int(r)}\n" for r in stream.source_rounds)


def oracle_sidecar_rounds(path):
    with open(path, "r", encoding="utf-8") as fh:
        return np.asarray([int(line) for line in fh if line.strip()], dtype=np.int64)


def assert_ingest_matches_oracle(path):
    columns, data = oracle_parse(path)
    back = ingest_trace(path)
    for name in ("x_a", "x_b", "rss_ma", "rss_mb"):
        assert getattr(back, name).tobytes() == data[:, columns.index(name)].tobytes()
    if "mode" in columns:
        np.testing.assert_array_equal(back.mode, data[:, columns.index("mode")])
    if "injected" in columns:
        np.testing.assert_array_equal(back.injected, data[:, columns.index("injected")] == 1)


# `%.4f` rounding that carries into a new digit, and magnitudes at and
# above 10**4, where the digit tables give way to the format itself
CARRY_AND_LARGE = [
    0.99996, 9.99995, 9999.99997, -9999.99997, 99999.99996, 9999.99995, -0.99996,
    1e4, -1e4, 10000.00004, -12345.67891, 1e8 - 0.00004, 1e8, -3.5e15, 1.25e300,
]


def hard_values(rng, n):
    """dBm-like doubles mixed with the cases `%.4f` rounding must get right."""
    k = rng.integers(-10**10, 10**10, n)  # ten-thousandths, up to 1e6
    tie = (k + 0.5) / 1e4
    pools = [
        rng.normal(-60.0, 15.0, n),
        np.full(n, -np.inf),
        np.full(n, -0.0),
        rng.uniform(-0.00005, 0.0, n),
        rng.choice([-0.03125, 0.03125], n),
        (2 * rng.integers(-2**25, 2**25, n) + 1) / 32.0,  # exact binary ties
        tie,
        np.nextafter(tie, np.inf),
        np.nextafter(tie, -np.inf),
        rng.uniform(-1e6, 1e6, n),
        rng.choice(CARRY_AND_LARGE, n),
    ]
    return np.choose(rng.integers(0, len(pools), n), pools)


def trace_from_columns(mode, x_a, x_b, rss_ma, rss_mb, injected):
    return MeasurementTrace(
        mode=np.asarray(mode, dtype=np.int64),
        x_a=np.asarray(x_a, dtype=float),
        x_b=np.asarray(x_b, dtype=float),
        rss_ma=np.asarray(rss_ma, dtype=float),
        rss_mb=np.asarray(rss_mb, dtype=float),
        injected=np.asarray(injected, dtype=bool),
        p_x_dbm=0.0,
        injection_power_dbm=0.0,
        coherence_block_rounds=1,
    )


def check_export_and_ingest(trace, tmp_path):
    """Export equals the oracle's bytes; ingest equals the oracle's parse,
    -inf erasures included, and gives back the exact int64 modes."""
    path, ref = tmp_path / "t.csv", tmp_path / "ref.csv"
    export_trace_csv(trace, path)
    oracle_export(trace, ref)
    assert path.read_bytes() == ref.read_bytes()
    if trace.n_rounds:
        assert_ingest_matches_oracle(path)
        assert ingest_trace(path).mode.tobytes() == trace.mode.tobytes()


def toy_trace(n=5):
    rng = np.random.default_rng(1)
    return MeasurementTrace(
        mode=np.arange(n, dtype=np.int64),
        x_a=rng.normal(-60, 3, n),
        x_b=rng.normal(-60, 3, n),
        rss_ma=rng.normal(-55, 3, n),
        rss_mb=rng.normal(-55, 3, n),
        injected=np.array([False, True, False, False, True][:n]),
        p_x_dbm=5.0,
        injection_power_dbm=5.0,
        coherence_block_rounds=2,
        scheme="RAKG",
    )


def test_export_header_and_shape(tmp_path):
    path = tmp_path / "t.csv"
    export_trace_csv(toy_trace(), path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "round,mode,x_a,x_b,rss_ma,rss_mb,injected"
    assert len(lines) == 6
    assert lines[1].split(",")[0] == "0"
    # four decimal places on dBm values
    assert len(lines[1].split(",")[2].split(".")[1]) == 4


def test_export_ingest_roundtrip_values(tmp_path):
    path = tmp_path / "t.csv"
    trace = toy_trace()
    export_trace_csv(trace, path)
    back = ingest_trace(path, p_x_dbm=trace.p_x_dbm)
    np.testing.assert_allclose(back.x_a, np.round(trace.x_a, 4))
    np.testing.assert_array_equal(back.injected, trace.injected)
    np.testing.assert_array_equal(back.mode, trace.mode)


def test_five_row_toy_csv(tmp_path):
    path = tmp_path / "toy.csv"
    rows = "\n".join(f"{i},-60.0,-60.0,-55.0,-55.0" for i in range(5))
    path.write_text("round,x_a,x_b,rss_ma,rss_mb\n" + rows + "\n")
    trace = ingest_trace(path)
    assert trace.n_rounds == 5
    assert not trace.injected.any()
    assert np.all(trace.mode == 0)


def test_missing_column_named_in_error(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("round,x_a,x_b,rss_ma\n0,1,2,3\n")
    with pytest.raises(TraceFormatError, match="rss_mb"):
        ingest_trace(path)


def test_non_numeric_cell_reports_row(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("round,x_a,x_b,rss_ma,rss_mb\n0,-60,-60,-55,-55\n1,-60,oops,-55,-55\n")
    with pytest.raises(TraceFormatError, match="row 3"):
        ingest_trace(path)


def test_ragged_row_reports_row(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("round,x_a,x_b,rss_ma,rss_mb\n0,-60,-60,-55\n")
    with pytest.raises(TraceFormatError, match="row 2"):
        ingest_trace(path)


def test_non_finite_value_rejected(tmp_path):
    path = tmp_path / "bad.csv"
    for value in ("nan", "inf", "+inf", "-nan"):
        path.write_text(f"round,x_a,x_b,rss_ma,rss_mb\n0,-60,-60,-55,-55\n1,-60,-60,{value},-55\n")
        with pytest.raises(TraceFormatError, match="row 3: non-finite value other than -inf"):
            ingest_trace(path)
    # -inf is the erasure sentinel export writes, so it reads back as is
    path.write_text("round,x_a,x_b,rss_ma,rss_mb\n0,-inf,-inf,-55,-inf\n")
    back = ingest_trace(path)
    assert (back.x_a[0], back.x_b[0], back.rss_ma[0], back.rss_mb[0]) == (
        -np.inf, -np.inf, -55.0, -np.inf)


def test_bitstream_roundtrip_with_sidecar(tmp_path):
    bits = Bitstream(
        bits=np.array([1, 0, 1, 1, 0, 0, 1, 0, 1], dtype=np.uint8),
        source_rounds=np.array([2, 3, 5, 8, 13, 21, 34, 55, 89]),
    )
    path = tmp_path / "alice.bits"
    write_bitstream(path, bits)
    back = read_bitstream(path)
    np.testing.assert_array_equal(back.bits, bits.bits)
    np.testing.assert_array_equal(back.source_rounds, bits.source_rounds)
    # packed payload is byte-aligned with a zero tail
    assert len(path.read_bytes()) == 2


def test_bitstream_without_sidecar_uses_padded_length(tmp_path):
    path = tmp_path / "raw.bits"
    path.write_bytes(bytes([0b10100000]))
    back = read_bitstream(path)
    assert back.bits.tolist() == [1, 0, 1, 0, 0, 0, 0, 0]


def test_commitment_file_roundtrip(tmp_path, rng):
    params = RsParams(m=4, n=15, k=11)
    bits = rng.integers(0, 2, size=150).astype(np.uint8)
    commitments, covered = commit_stream(bits, params, rng)
    path = tmp_path / "c.bin"
    write_commitments(path, commitments, params)
    back, back_params = read_commitments(path)
    assert back_params == params
    assert len(back) == len(commitments) == covered // params.block_bits
    for a, b in zip(back, commitments):
        np.testing.assert_array_equal(a.delta, b.delta)
        assert a.verifier_digest == b.verifier_digest


def test_commitment_bad_magic_rejected(tmp_path):
    path = tmp_path / "c.bin"
    path.write_bytes(b"NOPE" + bytes(16))
    with pytest.raises(TraceFormatError, match="commitment"):
        read_commitments(path)


@pytest.mark.parametrize("seed", range(50))
def test_export_ingest_match_oracles_over_seeds(seed, tmp_path, monkeypatch):
    rng = np.random.default_rng(seed)
    # small write chunks put chunk boundaries inside these short traces
    monkeypatch.setattr(traceio, "_CHUNK_ROWS", int(rng.integers(1, 64)))
    n = int(rng.integers(1, 400))
    trace = trace_from_columns(
        rng.integers(0, 360, n),
        *(hard_values(rng, n) for _ in range(4)),
        rng.random(n) < 0.3,
    )
    check_export_and_ingest(trace, tmp_path)
    rounds = np.cumsum(rng.integers(1, 2**40, int(rng.integers(0, 300))))
    stream = Bitstream(bits=rng.integers(0, 2, rounds.size), source_rounds=rounds)
    bits_path = tmp_path / "s.bits"
    write_bitstream(bits_path, stream)
    sidecar = tmp_path / "s.bits.rounds"
    assert sidecar.read_text() == oracle_sidecar_text(stream)
    back = read_bitstream(bits_path)
    np.testing.assert_array_equal(back.bits, stream.bits)
    assert back.source_rounds.tobytes() == oracle_sidecar_rounds(sidecar).tobytes()
    np.testing.assert_array_equal(back.source_rounds, stream.source_rounds)


_HARD_FLOATS = st.one_of(
    st.floats(-1e6, 1e6),
    st.sampled_from([-np.inf, -0.0, 0.03125, -0.03125, 0.09375, -4e-5, *CARRY_AND_LARGE]),
    st.floats(-0.00005, 0.0, exclude_min=True),
    st.integers(-10**10, 10**10).flatmap(
        lambda k: st.sampled_from(
            [(k + 0.5) / 1e4, np.nextafter((k + 0.5) / 1e4, np.inf),
             np.nextafter((k + 0.5) / 1e4, -np.inf)]
        )
    ),
)


# beam modes, and any other int64 mode: >= 10**4, past 2**53 and negative
_MODES = st.one_of(st.integers(0, 359), st.integers(-2**63, 2**63 - 1))


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_export_ingest_match_oracles_on_drawn_columns(data, tmp_path_factory):
    n = data.draw(st.integers(0, 40))
    columns = [data.draw(st.lists(_HARD_FLOATS, min_size=n, max_size=n)) for _ in range(4)]
    trace = trace_from_columns(
        data.draw(st.lists(_MODES, min_size=n, max_size=n)),
        *columns,
        data.draw(st.lists(st.booleans(), min_size=n, max_size=n)),
    )
    check_export_and_ingest(trace, tmp_path_factory.mktemp("drawn"))


@pytest.mark.parametrize("lo", [0, 9_990, 99_999_990, 10**12 - 3, 2**62])
def test_csv_rows_match_row_format_across_digit_groups(lo):
    # the row index crosses 9,999 -> 10**4 and 99,999,999 -> 10**8; modes,
    # values and flags take every digit-group and fallback case
    modes = [0, 359, 9_999, 10_000, 99_999_999, 10**8, 2**63 - 1, -1, -10**4, -2**63]
    values = [0.0, -0.0, -0.00001, 0.03125, -60.12345, np.inf, -np.inf, np.nan,
              5e-324, *CARRY_AND_LARGE]
    n = 20
    rng = np.random.default_rng(lo % 1000)
    columns = (
        np.resize(modes, n).astype(np.int64),
        *(rng.permutation(np.resize(values, n)) for _ in range(4)),
        rng.random(n) < 0.5,
    )
    expected = "".join(
        traceio._ROW_FORMAT % (lo + i, *(c[i].item() for c in columns)) for i in range(n)
    )
    assert traceio._csv_rows(lo, *columns) == expected.encode()
    clean = [np.zeros(n, np.int64), *(np.full(n, -60.5) for _ in range(4)), np.zeros(n, bool)]
    assert traceio._csv_rows(lo, *clean) == "".join(
        traceio._ROW_FORMAT % (lo + i, 0, -60.5, -60.5, -60.5, -60.5, 0) for i in range(n)
    ).encode()


def test_export_crosses_ten_thousand_rows(tmp_path, monkeypatch):
    monkeypatch.setattr(traceio, "_CHUNK_ROWS", 4_096)
    rng = np.random.default_rng(3)
    n = 10_050
    trace = trace_from_columns(
        rng.integers(0, 12_000, n), *(rng.normal(-60.0, 15.0, n) for _ in range(4)),
        rng.random(n) < 0.3,
    )
    check_export_and_ingest(trace, tmp_path)


def test_sidecar_matches_oracle_across_digit_groups(tmp_path, monkeypatch):
    monkeypatch.setattr(traceio, "_CHUNK_ROWS", 3)
    rounds = np.array([-10**4, -1, 0, 9_999, 10_000, 99_999_999, 10**8, 2**40, 2**63 - 1])
    stream = Bitstream(bits=np.ones(rounds.size, np.uint8), source_rounds=rounds)
    bits_path = tmp_path / "s.bits"
    write_bitstream(bits_path, stream)
    assert (tmp_path / "s.bits.rounds").read_text() == oracle_sidecar_text(stream)
    np.testing.assert_array_equal(read_bitstream(bits_path).source_rounds, rounds)


_GRAMMAR_HEADER = "round,x_a,x_b,rss_ma,rss_mb\n"


@pytest.mark.parametrize(
    "body, error",
    [
        (" 0 , -60.5 ,-60,\t-55, -55 \n1,-61,-60,-55,-55\n", None),
        ("0,-60,-60,-55,-55\r\n1,-61.25,-60,-55,-55\r\n", None),
        ("\n\n0,-60,-60,-55,-55\n   \n1,-61,-60,-55,-55\n\n", None),
        ("0,-60,-60,-55,-55\n1_000,-60,-60,-55,-55\n", None),
        ("0,-60,-60,-55,-55\n1,-60,-60,-55,-55 # note\n", "row 3: could not convert"),
        ("0,-60,-60,-55,-55\n#,-60,-60,-55,-55\n", "row 3: could not convert"),
        ("\n0,-60,-60,-55,-55,\n", "row 3: expected 5 fields, got 6"),
        ("0,-60,,-55,-55\n", "row 2: could not convert string to float: ''"),
        ('0,-60,-60,-55,-55\n\n1,"-60",-60,-55,-55\n', "row 4: could not convert"),
    ],
    ids=["spaces", "crlf", "blank-lines", "underscore", "comment", "hash-field",
         "trailing-comma", "empty-field", "quoted-field"],
)
def test_ingest_grammar_matches_oracle(body, error, tmp_path):
    path = tmp_path / "g.csv"
    path.write_bytes((_GRAMMAR_HEADER + body).encode())
    if error is None:
        assert_ingest_matches_oracle(path)
        return
    with pytest.raises(TraceFormatError) as oracle_exc:
        oracle_parse(path)
    with pytest.raises(TraceFormatError, match=error) as exc:
        ingest_trace(path)
    assert str(exc.value) == str(oracle_exc.value)


def test_undecodable_bytes_are_located(tmp_path):
    path = tmp_path / "g.csv"
    path.write_bytes(_GRAMMAR_HEADER.encode() + b"0,-60,-60,-55,-55\n1,\xff60,-60,-55,-55\n")
    with pytest.raises(TraceFormatError, match="row 3: could not convert"):
        ingest_trace(path)
    bits_path = tmp_path / "s.bits"
    write_bitstream(bits_path, Bitstream(bits=np.ones(3, np.uint8), source_rounds=np.arange(3)))
    (tmp_path / "s.bits.rounds").write_bytes(b"0\n1\xff\n2\n")
    with pytest.raises(TraceFormatError, match="line 2: invalid literal"):
        read_bitstream(bits_path)


def test_header_only_file_reports_no_rows_without_warning(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text(_GRAMMAR_HEADER + "\n\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(TraceFormatError, match="no data rows"):
            ingest_trace(path)


@pytest.mark.parametrize(
    "row, error",
    [
        ("1,inf,-60,-55,-55,1,0", "row 5: non-finite value other than -inf"),
        ("1,-60,-60,-55,-55,1.7,0", "row 5: mode is not an integer"),
        ("1,-60,-60,-55,-55,nan,0", "row 5: mode is not an integer"),
        ("1,-60,-60,-55,-55,1,2", "row 5: injected is not 0 or 1"),
        ("1,-60,-60,-55,-55,1,0.5", "row 5: injected is not 0 or 1"),
    ],
)
def test_value_errors_name_the_file_line(row, error, tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text(
        "round,x_a,x_b,rss_ma,rss_mb,mode,injected\n\n\n0,-60,-60,-55,-55,0,0\n" + row + "\n"
    )
    with pytest.raises(TraceFormatError, match=error):
        ingest_trace(path)


def test_malformed_sidecar_is_a_located_format_error(tmp_path, capsys):
    bits_path = tmp_path / "bad.bits"
    write_bitstream(bits_path, Bitstream(bits=np.ones(60, np.uint8), source_rounds=np.arange(60)))
    sidecar = tmp_path / "bad.bits.rounds"
    sidecar.write_text("0\n1\n\nx\n")
    with pytest.raises(TraceFormatError, match=r"bad\.bits\.rounds: line 4: invalid literal"):
        read_bitstream(bits_path)
    for argv in (
        ["randomness", str(bits_path)],
        ["commit", str(bits_path), "--out", str(tmp_path / "c.bin"), "--seed", "1"],
    ):
        assert main(argv) == 2
        assert "bad.bits.rounds: line 4" in capsys.readouterr().err
    sidecar.write_text("\n".join(map(str, range(20))) + "\n")
    bits_path.write_bytes(b"\xff")
    with pytest.raises(TraceFormatError, match=r"bad\.bits: holds 8 bits, but bad\.bits\.rounds lists 20"):
        read_bitstream(bits_path)


def test_truncated_commitment_header_rejected(tmp_path):
    path = tmp_path / "c.bin"
    path.write_bytes(b"PKFC" + bytes(2))
    with pytest.raises(TraceFormatError, match="c.bin: truncated header"):
        read_commitments(path)


def test_impossible_commitment_code_is_a_located_format_error(tmp_path, capsys):
    path = tmp_path / "c.bin"
    bits_path = tmp_path / "s.bits"
    write_bitstream(bits_path, Bitstream(bits=np.ones(60, np.uint8), source_rounds=np.arange(60)))
    # m=13 fits its n and k, but GF(2^13) is not a supported field
    for m, n, k in ((4, 11, 15), (4, 15, 15), (1, 1, 1), (13, 15, 11)):
        path.write_bytes(b"PKFC" + struct.pack("<BHHI", m, n, k, 0))
        with pytest.raises(TraceFormatError, match=r"c\.bin: (need m|require 1 <= k < n)"):
            read_commitments(path)
        assert main(["open", str(bits_path), "--commitments", str(path)]) == 2
        assert "c.bin: " in capsys.readouterr().err


@pytest.mark.parametrize("mode", [2**53 + 1, 2**63 - 1, -2**63, -(2**53) - 1, 10**8, -10**8])
def test_wide_modes_come_back_exactly(mode, tmp_path):
    trace = trace_from_columns([0, mode, 7], *([-60.5, -61.25, 0.0] for _ in range(4)),
                               [False, True, False])
    path = tmp_path / "t.csv"
    export_trace_csv(trace, path)
    assert f"\n1,{mode},".encode() in path.read_bytes()
    assert ingest_trace(path).mode.tolist() == [0, mode, 7]


@pytest.mark.parametrize(
    "mode, expected",
    [
        ("1.0", 1),
        ("-0", 0),
        ("9007199254740993", 2**53 + 1),
        ("9007199254740993.0", 2**53 + 1),
        ("9.223372036854775807e18", 2**63 - 1),
        ("-9223372036854775808", -2**63),
        ("9223372036854775808", "row 3: mode is not an integer"),
        ("9007199254740992.5", "row 3: mode is not an integer"),
        ("1e300", "row 3: mode is not an integer"),
        ("inf", "row 3: mode is not an integer"),
    ],
)
def test_mode_is_an_exact_int64(mode, expected, tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("round,x_a,x_b,rss_ma,rss_mb,mode\n0,-60,-60,-55,-55,4\n"
                    f"1,-60,-60,-55,-55,{mode}\n")
    if isinstance(expected, str):
        with pytest.raises(TraceFormatError, match=expected):
            ingest_trace(path)
    else:
        assert ingest_trace(path).mode.tolist() == [4, expected]


# Rows in the export form, each field replaced in turn below. The export
# header sends every case to the kernel's gate; the kernel must return
# what the general reader returns, or leave the file to it.
_EXPORT_ROWS = ["0,5,-60.1234,-61.0000,-55.5000,-0.0001,1", "1,359,60.5000,0.0000,9.9999,-1.0000,0"]
_FIELDS = {name: i for i, name in enumerate(TRACE_HEADER)}


@pytest.mark.parametrize(
    "field, text, error",
    [
        ("x_a", "--1.0000", "row 3: could not convert"),
        ("x_a", "1.00000", None),
        ("x_b", "1.000", None),
        ("x_b", "-.1234", None),
        ("x_b", ".1234", None),
        ("rss_ma", "+1.0000", None),
        ("rss_ma", "1e5", None),
        ("rss_mb", "007.0000", None),
        ("rss_mb", "-0.0000", None),
        ("rss_mb", "0.0000", None),
        ("x_a", "1234.5678", None),
        ("x_a", "-999.9999", None),
        ("x_a", "-1.-000", "row 3: could not convert"),
        ("x_a", "1.2.3456", "row 3: could not convert"),
        ("x_a", "12.34-56", "row 3: could not convert"),
        ("x_a", "", "row 3: could not convert"),
        ("x_a", "-inf", None),
        ("x_a", "nan", "row 3: non-finite value other than -inf"),
        ("mode", "-0", None),
        ("mode", "-12345678", None),
        ("mode", "123456789", None),
        ("mode", "00000007", None),
        ("mode", "1.5", "row 3: mode is not an integer"),
        ("mode", "-", "row 3: could not convert"),
        ("injected", "-1", "row 3: injected is not 0 or 1"),
        ("injected", "-0", None),
        ("injected", "2", "row 3: injected is not 0 or 1"),
        ("injected", "01", None),
        ("injected", "10", "row 3: injected is not 0 or 1"),
        ("injected", "1.", None),
        ("injected", "", "row 3: could not convert"),
        ("round", "-3", None),
        ("round", "3.0", None),
        ("round", "", "row 3: could not convert"),
        ("round", "0" * 19, None),
        ("round", "9" * 400, "row 3: non-finite value other than -inf"),
        ("round", "1x", "row 3: could not convert"),
        ("mode", "4x", "row 3: could not convert"),
        ("x_b", "-6e.1234", "row 3: could not convert"),
        ("rss_mb", "1.23:4", "row 3: could not convert"),
        ("injected", "a", "row 3: could not convert"),
    ],
)
def test_kernel_matches_general_reader_on_one_field(field, text, error, tmp_path):
    rows = [r.split(",") for r in _EXPORT_ROWS]
    rows[1][_FIELDS[field]] = text
    body = "".join(",".join(r) + "\n" for r in rows + [_EXPORT_ROWS[0].split(",")])
    check_against_general_reader(tmp_path, body, error)


@pytest.mark.parametrize(
    "body, error",
    [
        (_EXPORT_ROWS[0] + "\n" + _EXPORT_ROWS[1] + ",0\n", "row 3: expected 7 fields, got 8"),
        (_EXPORT_ROWS[0] + "\n" + _EXPORT_ROWS[1].rsplit(",", 1)[0] + "\n",
         "row 3: expected 7 fields, got 6"),
        (_EXPORT_ROWS[0] + "\r\n" + _EXPORT_ROWS[1] + "\r\n", None),
        (_EXPORT_ROWS[0] + "\n" + _EXPORT_ROWS[1], None),
        (_EXPORT_ROWS[0] + "\n\n" + _EXPORT_ROWS[1] + "\n", None),
        ("\n" + _EXPORT_ROWS[0] + "\n", None),
        (_EXPORT_ROWS[0] + "\n" + "2,1,-inf,-inf,-inf,-inf,0\n", None),
        (_EXPORT_ROWS[0] + "\n" + _EXPORT_ROWS[1] + "\n,\n", "row 4: expected 7 fields, got 2"),
        (_EXPORT_ROWS[0] + "\n" + " " + _EXPORT_ROWS[1] + "\n", None),
        (_EXPORT_ROWS[0] + "\n1,5,-60.1234,-61.0000,-55.5000,-0.0001,1 \n", None),
        ("\n", "no data rows"),
        (_EXPORT_ROWS[0].replace(",", "\t", 1) + "\n", "row 2: expected 7 fields, got 6"),
        # the 13 fields split into 7 and 7 at the wrong newline
        (_EXPORT_ROWS[0].rsplit(",", 1)[0] + "\n1," + _EXPORT_ROWS[0] + "\n",
         "row 2: expected 7 fields, got 6"),
    ],
    ids=["8-fields", "6-fields", "crlf", "no-final-newline", "blank-line", "leading-blank",
         "inf-row", "comma-row", "leading-space", "trailing-space", "blank-only", "tab-for-comma",
         "6-then-8-fields"],
)
def test_kernel_matches_general_reader_on_row_shape(body, error, tmp_path):
    check_against_general_reader(tmp_path, body, error)


def check_against_general_reader(tmp_path, body, error):
    """ingest_trace of the export header plus `body` equals the general
    reader's columns bit for bit, and the oracle's parse; or both raise the
    same located error."""
    path = tmp_path / "k.csv"
    path.write_bytes((",".join(TRACE_HEADER) + "\n" + body).encode())
    if error is not None:
        with pytest.raises(TraceFormatError) as general:
            traceio._read_any_form(path)
        with pytest.raises(TraceFormatError, match=error) as exc:
            ingest_trace(path)
        assert str(exc.value) == str(general.value)
        return
    assert_ingest_matches_oracle(path)
    back = ingest_trace(path)
    for got, want in zip(
        (back.mode, back.x_a, back.x_b, back.rss_ma, back.rss_mb, back.injected),
        traceio._read_any_form(path),
    ):
        assert got.dtype == want.dtype and got.tobytes() == np.ascontiguousarray(want).tobytes()


def refuse_general_reader(*args, **kwargs):
    raise AssertionError("export's output reached the general reader")


def kernel_domain_trace(rng, n):
    """Columns whose export the kernel reads: modes of up to 8 digits and
    finite dBm values under 1000 in magnitude."""
    def pick(*pools):
        return np.choose(rng.integers(0, len(pools), n), pools)

    values = [pick(rng.normal(-60.0, 15.0, n), rng.uniform(-999.9, 999.9, n),
                   rng.uniform(-0.00005, 0.00005, n)) for _ in range(4)]
    modes = pick(rng.integers(0, 360, n), rng.integers(-10**8 + 1, 10**8, n))
    return trace_from_columns(modes, *values, rng.random(n) < 0.3)


@pytest.mark.parametrize("seed", range(12))
def test_kernel_blocks_cut_inside_rows_and_fields(seed, tmp_path, monkeypatch):
    rng = np.random.default_rng(seed)
    trace = kernel_domain_trace(rng, int(rng.integers(1, 300)))
    path = tmp_path / "t.csv"
    export_trace_csv(trace, path)
    whole = ingest_trace(path)
    monkeypatch.setattr(traceio, "_read_rows", refuse_general_reader)
    # blocks of a few bytes cut every row and field somewhere
    for block in (1, 2, 3, 5, 8, 13, int(rng.integers(14, 200))):
        monkeypatch.setattr(traceio, "_READ_BLOCK", block)
        back = ingest_trace(path)
        for name in ("mode", "x_a", "x_b", "rss_ma", "rss_mb", "injected"):
            assert getattr(back, name).tobytes() == getattr(whole, name).tobytes()
    monkeypatch.undo()
    assert_ingest_matches_oracle(path)
    assert whole.mode.tobytes() == trace.mode.tobytes()


def test_export_output_never_reaches_the_general_reader(tmp_path, monkeypatch):
    cfg = config_from_mapping({
        "seed": 5, "rounds": 4000, "coherence_block_rounds": 10,
        "antenna": {"synthesis": {"mode_count": 360}}, "attack": {"enabled": True, "d": 3.0},
    })
    _, trace, _ = run_experiment(cfg)
    assert trace.injected.any()
    path = tmp_path / "t.csv"
    export_trace_csv(trace, path)
    expected = oracle_parse(path)[1]
    monkeypatch.setattr(traceio, "_read_rows", refuse_general_reader)
    back = ingest_trace(path)
    for i, name in enumerate(TRACE_HEADER[1:], start=1):
        column = getattr(back, name)
        assert column.flags.c_contiguous
        assert column.tobytes() == expected[:, i].astype(column.dtype).tobytes()
