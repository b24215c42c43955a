import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phykey.errors import ContractError
from phykey.fuzzy import (
    Commitments,
    ReconcileFailure,
    bits_to_symbols,
    challenge_response,
    commit_stream,
    derive_key,
    open_stream,
    pack_bits,
    symbols_to_bits,
    unpack_bits,
    verify_keys,
)
from phykey.reed_solomon import ReedSolomon, RsParams

RS15 = RsParams(m=4, n=15, k=11)


def test_bit_symbol_roundtrip(rng):
    bits = rng.integers(0, 2, size=60).astype(np.uint8)
    again = symbols_to_bits(bits_to_symbols(bits, 4), 4)
    np.testing.assert_array_equal(bits, again)


def test_bits_to_symbols_msb_first():
    assert bits_to_symbols(np.array([1, 0, 0, 1], dtype=np.uint8), 4).tolist() == [9]


def test_pack_unpack_roundtrip(rng):
    bits = rng.integers(0, 2, size=13).astype(np.uint8)
    np.testing.assert_array_equal(unpack_bits(pack_bits(bits), 13), bits)


def test_self_commitment_gives_zero_delta(rng):
    # one block draws its private word as one draw of k symbols
    y = rng.integers(0, 16, size=11)
    s_a = symbols_to_bits(ReedSolomon(RS15).encode_blocks(y[None]), 4)
    draws = []

    class FixedY:
        def integers(self, low, high, size):
            draws.append((low, high, size))
            return y

    record, covered = commit_stream(s_a, RS15, FixedY())
    assert draws == [(0, 16, 11)] and covered == 60 and len(record) == 1
    digest = hashlib.sha256(np.packbits(symbols_to_bits(y, 4)).tobytes()).digest()
    assert record.digests.shape == (1, 32) and record.digests.tobytes() == digest
    assert record.deltas.shape == (1, 60) and not record.deltas.any()


def test_commit_open_identity(rng):
    s_a = rng.integers(0, 2, size=60).astype(np.uint8)
    commitments, _ = commit_stream(s_a, RS15, rng)
    out = open_stream(s_a.copy(), commitments, RS15)
    np.testing.assert_array_equal(out, s_a)


def test_open_recovers_exact_sa_with_symbol_confined_flips(rng):
    for _ in range(300):
        s_a = rng.integers(0, 2, size=60).astype(np.uint8)
        commitments, _ = commit_stream(s_a, RS15, rng)
        s_b = s_a.copy()
        symbols = rng.choice(15, size=2, replace=False)
        for sym in symbols:
            # flip a random nonempty subset of that symbol's 4 bits
            mask = rng.integers(1, 16)
            for b in range(4):
                if mask >> b & 1:
                    s_b[sym * 4 + b] ^= 1
        out = open_stream(s_b, commitments, RS15)
        assert not isinstance(out, ReconcileFailure)
        np.testing.assert_array_equal(out, s_a)


def test_open_flags_beyond_radius_corruption(rng):
    for _ in range(300):
        s_a = rng.integers(0, 2, size=60).astype(np.uint8)
        commitments, _ = commit_stream(s_a, RS15, rng)
        s_b = s_a.copy()
        symbols = rng.choice(15, size=3, replace=False)  # t + 1 distinct symbols
        for sym in symbols:
            mask = rng.integers(1, 16)
            for b in range(4):
                if mask >> b & 1:
                    s_b[sym * 4 + b] ^= 1
        out = open_stream(s_b, commitments, RS15)
        assert isinstance(out, ReconcileFailure)


def test_delta_hiding_per_bit_frequency(rng):
    # over fresh private words, each delta bit should look like a fair coin
    s_a = rng.integers(0, 2, size=60).astype(np.uint8)
    trials = 10_000
    commitments, _ = commit_stream(np.tile(s_a, trials), RS15, rng)
    freq = commitments.deltas.mean(axis=0)
    assert len(commitments) == trials
    assert np.all(np.abs(freq - 0.5) < 0.02)


def test_stream_chunking_drops_partial_tail(rng):
    bits = rng.integers(0, 2, size=150).astype(np.uint8)  # 2 blocks + 30 leftover
    commitments, covered = commit_stream(bits, RS15, rng)
    assert len(commitments) == 2
    assert covered == 120
    out = open_stream(bits, commitments, RS15)
    np.testing.assert_array_equal(out, bits[:120])


def test_stream_block_failure_is_flagged(rng):
    bits = rng.integers(0, 2, size=120).astype(np.uint8)
    commitments, _ = commit_stream(bits, RS15, rng)
    bad = bits.copy()
    bad[60:] ^= 1  # clobber the whole second block
    out = open_stream(bad, commitments, RS15)
    assert isinstance(out, ReconcileFailure)
    assert "block 1" in out.reason


def test_stream_failure_names_every_failing_block(rng):
    bits = rng.integers(0, 2, size=5 * 60).astype(np.uint8)
    commitments, _ = commit_stream(bits, RS15, rng)
    bad = bits.copy()
    bad[60:120] ^= 1  # clobber blocks 1 and 4; 0, 2 and 3 stay clean
    bad[240:] ^= 1
    out = open_stream(bad, commitments, RS15)
    assert isinstance(out, ReconcileFailure)
    # each block alone fails for the same reason, as block 0 of its own stream
    singles = [open_stream(bad[b * 60 : (b + 1) * 60], one_block(commitments, b), RS15)
               .reason.removeprefix("block 0: ") for b in (1, 4)]
    assert out.reason == f"block 1: {singles[0]}; block 4: {singles[1]}"


def one_block(commitments, b):
    return Commitments(commitments.deltas[b : b + 1], commitments.digests[b : b + 1])


def test_commitments_are_one_read_only_record(rng):
    commitments, _ = commit_stream(rng.integers(0, 2, size=3 * 60).astype(np.uint8), RS15, rng)
    assert len(commitments) == 3
    assert commitments.deltas.shape == (3, 60) and commitments.digests.shape == (3, 32)
    for a in (commitments.deltas, commitments.digests):
        assert a.dtype == np.uint8 and not a.flags.writeable
    with pytest.raises(ContractError, match=r"\(blocks, 32\) digests"):
        Commitments(commitments.deltas, commitments.digests[:2])
    with pytest.raises(ContractError, match="deltas"):
        Commitments(commitments.deltas[0], commitments.digests[:1])


def test_open_refuses_a_record_of_another_width(rng):
    # a record committed under RS(15, 11) over GF(16) has 60-bit deltas;
    # opened as a 255-symbol GF(256) code it is refused, not broadcast
    bits = rng.integers(0, 2, size=10 * 2040).astype(np.uint8)
    commitments, _ = commit_stream(bits[: 10 * 60], RS15, rng)
    with pytest.raises(ContractError, match="60-bit deltas, but the code's blocks are 2040 bits"):
        open_stream(bits, commitments, RsParams(m=8, n=255, k=223))
    with pytest.raises(ContractError, match="60-bit deltas"):
        open_stream(bits, Commitments(np.zeros((0, 60)), np.zeros((0, 32))), RsParams(m=4, n=7, k=3))


def test_stream_commit_draws_like_block_by_block_commits():
    bits = np.random.default_rng(3).integers(0, 2, size=4 * 60 + 7).astype(np.uint8)
    commitments, covered = commit_stream(bits, RS15, np.random.default_rng(9))
    rng = np.random.default_rng(9)
    for b in range(len(commitments)):
        single, _ = commit_stream(bits[b * 60 : (b + 1) * 60], RS15, rng)
        np.testing.assert_array_equal(commitments.deltas[b : b + 1], single.deltas)
        np.testing.assert_array_equal(commitments.digests[b : b + 1], single.digests)
    assert covered == 240 and len(commitments) == 4


@given(st.integers(0, 2**32 - 1), st.integers(0, 2))
@settings(max_examples=50, deadline=None)
def test_commit_open_identity_property(seed, n_bad_symbols):
    rng = np.random.default_rng(seed)
    s_a = rng.integers(0, 2, size=60).astype(np.uint8)
    commitments, _ = commit_stream(s_a, RS15, rng)
    s_b = s_a.copy()
    if n_bad_symbols:
        for sym in rng.choice(15, size=n_bad_symbols, replace=False):
            mask = int(rng.integers(1, 16))
            for b in range(4):
                if mask >> b & 1:
                    s_b[sym * 4 + b] ^= 1
    out = open_stream(s_b, commitments, RS15)
    np.testing.assert_array_equal(out, s_a)


def test_verify_keys_pass_and_fail(rng):
    key = derive_key(np.array([1, 0, 1, 1], dtype=np.uint8))
    ok, _ = verify_keys(key, key, rng)
    assert ok
    other = derive_key(np.array([1, 0, 1, 0], dtype=np.uint8))
    ok, _ = verify_keys(key, other, rng)
    assert not ok


def test_replayed_response_fails_fresh_nonce(rng):
    key = derive_key(np.array([1, 1, 0, 0], dtype=np.uint8))
    nonce1 = rng.integers(0, 256, size=16, dtype=np.uint8).tobytes()
    nonce2 = rng.integers(0, 256, size=16, dtype=np.uint8).tobytes()
    assert nonce1 != nonce2
    old_response = challenge_response(key, nonce1)
    assert old_response != challenge_response(key, nonce2)
