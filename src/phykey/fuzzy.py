"""Fuzzy commitment over Reed-Solomon, plus key verification.

Alice draws a random private word y, encodes it, and publishes
delta = S_a XOR enc(y) together with hash(y). Bob computes
c' = S_b XOR delta; if S_a and S_b differ in at most t symbols' worth
of positions, decoding c' recovers y and S_a = enc(y) XOR delta
exactly. delta alone reveals nothing about S_a: flipping y
re-randomizes it uniformly.

The bitstream is chunked into blocks of n*m bits; a final partial
block is dropped rather than padded, so every reconciled bit is a
genuinely agreed one. `commit_stream` and `open_stream` handle all of
a stream's blocks in one batch; one block is a one-block stream.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from .errors import ContractError
from .reed_solomon import RsParams, codec


def bits_to_symbols(bits: np.ndarray, m: int) -> np.ndarray:
    """Pack bits into m-bit symbols, MSB first; length must divide by m."""
    bits = np.asarray(bits, dtype=np.uint8)
    if bits.size % m:
        raise ContractError(f"bit count {bits.size} not a multiple of m={m}")
    shifts = np.arange(m - 1, -1, -1, dtype=np.uint16)
    return (bits.reshape(-1, m).astype(np.uint16) << shifts).sum(axis=1, dtype=np.int64)


def symbols_to_bits(symbols: np.ndarray, m: int) -> np.ndarray:
    """Unpack symbols (any shape) into one flat MSB-first bit array."""
    symbols = np.asarray(symbols).astype(np.uint16)
    shifts = np.arange(m - 1, -1, -1, dtype=np.uint16)
    return ((symbols[..., None] >> shifts) & 1).astype(np.uint8).reshape(-1)


def _digests(y: np.ndarray, m: int) -> np.ndarray:
    """(blocks, 32) sha256 of each row's packed bits, one digest per block."""
    bits = symbols_to_bits(y, m).reshape(y.shape[0], y.shape[1] * m)
    rows = np.packbits(bits, axis=1)
    return np.frombuffer(b"".join(hashlib.sha256(r).digest() for r in rows), np.uint8).reshape(-1, 32)


def pack_bits(bits: np.ndarray) -> bytes:
    """MSB-first byte packing with a zero-padded tail."""
    return np.packbits(np.asarray(bits, dtype=np.uint8)).tobytes()


def unpack_bits(blob: bytes, n_bits: int) -> np.ndarray:
    out = np.unpackbits(np.frombuffer(blob, dtype=np.uint8))
    if out.size < n_bits:
        raise ContractError(f"blob holds {out.size} bits, need {n_bits}")
    return out[:n_bits]


@dataclass(frozen=True)
class Commitments:
    """One stream's public record, block b in row b: `deltas` (blocks,
    block_bits) holds each delta's bits, `digests` (blocks, 32) the
    sha256 of each private word. Both are uint8 and made read-only."""

    deltas: np.ndarray
    digests: np.ndarray

    def __post_init__(self):
        deltas, digests = (np.asarray(a, dtype=np.uint8) for a in (self.deltas, self.digests))
        if deltas.ndim != 2 or digests.shape != (len(deltas), 32):
            raise ContractError(f"need (blocks, bits) deltas and (blocks, 32) digests, "
                                f"got {deltas.shape} and {digests.shape}")
        for name, a in (("deltas", deltas), ("digests", digests)):
            a.setflags(write=False)
            object.__setattr__(self, name, a)

    def __len__(self) -> int:
        return len(self.deltas)

    def check_width(self, params: RsParams) -> None:
        """ContractError unless each delta is one block of the params' code."""
        if self.deltas.shape[1] != params.block_bits:
            raise ContractError(f"commitments hold {self.deltas.shape[1]}-bit deltas, but "
                                f"the code's blocks are {params.block_bits} bits")


@dataclass(frozen=True)
class ReconcileFailure:
    """Why reconciliation failed: "block b: why" for every failing block
    in block order, joined by "; ", and how many blocks failed."""

    reason: str
    failed: int


def commit_stream(
    s_a: np.ndarray, params: RsParams, rng: np.random.Generator
) -> tuple[Commitments, int]:
    """Commit a whole bitstream in one batch; the partial tail is dropped.

    Returns the stream's commitments and the number of bits covered. One
    draw of blocks*k symbols equals one draw of k per block in turn.
    """
    s_a = np.asarray(s_a, dtype=np.uint8)
    blocks = s_a.size // params.block_bits
    covered = blocks * params.block_bits
    shape = (blocks, params.block_bits)
    y = rng.integers(0, 1 << params.m, size=blocks * params.k).reshape(blocks, params.k)
    codewords = codec(params).encode_blocks(y)
    deltas = s_a[:covered].reshape(shape) ^ symbols_to_bits(codewords, params.m).reshape(shape)
    return Commitments(deltas, _digests(y, params.m)), covered


def open_stream(s_b: np.ndarray, commitments: Commitments, params: RsParams):
    """Open every block in one batch; any failing block fails the stream.

    The ReconcileFailure names every failing block, first one first. A
    decoded codeword with zero syndromes is exactly enc(y'), so it is
    XORed with delta directly instead of re-encoding y'.
    """
    s_b = np.asarray(s_b, dtype=np.uint8)
    deltas = commitments.deltas
    commitments.check_width(params)
    blocks = len(commitments)
    need = blocks * params.block_bits
    if s_b.size < need:
        raise ContractError(f"peer stream holds {s_b.size} bits, need {need}")
    if not blocks:
        return np.zeros(0, dtype=np.uint8)
    received = bits_to_symbols(s_b[:need].reshape(blocks, -1) ^ deltas, params.m)
    codewords, failures = codec(params).decode_blocks(received.reshape(blocks, -1))
    failures = {b: f"decode: {reason}" for b, reason in failures.items()}
    mismatch = (_digests(codewords[:, : params.k], params.m) != commitments.digests).any(axis=1)
    for b in np.flatnonzero(mismatch).tolist():
        failures.setdefault(b, "digest mismatch")
    if failures:
        reason = "; ".join(f"block {b}: {r}" for b, r in sorted(failures.items()))
        return ReconcileFailure(reason, failed=len(failures))
    return symbols_to_bits(codewords, params.m) ^ deltas.reshape(-1)


def derive_key(bits: np.ndarray) -> bytes:
    """Final key = SHA-256 of the packed reconciled bitstream."""
    return hashlib.sha256(pack_bits(bits)).digest()


def challenge_response(key: bytes, nonce: bytes) -> bytes:
    return hashlib.sha256(key + nonce).digest()


def verify_keys(
    key_alice: bytes, key_bob: bytes, rng: np.random.Generator
) -> tuple[bool, bytes]:
    """One challenge-response round: Alice's nonce, Bob's keyed response.

    Returns (pass, nonce). A failed verification means key disagreement
    and the protocol run is repeated from probing.
    """
    nonce = rng.integers(0, 256, size=16, dtype=np.uint8).tobytes()
    response = challenge_response(key_bob, nonce)
    expected = challenge_response(key_alice, nonce)
    return response == expected, nonce
