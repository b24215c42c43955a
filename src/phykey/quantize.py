"""Quantization phase: thresholds, excursions, index exchange, bit extraction.

Both parties compute mean/std thresholds over their own RSS series,
Alice publishes the index list L_a of her excursions, Bob confirms the
subset L_b where he also sees an excursion (on either side; a side
disagreement becomes a bit mismatch for reconciliation to fix), and
both quantize at the L_b indices.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError, ProtocolError


@dataclass(frozen=True)
class Bitstream:
    """Extracted bits with the probing round each bit came from."""

    bits: np.ndarray
    source_rounds: np.ndarray

    def __post_init__(self):
        bits = np.asarray(self.bits, dtype=np.uint8)
        rounds = np.asarray(self.source_rounds, dtype=np.int64)
        if bits.size != rounds.size:
            raise ContractError("bits and source_rounds length mismatch")
        if rounds.size > 1 and np.any(rounds[1:] <= rounds[:-1]):
            raise ContractError("source_rounds must be strictly increasing")
        if bits.size and not np.all((bits == 0) | (bits == 1)):
            raise ContractError("bits must be 0/1")
        bits.setflags(write=False)
        rounds.setflags(write=False)
        object.__setattr__(self, "bits", bits)
        object.__setattr__(self, "source_rounds", rounds)

    def __len__(self) -> int:
        return int(self.bits.size)


def thresholds(x, beta: float) -> tuple[float, float]:
    """(q_minus, q_plus) = mean -/+ beta * population std of the series.

    -inf erasures (lost probes) are excluded from the statistics; at
    least two finite samples are required for a meaningful spread.
    """
    x = np.asarray(x, dtype=float)
    finite = np.isfinite(x)
    if not finite.all():
        x = x[finite]
    if x.size < 2:
        raise ContractError(
            f"need >= 2 finite samples for thresholds, got {x.size}"
        )
    lo, hi = float(x.min()), float(x.max())
    if lo == hi:
        # a constant series has mean exactly lo and zero spread; computing it
        # through np.mean would round and turn every sample into an excursion
        return (lo, lo)
    mu = float(np.mean(x))
    sigma = float(np.std(x))
    return (mu - beta * sigma, mu + beta * sigma)


def _sides(x: np.ndarray, q_minus: float, q_plus: float) -> tuple[np.ndarray, np.ndarray]:
    """Masks of the finite samples strictly above q_plus and strictly below q_minus."""
    finite = np.isfinite(x)
    return (x > q_plus) & finite, (x < q_minus) & finite


def _all_in_window(mask: np.ndarray, e: int) -> np.ndarray:
    """w[i] is True where mask[i : i + e] is all True, for i in 0 .. size - e."""
    count = np.concatenate(([0], np.cumsum(mask)))
    return count[e:] - count[:-e] == e


def find_excursions(x, q_minus: float, q_plus: float, e: int = 1) -> np.ndarray:
    """Indices where the series leaves the (q_minus, q_plus) band.

    With e = 1, every index strictly above q_plus or strictly below
    q_minus. With e > 1, the starting index of each maximal run of
    length >= e lying entirely on one side. -inf erasures never count.
    """
    x = np.asarray(x, dtype=float)
    above, below = _sides(x, q_minus, q_plus)
    if e == 1:
        return np.flatnonzero(above | below).astype(np.int64)
    starts = []
    for side in (above, below):
        full = _all_in_window(side, e)
        # a full window starts a maximal run only where the sample before it is off that side
        full[1:] &= ~side[: max(full.size - 1, 0)]
        starts.append(full)
    return np.flatnonzero(starts[0] | starts[1]).astype(np.int64)


def confirm_excursions(x_b, l_a, q_minus: float, q_plus: float, e: int = 1) -> np.ndarray:
    """Bob's pass: keep L_a indices where his series also has an excursion.

    With e > 1 the excursion is the e samples from the index on, all on
    one side; a window running past the end of the series is none.
    Which side Bob's excursion is on is not checked here; the index
    lists are public positions only, so side disagreements stay in and
    later surface as bit mismatches.
    """
    x_b = np.asarray(x_b, dtype=float)
    l_a = np.asarray(l_a, dtype=np.int64)
    if l_a.size and (l_a.min() < 0 or l_a.max() >= x_b.size):
        raise ProtocolError("L_a index out of range for the peer series")
    if e == 1:
        v = x_b[l_a]
        return l_a[((v > q_plus) | (v < q_minus)) & np.isfinite(v)]
    above, below = _sides(x_b, q_minus, q_plus)
    full = _all_in_window(above, e) | _all_in_window(below, e)
    keep = l_a < full.size
    keep[keep] = full[l_a[keep]]
    return l_a[keep]


def quantize(x, indices, q_minus: float, q_plus: float) -> Bitstream:
    """Bit 1 where x > q_plus, bit 0 where x < q_minus, in index order."""
    x = np.asarray(x, dtype=float)
    indices = np.asarray(indices, dtype=np.int64)
    vals = x[indices]
    ones = vals > q_plus
    zeros = vals < q_minus
    inside = ~(ones | zeros)
    if np.any(inside):
        bad = indices[inside][0]
        raise ContractError(
            f"index {bad} is not an excursion: value {x[bad]} inside "
            f"({q_minus}, {q_plus})"
        )
    return Bitstream(bits=ones.astype(np.uint8), source_rounds=indices)
