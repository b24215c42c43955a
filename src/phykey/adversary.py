"""Wait-then-attack MitM: opportunity detection, injection, accounting.

Mallory watches both legitimate probes each round. When her two
observations agree within d and both sit beyond the same quantization
threshold, she has an opportunity; on the following round she jams and
injects her own probes, betting that the round will quantize to the
bit matching the threshold side she saw. She cannot observe while
jamming, so after injecting round i+1 she resumes watching at i+2
(one-shot attacks; repeat_injection extends each opportunity to two
injected rounds).

The opportunity rule lives only in `opportunity_masks`, which the
scheduler applies to whole series; accounting reads each attack's kind
from the midpoint lean of its observation round, which agrees with the
rule on every real opportunity. Attack accounting is a pure function
of the trace columns, so simulated sessions and replayed trace files
go through the same code, and its result is one columnar
`AttackTrace`: equal-length arrays with one entry per injected round.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum

import numpy as np

from .errors import ContractError
from .quantize import Bitstream, thresholds


class OpportunityKind(IntEnum):
    O0 = 0
    O1 = 1


def opportunity_masks(
    rss_ma: np.ndarray, rss_mb: np.ndarray, q_minus: float, q_plus: float, d: float
) -> tuple[np.ndarray, np.ndarray]:
    """(o0, o1) masks: both finite observations within d of each other
    and both below q_minus (O0) or both above q_plus (O1).

    Finiteness needs no test of its own: a NaN on either side, or an
    infinity on one side or both, makes |rss_ma - rss_mb| NaN or inf, and
    `< d` is False for either, whatever d is (inf and NaN included).
    """
    rss_ma = np.asarray(rss_ma, dtype=float)
    rss_mb = np.asarray(rss_mb, dtype=float)
    with np.errstate(invalid="ignore"):
        close = np.abs(rss_ma - rss_mb) < d
    o0 = close & (rss_ma < q_minus) & (rss_mb < q_minus)
    o1 = close & (rss_ma > q_plus) & (rss_mb > q_plus)
    return o0, o1


def schedule_attacks(
    rss_ma: np.ndarray,
    rss_mb: np.ndarray,
    q_minus: float,
    q_plus: float,
    d: float,
    repeat_injection: bool = False,
) -> np.ndarray:
    """Boolean mask of injected rounds under the one-shot attack discipline.

    Round 0 is never attacked (an opportunity must precede the attack),
    and rounds Mallory spends jamming are blind: they trigger nothing.
    Acting on opportunity i keeps her busy until round i + step (2, or 3
    with repeat_injection), so in a run of consecutive opportunities she
    acts on every step-th one from its start; with step 3, a pick on the
    last round of a run ending two rounds earlier delays the start by one.
    """
    n = len(rss_ma)
    o0, o1 = opportunity_masks(rss_ma, rss_mb, q_minus, q_plus, d)
    step = 3 if repeat_injection else 2
    idx = np.flatnonzero((o0 | o1)[: n - 1])  # the last round has no next round
    first = np.flatnonzero(np.diff(idx, prepend=-2) > 1)  # run starts, positions in idx
    start = idx[first]
    if repeat_injection:
        end = np.append(idx[first[1:] - 1], idx[-1:])
        for r in np.flatnonzero(start[1:] - end[:-1] == 2) + 1:
            if (end[r - 1] - start[r - 1]) % step == 0:
                start[r] += 1
    run_start = np.repeat(start, np.diff(np.append(first, idx.size)))
    picks = idx[np.flatnonzero((idx - run_start) % step == 0)]
    injected = np.zeros(n, dtype=bool)
    for k in range(1, step):
        injected[picks[picks + k < n] + k] = True
    return injected


def apply_attack(
    x_a: np.ndarray,
    x_b: np.ndarray,
    rss_ma: np.ndarray,
    rss_mb: np.ndarray,
    beta: float,
    d: float,
    power_offset_db: float = 0.0,
    repeat_injection: bool = False,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Run Mallory against a clean trace; returns (x_a', x_b', injected).

    Her assumed thresholds are the clean series' own mean/std pair (the
    exact-knowledge simplification). Injected rounds replace Alice's
    measurement with the reciprocal M-A RSS of that round (under
    Alice's current antenna mode) and Bob's with the M-B RSS, shifted
    by Mallory's injection-power offset.
    """
    q_minus, q_plus = thresholds(x_a, beta)
    injected = schedule_attacks(rss_ma, rss_mb, q_minus, q_plus, d, repeat_injection)
    rounds = np.flatnonzero(injected)
    out_a = np.array(x_a, dtype=float)
    out_b = np.array(x_b, dtype=float)
    out_a[rounds] = rss_ma[rounds] + power_offset_db
    out_b[rounds] = rss_mb[rounds] + power_offset_db
    return out_a, out_b, injected


@dataclass
class AttackTrace:
    """Columnar attack record: one entry per injected round, in round order.

    `kind` is the opportunity Mallory acted on, which is also the bit
    she guessed. `survived` marks attacked rounds that produced a key
    bit (appear in L_b); `correct` marks surviving rounds whose key bit
    equals the guess (always False where not survived); `tail_success`
    marks rounds where Alice's injected RSS landed on the guessed side.
    n counts surviving rounds, n0 the O0 share of those, m the correct
    guesses among them; attacked rounds that failed to quantize only
    count towards attacked_total.
    """

    q_minus: float
    q_plus: float
    round_index: np.ndarray
    kind: np.ndarray
    survived: np.ndarray
    correct: np.ndarray
    tail_success: np.ndarray

    @property
    def attacked_total(self) -> int:
        return int(self.round_index.size)

    @property
    def n(self) -> int:
        return int(np.count_nonzero(self.survived))

    @property
    def n0(self) -> int:
        return int(np.count_nonzero(self.survived & (self.kind == OpportunityKind.O0)))

    @property
    def m(self) -> int:
        return int(np.count_nonzero(self.correct))

    def tail_stats(self, kind: OpportunityKind) -> tuple[int, int]:
        """(#successes, #attacks) of the guessed-side tail event, all attacks."""
        mine = self.kind == kind
        return int(np.count_nonzero(self.tail_success & mine)), int(np.count_nonzero(mine))

    def to_records(self) -> list[dict]:
        columns = (self.round_index, self.kind, self.survived, self.correct)
        return [
            {
                "round": r,
                "kind": f"O{k}",
                "guessed": k,
                "correct": c if s else None,
                "survived_to_key": s,
            }
            for r, k, s, c in zip(*(col.tolist() for col in columns))
        ]


def _key_positions(bits: Bitstream, rounds: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(bitstream positions of the found rounds, found mask) of the given sorted rounds.

    Both sides are marked in boolean round masks, so the only temporaries
    as long as the session take one byte per round.
    """
    size = 1 + max(bits.source_rounds.max(initial=-1), rounds.max(initial=-1))
    keyed = np.zeros(size, dtype=bool)
    keyed[bits.source_rounds] = True
    marked = np.zeros(size, dtype=bool)
    marked[rounds] = True
    return np.flatnonzero(marked[bits.source_rounds]), keyed[rounds]


def account_attacks(
    x_a: np.ndarray,
    rss_ma: np.ndarray,
    rss_mb: np.ndarray,
    injected: np.ndarray,
    beta: float,
    bits_a: Bitstream,
) -> AttackTrace:
    """Re-derive kinds, guesses, and correctness from trace columns.

    Thresholds are recomputed over the non-injected rounds (the clean
    measurements still present in the series), so replayed traces
    reproduce a simulated session's accounting exactly. Each flagged
    round's opportunity is the nearest earlier non-injected round
    (consecutive injections under repeat_injection share one
    observation). Its kind is the side of the band midpoint the
    observation pair leans to. For a real opportunity that is the
    opportunity's kind: both observations above q_plus put their mean at
    or above the midpoint, both below q_minus put it below (rounding is
    monotone), and a NaN or -inf observation leans to O0. The lean also
    classifies rounds whose observations straddle the thresholds
    (possible only on borderline replays).
    """
    x_a = np.asarray(x_a, dtype=float)
    injected = np.asarray(injected, dtype=bool)
    if injected.size != x_a.size:
        raise ContractError("injected mask and series length mismatch")
    if injected.size and injected[0]:
        raise ContractError("round 0 cannot be an attacked round")
    q_minus, q_plus = thresholds(x_a.take(np.flatnonzero(~injected)), beta)
    rounds = np.flatnonzero(injected)
    # each run of injected rounds is observed from the round before its start
    first = np.flatnonzero(np.diff(rounds, prepend=-2) > 1)
    obs = np.repeat(rounds[first] - 1, np.diff(first, append=rounds.size))
    ma = np.asarray(rss_ma, dtype=float)[obs]
    mb = np.asarray(rss_mb, dtype=float)[obs]
    with np.errstate(invalid="ignore"):
        kind = (0.5 * (ma + mb) >= 0.5 * (q_minus + q_plus)).astype(np.uint8)
    pos, survived = _key_positions(bits_a, rounds)
    hit = np.flatnonzero(survived)
    correct = np.zeros(rounds.size, dtype=bool)
    correct[hit] = bits_a.bits[pos] == kind[hit]
    x_r = x_a[rounds]
    tail = np.where(kind == OpportunityKind.O1, x_r > q_plus, x_r < q_minus)
    return AttackTrace(
        q_minus=q_minus,
        q_plus=q_plus,
        round_index=rounds,
        kind=kind,
        survived=survived,
        correct=correct,
        tail_success=tail,
    )
