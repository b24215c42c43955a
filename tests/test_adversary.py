import numpy as np
import pytest

from phykey.adversary import (
    OpportunityKind,
    _key_positions,
    account_attacks,
    apply_attack,
    opportunity_masks,
    schedule_attacks,
)
from phykey.quantize import Bitstream, thresholds


@pytest.mark.parametrize(
    "rss_ma, rss_mb, d, expected",
    [
        (-40, -41.5, 2, OpportunityKind.O1),
        (-40, -45, 2, None),
        (-60, -60.5, 2, OpportunityKind.O0),
        (-40, -60, 100, None),
        (-40, -42, 2, None),
    ],
    ids=["o1", "difference_too_large", "o0", "requires_both_beyond_same_threshold",
         "difference_equal_to_d"],
)
def test_opportunity_masks(rss_ma, rss_mb, d, expected):
    o0, o1 = opportunity_masks(rss_ma, rss_mb, q_minus=-58, q_plus=-42, d=d)
    assert (bool(o0), bool(o1)) == (
        expected == OpportunityKind.O0,
        expected == OpportunityKind.O1,
    )


def test_round_zero_never_attacked():
    rss = np.full(10, -40.0)
    injected = schedule_attacks(rss, rss, q_minus=-60, q_plus=-42, d=2)
    assert not injected[0]


def test_one_shot_alternation_when_every_round_is_opportunity():
    rss = np.full(9, -40.0)
    injected = schedule_attacks(rss, rss, q_minus=-60, q_plus=-42, d=2)
    # observe 0, inject 1, observe 2, inject 3, ...
    np.testing.assert_array_equal(injected, [False, True] * 4 + [False])


def test_repeat_injection_extends_to_two_rounds():
    rss = np.full(9, -40.0)
    injected = schedule_attacks(rss, rss, -60, -42, 2, repeat_injection=True)
    np.testing.assert_array_equal(
        injected, [False, True, True, False, True, True, False, True, True]
    )


def test_attacked_rounds_disjoint_from_observation_rounds():
    rng = np.random.default_rng(5)
    rss_ma = rng.normal(-45, 6, size=500)
    rss_mb = rss_ma + rng.normal(0, 1, size=500)
    injected = schedule_attacks(rss_ma, rss_mb, -52, -40, 3)
    attacked = np.flatnonzero(injected)
    # each attack is triggered from the immediately preceding round,
    # which is never itself attacked
    for r in attacked:
        assert not injected[r - 1]


def test_apply_attack_replaces_with_observations_plus_offset():
    x = np.array([-50.0, -50.0, -50.0, -50.0])
    rss_ma = np.array([-40.0, -41.0, -40.5, -40.2])
    rss_mb = np.array([-40.1, -41.2, -40.6, -40.1])
    x_a, x_b, injected = apply_attack(
        x, x.copy(), rss_ma, rss_mb, beta=0.4, d=2.0, power_offset_db=3.0
    )
    assert injected.tolist() == [False, True, False, True]
    assert x_a[1] == pytest.approx(rss_ma[1] + 3.0)
    assert x_b[1] == pytest.approx(rss_mb[1] + 3.0)
    assert x_a[0] == -50.0


def test_apply_attack_disabled_equivalent_is_identity():
    # with no opportunities the series is untouched
    x = np.array([-50.0, -50.1, -49.9, -50.0])
    far = np.array([-90.0, -90.0, -90.0, -90.0])
    near = np.array([-10.0, -10.0, -10.0, -10.0])
    x_a, x_b, injected = apply_attack(x, x.copy(), far, near, beta=0.4, d=2.0)
    assert not injected.any()
    np.testing.assert_array_equal(x_a, x)


def _toy_attacked_trace():
    # rounds: 0 observe (O1), 1 injected, 2 observe (O0), 3 injected, 4 clean
    x_a = np.array([-50.0, -40.0, -50.0, -70.0, -55.0])
    injected = np.array([False, True, False, True, False])
    rss_ma = np.array([-40.0, -40.0, -70.0, -70.0, -55.0])
    rss_mb = np.array([-40.5, -40.5, -70.5, -70.5, -55.0])
    return x_a, rss_ma, rss_mb, injected


def test_account_attacks_kinds_guesses_and_correctness():
    x_a, rss_ma, rss_mb, injected = _toy_attacked_trace()
    # clean rounds are -50, -50, -55 -> q band roughly (-53.2, -51.2)
    bits = Bitstream(bits=np.array([1, 0], dtype=np.uint8), source_rounds=np.array([1, 3]))
    trace = account_attacks(x_a, rss_ma, rss_mb, injected, beta=0.4, bits_a=bits)
    assert trace.attacked_total == 2
    assert trace.n == 2 and trace.n0 == 1 and trace.m == 2
    assert trace.round_index.tolist() == [1, 3]
    assert trace.kind.tolist() == [OpportunityKind.O1, OpportunityKind.O0]
    assert trace.correct.all()
    assert [r["guessed"] for r in trace.to_records()] == [1, 0]


def test_account_attacks_counts_non_surviving_rounds_separately():
    x_a, rss_ma, rss_mb, injected = _toy_attacked_trace()
    bits = Bitstream(bits=np.array([1], dtype=np.uint8), source_rounds=np.array([1]))
    trace = account_attacks(x_a, rss_ma, rss_mb, injected, beta=0.4, bits_a=bits)
    assert trace.attacked_total == 2
    assert trace.n == 1  # round 3 yielded no key bit
    assert not trace.survived[1] and not trace.correct[1]
    record = trace.to_records()[1]
    assert record["survived_to_key"] is False
    assert record["correct"] is None


def test_n0_plus_n1_equals_n():
    x_a, rss_ma, rss_mb, injected = _toy_attacked_trace()
    bits = Bitstream(bits=np.array([1, 0], dtype=np.uint8), source_rounds=np.array([1, 3]))
    trace = account_attacks(x_a, rss_ma, rss_mb, injected, beta=0.4, bits_a=bits)
    n1 = int(np.count_nonzero(trace.survived & (trace.kind == OpportunityKind.O1)))
    assert trace.n0 + n1 == trace.n


def test_account_attacks_repeat_injection_shares_observation():
    # rounds 1 and 2 both injected from the opportunity observed at round 0
    x_a = np.array([-50.0, -40.0, -41.0, -50.0, -50.0])
    injected = np.array([False, True, True, False, False])
    rss_ma = np.array([-40.0, -40.0, -40.0, -55.0, -55.0])
    rss_mb = np.array([-40.5, -40.5, -40.5, -55.5, -55.5])
    bits = Bitstream(bits=np.array([1, 1], dtype=np.uint8), source_rounds=np.array([1, 2]))
    trace = account_attacks(x_a, rss_ma, rss_mb, injected, beta=0.4, bits_a=bits)
    assert trace.kind.tolist() == [OpportunityKind.O1, OpportunityKind.O1]
    assert trace.m == 2


# ------------------------------------------------------------ reference oracle
# The sequential scheduler and per-round accounting the columnar code
# replaced, kept as an independent statement of the same rules.


def _oracle_opportunity(rss_ma, rss_mb, q_minus, q_plus, d):
    if not (np.isfinite(rss_ma) and np.isfinite(rss_mb)):
        return None
    if not abs(rss_ma - rss_mb) < d:  # "within d" is false for a NaN d
        return None
    if rss_ma > q_plus and rss_mb > q_plus:
        return OpportunityKind.O1
    if rss_ma < q_minus and rss_mb < q_minus:
        return OpportunityKind.O0
    return None


def _oracle_schedule(rss_ma, rss_mb, q_minus, q_plus, d, repeat_injection):
    n = len(rss_ma)
    injected = np.zeros(n, dtype=bool)
    i = 0
    while i < n - 1:
        if _oracle_opportunity(rss_ma[i], rss_mb[i], q_minus, q_plus, d) is not None:
            injected[i + 1] = True
            if repeat_injection and i + 2 < n:
                injected[i + 2] = True
                i += 3
            else:
                i += 2
        else:
            i += 1
    return injected


def _oracle_account(x_a, rss_ma, rss_mb, injected, d, beta, bits_a):
    """Per-round records (with the tail event) of every injected round."""
    q_minus, q_plus = thresholds(x_a[~injected], beta)
    midpoint = 0.5 * (q_minus + q_plus)
    bit_by_round = dict(zip(bits_a.source_rounds.tolist(), bits_a.bits.tolist()))
    records = []
    for r in np.flatnonzero(injected).tolist():
        obs = r - 1
        while injected[obs]:
            obs -= 1
        kind = _oracle_opportunity(rss_ma[obs], rss_mb[obs], q_minus, q_plus, d)
        if kind is None:
            lean = 0.5 * (rss_ma[obs] + rss_mb[obs])
            kind = OpportunityKind.O1 if lean >= midpoint else OpportunityKind.O0
        key_bit = bit_by_round.get(r)
        survived = key_bit is not None
        tail = x_a[r] > q_plus if kind == OpportunityKind.O1 else x_a[r] < q_minus
        records.append({
            "round": r,
            "kind": f"O{int(kind)}",
            "guessed": int(kind),
            "correct": (key_bit == int(kind)) if survived else None,
            "survived_to_key": survived,
            "tail": bool(tail),
        })
    return records


# Opportunity patterns ("1" = opportunity round) for the run-based
# scheduler. With repeat_injection, acting on a run's last round keeps
# Mallory jamming through the start of a run two rounds later, so that
# run begins a round late, and its own last pick may block the next.
HAND_BUILT_OPPORTUNITIES = [
    "1011011011000",  # chain: each run starts two rounds after a pick at the last index
    "1111011110",  # picks at 0 and 3 (last index) block the run at 5
    "101010",  # the blocked run at 2 has no pick, so the run at 4 starts on time
    "110110110",  # pick at 0, not the last index: no run is blocked
    "1011",  # blocked chain ending on the last round
    "11111111111",
    "0",
    "",
]


@pytest.mark.parametrize("repeat_injection", [False, True])
def test_columnar_adversary_matches_sequential_oracle(repeat_injection):
    for pattern in HAND_BUILT_OPPORTUNITIES:
        rss = np.array([-40.0 if c == "1" else -50.0 for c in pattern])
        injected = schedule_attacks(rss, rss, -60, -42, 2, repeat_injection)
        np.testing.assert_array_equal(
            injected, _oracle_schedule(rss, rss, -60, -42, 2, repeat_injection)
        )
        if pattern == HAND_BUILT_OPPORTUNITIES[0]:
            # step 3 acts on rounds 0, 3, 6, 9; step 2 on rounds 0, 2, 5, 8
            expected = "0110110110110" if repeat_injection else "0101001001000"
            assert "".join(str(int(v)) for v in injected) == expected
    for seed in range(60):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(20, 600))
        x = rng.normal(-50.0, 6.0, size=n)
        rss_ma = x + rng.normal(0.0, 2.0, size=n)
        rss_mb = rss_ma + rng.normal(0.0, 1.5, size=n)
        rss_ma[rng.random(n) < 0.05] = -np.inf  # erasures
        rss_mb[rng.random(n) < 0.05] = -np.inf
        d = float(rng.choice([1.0, 3.0, 8.0]))
        beta = float(rng.uniform(0.1, 0.9))

        q_minus, q_plus = thresholds(x, beta)
        injected = schedule_attacks(rss_ma, rss_mb, q_minus, q_plus, d, repeat_injection)
        np.testing.assert_array_equal(
            injected, _oracle_schedule(rss_ma, rss_mb, q_minus, q_plus, d, repeat_injection)
        )
        x_a = np.where(injected, rss_ma, x)
        # perturb Mallory's observations after scheduling, as a lossy
        # replay would: some observations now straddle the band or erase
        obs_ma = rss_ma + rng.normal(0.0, 3.0, size=n)
        obs_mb = rss_mb + rng.normal(0.0, 3.0, size=n)
        obs_ma[rng.random(n) < 0.05] = -np.inf
        obs_mb[rng.random(n) < 0.02] = np.nan
        keyed = np.flatnonzero(rng.random(n) < 0.6)
        bits_a = Bitstream(
            bits=rng.integers(0, 2, size=keyed.size, dtype=np.uint8), source_rounds=keyed
        )

        _assert_accounting_matches_oracle(x_a, obs_ma, obs_mb, injected, d, beta, bits_a)


def _assert_accounting_matches_oracle(x_a, rss_ma, rss_mb, injected, d, beta, bits_a):
    trace = account_attacks(x_a, rss_ma, rss_mb, injected, beta, bits_a)
    oracle = _oracle_account(x_a, rss_ma, rss_mb, injected, d, beta, bits_a)
    assert trace.to_records() == [
        {k: v for k, v in rec.items() if k != "tail"} for rec in oracle
    ]
    for kind in OpportunityKind:
        mine = [rec for rec in oracle if rec["kind"] == f"O{int(kind)}"]
        assert trace.tail_stats(kind) == (sum(rec["tail"] for rec in mine), len(mine))
    kept = [rec for rec in oracle if rec["survived_to_key"]]
    assert (trace.n, trace.n0, trace.m) == (
        len(kept),
        sum(rec["kind"] == "O0" for rec in kept),
        sum(bool(rec["correct"]) for rec in kept),
    )
    # _key_positions: bitstream positions of the keyed attacked rounds, and
    # which attacked rounds are keyed
    position = {r: i for i, r in enumerate(bits_a.source_rounds.tolist())}
    rounds = np.flatnonzero(injected).tolist()
    pos, found = _key_positions(bits_a, trace.round_index)
    assert pos.tolist() == [position[r] for r in rounds if r in position]
    assert found.tolist() == [r in position for r in rounds]


# Injected flags the scheduler never produces but a replayed capture may
# carry: (injected rounds, keyed rounds), "1" = flagged.
ARBITRARY_FLAGS = [
    ("0111011110011111000", "0101101111011101110"),  # runs of 3, 4 and 5
    ("0100010001", "1111111111"),  # the last round is flagged
    ("0000000000", "0110110111"),  # no injected round
    ("0110011101", ""),  # an empty key stream
    ("0110100000", "0000011111"),  # keyed rounds only after the last attack
    ("0011111111", "0101010101"),  # every round after the first two flagged
]


def _flagged_session(rng, injected):
    n = injected.size
    x = rng.normal(-50.0, 6.0, size=n)
    rss_ma = x + rng.normal(0.0, 2.0, size=n)
    rss_mb = rss_ma + rng.normal(0.0, 1.5, size=n)
    rss_ma[rng.random(n) < 0.05] = -np.inf
    rss_mb[rng.random(n) < 0.03] = np.nan
    return np.where(injected, rss_ma, x), rss_ma, rss_mb


def test_accounting_matches_oracle_on_arbitrary_flags():
    rng = np.random.default_rng(20)
    for injected_pattern, keyed_pattern in ARBITRARY_FLAGS:
        injected = np.array([c == "1" for c in injected_pattern])
        keyed = np.array([c == "1" for c in keyed_pattern], dtype=bool)
        x_a, rss_ma, rss_mb = _flagged_session(rng, injected)
        bits_a = Bitstream(
            bits=rng.integers(0, 2, size=keyed.sum(), dtype=np.uint8),
            source_rounds=np.flatnonzero(keyed),
        )
        _assert_accounting_matches_oracle(x_a, rss_ma, rss_mb, injected, 3.0, 0.4, bits_a)
    longest = 0
    for seed in range(60):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 400))
        injected = rng.random(n) < float(rng.choice([0.1, 0.5, 0.85]))
        injected[:2] = False  # round 0 is never attacked; thresholds need two clean rounds
        runs = np.diff(np.flatnonzero(np.diff(np.concatenate(([0], injected, [0])))))[::2]
        longest = max(longest, int(runs.max(initial=0)))
        x_a, rss_ma, rss_mb = _flagged_session(rng, injected)
        keyed = np.flatnonzero(rng.random(n) < float(rng.choice([0.0, 0.5, 1.0])))
        bits_a = Bitstream(
            bits=rng.integers(0, 2, size=keyed.size, dtype=np.uint8), source_rounds=keyed
        )
        _assert_accounting_matches_oracle(x_a, rss_ma, rss_mb, injected, 3.0, 0.4, bits_a)
    assert longest >= 5


@pytest.mark.parametrize("repeat_injection", [False, True])
@pytest.mark.parametrize("offset", [-7.5, 4.25])
def test_apply_attack_matches_where_oracle(offset, repeat_injection):
    erased_injections = 0
    for seed in range(30):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(20, 500))
        x_a = rng.normal(-50.0, 6.0, size=n)
        x_b = x_a + rng.normal(0.0, 1.0, size=n)
        rss_ma = x_a + rng.normal(0.0, 2.0, size=n)
        rss_mb = rss_ma + rng.normal(0.0, 1.5, size=n)
        rss_ma[rng.random(n) < 0.1] = -np.inf
        rss_mb[rng.random(n) < 0.1] = -np.inf
        beta, d = 0.4, 3.0
        out_a, out_b, injected = apply_attack(
            x_a, x_b, rss_ma, rss_mb, beta, d, offset, repeat_injection
        )
        q_minus, q_plus = thresholds(x_a, beta)
        np.testing.assert_array_equal(
            injected, schedule_attacks(rss_ma, rss_mb, q_minus, q_plus, d, repeat_injection)
        )
        assert out_a.tobytes() == np.where(injected, rss_ma + offset, x_a).tobytes()
        assert out_b.tobytes() == np.where(injected, rss_mb + offset, x_b).tobytes()
        erased_injections += int(np.count_nonzero(np.isneginf(out_a[injected])))
    assert erased_injections > 0  # some injected rounds carry a -inf observation


@pytest.mark.parametrize("d", [0.0, 3.0, np.inf, np.nan])
def test_opportunity_masks_match_oracle_on_non_finite_pairs(d):
    values = [-np.inf, np.inf, np.nan, -60.0, -59.0, -50.0, -41.0, -40.0]
    rss_ma, rss_mb = (v.ravel() for v in np.meshgrid(values, values))
    o0, o1 = opportunity_masks(rss_ma, rss_mb, q_minus=-58, q_plus=-42, d=d)
    for a, b, got0, got1 in zip(rss_ma, rss_mb, o0, o1):
        expected = _oracle_opportunity(a, b, -58, -42, d)
        assert (got0, got1) == (
            expected == OpportunityKind.O0,
            expected == OpportunityKind.O1,
        ), (a, b, d)
