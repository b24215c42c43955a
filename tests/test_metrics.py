import math

import mpmath
import numpy as np
import pytest
import scipy.special

from phykey.errors import ContractError
from phykey.metrics import (
    APEN_BLOCK,
    _igamc,
    _phi,
    approximate_entropy,
    attack_metrics,
    bit_mismatch_rate,
    monobit_test,
    randomness_tests,
    secret_bit_rate,
)


def test_attack_metrics_plain_ratios():
    kre, krr = attack_metrics(n=4, m=3, ell=10)
    assert kre == pytest.approx(0.75)
    assert krr == pytest.approx(0.3)


def test_attack_metrics_no_attacks():
    kre, krr = attack_metrics(n=0, m=0, ell=10)
    assert kre is None
    assert krr == 0.0


def test_attack_metrics_contract():
    with pytest.raises(ContractError):
        attack_metrics(n=2, m=3, ell=10)
    with pytest.raises(ContractError):
        attack_metrics(n=2, m=1, ell=0)


def test_mismatch_identical_and_complementary():
    a = np.array([1, 0, 1, 1], dtype=np.uint8)
    assert bit_mismatch_rate(a, a) == 0.0
    assert bit_mismatch_rate(a, 1 - a) == 1.0


def test_mismatch_requires_equal_lengths():
    with pytest.raises(ContractError):
        bit_mismatch_rate([0, 1], [0])


def test_apen_constant_sequence_is_zero():
    assert approximate_entropy(np.zeros(64, dtype=np.uint8)) == pytest.approx(0.0)


def test_apen_alternating_sequence_is_zero():
    bits = np.tile([0, 1], 64)
    assert approximate_entropy(bits) == pytest.approx(0.0, abs=1e-12)


def test_apen_iid_fair_bits_near_ln2():
    rng = np.random.default_rng(6)
    bits = rng.integers(0, 2, size=100_000)
    assert approximate_entropy(bits) == pytest.approx(math.log(2.0), abs=0.01)


def test_apen_invariant_under_relabeling():
    rng = np.random.default_rng(7)
    bits = rng.integers(0, 2, size=5000).astype(np.uint8)
    assert approximate_entropy(bits) == pytest.approx(
        approximate_entropy(1 - bits), abs=1e-12
    )


def _phi_int64(bits: np.ndarray, m: int) -> float:
    """The int64-index, np.bincount Phi(m) that `_phi` replaced: its oracle."""
    n = bits.size
    bits = bits.astype(np.int64)
    ext = np.concatenate([bits, bits[: m - 1]]) if m > 1 else bits
    idx = np.zeros(n, dtype=np.int64)
    for j in range(m):
        idx = (idx << 1) | ext[j : j + n]
    counts = np.bincount(idx, minlength=1 << m)
    pi = counts[counts > 0] / n
    return float(np.sum(pi * np.log(pi)))


@pytest.mark.parametrize("n", [8, 9, 100, 1001, 364_000])
def test_phi_matches_int64_oracle_over_seeds(n):
    # bit for bit, on fair and biased bits, at the m and m + 1 of ApEn
    wrong = []
    for seed in range(6 if n == 364_000 else 40):
        rng = np.random.default_rng([n, seed])
        bits = (rng.random(n) < (0.5, 0.1, 0.9)[seed % 3]).astype(np.uint8)
        for m in (APEN_BLOCK, APEN_BLOCK + 1):
            if _phi(bits, m) != _phi_int64(bits, m):
                wrong.append((seed, m))
        if n >= 16 and approximate_entropy(bits) != _phi_int64(bits, 2) - _phi_int64(bits, 3):
            wrong.append((seed, "apen"))
    assert wrong == []


def test_apen_needs_enough_bits():
    with pytest.raises(ContractError):
        approximate_entropy(np.zeros(7, dtype=np.uint8))


def test_monobit_balanced_sequence_p_is_exactly_one():
    bits = np.tile([0, 1], 500)
    assert monobit_test(bits).p_value == 1.0


def test_all_zeros_fails_monobit():
    res = randomness_tests(np.zeros(2000, dtype=np.uint8))
    assert res["monobit"].p_value == pytest.approx(0.0, abs=1e-12)
    assert res["monobit"].passed is False


def test_too_short_input_marked_not_applicable():
    res = randomness_tests(np.zeros(50, dtype=np.uint8))
    for r in res.values():
        assert r.applicable is False
        assert r.p_value is None


def test_p_values_in_unit_interval(rng):
    bits = rng.integers(0, 2, size=5000)
    for r in randomness_tests(bits).values():
        assert 0.0 <= r.p_value <= 1.0


def test_calibration_failure_rate_over_100_seeds():
    # i.i.d. fair bits: each test fails with probability ~0.01, so over
    # 100 seeds the failure count stays within 3 binomial sigmas of 1
    fails = {"monobit": 0, "block_frequency": 0, "runs": 0, "approximate_entropy": 0}
    for seed in range(100):
        bits = np.random.default_rng(seed).integers(0, 2, size=10_000)
        for name, r in randomness_tests(bits).items():
            fails[name] += not r.passed
    bound = 1 + 3 * math.sqrt(100 * 0.01 * 0.99)  # ~= 4
    for name, count in fails.items():
        assert count <= bound, (name, count)


def test_secret_bit_rate_no_overheads():
    assert secret_bit_rate(500, 0, 0, n_rounds=1000) == pytest.approx(0.5)


def test_secret_bit_rate_fully_guessed_key_is_zero():
    assert secret_bit_rate(500, 500, 0, n_rounds=1000) == 0.0


def test_secret_bit_rate_subtracts_parity_and_floors():
    assert secret_bit_rate(100, 10, 40, n_rounds=100) == pytest.approx(0.5)
    assert secret_bit_rate(100, 80, 40, n_rounds=100) == 0.0


def test_igamc_matches_mpmath_and_scipy():
    # every a the battery can pass is a half-integer; 740 is the
    # block-frequency a of a 250k-round session
    for a in (0.5, 1.0, 1.5, 2.0, 145.0, 740.0, 4400.0, 6000.0):
        tails = (max(a - 6.0 * math.sqrt(a), 1e-3), a + 8.0 * math.sqrt(a))
        for x in (0.0, 1e-300, 1e-6, 0.5 * a, a, 1.5 * a, 3.0 * a, *tails):
            q = _igamc(a, x)
            exact = float(mpmath.gammainc(a, x, mpmath.inf, regularized=True))
            assert q == pytest.approx(exact, rel=2e-11, abs=1e-300), (a, x)
            scipy_q = float(scipy.special.gammaincc(a, x))
            assert q == pytest.approx(scipy_q, rel=5e-11, abs=1e-300), (a, x)


@pytest.mark.parametrize("a, x", [(0.0, 1.0), (0.75, 1.0), (2.2, 1.0), (-1.5, 1.0),
                                  (2.0, -0.5), (2.0, float("nan")), (2.0, float("inf"))])
def test_igamc_rejects_arguments_off_its_domain(a, x):
    with pytest.raises(ContractError, match="igamc needs"):
        _igamc(a, x)
