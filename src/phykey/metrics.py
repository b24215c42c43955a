"""Attack/efficiency metrics and the four-test randomness battery.

The randomness battery is the SP 800-22 subset feasible without large
auxiliary tables: frequency (monobit), block frequency, runs, and
approximate entropy. Each test reports a p-value; p >= 0.01 passes.
Block frequency and ApEn use SP 800-22's igamc(a, x) only at half-integer
a (n_blocks/2, 2**(APEN_BLOCK-1)), where `_igamc` sums a finite series;
within 2e-11 relative of mpmath for a up to 6,000, as scipy's is.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import ContractError

PASS_LEVEL = 0.01
MIN_BITS = 100
APEN_BLOCK = 2  # the pattern length m of every approximate entropy phykey reports


def _igamc(a: float, x: float) -> float:
    """Q(a, x) = [f = 1/2] erfc(sqrt(x)) + e^-x sum_{j<floor(a)} x^(j+f)/Gamma(j+f+1)
    for a in {1/2, 1, 3/2, ...}, f = a - floor(a), finite x >= 0. One `math.lgamma` gives
    the largest term; cumulative products of the ratios (each <= 1) the rest."""
    if not (a >= 0.5 and (2.0 * a).is_integer() and 0.0 <= x < math.inf):
        raise ContractError(f"igamc needs a in {{1/2, 1, 3/2, ...}} and finite x >= 0, got {a}, {x}")
    if x == 0.0:
        return 1.0
    n, f = int(a), a % 1.0
    head = math.erfc(math.sqrt(x)) if f else 0.0
    if n == 0:
        return head
    jf = np.arange(n) + f
    top = min(max(math.ceil(x - f - 1.0), 0), n - 1)
    terms = 1.0 + np.cumprod(x / (jf[top:-1] + 1.0)).sum() + np.cumprod(jf[top:0:-1] / x).sum()
    return float(head + math.exp(jf[top] * math.log(x) - x - math.lgamma(jf[top] + 1.0)) * terms)


def attack_metrics(n: int, m: int, ell: int) -> tuple[float | None, float]:
    """(KRE, KRR) = m/n and m/ell; KRE is absent when nothing was attacked."""
    if ell < 1:
        raise ContractError("ell must be >= 1")
    if m > n:
        raise ContractError("cannot have more correct guesses than attacks")
    kre = m / n if n > 0 else None
    return kre, m / ell


def bit_mismatch_rate(s_a, s_b) -> float:
    s_a = np.asarray(s_a, dtype=np.uint8)
    s_b = np.asarray(s_b, dtype=np.uint8)
    if s_a.size != s_b.size:
        raise ContractError("bitstreams must have equal length")
    if s_a.size == 0:
        return 0.0
    return float(np.count_nonzero(s_a != s_b) / s_a.size)


def _phi(bits: np.ndarray, m: int) -> float:
    """Sum of pi*log(pi) over overlapping m-patterns of the uint8 0/1 `bits`
    with wraparound.

    Patterns are built in uint8 with in-place shifts and counted one
    comparison pass per pattern, which is about ten times faster than
    int64 indices and np.bincount (its cast to intp included)."""
    n = bits.size
    ext = np.concatenate([bits, bits[: m - 1]])
    idx = bits.copy()
    for j in range(1, m):
        idx <<= 1
        idx |= ext[j : j + n]
    counts = np.array([np.count_nonzero(idx == p) for p in range(1 << m)])
    pi = counts[counts > 0] / n
    return float(np.sum(pi * np.log(pi)))


def approximate_entropy(bits) -> float:
    """ApEn(m) = Phi(m) - Phi(m+1), m = APEN_BLOCK, over cyclically
    extended windows of 0/1 `bits`.

    0 for any deterministic periodic sequence; ln 2 in the i.i.d.
    fair-coin limit.
    """
    bits = np.asarray(bits, dtype=np.uint8)
    if bits.size < 2 ** (APEN_BLOCK + 1):
        raise ContractError(
            f"need at least 2^(m+1) = {2 ** (APEN_BLOCK + 1)} bits, got {bits.size}"
        )
    return _phi(bits, APEN_BLOCK) - _phi(bits, APEN_BLOCK + 1)


@dataclass(frozen=True)
class TestResult:
    name: str
    p_value: float | None
    passed: bool | None
    applicable: bool = True
    note: str = ""
    # the test's own statistic (ApEn for approximate_entropy); not reported
    statistic: float | None = None

    def to_dict(self) -> dict:
        out = _shallow_dict(self)
        del out["statistic"]
        return out


def _shallow_dict(obj) -> dict:
    """Field name -> value in declaration order; unlike `asdict`, values are
    not copied."""
    return {f.name: getattr(obj, f.name) for f in fields(obj)}


def _not_applicable(name: str, why: str) -> TestResult:
    return TestResult(name=name, p_value=None, passed=None, applicable=False, note=why)


def monobit_test(bits: np.ndarray) -> TestResult:
    n = bits.size
    if n < MIN_BITS:
        return _not_applicable("monobit", f"needs >= {MIN_BITS} bits")
    s = abs(2 * int(bits.sum()) - n) / math.sqrt(n)
    p = math.erfc(s / math.sqrt(2.0))
    return TestResult("monobit", p, p >= PASS_LEVEL)


def block_frequency_test(bits: np.ndarray) -> TestResult:
    """Blocks of 128 bits, or of n/10 (at least 20) below 1280 bits."""
    n = bits.size
    if n < MIN_BITS:
        return _not_applicable("block_frequency", f"needs >= {MIN_BITS} bits")
    m = 128 if n >= 1280 else max(20, n // 10)
    n_blocks = n // m
    pi = bits[: n_blocks * m].reshape(n_blocks, m).mean(axis=1)
    chi2 = 4.0 * m * float(np.sum((pi - 0.5) ** 2))
    p = _igamc(n_blocks / 2.0, chi2 / 2.0)
    return TestResult("block_frequency", p, p >= PASS_LEVEL)


def runs_test(bits: np.ndarray) -> TestResult:
    n = bits.size
    if n < MIN_BITS:
        return _not_applicable("runs", f"needs >= {MIN_BITS} bits")
    pi = float(bits.mean())
    if abs(pi - 0.5) >= 2.0 / math.sqrt(n):
        # frequency pre-test failed: runs statistic is meaningless, report 0
        return TestResult("runs", 0.0, False, note="frequency pre-test failed")
    v = int(np.count_nonzero(np.diff(bits))) + 1
    denom = 2.0 * math.sqrt(2.0 * n) * pi * (1.0 - pi)
    p = math.erfc(abs(v - 2.0 * n * pi * (1.0 - pi)) / denom)
    return TestResult("runs", p, p >= PASS_LEVEL)


def approximate_entropy_test(bits: np.ndarray) -> TestResult:
    """ApEn with pattern length APEN_BLOCK against its i.i.d. limit ln 2."""
    n = bits.size
    if n < MIN_BITS:
        return _not_applicable("approximate_entropy", f"needs >= {MIN_BITS} bits")
    apen = approximate_entropy(bits)
    chi2 = 2.0 * n * (math.log(2.0) - apen)
    p = _igamc(2 ** (APEN_BLOCK - 1), max(chi2, 0.0) / 2.0)
    return TestResult("approximate_entropy", p, p >= PASS_LEVEL, statistic=apen)


def randomness_tests(bits) -> dict[str, TestResult]:
    """Run the four-test battery; too-short inputs get not-applicable markers."""
    bits = np.asarray(bits, dtype=np.uint8)
    return {
        r.name: r
        for r in (
            monobit_test(bits),
            block_frequency_test(bits),
            runs_test(bits),
            approximate_entropy_test(bits),
        )
    }


def secret_bit_rate(
    reconciled_bits: int, correctly_guessed: int, parity_bits: int, n_rounds: int
) -> float:
    """Net secret bits per probing round, floored at zero.

    Counts only bits that survived reconciliation, minus what the
    adversary learned (her correct attacked guesses) and minus the
    parity the code reveals in public.
    """
    if n_rounds < 1:
        raise ContractError("n_rounds must be >= 1")
    net = reconciled_bits - correctly_guessed - parity_bits
    return max(net, 0) / n_rounds


@dataclass
class SessionReport:
    """Everything the run_experiment command writes to report.json."""

    scheme: str
    seed: int
    n_rounds: int
    ell: int
    n: int
    n0: int
    m: int
    attacked_total: int
    kre: float | None
    krr: float
    bit_mismatch_rate: float
    secret_bit_rate: float
    apen: float | None
    randomness: dict[str, TestResult] = field(default_factory=dict)
    reconciliation_ok: bool | None = None
    verification_ok: bool | None = None
    p_x_dbm: float = float("nan")
    tx_power_gap_vs_oa_db: float | None = None
    thresholds_alice: tuple[float, float] | None = None
    thresholds_bob: tuple[float, float] | None = None
    attack_rounds: list[dict] = field(default_factory=list)
    # the Rician K-factor of each link ("ab", "ma", "mb")
    fading_k_factor: dict[str, float] = field(default_factory=dict)

    def to_dict(self) -> dict:
        """The fields in declaration order, randomness results as dicts."""
        out = _shallow_dict(self)
        out["randomness"] = {k: v.to_dict() for k, v in self.randomness.items()}
        return out
