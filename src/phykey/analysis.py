"""Closed-form security analysis of the wait-then-attack adversary.

Under i.i.d. uniform mode selection the per-attack success
probabilities reduce to unconditional Rician tails of the M-A link,
averaged over modes (Marcum Q kernels), with each mode's Rician
parameters taken from the profile's gain matrix on the M-A paths.
From (p0, p1) and the attack
counts follow the guess-count PMF, the expected recovery rates, and
the whole-key guessing probability with its random-guess comparison.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.signal import fftconvolve
from scipy.stats import binom

from .errors import ContractError
from .rician import rician_params

__all__ = [
    "marcum_q1",
    "rician_params",
    "closed_form_p0_p1",
    "guess_count_pmf",
    "expected_rates",
    "key_guess_probability",
    "KeyGuessReport",
    "AnalysisResult",
]

_PMF_DIRECT_LIMIT = 4096  # above this, binomial convolution switches to FFT


# k and log k! for k = 0, 1, ...; grown on demand by _series_tables
_KS = _LOG_FACTORIALS = np.zeros(0)


def _series_tables(hi: int) -> tuple[np.ndarray, np.ndarray]:
    """k and log k! for k = 0..hi, as views of tables that grow on demand.

    A running sum's prefix does not depend on how far it runs, so a
    slice of a longer table equals the table built for hi alone.
    """
    global _KS, _LOG_FACTORIALS
    if _KS.size <= hi:
        _KS = np.arange(max(hi + 1, 2 * _KS.size), dtype=float)
        _LOG_FACTORIALS = np.concatenate(([0.0], np.cumsum(np.log(_KS[1:]))))
        _KS.setflags(write=False)  # callers get views: keep the shared tables intact
        _LOG_FACTORIALS.setflags(write=False)
    return _KS[: hi + 1], _LOG_FACTORIALS[: hi + 1]


def marcum_q1(a: float, b: float) -> float:
    """First-order Marcum Q: P(Rician(a, 1) > b).

    Canonical series sum_k Pois(k; a^2/2) * P(Pois(b^2/2) <= k),
    evaluated over a window wide enough that the truncated Poisson
    mass is below 1e-16 of the total; log-domain term starts keep it
    stable for large arguments. Absolute error stays under 1e-10.
    """
    if not (a >= 0.0 and b >= 0.0 and math.isfinite(a) and math.isfinite(b)):
        raise ContractError(f"marcum_q1 needs finite a, b >= 0, got ({a}, {b})")
    if b == 0.0:
        return 1.0
    y = b * b / 2.0
    if a == 0.0:
        return math.exp(-y)
    x = a * a / 2.0
    top = max(x, y)
    hi = int(top + 40.0 * math.sqrt(top + 1.0) + 40.0)
    ks, lf = _series_tables(hi)
    pois_x = np.exp(-x + ks * math.log(x) - lf)
    cdf_y = np.cumsum(np.exp(-y + ks * math.log(y) - lf))
    return float(min(1.0, np.dot(pois_x, cdf_y)))


def closed_form_p0_p1(
    profile,
    gains_ma,
    los_mean_amplitude: float,
    sigma0: float,
    q_minus: float,
    q_plus: float,
    p_x_dbm: float,
    *,
    return_excluded: bool = False,
):
    """Mode-averaged success probabilities (p0, p1) for O0 and O1 attacks.

    gains_ma is the profile's gain matrix on the M-A paths (a scenario's
    `g_am`). p1 = mean over modes of Q1(nu/varsigma, r_plus/varsigma) and
    p0 = mean of the complementary CDF term at r_minus, with
    r = 10^((q - P_x)/20) the amplitude matching threshold q in dBm.
    Degenerate modes (varsigma == 0: zero gain on every M-A path) are
    excluded with a warning, mirroring power calibration; with
    return_excluded the result is (p0, p1, number of excluded modes).
    """
    r_plus = 10.0 ** ((q_plus - p_x_dbm) / 20.0)
    r_minus = 10.0 ** ((q_minus - p_x_dbm) / 20.0)
    nu, varsigma = rician_params(gains_ma, los_mean_amplitude, sigma0)
    live = varsigma > 0.0
    if not np.any(live):
        raise ContractError("every mode is degenerate on the M-A link")
    if not np.all(live):
        dead = [profile.modes[i] for i in np.flatnonzero(~live)]
        warnings.warn(
            f"excluding {len(dead)} degenerate mode(s) from p0/p1: {dead[:8]}",
            stacklevel=2,
        )
    p0_terms, p1_terms = [], []
    for nu_u, vs_u in zip(nu[live].tolist(), varsigma[live].tolist()):
        ratio = nu_u / vs_u
        p1_terms.append(marcum_q1(ratio, r_plus / vs_u))
        p0_terms.append(1.0 - marcum_q1(ratio, r_minus / vs_u))
    p0, p1 = float(np.mean(p0_terms)), float(np.mean(p1_terms))
    if return_excluded:
        return p0, p1, int(np.count_nonzero(~live))
    return p0, p1


def guess_count_pmf(n: int, n0: int, p0: float, p1: float) -> np.ndarray:
    """PMF of the number of correctly guessed attacked bits, m = 0..n.

    The n0 type-0 attacks succeed independently with probability p0 and
    the n-n0 type-1 attacks with p1, so the count is the convolution of
    two binomials.
    """
    if not (0 <= n0 <= n):
        raise ContractError(f"need 0 <= n0 <= n, got n0={n0}, n={n}")
    if not (0.0 <= p0 <= 1.0 and 0.0 <= p1 <= 1.0):
        raise ContractError("probabilities must lie in [0, 1]")
    if n == 0:
        return np.ones(1)
    pmf0 = binom.pmf(np.arange(n0 + 1), n0, p0)
    pmf1 = binom.pmf(np.arange(n - n0 + 1), n - n0, p1)
    if n <= _PMF_DIRECT_LIMIT:
        out = np.convolve(pmf0, pmf1)
    else:
        out = fftconvolve(pmf0, pmf1)
        np.clip(out, 0.0, None, out=out)
    return out


def expected_rates(
    n: int, n0: int, p0: float, p1: float, ell: int
) -> tuple[float | None, float]:
    """(E[KRE], E[KRR]) = weighted success count over n and over ell."""
    if ell < 1:
        raise ContractError("ell must be >= 1")
    if not (0 <= n0 <= n):
        raise ContractError(f"need 0 <= n0 <= n, got n0={n0}, n={n}")
    expected_correct = n0 * p0 + (n - n0) * p1
    e_kre = expected_correct / n if n > 0 else None
    return e_kre, expected_correct / ell


@dataclass(frozen=True)
class KeyGuessReport:
    """Whole-key guessing probability and the random-guess comparison.

    beats_random is computed two ways that must agree: directly from
    log2(p_key) > -ell, and from the sign of
    n0*(ln p0 - ln 0.5) - (n - n0)*(ln 0.5 - ln p1), the cross-
    multiplied form of the opportunity-ratio condition. ratio and
    ratio_bound are the diagnostic pair n0/(n-n0) vs
    (ln 0.5 - ln p1)/(ln p0 - ln 0.5).
    """

    p_key: float
    log10_p_key: float
    log2_p_key: float
    beats_random: bool
    beats_random_logratio: bool
    ratio: float
    ratio_bound: float


def _count_log_term(count: int, p: float) -> float:
    """count * ln(2p) with the 0 * log(0) = 0 convention."""
    if count == 0:
        return 0.0
    if p == 0.0:
        return -math.inf
    return count * (math.log(p) - math.log(0.5))


def key_guess_probability(
    ell: int, n: int, n0: int, p0: float, p1: float
) -> KeyGuessReport:
    """p_key = 0.5^(ell-n) * p0^n0 * p1^(n-n0), log-domain throughout."""
    if not (0 <= n <= ell):
        raise ContractError(f"need 0 <= n <= ell, got n={n}, ell={ell}")
    if not (0 <= n0 <= n):
        raise ContractError(f"need 0 <= n0 <= n, got n0={n0}, n={n}")
    n1 = n - n0
    terms = []
    for count, p in ((n0, p0), (n1, p1)):
        if count > 0:
            terms.append(-math.inf if p == 0.0 else count * math.log2(p))
    log2_p_key = -(ell - n) + sum(terms)
    log10_p_key = log2_p_key * math.log10(2.0)
    p_key = 2.0**log2_p_key if log2_p_key > -1074 else 0.0
    beats_random = log2_p_key > -float(ell)
    lhs = _count_log_term(n0, p0)  # n0 * (ln p0 - ln 0.5)
    rhs = -_count_log_term(n1, p1)  # (n - n0) * (ln 0.5 - ln p1)
    beats_random_logratio = lhs > rhs
    ratio = n0 / n1 if n1 > 0 else math.inf
    if p0 <= 0.0 or p1 <= 0.0:
        ratio_bound = math.nan
    else:
        denom = math.log(p0) - math.log(0.5)
        numer = math.log(0.5) - math.log(p1)
        ratio_bound = numer / denom if denom != 0.0 else math.inf
    return KeyGuessReport(
        p_key=p_key,
        log10_p_key=log10_p_key,
        log2_p_key=log2_p_key,
        beats_random=beats_random,
        beats_random_logratio=beats_random_logratio,
        ratio=ratio,
        ratio_bound=ratio_bound,
    )


@dataclass(frozen=True)
class AnalysisResult:
    """Bundle of closed-form quantities emitted by the analyze command."""

    p0: float
    p1: float
    e_kre: float | None
    e_krr: float | None
    key_guess: KeyGuessReport | None
    pmf: np.ndarray | None = None
    excluded_modes: int = 0
    counts: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        out = {
            "p0": self.p0,
            "p1": self.p1,
            "e_kre": self.e_kre,
            "e_krr": self.e_krr,
            "excluded_modes": self.excluded_modes,
            "counts": dict(self.counts),
        }
        if self.key_guess is not None:
            kg = self.key_guess
            out["key_guess"] = {
                "p_key": kg.p_key,
                "log10_p_key": kg.log10_p_key,
                "beats_random": kg.beats_random,
                "beats_random_logratio": kg.beats_random_logratio,
                "ratio": kg.ratio,
                "ratio_bound": kg.ratio_bound,
            }
        if self.pmf is not None:
            out["pmf"] = [float(v) for v in self.pmf]
        return out
