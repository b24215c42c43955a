"""Closed-form security analysis of the wait-then-attack adversary.

Under i.i.d. uniform mode selection the per-attack success
probabilities reduce to unconditional Rician tails of the M-A link,
averaged over modes (Marcum Q kernels), with each mode's Rician
parameters taken from the profile's gain matrix on the M-A paths.
From (p0, p1) and the attack
counts follow the guess-count PMF, the expected recovery rates, and
the whole-key guessing probability with its random-guess comparison.

A mode's two tails share one Poisson series. Each series is exponentiated
only on a Bernstein window outside which exp gives exactly +0.0, and adding
+0.0 changes no bit of a sum; the dot product keeps [0, hi] (see marcum_q1).
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
_LOG_ZERO = -746.0  # exp is exactly +0.0 below this: it rounds anything under e^-745.13 to 0


# k and log k! for k = 0, 1, ...; grown on demand by _series_tables, up to
# _TABLE_CAP entries (1 MiB each), twice the 65.6k the K=3000 closed form uses
_KS = _LOG_FACTORIALS = np.zeros(0)
_TABLE_CAP = 1 << 17


def _series_tables(hi: int) -> tuple[np.ndarray, np.ndarray]:
    """k and log k! for k = 0..hi, as views of tables that grow on demand.

    Tables past _TABLE_CAP entries are built for the call and not kept.
    A running sum's prefix does not depend on how far it runs, so a
    slice of a longer table equals the table built for hi alone.
    """
    global _KS, _LOG_FACTORIALS
    if _KS.size <= hi:
        size = max(hi + 1, min(2 * _KS.size, _TABLE_CAP))
        ks = np.arange(size, dtype=float)
        log_factorials = np.concatenate(([0.0], np.cumsum(np.log(ks[1:]))))
        ks.setflags(write=False)  # callers get views: keep the shared tables intact
        log_factorials.setflags(write=False)
        if size > _TABLE_CAP:
            return ks[: hi + 1], log_factorials[: hi + 1]
        _KS, _LOG_FACTORIALS = ks, log_factorials
    return _KS[: hi + 1], _LOG_FACTORIALS[: hi + 1]


def _poisson_window(lam: float, n: int) -> tuple[int, int]:
    """[lo, up) in [0, n) outside which log Pois(k; lam) < _LOG_ZERO: a term is at most
    its tail, P(K <= lam - t) <= e^(-t^2/(2 lam)), P(K >= lam + t) <= e^(-t^2/(2 lam + 2t/3))."""
    r, c = -2.0 * _LOG_ZERO * lam, -_LOG_ZERO / 3.0
    return max(0, int(lam - math.sqrt(r))), min(n, int(lam + c + math.sqrt(c * c + r)) + 1)


def _poisson_terms(lam: float, lo: int, up: int, ks, lf, out: np.ndarray) -> None:
    """out[lo:up] = exp(k log lam - lam - log k!), in the full series' operation order."""
    terms = np.multiply(ks[lo:up], math.log(lam), out=out[lo:up])
    terms -= lam
    terms -= lf[lo:up]
    np.exp(terms, out=terms)


def _marcum_q1_tails(a: float, bs: tuple[float, ...]) -> list[float]:
    """[Q1(a, b) for b in bs]: the tails share one Poisson series of a^2/2."""
    x, ys = a * a / 2.0, [b * b / 2.0 for b in bs]
    # a NaN fails v >= 0; an infinite one, or a square that overflows, leaves x or a y infinite
    if not (all(v >= 0.0 for v in (a, *bs)) and all(math.isfinite(v) for v in (x, *ys))):
        raise ContractError(
            f"marcum_q1 needs a, b >= 0 with finite a*a/2 and b*b/2, got {(a, *bs)}"
        )
    if x == 0.0:  # a == 0, or a*a/2 underflowed: the Rayleigh tail
        return [math.exp(-y) for y in ys]
    his = [int(max(x, y) + 40.0 * math.sqrt(max(x, y) + 1.0) + 40.0) for y in ys]
    ks, lf = _series_tables(max(his))
    pois_x = np.zeros(max(his) + 1)
    xlo, xup = _poisson_window(x, pois_x.size)
    _poisson_terms(x, xlo, xup, ks, lf, pois_x)
    out = []
    for y, hi in zip(ys, his):
        ylo, yup = _poisson_window(y, min(xup, hi + 1))
        if y == 0.0 or ylo >= yup:  # Q1 is 1 at y == 0; else every product is +0.0
            out.append(1.0 if y == 0.0 else 0.0)
            continue
        cdf_y = np.zeros(hi + 1)
        _poisson_terms(y, ylo, yup, ks, lf, cdf_y)
        np.add.accumulate(cdf_y[ylo:yup], out=cdf_y[ylo:yup])
        cdf_y[yup:xup] = cdf_y[yup - 1]  # past yup the full running sum adds only +0.0
        out.append(float(min(1.0, np.dot(pois_x[: hi + 1], cdf_y))))
    return out


def marcum_q1(a: float, b: float) -> float:
    """First-order Marcum Q: P(Rician(a, 1) > b).

    Canonical series sum_k Pois(k; x) * P(Pois(y) <= k), x = a^2/2 and
    y = b^2/2, over k in [0, hi] with hi wide enough that the truncated
    Poisson mass is below 1e-16 of the total; log-domain terms keep it
    stable for large arguments. Against `scipy.stats.ncx2.sf` the absolute
    error stays under 1e-10 for a, b <= 75 (worst 3.4e-11 on a 25 x 25
    grid); it reaches 1.0e-10 by 100 and 1.9e-9 at (200, 196). On the
    closed form's own arguments (seeds 1-10) b reaches 106 at the default
    config (K=300) and 335 at K=3000, with worst errors of 4.3e-12 and
    8.4e-11. Work and memory grow with max(a, b)^2 / 2; the k and log k!
    tables are kept up to _TABLE_CAP entries and built per call past it.
    x == 0 (also when a*a/2 underflows) gives exp(-y); y == 0 gives 1.
    a or b negative, NaN or infinite, or a*a/2 or b*b/2 overflowing, raises
    ContractError.

    A series is exponentiated only on its Bernstein window [lam -
    sqrt(1492 lam), lam + c + sqrt(c^2 + 1492 lam)), c = 746/3; outside it
    exp gives exactly +0.0, so y's running sum is 0.0 before its window and
    constant after (to x's window end; past it each product is +0.0 anyway).
    The dot product spans [0, hi], as BLAS groups its additions by index.
    """
    return _marcum_q1_tails(a, (b,))[0]


def closed_form_p0_p1(
    profile,
    gains_ma,
    los_mean_amplitude: float,
    sigma0: float,
    q_minus: float,
    q_plus: float,
    p_x_dbm: float,
) -> tuple[float, float, int]:
    """(p0, p1, excluded modes): mode-averaged success probabilities for
    O0 and O1 attacks, and the number of degenerate modes left out.

    gains_ma is the profile's gain matrix on the M-A paths (a scenario's
    `g_am`). p1 = mean over modes of Q1(nu/varsigma, r_plus/varsigma) and
    p0 = mean of the complementary CDF term at r_minus, with
    r = 10^((q - P_x)/20) the amplitude matching threshold q in dBm.
    A mode's two tails share one Poisson series of (nu/varsigma)^2/2.
    Degenerate modes (varsigma == 0: zero gain on every M-A path) are
    excluded with a warning, mirroring power calibration.
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
    modes = zip(nu[live].tolist(), varsigma[live].tolist())
    tails = [_marcum_q1_tails(nu_u / vs_u, (r_minus / vs_u, r_plus / vs_u)) for nu_u, vs_u in modes]
    p0 = float(np.mean([1.0 - above_minus for above_minus, _ in tails]))
    p1 = float(np.mean([above_plus for _, above_plus in tails]))
    return p0, p1, int(np.count_nonzero(~live))


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
