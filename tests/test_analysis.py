import itertools
import math

import numpy as np
import pytest
from scipy import signal, stats

from phykey.analysis import (
    closed_form_p0_p1,
    expected_rates,
    guess_count_pmf,
    key_guess_probability,
)
from phykey.antenna import AntennaProfile, omni_profile
from phykey.errors import ContractError
from phykey.rician import rician_params


def test_rician_params_direct_substitution():
    # one row per mode: nu = g_0 * |los|, varsigma = sigma0 * ||g||
    gains = np.array([[2.0, 0.0], [3.0, 4.0]])
    nu, varsigma = rician_params(gains, los_mean_amplitude=5.0, sigma0=1.0)
    np.testing.assert_allclose(nu, [10.0, 15.0])
    np.testing.assert_allclose(varsigma, [2.0, 5.0])


def test_rician_params_los_only():
    profile = AntennaProfile(
        modes=(0,),
        angles_deg=np.array([0.0, 90.0, 180.0]),
        gains=np.array([[1.0, 0.0, 0.0]]),
    )
    gains = profile.gain_matrix((0.0, 90.0, 180.0))
    nu, varsigma = rician_params(gains, los_mean_amplitude=3.3, sigma0=0.7)
    assert nu.tolist() == pytest.approx([3.3])
    assert varsigma.tolist() == pytest.approx([0.7])


def test_degenerate_mode_rejected():
    # zero gain on every path leaves varsigma == 0; the closed form
    # rejects a profile with no other mode
    profile = AntennaProfile(
        modes=(0,), angles_deg=np.array([0.0]), gains=np.array([[0.0]])
    )
    g = profile.gain_matrix((0.0,))
    _, varsigma = rician_params(g, 1.0, 1.0)
    assert varsigma.tolist() == [0.0]
    with pytest.raises(ContractError, match="every mode is degenerate"):
        closed_form_p0_p1(profile, g, 1.0, 1.0, -3.0, 3.0, 0.0)


def test_amplitude_distribution_matches_rician(rng):
    # empirical |h| over 1e6 draws vs the Rician law with the derived params
    profile = AntennaProfile(
        modes=(0,),
        angles_deg=np.array([0.0, 40.0, 300.0]),
        gains=np.array([[1.0, 0.55, 0.3]]),
    )
    sigma0, los = 0.4, 2.0
    g = profile.gain_matrix((0.0, 40.0, 300.0))
    (nu,), (varsigma,) = rician_params(g, los, sigma0)
    n = 1_000_000
    a = sigma0 * (rng.standard_normal((n, 3)) + 1j * rng.standard_normal((n, 3)))
    a[:, 0] += los
    amp = np.abs((g[0] * a).sum(axis=1))
    ks = stats.kstest(amp, lambda x: stats.rice.cdf(x, nu / varsigma, scale=varsigma))
    assert ks.statistic < 0.01


def test_closed_form_single_mode_against_monte_carlo(rng):
    sigma0, los, p_x = 0.3, 1.5, 5.0
    q_minus, q_plus = 4.0, 9.0
    omni = omni_profile()
    g = omni.gain_matrix((0.0, 70.0))
    p0, p1, _ = closed_form_p0_p1(omni, g, los, sigma0, q_minus, q_plus, p_x)
    n = 1_000_000
    a = sigma0 * (rng.standard_normal((n, 2)) + 1j * rng.standard_normal((n, 2)))
    a[:, 0] += los
    rss = 20.0 * np.log10(np.abs(a.sum(axis=1))) + p_x
    assert float(np.mean(rss > q_plus)) == pytest.approx(p1, abs=0.005)
    assert float(np.mean(rss < q_minus)) == pytest.approx(p0, abs=0.005)


def test_closed_form_complementary_tails_at_shared_median(rng, beam_profile):
    # with q_plus == q_minus == any point, the two probabilities are exact
    # complements (amplitude law is continuous)
    q = -62.0
    g = beam_profile.gain_matrix((60.0, 20.3, 101.9))
    p0, p1, _ = closed_form_p0_p1(beam_profile, g, 1e-4, 2e-6, q, q, 5.0)
    assert p0 + p1 == pytest.approx(1.0, abs=1e-9)


def test_closed_form_excludes_degenerate_modes():
    gains = np.array([[1.0], [0.0]])
    profile = AntennaProfile(modes=(0, 1), angles_deg=np.array([0.0]), gains=gains)
    g = profile.gain_matrix((0.0,))
    with pytest.warns(UserWarning, match="degenerate"):
        p0, p1, _ = closed_form_p0_p1(profile, g, 1.0, 0.5, -3.0, 3.0, 0.0)
    assert 0.0 <= p0 <= 1.0 and 0.0 <= p1 <= 1.0
    # the count analyze_config reports comes from the same exclusion
    with pytest.warns(UserWarning, match="excluding 1 degenerate"):
        counted = closed_form_p0_p1(profile, g, 1.0, 0.5, -3.0, 3.0, 0.0)
    assert counted == (p0, p1, 1)


def _pmf_by_enumeration(n, n0, p0, p1):
    pmf = np.zeros(n + 1)
    for outcome in itertools.product((0, 1), repeat=n):
        prob = 1.0
        for i, hit in enumerate(outcome):
            p = p0 if i < n0 else p1
            prob *= p if hit else (1.0 - p)
        pmf[sum(outcome)] += prob
    return pmf


def test_pmf_tiny_case_brute_force():
    np.testing.assert_allclose(
        guess_count_pmf(2, 1, 0.5, 0.5), [0.25, 0.5, 0.25], atol=1e-14
    )


def test_pmf_reduces_to_plain_binomial():
    n, p0 = 9, 0.37
    np.testing.assert_allclose(
        guess_count_pmf(n, n, p0, 0.9),
        stats.binom.pmf(np.arange(n + 1), n, p0),
        atol=1e-13,
    )


def test_pmf_matches_exhaustive_enumeration_up_to_n12():
    rng = np.random.default_rng(42)
    cases = [(n, int(rng.integers(0, n + 1))) for n in range(1, 13)]
    for n, n0 in cases:
        p0, p1 = rng.uniform(0, 1, size=2)
        pmf = guess_count_pmf(n, n0, p0, p1)
        np.testing.assert_allclose(pmf, _pmf_by_enumeration(n, n0, p0, p1), atol=1e-12)
        assert pmf.sum() == pytest.approx(1.0, abs=1e-12)


def test_pmf_mean_identity_random_inputs():
    rng = np.random.default_rng(1)
    for _ in range(20):
        n = int(rng.integers(1, 40))
        n0 = int(rng.integers(0, n + 1))
        p0, p1 = rng.uniform(0, 1, size=2)
        pmf = guess_count_pmf(n, n0, p0, p1)
        mean = float(np.dot(np.arange(n + 1), pmf))
        e_kre, _ = expected_rates(n, n0, p0, p1, ell=n)
        assert mean / n == pytest.approx(e_kre, abs=1e-12)


def test_pmf_large_n_normalized():
    pmf = guess_count_pmf(50_000, 12_000, 0.53, 0.32)
    assert pmf.sum() == pytest.approx(1.0, abs=1e-9)
    assert np.all(pmf >= 0.0)


def _pmf_oracle(n, n0, p0, p1):
    """The two binomial PMFs convolved directly up to n = 4096, by FFT with
    negative round-off clipped to zero above it."""
    pmf0 = stats.binom.pmf(np.arange(n0 + 1), n0, p0)
    pmf1 = stats.binom.pmf(np.arange(n - n0 + 1), n - n0, p1)
    if n <= 4096:
        return np.convolve(pmf0, pmf1)
    return np.clip(signal.fftconvolve(pmf0, pmf1), 0.0, None)


@pytest.mark.parametrize(
    "n, n0, p0, p1",
    [
        (0, 0, 0.5, 0.5),
        (1, 0, 0.0, 1.0),
        (1, 1, 1.0, 0.0),
        (12, 5, 0.3, 0.7),
        (777, 300, 0.0, 0.0),
        (4096, 0, 0.5, 0.25),
        (4096, 2000, 1.0, 0.32),
        (4096, 4096, 0.53, 0.0),
        (4097, 0, 0.1, 1.0),
        (4097, 1, 0.53, 0.32),
        (20_000, 20_000, 0.0, 0.5),
        (41_000, 12_000, 0.53, 0.32),
        (60_000, 0, 0.47, 0.29),
        (60_000, 30_000, 1.0, 1.0),
        (60_000, 60_000, 0.61, 0.0),
        (60_000, 30_000, 0.4, 0.6),  # 60,001 = 29 x 2069: a slow FFT length
    ],
)
def test_pmf_equals_scipy_convolution_exactly(n, n0, p0, p1):
    # within 1e-13 of scipy's binomials convolved as before, and exact where
    # the count is certain: n = 0, or each side empty or at p in {0, 1}
    got, want = guess_count_pmf(n, n0, p0, p1), _pmf_oracle(n, n0, p0, p1)
    assert got.shape == want.shape == (n + 1,)
    assert np.max(np.abs(got - want)) <= 1e-13
    if (n0 == 0 or p0 in (0.0, 1.0)) and (n0 == n or p1 in (0.0, 1.0)):
        certain = np.zeros(n + 1)
        certain[round(n0 * p0 + (n - n0) * p1)] = 1.0
        assert np.array_equal(got, certain)


@pytest.mark.parametrize("seed", range(4))
def test_pmf_matches_scipy_binomials_on_a_seeded_sweep(seed):
    # n0 = n leaves one binomial; n0 < n convolves two (directly or by FFT);
    # p within 1e-12 of 0 or 1 included
    rng = np.random.default_rng(2200 + seed)

    def draw_p():
        p, edge = rng.uniform(0.0, 1.0), rng.uniform(0.0, 1e-12)
        return float(rng.choice([p, edge, 1.0 - edge]))

    for _ in range(10):
        n = int(rng.integers(1, 60_000))
        p = draw_p()
        want = stats.binom.pmf(np.arange(n + 1), n, p)
        assert np.max(np.abs(guess_count_pmf(n, n, p, 0.5) - want)) <= 1e-13, (n, p)
    for _ in range(4):
        n = int(rng.integers(1, 60_000))
        n0, p0, p1 = int(rng.integers(0, n + 1)), draw_p(), draw_p()
        got, want = guess_count_pmf(n, n0, p0, p1), _pmf_oracle(n, n0, p0, p1)
        assert np.max(np.abs(got - want)) <= 1e-13, (n, n0, p0, p1)


def test_expected_rates_equal_probabilities():
    e_kre, e_krr = expected_rates(10, 4, 0.3, 0.3, ell=100)
    assert e_kre == pytest.approx(0.3)
    assert e_krr == pytest.approx(0.03)


def test_expected_rates_no_attacks():
    e_kre, e_krr = expected_rates(0, 0, 0.5, 0.5, ell=10)
    assert e_kre is None
    assert e_krr == 0.0


def test_key_guess_direct_product():
    rep = key_guess_probability(ell=4, n=2, n0=1, p0=0.6, p1=0.4)
    assert rep.p_key == pytest.approx(0.25 * 0.6 * 0.4)
    assert rep.log10_p_key == pytest.approx(math.log10(0.06))


def test_key_guess_pure_random():
    rep = key_guess_probability(ell=16, n=0, n0=0, p0=0.9, p1=0.9)
    assert rep.p_key == pytest.approx(0.5**16)
    assert not rep.beats_random
    assert not rep.beats_random_logratio


def test_key_guess_zero_probability_exact():
    rep = key_guess_probability(ell=8, n=3, n0=2, p0=0.0, p1=0.5)
    assert rep.p_key == 0.0
    assert not rep.beats_random


def test_key_guess_underflow_reported_in_logs():
    rep = key_guess_probability(ell=10**7, n=10**6, n0=10**5, p0=0.53, p1=0.32)
    assert rep.p_key == 0.0
    assert rep.log10_p_key < -1e6
    assert math.isfinite(rep.log10_p_key)


def test_ratio_condition_below_bound_means_worse_than_random():
    # ratio n0/(n-n0) far below the bound: the attack loses to coin flips
    n, n0 = 2600, 100  # ratio 0.04
    rep = key_guess_probability(ell=10_000, n=n, n0=n0, p0=0.65, p1=0.37)
    assert rep.ratio == pytest.approx(0.04)
    assert rep.ratio < rep.ratio_bound
    assert not rep.beats_random
    assert not rep.beats_random_logratio


def test_beats_random_routes_agree_on_random_draws():
    rng = np.random.default_rng(123)
    for _ in range(1000):
        ell = int(rng.integers(1, 10_000))
        n = int(rng.integers(0, ell + 1))
        n0 = int(rng.integers(0, n + 1))
        p0, p1 = rng.uniform(0, 1, size=2)
        rep = key_guess_probability(ell, n, n0, p0, p1)
        assert rep.beats_random == rep.beats_random_logratio, (ell, n, n0, p0, p1)


def test_beats_random_true_when_attack_is_strong():
    rep = key_guess_probability(ell=100, n=80, n0=40, p0=0.9, p1=0.8)
    assert rep.beats_random and rep.beats_random_logratio
