"""Marcum Q against independent oracles: adaptive quadrature of the
Rician tail density, the noncentral chi-square survival function, and
the full-window series bit for bit."""
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import integrate, stats
from scipy.special import ive

from phykey import analysis
from phykey.analysis import (
    _poisson_terms,
    _poisson_window,
    _series_tables,
    closed_form_p0_p1,
    marcum_q1,
)
from phykey.antenna import synthesize_rotated_beam
from phykey.config import config_from_mapping
from phykey.errors import ContractError
from phykey.geometry import LinkPathSet
from phykey.pipeline import analyze_config
from phykey.rician import rician_params


def marcum_by_quadrature(a: float, b: float) -> float:
    # Rician(a, 1) tail: integrate t*exp(-(t-a)^2/2)*ive(0, a*t) from b
    def density(t):
        return t * math.exp(-((t - a) ** 2) / 2.0) * ive(0, a * t)

    val, err = integrate.quad(density, b, np.inf, limit=500, epsabs=1e-12, epsrel=1e-12)
    assert err < 5e-9
    return val


def test_q_at_zero_threshold_is_exactly_one():
    for a in (0.0, 0.3, 1.0, 7.5, 40.0):
        assert marcum_q1(a, 0.0) == 1.0


def test_zero_noncentrality_is_rayleigh_tail():
    for b in np.arange(0.1, 5.0001, 0.1):
        assert abs(marcum_q1(0.0, b) - math.exp(-b * b / 2.0)) <= 1e-10
    assert marcum_q1(0.0, 1.0) == pytest.approx(0.60653065971, abs=1e-10)


def test_q11_matches_integration_oracle():
    assert abs(marcum_q1(1.0, 1.0) - marcum_by_quadrature(1.0, 1.0)) < 1e-8


@pytest.mark.parametrize(
    "a,b",
    [(0.5, 0.2), (0.5, 2.0), (2.0, 1.0), (3.0, 3.5), (8.0, 7.0), (8.0, 10.0),
     (25.0, 24.0), (60.0, 62.0)],
)
def test_matches_noncentral_chi2_tail(a, b):
    # Q1(a, b) = P(ncx2(df=2, nc=a^2) > b^2)
    assert marcum_q1(a, b) == pytest.approx(
        stats.ncx2.sf(b * b, 2, a * a), abs=1e-10
    )


def test_monotone_decreasing_in_b_increasing_in_a():
    bs = np.linspace(0.0, 6.0, 40)
    vals = [marcum_q1(2.0, b) for b in bs]
    assert all(x >= y - 1e-15 for x, y in zip(vals, vals[1:]))
    avals = [marcum_q1(a, 2.0) for a in np.linspace(0.0, 6.0, 40)]
    assert all(y >= x - 1e-15 for x, y in zip(avals, avals[1:]))


def test_tail_plus_lower_tail_is_one_against_sampling_oracle():
    rng = np.random.default_rng(17)
    a, b = 1.7, 2.1
    n = 2_000_000
    amp = np.abs(a + rng.standard_normal(n) + 1j * rng.standard_normal(n))
    emp = float(np.mean(amp > b))
    q = marcum_q1(a, b)
    assert q + (1.0 - q) == 1.0
    assert emp == pytest.approx(q, abs=4 * math.sqrt(q * (1 - q) / n))


def test_bounds_and_validation():
    assert 0.0 <= marcum_q1(3.0, 100.0) <= 1.0
    with pytest.raises(ContractError):
        marcum_q1(-1.0, 1.0)
    with pytest.raises(ContractError):
        marcum_q1(1.0, float("nan"))


@pytest.mark.parametrize("a,b", [(1e200, 1.0), (1.0, 1e200), (1e155, 1.0), (1.0, 1e155)])
def test_overflowing_square_is_a_contract_error(a, b):
    # 1e155 is finite but its square over 2 is not
    with pytest.raises(ContractError, match="finite a\\*a/2 and b\\*b/2"):
        marcum_q1(a, b)


def test_absolute_error_under_1e_10_up_to_75():
    grid = np.linspace(0.0, 75.0, 25)
    worst = max(
        abs(marcum_q1(a, b) - stats.ncx2.sf(b * b, 2, a * a)) for a in grid for b in grid
    )
    assert worst < 1e-10


def test_series_tables_slice_equals_a_fresh_build():
    # the grown table's prefix is bit-identical to one built for hi alone,
    # whatever order the windows are asked for in
    for hi in (5, 3000, 40, 17_000, 0, 9_999, analysis._TABLE_CAP + 10):
        ks, lf = _series_tables(hi)
        fresh = np.concatenate(([0.0], np.cumsum(np.log(np.arange(1, hi + 1)))))
        assert np.array_equal(lf, fresh)
        assert np.array_equal(ks, np.arange(hi + 1))


def test_tables_past_the_cap_are_built_per_call(monkeypatch):
    monkeypatch.setattr(analysis, "_KS", np.zeros(0))
    monkeypatch.setattr(analysis, "_LOG_FACTORIALS", np.zeros(0))
    marcum_q1(1000.0, 1.0)  # needs 528k terms
    assert analysis._KS.size <= analysis._TABLE_CAP
    assert analysis._LOG_FACTORIALS.size <= analysis._TABLE_CAP
    value = marcum_q1(600.0, 590.0)
    assert analysis._KS.size <= analysis._TABLE_CAP
    # the same value from tables kept past the cap
    monkeypatch.setattr(analysis, "_TABLE_CAP", 10**6)
    assert marcum_q1(600.0, 590.0) == value
    assert analysis._KS.size > 180_000


def _marcum_full_window(a: float, b: float) -> float:
    # the series exponentiated over all of [0, hi], as marcum_q1 did
    # before it skipped the terms whose exp is exactly +0.0
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


@given(lam=st.floats(math.log(1e-3), math.log(1e5)).map(math.exp))
@settings(max_examples=60, deadline=None)
@example(lam=1e-300)
@example(lam=1e5)
def test_poisson_window_holds_every_term_whose_exp_is_not_zero(lam):
    # the rule the windowed series rests on: outside [lo, up) exp gives +0.0
    ks, lf = _series_tables(int(lam + 40.0 * math.sqrt(lam + 1.0)) + 1000)
    terms = np.exp(-lam + ks * math.log(lam) - lf)
    windowed = np.full(ks.size, np.nan)
    lo, up = _poisson_window(lam, ks.size)
    _poisson_terms(lam, lo, up, ks, lf, windowed)
    assert up < ks.size  # the window ends inside the table
    assert not np.any(terms[:lo]) and not np.any(terms[up:])
    assert np.array_equal(windowed[lo:up], terms[lo:up])


# a and b log-uniform in [1e-3, 450], so x = a^2/2 and y = b^2/2 reach
# about 1e5 with either one far above the other
_LOG_UNIFORM = st.floats(math.log(1e-3), math.log(450.0)).map(math.exp)


@st.composite
def _marcum_args(draw):
    a = draw(_LOG_UNIFORM)
    if draw(st.booleans()):
        return a, draw(_LOG_UNIFORM)
    # b - a in [30, 45]: Q1 from about 1e-196 down through the subnormals
    # to 0.0, where the products of the series' outermost terms still count
    return a, a + draw(st.floats(30.0, 45.0))


@given(args=_marcum_args())
@settings(max_examples=400, deadline=None)
@example(args=(440.0, 0.01))  # x ~ 1e5, y tiny: cdf_y is constant over x's window
@example(args=(0.01, 440.0))
@example(args=(5.0, 43.0))  # Q1 ~ 8e-316, a subnormal
def test_windowed_series_bit_identical_to_full_window(args):
    a, b = args
    assert marcum_q1(a, b) == _marcum_full_window(a, b)


@pytest.mark.parametrize("geometry", ["default", "k1250"])
def test_closed_form_bit_identical_to_per_mode_full_window(geometry):
    if geometry == "default":  # the paper's geometry and its calibrated thresholds
        cfg = config_from_mapping({"seed": 1234})
        scenario = cfg.build_scenario()
        counts = analyze_config(cfg).counts
        fading = scenario.links.fading_am
        profile, g = scenario.profile, scenario.g_am
        los, sigma0 = abs(fading.los_mean), fading.sigma0
        q_minus, q_plus, p_x = counts["q_minus"], counts["q_plus"], scenario.p_x_dbm
    else:
        # K = los^2 / (2 sigma0^2) = 1250; thresholds where Q1 spans 0 to 1
        profile = synthesize_rotated_beam(mode_count=360, front_to_back_db=20.0)
        g = profile.gain_matrix(LinkPathSet(angles_deg=(60.0, 20.3, 101.9)).angles_deg)
        los, sigma0, q_minus, q_plus, p_x = 1e-4, 2e-6, -80.0, -75.0, 5.0
    assert profile.mode_count == 360
    nu, varsigma = rician_params(g, los, sigma0)
    r_plus = 10.0 ** ((q_plus - p_x) / 20.0)
    r_minus = 10.0 ** ((q_minus - p_x) / 20.0)
    p0_terms = [1.0 - _marcum_full_window(n / v, r_minus / v) for n, v in zip(nu, varsigma)]
    p1_terms = [_marcum_full_window(n / v, r_plus / v) for n, v in zip(nu, varsigma)]
    expected = (float(np.mean(p0_terms)), float(np.mean(p1_terms)))
    assert 0.0 < expected[1] < 1.0
    assert closed_form_p0_p1(profile, g, los, sigma0, q_minus, q_plus, p_x)[:2] == expected


@pytest.mark.parametrize(
    "a,b,expected",
    [
        (1e-170, 1.0, math.exp(-0.5)),  # a*a/2 underflows to 0.0
        (5e-324, 2.0, math.exp(-2.0)),
        (1.0, 1e-170, 1.0),  # b*b/2 underflows to 0.0
        (1e-170, 1e-170, 1.0),
    ],
)
def test_underflowing_arguments_take_the_exact_zero_cases(a, b, expected):
    assert marcum_q1(a, b) == expected


def test_closed_form_with_underflowing_mode_ratio():
    # nu/varsigma = 1e-170 squares to 0.0: the Rayleigh tails, as for nu == 0
    profile = synthesize_rotated_beam(mode_count=4, front_to_back_db=20.0)
    g = profile.gain_matrix(LinkPathSet(angles_deg=(30.0,)).angles_deg)
    p0, p1, _ = closed_form_p0_p1(profile, g, 1e-170, 1.0, -3.0, 3.0, 0.0)
    p0_rayleigh, p1_rayleigh, _ = closed_form_p0_p1(profile, g, 0.0, 1.0, -3.0, 3.0, 0.0)
    assert (p0, p1) == (p0_rayleigh, p1_rayleigh)
    assert 0.0 < p0 < 1.0 and 0.0 < p1 < 1.0
