"""Marcum Q against independent oracles: adaptive quadrature of the
Rician tail density and the noncentral chi-square survival function."""
import math

import numpy as np
import pytest
from scipy import integrate, stats
from scipy.special import ive

from phykey.analysis import marcum_q1
from phykey.errors import ContractError


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


def test_series_tables_slice_equals_a_fresh_build():
    # the grown table's prefix is bit-identical to one built for hi alone,
    # whatever order the windows are asked for in
    from phykey.analysis import _series_tables

    for hi in (5, 3000, 40, 17_000, 0, 9_999):
        ks, lf = _series_tables(hi)
        fresh = np.concatenate(([0.0], np.cumsum(np.log(np.arange(1, hi + 1)))))
        assert np.array_equal(lf, fresh)
        assert np.array_equal(ks, np.arange(hi + 1))
