import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phykey.config import config_from_mapping
from phykey.errors import ConfigError, ContractError, ProtocolError
from phykey.quantize import (
    Bitstream,
    confirm_excursions,
    find_excursions,
    quantize,
    thresholds,
)


def test_two_point_series():
    q_minus, q_plus = thresholds([0, 0, 10, 10], beta=0.4)
    assert (q_minus, q_plus) == (pytest.approx(3.0), pytest.approx(7.0))


def test_constant_series_collapses_band():
    q_minus, q_plus = thresholds([5.0] * 10, beta=0.4)
    assert q_minus == q_plus == pytest.approx(5.0)
    assert find_excursions([5.0] * 10, q_minus, q_plus).size == 0


def test_thresholds_match_independent_oracle(rng):
    x = rng.normal(-60.0, 4.0, size=5000)
    q_minus, q_plus = thresholds(x, beta=0.4)
    # naive two-pass oracle: explicit loops, population variance
    mu = sum(float(v) for v in x) / x.size
    var = sum((float(v) - mu) ** 2 for v in x) / x.size
    assert q_plus == pytest.approx(mu + 0.4 * var**0.5, abs=1e-12)
    assert q_minus == pytest.approx(mu - 0.4 * var**0.5, abs=1e-12)


def test_thresholds_exclude_erasures(rng):
    x = rng.normal(0.0, 1.0, size=100)
    with_erasures = np.concatenate([x, [-np.inf, -np.inf]])
    assert thresholds(with_erasures, 0.4) == thresholds(x, 0.4)


def test_thresholds_need_two_finite_samples():
    with pytest.raises(ContractError):
        thresholds([-np.inf, 3.0], 0.4)


def test_excursions_simple():
    l_a = find_excursions([8, 5, 2], 3.0, 7.0, e=1)
    np.testing.assert_array_equal(l_a, [0, 2])


def test_excursion_run_of_two():
    l_a = find_excursions([8, 8, 5], 3.0, 7.0, e=2)
    np.testing.assert_array_equal(l_a, [0])


def test_excursion_run_side_must_not_mix():
    # 8 above then 2 below: adjacent but not one run
    l_a = find_excursions([8, 2, 5], 3.0, 7.0, e=2)
    assert l_a.size == 0


def test_excursion_count_matches_filter_oracle(rng):
    x = rng.normal(0, 1, size=4000)
    q_minus, q_plus = thresholds(x, beta=0.4)
    l_a = find_excursions(x, q_minus, q_plus, e=1)
    brute = [i for i, v in enumerate(x) if v > q_plus or v < q_minus]
    np.testing.assert_array_equal(l_a, brute)


def test_erasures_never_produce_excursions():
    x = np.array([8.0, -np.inf, 2.0, -np.inf])
    l_a = find_excursions(x, 3.0, 7.0, e=1)
    np.testing.assert_array_equal(l_a, [0, 2])
    l_b = confirm_excursions(np.array([8.0, -np.inf, -np.inf, 8.0]),
                             l_a, 3.0, 7.0)
    np.testing.assert_array_equal(l_b, [0])


def test_confirm_identical_series_keeps_all(rng):
    x = rng.normal(0, 1, size=500)
    q = thresholds(x, 0.4)
    l_a = find_excursions(x, *q)
    l_b = confirm_excursions(x, l_a, *q)
    np.testing.assert_array_equal(l_a, l_b)


def test_confirm_drops_inside_band():
    x_b = np.array([5.0, 5.0, 5.0])
    l_b = confirm_excursions(x_b, np.array([0, 2]), 3.0, 7.0)
    assert l_b.size == 0


def test_confirm_keeps_side_disagreement():
    # Alice saw an excursion at index 0; Bob is below his q_minus there.
    x_b = np.array([2.0, 5.0])
    l_b = confirm_excursions(x_b, np.array([0]), 3.0, 7.0)
    np.testing.assert_array_equal(l_b, [0])


def test_confirm_out_of_range_is_protocol_error():
    with pytest.raises(ProtocolError):
        confirm_excursions(np.array([1.0, 2.0]), np.array([5]), 0.0, 1.0)


def test_quantize_basic_bits():
    bs = quantize(np.array([8.0, 2.0]), np.array([0, 1]), 3.0, 7.0)
    np.testing.assert_array_equal(bs.bits, [1, 0])
    np.testing.assert_array_equal(bs.source_rounds, [0, 1])


def test_quantize_inside_band_rejected():
    with pytest.raises(ContractError):
        quantize(np.array([5.0]), np.array([0]), 3.0, 7.0)


def test_boundary_equal_values_produce_no_bit():
    # strict inequalities: exactly q_plus is not an excursion
    l_a = find_excursions([7.0, 3.0], 3.0, 7.0)
    assert l_a.size == 0


def test_quantizer_config_validation():
    # the experiment config is where beta and the excursion length are checked
    for bad, field in (({"beta": 1.5}, "beta"), ({"beta": 0.0}, "beta"),
                       ({"excursion_len": 0}, "excursion_len")):
        with pytest.raises(ConfigError, match=field):
            config_from_mapping({"seed": 1, **bad})
    cfg = config_from_mapping({"seed": 1, "beta": 0.4, "excursion_len": 2})
    assert (cfg.beta, cfg.excursion_len) == (0.4, 2)


def test_bitstream_invariants():
    with pytest.raises(ContractError):
        Bitstream(bits=np.array([0, 1]), source_rounds=np.array([3, 3]))
    with pytest.raises(ContractError):
        Bitstream(bits=np.array([0, 2]), source_rounds=np.array([1, 2]))
    # rounds are compared, not differenced: a difference past int64 does not wrap
    wide = Bitstream(bits=np.array([0, 1]), source_rounds=np.array([-(2**63), 2**63 - 1]))
    assert wide.source_rounds.tolist() == [-(2**63), 2**63 - 1]
    with pytest.raises(ContractError, match="strictly increasing"):
        Bitstream(bits=np.array([0, 1]), source_rounds=np.array([2**63 - 1, -(2**63)]))


@given(
    data=st.lists(st.floats(-100, 0), min_size=8, max_size=200),
    beta=st.floats(0.05, 0.95),
)
@settings(max_examples=60, deadline=None)
def test_widening_beta_never_grows_la(data, beta):
    x = np.asarray(data)
    if np.std(x) == 0:
        return
    q1 = thresholds(x, beta)
    q2 = thresholds(x, min(beta * 2, 0.999))
    l1 = find_excursions(x, *q1)
    l2 = find_excursions(x, *q2)
    assert l2.size <= l1.size
    assert set(l2.tolist()) <= set(l1.tolist())


@given(
    seed=st.integers(0, 2**31),
    n=st.integers(20, 300),
    beta=st.floats(0.1, 0.9),
)
@settings(max_examples=40, deadline=None)
def test_pipeline_bits_have_excursions_both_sides(seed, n, beta):
    rng = np.random.default_rng(seed)
    x_a = rng.normal(0, 1, size=n)
    x_b = x_a + rng.normal(0, 0.3, size=n)
    qa = thresholds(x_a, beta)
    qb = thresholds(x_b, beta)
    l_a = find_excursions(x_a, *qa)
    l_b = confirm_excursions(x_b, l_a, *qb)
    s_a = quantize(x_a, l_b, *qa)
    s_b = quantize(x_b, l_b, *qb)
    assert len(s_a) == len(s_b)
    for i in l_b:
        assert x_a[i] > qa[1] or x_a[i] < qa[0]
        assert x_b[i] > qb[1] or x_b[i] < qb[0]


def _oracle_runs(beyond, e):
    """Starting indices of maximal runs of True with length >= e, by a loop."""
    idx = np.flatnonzero(beyond)
    if idx.size == 0:
        return []
    starts = []
    run_start = prev = idx[0]
    for i in idx[1:]:
        if i != prev + 1:
            if prev - run_start + 1 >= e:
                starts.append(int(run_start))
            run_start = i
        prev = i
    if prev - run_start + 1 >= e:
        starts.append(int(run_start))
    return starts


def _oracle_has_excursion_at(x, i, q_minus, q_plus, e):
    if i + e > x.size:
        return False
    window = x[i : i + e]
    if not np.all(np.isfinite(window)):
        return False
    return bool(np.all(window > q_plus) or np.all(window < q_minus))


@given(
    values=st.lists(st.sampled_from([-2.0, -1.0, 0.0, 1.0, 2.0, -np.inf]), max_size=60),
    e=st.integers(1, 4),
    picks=st.lists(st.integers(0, 59), max_size=30),
)
@settings(max_examples=300, deadline=None)
def test_excursion_windows_match_loop_oracles(values, e, picks):
    # small alphabets make long one-sided runs, runs cut by -inf erasures and
    # runs that touch the end of the series common
    x = np.asarray(values, dtype=float)
    q_minus, q_plus = -0.5, 0.5
    finite = np.isfinite(x)
    above, below = (x > q_plus) & finite, (x < q_minus) & finite
    if e == 1:
        want = np.flatnonzero(above | below)
    else:
        want = sorted(_oracle_runs(above, e) + _oracle_runs(below, e))
    got = find_excursions(x, q_minus, q_plus, e)
    assert got.dtype == np.int64
    np.testing.assert_array_equal(got, np.asarray(want, dtype=np.int64))

    l_a = np.asarray([i for i in picks if i < x.size], dtype=np.int64)
    want = [i for i in l_a if _oracle_has_excursion_at(x, int(i), q_minus, q_plus, e)]
    got = confirm_excursions(x, l_a, q_minus, q_plus, e)
    assert got.dtype == np.int64
    np.testing.assert_array_equal(got, np.asarray(want, dtype=np.int64))
