import math

import numpy as np
import pytest

from phykey.antenna import AntennaProfile, omni_profile, synthesize_rotated_beam
from phykey.config import config_from_mapping
from phykey.fading import FadingParams, sample_fading_blocks
from phykey.session import Link, build_scenario, simulate_session


def _one_block(rng, params, path_count):
    return sample_fading_blocks(rng, params, path_count, n_blocks=1)[0]


def test_noiseless_limit_is_deterministic(rng):
    params = FadingParams(los_mean=3 + 4j, sigma0=0.0)
    coeff = _one_block(rng, params, path_count=3)
    assert coeff[0] == 3 + 4j
    assert abs(coeff[0]) == pytest.approx(5.0)
    np.testing.assert_array_equal(coeff[1:], 0)


def test_zero_los_mean_gives_rayleigh_amplitude_mean():
    # |sum of P+1 equal-gain zero-mean components| is Rayleigh with scale
    # sigma_total = sigma0 * sqrt(P+1); its mean is sigma_total * sqrt(pi/2)
    rng = np.random.default_rng(99)
    params = FadingParams(los_mean=0j, sigma0=0.7)
    n, paths = 1_000_000, 3
    draws = sample_fading_blocks(rng, params, paths, n)
    amp = np.abs(draws.sum(axis=1))
    expected = 0.7 * math.sqrt(paths) * math.sqrt(math.pi / 2.0)
    assert np.mean(amp) == pytest.approx(expected, rel=0.01)


def test_same_seed_identical_state():
    params = FadingParams(los_mean=1 + 2j, sigma0=0.5)
    a = _one_block(np.random.default_rng(7), params, 4)
    b = _one_block(np.random.default_rng(7), params, 4)
    np.testing.assert_array_equal(a, b)


def test_k_factor_definition():
    # from_k_factor and Link.k_factor invert each other over the link's paths
    params = FadingParams.from_k_factor(1e-4, k_factor=30.0, path_count=3)
    assert Link(params, np.ones((1, 3))).k_factor == pytest.approx(30.0)
    assert Link(FadingParams(los_mean=1e-4, sigma0=0.0), np.ones((1, 3))).k_factor == math.inf


# h = sum_l g(mode, theta_l) * a_l, with g a row of the profile's gain matrix


def test_channel_gain_unit_gains():
    coeff = np.array([1 + 0j, 0 + 1j])
    g = omni_profile().gain_matrix((0.0, 90.0))
    assert np.sum(g[0] * coeff) == 1 + 1j


def test_channel_gain_selective_mode_nulls_nlos(rng):
    coeff = _one_block(rng, FadingParams(los_mean=1 + 1j, sigma0=0.3), 3)
    profile = AntennaProfile(
        modes=(0,),
        angles_deg=np.array([0.0, 90.0, 180.0]),
        gains=np.array([[2.0, 0.0, 0.0]]),
    )
    g = profile.gain_matrix((0.0, 90.0, 180.0))
    assert np.sum(g[0] * coeff) == pytest.approx(2.0 * coeff[0])


def test_channel_gain_across_modes_matches_brute_force(rng):
    profile = synthesize_rotated_beam(mode_count=360, front_to_back_db=20.0)
    angles = (0.0, 49.1, 35.7)
    coeff = _one_block(rng, FadingParams(los_mean=2 - 1j, sigma0=0.4), 3)
    h = np.sum(profile.gain_matrix(angles) * coeff, axis=1)
    for mode in range(0, 360, 17):
        row = profile.gains[mode]  # listed every whole degree
        brute = 0j
        for angle, c in zip(angles, coeff):
            lo, frac = int(angle), angle - int(angle)
            g = row[lo] + frac * (row[(lo + 1) % 360] - row[lo])
            brute += g * c
        assert h[mode] == pytest.approx(brute)


# RSS = 20*log10|h| + P_x, as the session maps each round's channel


# the sessions' coherence block length, which the brute-force replay needs
BLOCK_ROUNDS = 10


def _session(overrides=None, profile=None, noise_sigma_db=0.0, rounds=400, seed=3):
    cfg = config_from_mapping({"seed": seed, "rounds": rounds,
                               "coherence_block_rounds": BLOCK_ROUNDS, **(overrides or {})})
    scenario = build_scenario(
        cfg.build_topology(),
        cfg.build_profile() if profile is None else profile,
        cfg.fading,
        cfg.scheme,
        cfg.detection_threshold_dbm,
    )
    trace = simulate_session(
        scenario,
        n_rounds=cfg.rounds,
        coherence_block_rounds=cfg.coherence_block_rounds,
        noise_sigma_db=noise_sigma_db,
        rng=np.random.default_rng(seed),
    )
    return trace, scenario


def _brute_force_rss_ab(trace, scenario, seed, block_rounds):
    """Replay the session's draws in its order (A-B, A-M, M-B blocks, then
    modes) and map each round's mode-weighted A-B sum to RSS at the
    scenario's power."""
    rng = np.random.default_rng(seed)
    n_blocks = -(-trace.n_rounds // block_rounds)
    ab, am, mb = scenario.ab, scenario.am, scenario.mb
    a_ab = sample_fading_blocks(rng, ab.fading, ab.path_count, n_blocks)
    sample_fading_blocks(rng, am.fading, am.path_count, n_blocks)
    sample_fading_blocks(rng, mb.fading, mb.path_count, n_blocks)
    modes = rng.integers(0, scenario.profile.mode_count, size=trace.n_rounds)
    g, p_x = ab.gains, scenario.p_x_dbm
    rss = np.empty(trace.n_rounds)
    for i, mode in enumerate(modes):
        h = sum(gl * al for gl, al in zip(g[mode], a_ab[i // block_rounds]))
        rss[i] = 20.0 * math.log10(abs(h)) + p_x if h != 0 else -math.inf
    return rss


def test_rss_unit_channel():
    # a LoS-only unit channel calibrated to a 10 dBm threshold reads 10 dBm
    overrides = {"scheme": "OAKG", "detection_threshold_dbm": 10.0,
                 "fading": {"k_factor": 1e14, "ab": {"los_amplitude": 1.0}}}
    trace, scenario = _session(overrides)
    assert scenario.p_x_dbm == pytest.approx(10.0, abs=1e-6)
    np.testing.assert_allclose(trace.x_a, 10.0, atol=1e-5)


def test_rss_decade():
    # a tenfold weaker M-A amplitude reads 20 dB below the A-B channel
    overrides = {"scheme": "OAKG",
                 "fading": {"k_factor": 1e14, "ab": {"los_amplitude": 1e-4},
                            "ma": {"los_amplitude": 1e-5}}}
    trace, _ = _session(overrides)
    np.testing.assert_allclose(trace.rss_ma - trace.x_a, -20.0, atol=1e-5)


def test_rss_inverts_calibration_example():
    # amplitude 1e-4 at the -75 dBm threshold calibrates P_x to 5 dBm, and
    # the channel then reads back the threshold
    overrides = {"scheme": "OAKG",
                 "fading": {"k_factor": 1e14, "ab": {"los_amplitude": 1e-4}}}
    trace, scenario = _session(overrides)
    assert scenario.p_x_dbm == pytest.approx(5.0, abs=1e-6)
    np.testing.assert_allclose(trace.x_a, -75.0, atol=1e-5)


def test_rss_is_mode_weighted_sum_in_db(beam_profile):
    trace, scenario = _session(profile=beam_profile)
    expected = _brute_force_rss_ab(trace, scenario, 3, BLOCK_ROUNDS)
    np.testing.assert_allclose(trace.x_a, expected, rtol=0, atol=1e-9)


def test_rss_zero_gain_is_erasure():
    profile = AntennaProfile(modes=(0, 1), angles_deg=np.array([0.0]),
                             gains=np.array([[1.0], [0.0]]))
    with pytest.warns(UserWarning, match="zero-gain"):
        trace, _ = _session(profile=profile)
    dead = trace.mode == 1
    assert dead.any() and (~dead).any()
    assert np.all(trace.x_a[dead] == -math.inf)
    assert np.all(np.isfinite(trace.x_a[~dead]))


def test_rss_noise_statistics(beam_profile):
    trace, scenario = _session(profile=beam_profile, noise_sigma_db=2.0, rounds=20_000)
    noise = trace.x_a - _brute_force_rss_ab(trace, scenario, 3, BLOCK_ROUNDS)
    assert np.mean(noise) == pytest.approx(0.0, abs=0.1)
    assert np.std(noise) == pytest.approx(2.0, rel=0.05)
