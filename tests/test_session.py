import functools
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phykey.antenna import AntennaProfile, synthesize_rotated_beam
from phykey.config import config_from_mapping
from phykey.errors import ContractError
from phykey.fading import sample_fading_blocks
from phykey.pipeline import _attack, run_protocol
from phykey.session import _CHUNK_ROUNDS, build_scenario, simulate_session


def _run(cfg, profile=None):
    scenario = cfg.build_scenario() if profile is None else build_scenario(
        cfg.build_topology(), profile, cfg.fading, cfg.scheme, cfg.detection_threshold_dbm
    )
    trace = simulate_session(
        scenario,
        n_rounds=cfg.rounds,
        coherence_block_rounds=cfg.coherence_block_rounds,
        noise_sigma_db=cfg.noise_sigma_db,
        rng=np.random.default_rng(cfg.seed),
    )
    return _attack(trace, cfg)


def test_oakg_static_channel_is_constant_series():
    cfg = config_from_mapping(
        {
            "seed": 3,
            "scheme": "OAKG",
            "rounds": 200,
            "coherence_block_rounds": 200,
            "attack": {"enabled": False},
        }
    )
    trace = _run(cfg)
    assert np.ptp(trace.x_a) == 0.0
    assert np.ptp(trace.x_b) == 0.0
    np.testing.assert_array_equal(trace.x_a, trace.x_b)


def test_rakg_zero_noise_reciprocity():
    cfg = config_from_mapping(
        {"seed": 4, "rounds": 5000, "attack": {"enabled": False}}
    )
    trace = _run(cfg)
    np.testing.assert_array_equal(trace.x_a, trace.x_b)  # exact, not approx


def test_injected_rounds_break_reciprocity_only_there():
    cfg = config_from_mapping({"seed": 4, "rounds": 5000})
    trace = _run(cfg)
    clean = ~trace.injected
    assert trace.injected.any()
    np.testing.assert_array_equal(trace.x_a[clean], trace.x_b[clean])


def test_rakg_randomization_lowers_lag1_autocorrelation():
    common = {"seed": 6, "rounds": 20000, "coherence_block_rounds": 10,
              "attack": {"enabled": False}}
    ra = _run(config_from_mapping(common))
    oa = _run(config_from_mapping({**common, "scheme": "OAKG"}))

    def lag1(x):
        x = x - x.mean()
        return float(np.dot(x[:-1], x[1:]) / np.dot(x, x))

    assert lag1(ra.x_a) < lag1(oa.x_a)


def test_seed_determinism_bit_identical():
    cfg = config_from_mapping({"seed": 11, "rounds": 3000})
    t1, t2 = _run(cfg), _run(cfg)
    for name in ("mode", "x_a", "x_b", "rss_ma", "rss_mb", "injected"):
        np.testing.assert_array_equal(getattr(t1, name), getattr(t2, name))


def test_adversary_disabled_matches_clean_series_same_seed():
    base = {"seed": 12, "rounds": 4000}
    attacked = _run(config_from_mapping(base))
    clean = _run(config_from_mapping({**base, "attack": {"enabled": False}}))
    # channel ground truth identical; only injected rounds differ in x
    np.testing.assert_array_equal(attacked.rss_ma, clean.rss_ma)
    np.testing.assert_array_equal(attacked.rss_mb, clean.rss_mb)
    np.testing.assert_array_equal(attacked.mode, clean.mode)
    keep = ~attacked.injected
    np.testing.assert_array_equal(attacked.x_a[keep], clean.x_a[keep])
    np.testing.assert_array_equal(
        attacked.x_a[attacked.injected], attacked.rss_ma[attacked.injected]
    )


def test_oakg_rejects_non_omni_profile(beam_profile):
    cfg = config_from_mapping({"seed": 3, "scheme": "OAKG", "rounds": 100})
    with pytest.raises(ContractError, match="OAKG"):
        _run(cfg, profile=beam_profile)


def test_oakg_mode_column_is_constant():
    cfg = config_from_mapping(
        {"seed": 3, "scheme": "OAKG", "rounds": 100, "attack": {"enabled": False}}
    )
    trace = _run(cfg)
    assert np.ptp(trace.mode) == 0


def test_same_block_same_mode_reproduces_identical_rss():
    # coherence: within a block the channel is a pure function of the mode
    cfg = config_from_mapping(
        {"seed": 13, "rounds": 4000, "coherence_block_rounds": 100,
         "antenna": {"synthesis": {"mode_count": 8}},
         "attack": {"enabled": False}}
    )
    trace = _run(cfg)
    block = np.arange(trace.n_rounds) // cfg.coherence_block_rounds
    seen = {}
    hits = 0
    for i in range(trace.n_rounds):
        key = (int(block[i]), int(trace.mode[i]))
        if key in seen:
            assert trace.x_a[i] == trace.x_a[seen[key]]
            hits += 1
        else:
            seen[key] = i
    assert hits > 100  # the 8-mode profile guarantees plenty of repeats


def test_coherence_blocks_freeze_mb_channel():
    cfg = config_from_mapping(
        {"seed": 9, "rounds": 100, "coherence_block_rounds": 10,
         "attack": {"enabled": False}}
    )
    trace = _run(cfg)
    # M-B has omni antennas on both ends: constant within each block
    blocks = trace.rss_mb.reshape(10, 10)
    assert np.all(np.ptp(blocks, axis=1) == 0.0)
    # and varies across blocks
    assert np.ptp(blocks[:, 0]) > 0.0


def test_zero_noise_full_pipeline_reciprocity_ten_seeds():
    for seed in range(10):
        for scheme in ("RAKG", "OAKG"):
            cfg = config_from_mapping(
                {
                    "seed": 100 + seed,
                    "scheme": scheme,
                    "rounds": 2000,
                    "attack": {"enabled": False},
                }
            )
            trace = _run(cfg)
            proto = run_protocol(trace, cfg.beta, cfg.excursion_len)
            assert len(proto.s_a) == len(proto.s_b)
            np.testing.assert_array_equal(proto.s_a.bits, proto.s_b.bits)


def test_frozen_oakg_injection_equals_previous_observation():
    # static channel + OA: the value Mallory injects into round i+1 is
    # exactly what she observed at round i, so her guess always lands
    cfg = config_from_mapping(
        {"seed": 11, "scheme": "OAKG", "rounds": 5000,
         "coherence_block_rounds": 5000}
    )
    trace = _run(cfg)
    attacked = np.flatnonzero(trace.injected)
    assert attacked.size > 0
    np.testing.assert_array_equal(trace.x_a[attacked], trace.rss_ma[attacked - 1])
    np.testing.assert_array_equal(trace.x_b[attacked], trace.rss_mb[attacked - 1])


def test_noise_produces_positive_mismatch():
    # OAKG: the quantizer band is fading-limited and narrow, so 0.5 dB of
    # non-reciprocal noise produces opposite-side disagreements that
    # survive the index exchange
    cfg = config_from_mapping(
        {"seed": 21, "scheme": "OAKG", "rounds": 20000, "noise_sigma_db": 0.5,
         "attack": {"enabled": False}}
    )
    trace = _run(cfg)
    proto = run_protocol(trace, cfg.beta, cfg.excursion_len)
    from phykey.metrics import bit_mismatch_rate

    rate = bit_mismatch_rate(proto.s_a.bits, proto.s_b.bits)
    direct = float(np.mean(proto.s_a.bits != proto.s_b.bits))  # recount oracle
    assert rate == direct
    assert rate > 0.0


def test_rakg_wide_band_filters_small_noise():
    # with the rotated beam the band spans several dB, so 0.5 dB noise can
    # drop indices from L_b but cannot flip a kept bit's side
    cfg = config_from_mapping(
        {"seed": 21, "rounds": 20000, "noise_sigma_db": 0.5,
         "attack": {"enabled": False}}
    )
    trace = _run(cfg)
    proto = run_protocol(trace, cfg.beta, cfg.excursion_len)
    from phykey.metrics import bit_mismatch_rate

    assert bit_mismatch_rate(proto.s_a.bits, proto.s_b.bits) == 0.0
    assert len(proto.l_b) < len(proto.l_a)


@pytest.mark.parametrize("scheme", ["RAKG", "OAKG"])
def test_scenario_links_are_read_only_with_one_path_count(scheme):
    scenario = config_from_mapping({"seed": 0, "scheme": scheme}).build_scenario()
    links = (scenario.ab, scenario.am, scenario.mb)
    for link in links:
        assert not link.gains.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            link.gains[0, 0] = 0.5
    assert [link.path_count for link in links] == [3, 3, 3]
    assert scenario.ab.gains.shape == scenario.am.gains.shape == (scenario.profile.mode_count, 3)
    assert scenario.mb.gains.tolist() == [[1.0, 1.0, 1.0]]


def _oracle_session(scenario, n_rounds, coherence, noise_sigma_db, rng):
    """simulate_session drawn in the same order, with each link's channel as a
    per-round gather of gains and block coefficients summed over the paths."""
    ab, am, mb, p_x = scenario.ab, scenario.am, scenario.mb, scenario.p_x_dbm
    n_blocks = -(-n_rounds // coherence)
    block = np.arange(n_rounds) // coherence
    a_ab = sample_fading_blocks(rng, ab.fading, ab.path_count, n_blocks)
    a_am = sample_fading_blocks(rng, am.fading, am.path_count, n_blocks)
    a_mb = sample_fading_blocks(rng, mb.fading, mb.path_count, n_blocks)
    mode_idx = rng.integers(0, scenario.profile.mode_count, size=n_rounds)
    h_ab = np.sum(ab.gains[mode_idx] * a_ab[block], axis=1)
    h_am = np.sum(am.gains[mode_idx] * a_am[block], axis=1)
    h_mb = np.sum(a_mb[block], axis=1)
    with np.errstate(divide="ignore"):
        clean_ab, rss_ma, rss_mb = (20.0 * np.log10(np.abs(h)) + p_x for h in (h_ab, h_am, h_mb))
    x_a, x_b = clean_ab, clean_ab.copy()
    if noise_sigma_db > 0.0:
        x_a = clean_ab + noise_sigma_db * rng.standard_normal(n_rounds)
        x_b = clean_ab + noise_sigma_db * rng.standard_normal(n_rounds)
        rss_ma = rss_ma + noise_sigma_db * rng.standard_normal(n_rounds)
        rss_mb = rss_mb + noise_sigma_db * rng.standard_normal(n_rounds)
    mode = np.asarray(scenario.profile.modes, dtype=np.int64)[mode_idx]
    return {"mode": mode, "x_a": x_a, "x_b": x_b, "rss_ma": rss_ma, "rss_mb": rss_mb,
            "injected": np.zeros(n_rounds, dtype=bool)}


@functools.cache
def _oracle_scenario(kind):
    cfg = config_from_mapping({"seed": 0, "scheme": "OAKG" if kind == "omni" else "RAKG"})
    if kind != "zero-gain mode":
        return cfg.build_scenario()
    # a six-mode beam plus a mode with zero gain everywhere: its rounds are -inf erasures
    beam = synthesize_rotated_beam(mode_count=6, front_to_back_db=15.0)
    profile = AntennaProfile(modes=tuple(range(7)), angles_deg=beam.angles_deg,
                             gains=np.vstack([beam.gains, np.zeros(360)]))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        return build_scenario(cfg.build_topology(), profile, cfg.fading, "RAKG",
                              cfg.detection_threshold_dbm)


@given(
    kind=st.sampled_from(["beam", "omni", "zero-gain mode"]),
    n_rounds=st.integers(1, 400),
    coherence=st.one_of(st.integers(1, 40), st.integers(401, 5000)),
    noise_sigma_db=st.sampled_from([0.0, 1.5]),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=120, deadline=None)
def test_block_channel_matches_per_round_oracle(kind, n_rounds, coherence, noise_sigma_db,
                                                seed):
    scenario = _oracle_scenario(kind)
    want = _oracle_session(scenario, n_rounds, coherence, noise_sigma_db,
                           np.random.default_rng(seed))
    trace = simulate_session(scenario, n_rounds=n_rounds, coherence_block_rounds=coherence,
                             noise_sigma_db=noise_sigma_db, rng=np.random.default_rng(seed))
    for name, expected in want.items():
        got = getattr(trace, name)
        assert got.dtype == expected.dtype, name
        assert got.tobytes() == expected.tobytes(), name


def _around_a_step(coherence, short):
    step = _CHUNK_ROUNDS // coherence  # blocks per step
    return [pytest.param(coherence, short, n, id=f"coherence-{coherence}-{n}-blocks")
            for n in (step - 1, step, step + 1, 2 * step + 3)]


# a block three steps long, its last step 3 rounds wide
_LONG = 2 * _CHUNK_ROUNDS + 3


@pytest.mark.parametrize("noise_sigma_db", [0.0, 1.5])
@pytest.mark.parametrize("coherence, short, n_blocks", [
    *_around_a_step(1, 0),
    *_around_a_step(10, 3),
    pytest.param(_LONG, 0, 1, id="long-block"),
    pytest.param(_LONG, 1, 3, id="long-blocks-1-short"),
    pytest.param(_LONG, _CHUNK_ROUNDS + 5, 2, id="long-blocks-padded-steps"),
])
def test_chunked_session_matches_oracle_across_chunks(n_blocks, coherence, short,
                                                       noise_sigma_db):
    # the hypothesis test above stays inside one step. A step is
    # _CHUNK_ROUNDS // coherence whole blocks, or part of one block when a
    # block is longer; the last block is `short` rounds short, so its steps
    # are padded (in the last case the last two steps are padding only)
    n_rounds = n_blocks * coherence - short
    scenario = _oracle_scenario("beam")
    want_rng, rng = np.random.default_rng(n_rounds), np.random.default_rng(n_rounds)
    want = _oracle_session(scenario, n_rounds, coherence, noise_sigma_db, want_rng)
    trace = simulate_session(scenario, n_rounds=n_rounds, coherence_block_rounds=coherence,
                             noise_sigma_db=noise_sigma_db, rng=rng)
    for name, expected in want.items():
        got = getattr(trace, name)
        assert got.dtype == expected.dtype, name
        assert got.tobytes() == expected.tobytes(), name
    # the caller's generator ends where the serial session leaves it:
    # build_report draws the commitments from it next
    assert rng.standard_normal(8).tobytes() == want_rng.standard_normal(8).tobytes()


class _FailingGenerator:
    """A seeded Generator whose `fail_at`-th standard_normal call raises."""

    def __init__(self, fail_at):
        self._rng = np.random.default_rng(0)
        self._calls = 0
        self._fail_at = fail_at
        self.error = RuntimeError(f"standard_normal call {fail_at} failed")

    def integers(self, *args, **kwargs):
        return self._rng.integers(*args, **kwargs)

    def standard_normal(self, *args, **kwargs):
        self._calls += 1
        if self._calls == self._fail_at:
            raise self.error
        return self._rng.standard_normal(*args, **kwargs)


# the fading takes six standard_normal calls, then the worker draws the four
# noise arrays: the first, a middle and the last of them fail
@pytest.mark.parametrize("fail_at", [7, 8, 10])
def test_failed_noise_draw_raises_and_leaves_no_thread(fail_at):
    rng = _FailingGenerator(fail_at)
    threads = threading.active_count()
    with pytest.raises(RuntimeError) as info:
        simulate_session(_oracle_scenario("beam"), n_rounds=5000, coherence_block_rounds=10,
                         noise_sigma_db=2.0, rng=rng)
    assert info.value is rng.error
    assert threading.active_count() == threads


def test_zero_noise_session_starts_no_thread(monkeypatch):
    started = []
    monkeypatch.setattr(threading.Thread, "start", lambda self: started.append(self))
    simulate_session(_oracle_scenario("beam"), n_rounds=5000, coherence_block_rounds=10,
                     noise_sigma_db=0.0, rng=np.random.default_rng(0))
    assert started == []


@pytest.mark.parametrize("attack", [False, True])
def test_session_traced_peak_per_round(attack):
    # one 100k-round session; the bound sits between the per-round-gather
    # kernel (about 128-139 B/round) and the block kernel (about 80-91 on
    # the whole session at once, 63-68 in steps beside the noise worker)
    n_rounds = 100_000
    cfg = config_from_mapping({"seed": 5, "attack": {"enabled": attack}})
    scenario = cfg.build_scenario()

    def run():
        trace = simulate_session(scenario, n_rounds=n_rounds, coherence_block_rounds=10,
                                 noise_sigma_db=0.0 if attack else 2.0,
                                 rng=np.random.default_rng(5))
        return _attack(trace, cfg)

    run()  # warm-up: first-call allocations are not the session's
    tracemalloc.start()
    try:
        run()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak / n_rounds <= 110.0


@pytest.mark.parametrize("repeat_injection, bound", [(False, 33.0), (True, 39.0)])
def test_run_protocol_traced_peak_per_round(repeat_injection, bound):
    # quantization and attack accounting of an attacked 100k-round session:
    # about 29 B/round one-shot and 35 with repeat_injection; one more
    # whole-session int64 temporary (8 B/round) fails the bound
    n_rounds = 100_000
    cfg = config_from_mapping(
        {"seed": 5, "attack": {"enabled": True, "repeat_injection": repeat_injection}}
    )
    trace = _attack(simulate_session(cfg.build_scenario(), n_rounds=n_rounds,
                                     coherence_block_rounds=10, noise_sigma_db=0.0,
                                     rng=np.random.default_rng(5)), cfg)
    run_protocol(trace, cfg.beta, cfg.excursion_len)  # warm-up
    tracemalloc.start()
    try:
        proto = run_protocol(trace, cfg.beta, cfg.excursion_len)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert proto.attack is not None and proto.attack.n > 0
    assert peak / n_rounds <= bound
