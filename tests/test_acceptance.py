"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one `[acceptance] criterion NN PASS/FAIL` line; run
with `pytest tests/test_acceptance.py -v -s` to see them live.
"""
import math
import time

import numpy as np
import pytest

from phykey import pipeline
from phykey.adversary import OpportunityKind
from phykey.analysis import (
    closed_form_p0_p1,
    expected_rates,
    guess_count_pmf,
    key_guess_probability,
    marcum_q1,
)
from phykey.config import config_from_mapping
from phykey.fuzzy import ReconcileFailure, commit_stream, open_stream
from phykey.quantize import thresholds
from phykey.reed_solomon import RsParams
from phykey.session import simulate_session


def _report(num: int, desc: str, ok: bool) -> bool:
    print(f"[acceptance] criterion {num:02d} {'PASS' if ok else 'FAIL'}: {desc}")
    return ok


def _simulate(cfg):
    trace = simulate_session(
        cfg.build_scenario(),
        n_rounds=cfg.rounds,
        coherence_block_rounds=cfg.coherence_block_rounds,
        noise_sigma_db=cfg.noise_sigma_db,
        rng=np.random.default_rng(cfg.seed),
    )
    return pipeline._attack(trace, cfg)


# ---------------------------------------------------------------- criterion 1
def test_criterion_01_closed_form_matches_monte_carlo():
    """Closed-form p0/p1 vs 1e6-sample Monte Carlo, 3-sigma binomial, < 2 min."""
    t_start = time.perf_counter()
    cfg = config_from_mapping({"seed": 2024, "rounds": 200_000,
                               "attack": {"enabled": False}})
    scenario = cfg.build_scenario()
    profile, am = scenario.profile, scenario.am
    assert profile.mode_count == 360
    assert scenario.ab.path_count == 3

    trace = _simulate(cfg)
    q_minus, q_plus = thresholds(trace.x_a, cfg.beta)
    p_x = scenario.p_x_dbm
    g_am = am.gains
    p0_cf, p1_cf, _ = closed_form_p0_p1(
        profile, g_am, abs(am.fading.los_mean), am.fading.sigma0,
        q_minus, q_plus, p_x,
    )

    # Monte Carlo oracle: fresh mode + fresh fading per sample on the M-A link
    rng = np.random.default_rng(777)
    n_samples = 1_000_000
    u = rng.integers(0, profile.mode_count, size=n_samples)
    a = am.fading.sigma0 * (
        rng.standard_normal((n_samples, am.path_count))
        + 1j * rng.standard_normal((n_samples, am.path_count))
    )
    a[:, 0] += am.fading.los_mean
    rss = 20.0 * np.log10(np.abs(np.sum(g_am[u] * a, axis=1))) + p_x
    p1_mc = float(np.mean(rss > q_plus))
    p0_mc = float(np.mean(rss < q_minus))

    tol1 = 3.0 * math.sqrt(p1_cf * (1 - p1_cf) / n_samples)
    tol0 = 3.0 * math.sqrt(p0_cf * (1 - p0_cf) / n_samples)
    elapsed = time.perf_counter() - t_start
    ok = (
        abs(p1_mc - p1_cf) <= tol1
        and abs(p0_mc - p0_cf) <= tol0
        and elapsed < 120.0
    )
    assert _report(
        1,
        f"p1 cf={p1_cf:.5f} mc={p1_mc:.5f} (tol {tol1:.5f}); "
        f"p0 cf={p0_cf:.5f} mc={p0_mc:.5f} (tol {tol0:.5f}); {elapsed:.1f}s",
        ok,
    )


# ---------------------------------------------------------------- criterion 2
def test_criterion_02_attack_success_independent_of_opportunity():
    """P(success | O1) equals the unconditional tail over >= 1e5 attacks, < 5 min."""
    t_start = time.perf_counter()
    cfg = config_from_mapping({
        "seed": 5, "rounds": 3_000_000, "coherence_block_rounds": 3_000_000,
    })
    trace = _simulate(cfg)
    proto = pipeline.run_protocol(trace, cfg.beta, cfg.excursion_len)
    at = proto.attack
    hits, total = at.tail_stats(OpportunityKind.O1)
    uncond = float(np.mean(trace.rss_ma > at.q_plus))
    cond = hits / total
    se = math.sqrt(uncond * (1.0 - uncond) / total)
    elapsed = time.perf_counter() - t_start
    ok = total >= 100_000 and abs(cond - uncond) <= 3.0 * se and elapsed < 300.0
    assert _report(
        2,
        f"attacked O1 rounds={total}, conditional={cond:.5f}, "
        f"unconditional={uncond:.5f}, 3se={3 * se:.5f}; {elapsed:.1f}s",
        ok,
    )


# ---------------------------------------------------------------- criterion 3
def test_criterion_03_oakg_baseline_and_rakg_ratios():
    """Frozen-coherence zero-noise OAKG: KRE exactly 1; RAKG well below."""
    results = {}
    for d in (2.0, 3.0):
        for scheme in ("OAKG", "RAKG"):
            cfg = config_from_mapping({
                "seed": 11, "scheme": scheme, "rounds": 100_000,
                "coherence_block_rounds": 100_000, "attack": {"d": d},
            })
            rep, _, _ = pipeline.run_experiment(cfg, include_attack_rounds=False)
            results[(scheme, d)] = rep
    ok = True
    desc = []
    for d in (2.0, 3.0):
        oa, ra = results[("OAKG", d)], results[("RAKG", d)]
        ok &= oa.n > 0 and oa.kre == 1.0
        ok &= ra.n > 0 and ra.kre < 0.6 * oa.kre
        ok &= ra.krr < 0.5 * oa.krr
        ok &= oa.krr > ra.krr
        desc.append(
            f"d={d:g}: OAKG KRE={oa.kre} KRR={oa.krr:.3f}, "
            f"RAKG KRE={ra.kre:.3f} KRR={ra.krr:.3f}"
        )
    assert _report(3, "; ".join(desc), ok)


# ---------------------------------------------------------------- criterion 4
def test_criterion_04_pmf_exhaustive_enumeration():
    """Guess-count PMF == 2^n enumeration for n <= 12, plus mean identity."""
    import itertools

    rng = np.random.default_rng(99)
    ok = True
    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(1, 13))
        n0 = int(rng.integers(0, n + 1))
        p0, p1 = rng.uniform(0.0, 1.0, size=2)
        pmf = guess_count_pmf(n, n0, p0, p1)
        brute = np.zeros(n + 1)
        for outcome in itertools.product((0, 1), repeat=n):
            prob = 1.0
            for i, hit in enumerate(outcome):
                p = p0 if i < n0 else p1
                prob *= p if hit else 1.0 - p
            brute[sum(outcome)] += prob
        worst = max(worst, float(np.max(np.abs(pmf - brute))))
        mean = float(np.dot(np.arange(n + 1), pmf)) / n
        e_kre, _ = expected_rates(n, n0, p0, p1, ell=n)
        ok &= np.max(np.abs(pmf - brute)) <= 1e-12
        ok &= abs(mean - e_kre) <= 1e-12
    assert _report(4, f"20 random (n, n0, p0, p1) draws, max abs err {worst:.2e}", ok)


# ---------------------------------------------------------------- criterion 5
def test_criterion_05_expected_rate_reference_fixture():
    """Reference fixture: E[KRE] = 35.16%, E[KRR] = 3.49% at the d = 3
    operating point (9.57% opportunity rate over 5e7 rounds, key length
    36168113, 399882 recovered zero-bits, p0 = 0.65, p1 = 0.37)."""
    p0, p1 = 0.65, 0.37
    ell = 36_168_113
    n = round(0.0957 * 50_000_000)
    n0 = round(399_882 / p0)
    e_kre, e_krr = expected_rates(n, n0, p0, p1, ell)
    ok = abs(e_kre - 0.3516) <= 0.0005 and abs(e_krr - 0.0349) <= 0.0005
    _report(
        5,
        f"E[KRE]={e_kre:.4f} (target 0.3516 +/- 0.0005), "
        f"E[KRR]={e_krr:.4f} (target 0.0349 +/- 0.0005)",
        ok,
    )
    assert ok, (
        "reference values are not reproducible from these inputs: E[KRE] is a "
        "convex combination of p0 and p1 and cannot fall below min(p0, p1) = 0.37"
    )


# ---------------------------------------------------------------- criterion 6
def test_criterion_06_random_guess_dominance():
    """RAKG outputs: beats_random false by both routes; routes always agree."""
    cfg = config_from_mapping({"seed": 31, "rounds": 200_000})
    report, trace, proto = pipeline.run_experiment(cfg, include_attack_rounds=False)
    at = proto.attack
    res = pipeline.analyze_config(cfg, q_minus=at.q_minus, q_plus=at.q_plus,
                                  counts=(report.ell, report.n, report.n0))
    kg = res.key_guess
    ok = (not kg.beats_random) and (not kg.beats_random_logratio)
    rng = np.random.default_rng(7)
    agreements = 0
    for _ in range(1000):
        ell = int(rng.integers(1, 100_000))
        nn = int(rng.integers(0, ell + 1))
        nn0 = int(rng.integers(0, nn + 1))
        q0, q1 = rng.uniform(0.0, 1.0, size=2)
        rep = key_guess_probability(ell, nn, nn0, q0, q1)
        agreements += rep.beats_random == rep.beats_random_logratio
    ok &= agreements == 1000
    assert _report(
        6,
        f"simulated run: beats_random={kg.beats_random} (log-ratio "
        f"{kg.beats_random_logratio}), route agreement {agreements}/1000",
        ok,
    )


# ---------------------------------------------------------------- criterion 7
def test_criterion_07_reconciliation_contract():
    """RS(15,11)/GF(16): 100% recovery within t=2 symbols, 100% flagged at
    t+1, < 30 s."""
    t_start = time.perf_counter()
    params = RsParams(m=4, n=15, k=11)
    rng = np.random.default_rng(1000)
    recovered = flagged = 0
    trials = 1000
    for _ in range(trials):
        s_a = rng.integers(0, 2, size=60).astype(np.uint8)
        commitments, _ = commit_stream(s_a, params, rng)
        s_b = s_a.copy()
        for sym in rng.choice(15, size=int(rng.integers(1, 3)), replace=False):
            mask = int(rng.integers(1, 16))
            for b in range(4):
                if mask >> b & 1:
                    s_b[sym * 4 + b] ^= 1
        out = open_stream(s_b, commitments, params)
        recovered += (not isinstance(out, ReconcileFailure)) and np.array_equal(out, s_a)
    for _ in range(trials):
        s_a = rng.integers(0, 2, size=60).astype(np.uint8)
        commitments, _ = commit_stream(s_a, params, rng)
        s_b = s_a.copy()
        for sym in rng.choice(15, size=3, replace=False):  # t+1 distinct symbols
            mask = int(rng.integers(1, 16))
            for b in range(4):
                if mask >> b & 1:
                    s_b[sym * 4 + b] ^= 1
        flagged += isinstance(open_stream(s_b, commitments, params), ReconcileFailure)
    elapsed = time.perf_counter() - t_start
    ok = recovered == trials and flagged == trials and elapsed < 30.0
    assert _report(
        7,
        f"recovered {recovered}/{trials}, flagged {flagged}/{trials}; {elapsed:.1f}s",
        ok,
    )


# ---------------------------------------------------------------- criterion 8
def test_criterion_08_zero_noise_reciprocity_ten_seeds():
    """S_a == S_b exactly on zero-noise no-attack runs, both schemes."""
    ok = True
    for seed in range(10):
        for scheme in ("RAKG", "OAKG"):
            cfg = config_from_mapping({
                "seed": 500 + seed, "scheme": scheme, "rounds": 5_000,
                "attack": {"enabled": False},
            })
            trace = _simulate(cfg)
            proto = pipeline.run_protocol(trace, cfg.beta, cfg.excursion_len)
            ok &= len(proto.s_a) == len(proto.s_b)
            ok &= bool(np.array_equal(proto.s_a.bits, proto.s_b.bits))
    assert _report(8, "10 seeds x {RAKG, OAKG}: bit mismatch rate exactly 0", ok)


# ---------------------------------------------------------------- criterion 9
def test_criterion_09_randomness_qualitative_pattern():
    """RAKG stream passes all four tests; static OAKG fails frequency-family."""
    ra_cfg = config_from_mapping({
        "seed": 42, "rounds": 1_700_000, "coherence_block_rounds": 1,
        "attack": {"enabled": False},
    })
    ra_trace = _simulate(ra_cfg)
    ra = pipeline.run_protocol(ra_trace, ra_cfg.beta, 1)
    from phykey.metrics import randomness_tests

    ra_res = randomness_tests(ra.s_a.bits)
    oa_cfg = config_from_mapping({
        "seed": 42, "scheme": "OAKG", "rounds": 1_500_000,
        "coherence_block_rounds": 10, "attack": {"enabled": False},
    })
    oa_trace = _simulate(oa_cfg)
    oa = pipeline.run_protocol(oa_trace, oa_cfg.beta, 1)
    oa_res = randomness_tests(oa.s_a.bits)

    ra_ok = len(ra.s_a) >= 1_000_000 and all(r.passed for r in ra_res.values())
    oa_fail = (not oa_res["monobit"].passed) or (not oa_res["block_frequency"].passed)
    ok = ra_ok and oa_fail
    assert _report(
        9,
        "RAKG({} bits) p-values {}; OAKG monobit/blockfreq p = {:.2g}/{:.2g}".format(
            len(ra.s_a),
            {k: round(v.p_value, 3) for k, v in ra_res.items()},
            oa_res["monobit"].p_value,
            oa_res["block_frequency"].p_value,
        ),
        ok,
    )


# --------------------------------------------------------------- criterion 10
def test_criterion_10_marcum_q_accuracy():
    """Q1(a,0)=1 exactly; Rayleigh reduction to 1e-10; oracle match to 1e-8."""
    from scipy import integrate
    from scipy.special import ive

    ok = all(marcum_q1(a, 0.0) == 1.0 for a in (0.0, 0.5, 1.0, 5.0, 25.0))
    worst = 0.0
    for b in np.arange(0.1, 5.0001, 0.1):
        err = abs(marcum_q1(0.0, float(b)) - math.exp(-b * b / 2.0))
        worst = max(worst, err)
    ok &= worst <= 1e-10

    def density(t):
        return t * math.exp(-((t - 1.0) ** 2) / 2.0) * ive(0, t)

    oracle, quad_err = integrate.quad(density, 1.0, np.inf, limit=500,
                                      epsabs=1e-12, epsrel=1e-12)
    q11_err = abs(marcum_q1(1.0, 1.0) - oracle)
    ok &= quad_err < 1e-9 and q11_err <= 1e-8
    assert _report(
        10,
        f"Q1(a,0)=1 exact; max Rayleigh err {worst:.2e}; "
        f"Q1(1,1) vs quadrature err {q11_err:.2e}",
        ok,
    )
