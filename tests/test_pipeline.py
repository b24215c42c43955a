import json

import numpy as np
import pytest

from phykey import fuzzy, pipeline
from phykey.analysis import guess_count_pmf
from phykey.antenna import AntennaProfile
from phykey.config import config_from_mapping
from phykey.errors import ContractError
from phykey.traceio import export_trace_csv, ingest_trace, read_commitments, save_antenna_profile


def small_cfg(**over):
    base = {"seed": 5, "rounds": 20_000, "coherence_block_rounds": 10,
            "reconciliation": {"symbol_bits": 4, "n": 15, "k": 11}}
    base.update(over)
    return config_from_mapping(base)


def test_run_experiment_reports_consistent_counts():
    report, trace, proto = pipeline.run_experiment(small_cfg())
    assert report.ell == len(proto.s_a)
    assert report.n == proto.attack.n
    assert report.m <= report.n <= report.attacked_total
    assert report.n0 <= report.n
    if report.n:
        assert report.kre == pytest.approx(report.m / report.n)
    assert report.krr == pytest.approx(report.m / report.ell)


@pytest.mark.parametrize("rounds", [100, 20_000])
def test_report_apen_computed_once(rounds, monkeypatch):
    # from the battery's ApEn test at >= MIN_BITS bits, directly below it
    calls = []
    apen = pipeline.metrics.approximate_entropy

    def counted(bits, *args):
        calls.append(1)
        return apen(bits, *args)

    monkeypatch.setattr(pipeline.metrics, "approximate_entropy", counted)
    report, _, proto = pipeline.run_experiment(small_cfg(rounds=rounds))
    assert 8 <= report.ell < 100 if rounds == 100 else report.ell >= 100
    assert len(calls) == 1
    assert report.apen == apen(proto.s_a.bits)


def test_kre_krr_recount_from_raw_trace():
    # independent counting pass over the trace agrees with the tallies
    report, trace, proto = pipeline.run_experiment(small_cfg())
    bit_at = dict(zip(proto.s_a.source_rounds.tolist(), proto.s_a.bits.tolist()))
    n = m = 0
    at = proto.attack
    for r, kind in zip(at.round_index.tolist(), at.kind.tolist()):
        if r in bit_at:
            n += 1
            m += int(bit_at[r] == kind)
    assert (n, m) == (report.n, report.m)


def test_same_seed_byte_identical_artifacts(tmp_path):
    cfg = small_cfg(rounds=5000)
    pipeline.run_experiment(cfg, out_dir=tmp_path / "a")
    pipeline.run_experiment(cfg, out_dir=tmp_path / "b")
    for name in ("report.json", "trace.csv", "alice.bits", "bob.bits",
                 "alice.bits.rounds", "commitments.bin"):
        fa = (tmp_path / "a" / name).read_bytes()
        fb = (tmp_path / "b" / name).read_bytes()
        assert fa == fb, name


def test_commitment_artifact_is_the_set_the_report_verified(tmp_path, monkeypatch):
    opened = []
    open_stream = fuzzy.open_stream

    def recording(s_b, commitments, params):
        opened.append(commitments)
        return open_stream(s_b, commitments, params)

    monkeypatch.setattr(fuzzy, "open_stream", recording)
    report, _, proto = pipeline.run_experiment(small_cfg(attack={"enabled": False}), tmp_path)
    written, params = read_commitments(tmp_path / "commitments.bin")
    assert report.reconciliation_ok and len(opened) == 1
    np.testing.assert_array_equal(written.digests, opened[0].digests)
    np.testing.assert_array_equal(written.deltas, opened[0].deltas)
    recovered = open_stream(proto.s_b.bits, written, params)
    np.testing.assert_array_equal(recovered, proto.s_a.bits[: recovered.size])


def test_export_ingest_replay_identity(tmp_path):
    cfg = small_cfg()
    report, trace, proto = pipeline.run_experiment(cfg)
    path = tmp_path / "trace.csv"
    export_trace_csv(trace, path)
    back = ingest_trace(path)
    replay_report, _, _ = pipeline.replay_trace(back, cfg)
    for fieldname in ("ell", "n", "n0", "m", "attacked_total"):
        assert getattr(replay_report, fieldname) == getattr(report, fieldname)
    assert replay_report.bit_mismatch_rate == report.bit_mismatch_rate
    assert replay_report.krr == report.krr


@pytest.mark.parametrize("attack", [True, False])
def test_in_memory_replay_equals_simulate(attack):
    # the run-level fields come from the config's scenario on both paths,
    # so replaying the simulated trace itself gives the simulated report
    cfg = small_cfg(attack={"enabled": attack})
    report, trace, _ = pipeline.run_experiment(cfg)
    assert (report.attacked_total > 0) == attack
    assert pipeline.replay_trace(trace, cfg)[0].to_dict() == report.to_dict()


def test_erased_rounds_survive_export_ingest_replay(tmp_path):
    # mode 1 has zero gain everywhere, so about half the rounds are -inf erasures
    csv = tmp_path / "profile.csv"
    save_antenna_profile(
        AntennaProfile(modes=(0, 1), angles_deg=[0.0], gains=[[1.0], [0.0]]), csv
    )
    cfg = small_cfg(rounds=2000, antenna={"profile_csv": str(csv)})
    with pytest.warns(UserWarning, match="zero-gain"):
        report, trace, _ = pipeline.run_experiment(cfg, tmp_path / "run")
    erased = np.isneginf(trace.x_a)
    assert erased.sum() > 500 and np.array_equal(erased, trace.mode == 1)
    back = ingest_trace(tmp_path / "run" / "trace.csv")
    np.testing.assert_array_equal(np.isneginf(back.x_a), erased)
    replay_report, _, _ = pipeline.replay_trace(back, cfg)
    for fieldname in ("ell", "n", "n0", "m", "attacked_total", "krr", "bit_mismatch_rate",
                      "reconciliation_ok", "verification_ok"):
        assert getattr(replay_report, fieldname) == getattr(report, fieldname)
    assert report.attacked_total > 0


def test_clean_export_then_offline_attack_matches_direct():
    # offline injection on a clean session gives the simulator's whole report,
    # over seeds, both schemes, one- and two-round injection and an off-power Mallory
    for scheme in ("RAKG", "OAKG"):
        clean_cfg = small_cfg(scheme=scheme, rounds=4000, attack={"enabled": False})
        attacks = [
            small_cfg(scheme=scheme, rounds=4000,
                      attack={"repeat_injection": repeat, "injection_power_dbm": power})
            for repeat in (False, True) for power in (None, 10.0)
        ]
        for seed in range(8):
            clean_trace = pipeline.run_experiment(clean_cfg.model_copy(update={"seed": seed}))[1]
            assert not clean_trace.injected.any()
            for cfg in attacks:
                cfg = cfg.model_copy(update={"seed": seed})
                direct = pipeline.run_experiment(cfg)[0]
                assert direct.attacked_total > 0
                offline = pipeline.replay_trace(clean_trace, cfg)[0]
                assert offline.to_dict() == direct.to_dict(), (cfg.attack, seed)


def test_oakg_static_zero_noise_reports_full_kre():
    cfg = small_cfg(scheme="OAKG", rounds=10_000, coherence_block_rounds=10_000)
    report, _, _ = pipeline.run_experiment(cfg)
    assert report.n > 0
    assert report.kre == 1.0


def test_reconciliation_and_verification_succeed_zero_noise():
    report, _, _ = pipeline.run_experiment(small_cfg(attack={"enabled": False}))
    assert report.reconciliation_ok is True
    assert report.verification_ok is True
    assert report.bit_mismatch_rate == 0.0
    assert report.secret_bit_rate > 0.0


def test_secret_bit_rate_accounting_matches_by_hand():
    cfg = small_cfg(attack={"enabled": False}, rounds=8000)
    report, trace, proto = pipeline.run_experiment(cfg)
    rs = cfg.rs_params()
    blocks = len(proto.s_a) // rs.block_bits
    expected = (blocks * rs.block_bits - blocks * rs.parity_bits) / trace.n_rounds
    assert report.secret_bit_rate == pytest.approx(expected)


def test_static_scenario_rakg_beats_oakg_secret_bit_rate():
    # a fully static channel gives OAKG no excursions at all, while the
    # randomized antenna keeps extracting bits
    oa = small_cfg(scheme="OAKG", rounds=10_000, coherence_block_rounds=10_000,
                   attack={"enabled": False})
    ra = small_cfg(scheme="RAKG", rounds=10_000, coherence_block_rounds=10_000,
                   attack={"enabled": False})
    oa_rep, _, _ = pipeline.run_experiment(oa)
    ra_rep, _, _ = pipeline.run_experiment(ra)
    assert oa_rep.ell == 0
    assert oa_rep.secret_bit_rate == 0.0
    assert ra_rep.secret_bit_rate > oa_rep.secret_bit_rate


def test_attack_lowers_secret_bit_rate_vs_clean():
    attacked, _, _ = pipeline.run_experiment(small_cfg(rounds=30_000))
    clean, _, _ = pipeline.run_experiment(
        small_cfg(rounds=30_000, attack={"enabled": False})
    )
    assert attacked.secret_bit_rate <= clean.secret_bit_rate


def test_run_trials_deterministic_order_and_seeds():
    cfg = small_cfg(rounds=3000)
    a = pipeline.run_trials(cfg, trials=4)
    b = pipeline.run_trials(cfg, trials=4)
    assert [r.seed for r in a] == [r.seed for r in b]
    assert [r.ell for r in a] == [r.ell for r in b]
    assert len({r.seed for r in a}) == 4


def test_trials_cli_aggregate_report(tmp_path):
    from phykey.cli import main

    cfg_path = tmp_path / "cfg.yaml"
    cfg_path.write_text(
        "seed: 5\nrounds: 2000\nreconciliation: {symbol_bits: 4, n: 15, k: 11}\n"
    )
    out_dir = tmp_path / "out"
    assert main(["simulate", "--config", str(cfg_path), "--trials", "3",
                 "--out-dir", str(out_dir)]) == 0
    aggregated = json.loads((out_dir / "report.json").read_text())
    assert len(aggregated) == 3
    from phykey.config import parse_config

    direct = pipeline.run_trials(parse_config(cfg_path), trials=3)
    assert [r["seed"] for r in aggregated] == [r.seed for r in direct]


@pytest.mark.parametrize("offset_db", [0.0, -5.0, 5.0, 10.0])
def test_analyze_config_with_counts_and_report_consistency(offset_db):
    # Mallory injects offset_db from the calibrated power; the closed form must follow
    p_x = small_cfg().build_scenario().p_x_dbm
    cfg = small_cfg(rounds=50_000, coherence_block_rounds=1,
                    attack={"injection_power_dbm": p_x + offset_db})
    report, trace, proto = pipeline.run_experiment(cfg)
    at = proto.attack
    res = pipeline.analyze_config(
        cfg, q_minus=at.q_minus, q_plus=at.q_plus,
        counts=(report.ell, report.n, report.n0),
    )
    assert 0.0 < res.p1 < 1.0
    assert res.counts["p_x_dbm"] == p_x
    assert res.e_kre is not None and 0.0 <= res.e_kre <= 1.0
    assert res.key_guess is not None
    # empirical O1 per-attack tail success vs closed form, same thresholds
    from phykey.adversary import OpportunityKind

    hits, total = at.tail_stats(OpportunityKind.O1)
    se = np.sqrt(res.p1 * (1 - res.p1) / total)
    assert abs(hits / total - res.p1) < 3 * se


def test_analyze_config_self_calibrates_thresholds():
    cfg = small_cfg(rounds=20_000)
    res = pipeline.analyze_config(cfg)
    assert 0.0 <= res.p0 <= 1.0 and 0.0 <= res.p1 <= 1.0
    assert "q_plus" in res.counts and res.counts["q_plus"] > res.counts["q_minus"]


@pytest.mark.parametrize("excursion_len", [2, 3])
def test_analyze_config_refuses_excursion_len_above_1(excursion_len, monkeypatch):
    # refused before the closed form runs, with or without counts
    monkeypatch.setattr(pipeline, "closed_form_p0_p1", None)
    cfg = small_cfg(excursion_len=excursion_len)
    want = f"excursion length of 1, got excursion_len={excursion_len}"
    for kwargs in ({}, {"q_minus": -64.0, "q_plus": -60.0, "counts": (500, 40, 20)}):
        with pytest.raises(ContractError, match=want):
            pipeline.analyze_config(cfg, **kwargs)


@pytest.fixture(scope="module")
def attacked_5k():
    """A 5k-round attacked session's config, thresholds and (ell, n, n0)."""
    cfg = config_from_mapping({"seed": 3, "rounds": 5000, "attack": {"enabled": True, "d": 3.0}})
    report, _, _ = pipeline.run_experiment(cfg)
    q_minus, q_plus = report.thresholds_alice
    return cfg, q_minus, q_plus, (report.ell, report.n, report.n0)


@pytest.mark.parametrize("large", [False, True])
def test_analysis_pmf_is_computed_on_read(attacked_5k, large):
    cfg, q_minus, q_plus, counts = attacked_5k
    assert counts[1] > 0
    if large:  # past to_dict's 20k limit and on guess_count_pmf's FFT branch
        counts = (60_000, 25_000, 9_000)
    res = pipeline.analyze_config(cfg, q_minus=q_minus, q_plus=q_plus, counts=counts)
    _, n, n0 = counts
    pmf = res.pmf
    assert np.array_equal(pmf, guess_count_pmf(n, n0, res.p0, res.p1))
    assert res.pmf is pmf


def test_analysis_pmf_is_none_without_counts():
    res = pipeline.analyze_config(small_cfg(rounds=2000))
    assert res.pmf is None
    assert "pmf" not in res.to_dict()


@pytest.mark.parametrize("n", [0, 810, 20_000, 20_001])
def test_analysis_to_dict_lists_pmf_up_to_20k(attacked_5k, n):
    cfg, q_minus, q_plus, _ = attacked_5k
    res = pipeline.analyze_config(cfg, q_minus=q_minus, q_plus=q_plus,
                                  counts=(30_000, n, n // 3))
    out = res.to_dict()
    assert ("pmf" in out) == (n <= 20_000)
    assert {k: v for k, v in out.items() if k != "pmf"} == res.summary()
    if "pmf" in out:
        assert out["pmf"] == res.pmf.tolist()


def test_report_json_serializable(tmp_path):
    cfg = small_cfg(rounds=4000)
    report, _, _ = pipeline.run_experiment(cfg, out_dir=tmp_path)
    loaded = json.loads((tmp_path / "report.json").read_text())
    assert loaded["scheme"] == "RAKG"
    assert loaded["n_rounds"] == 4000
    assert isinstance(loaded["randomness"], dict)


def test_repeat_injection_roundtrip_and_consecutive_attacks():
    cfg = small_cfg(rounds=20_000, attack={"repeat_injection": True})
    report, trace, proto = pipeline.run_experiment(cfg)
    inj = np.flatnonzero(trace.injected)
    assert np.any(np.diff(inj) == 1)  # consecutive injected pairs exist
    clean_cfg = small_cfg(rounds=20_000, attack={"enabled": False})
    _, clean_trace, _ = pipeline.run_experiment(clean_cfg)
    offline, _, _ = pipeline.replay_trace(clean_trace, cfg)
    for fieldname in ("ell", "n", "n0", "m", "attacked_total", "krr"):
        assert getattr(offline, fieldname) == getattr(report, fieldname)


def test_excursion_length_two_integration():
    # classic multi-sample excursions on the omni baseline: fewer, sturdier bits
    e1 = small_cfg(scheme="OAKG", rounds=30_000, excursion_len=1,
                   attack={"enabled": False})
    e2 = small_cfg(scheme="OAKG", rounds=30_000, excursion_len=2,
                   attack={"enabled": False})
    r1, _, p1 = pipeline.run_experiment(e1)
    r2, _, p2 = pipeline.run_experiment(e2)
    assert 0 < r2.ell < r1.ell
    assert r2.bit_mismatch_rate == 0.0
    # e=2 keeps only starting indices of runs: each kept round and its
    # successor sit on the same side of the band
    q_minus, q_plus = p2.thresholds_alice
    _, trace2, _ = pipeline.run_experiment(e2)
    for idx in p2.l_b[:50]:
        pair = trace2.x_a[idx : idx + 2]
        assert np.all(pair > q_plus) or np.all(pair < q_minus)


def test_per_link_fading_overrides_change_only_that_link():
    base = small_cfg(rounds=3000, attack={"enabled": False})
    tweaked = small_cfg(rounds=3000, attack={"enabled": False},
                        fading={"mb": {"k_factor": 5.0}})
    _, t_base, _ = pipeline.run_experiment(base)
    _, t_tweak, _ = pipeline.run_experiment(tweaked)
    np.testing.assert_array_equal(t_base.x_a, t_tweak.x_a)
    assert not np.array_equal(t_base.rss_mb, t_tweak.rss_mb)


def test_report_extras_expose_k_factors():
    report, _, _ = pipeline.run_experiment(small_cfg(rounds=2000))
    k = report.fading_k_factor
    assert set(k) == {"ab", "ma", "mb"}
    assert all(v == pytest.approx(300.0) for v in k.values())


@pytest.mark.parametrize("fading", [{}, {"ab": {"k_factor": 3.5}}, {"ma": {"k_factor": 0.25}},
                                    {"mb": {"k_factor": 40.0}}],
                         ids=["defaults", "ab", "ma", "mb"])
def test_report_k_factor_is_the_configured_one_per_link(fading):
    cfg = small_cfg(rounds=2000, fading=fading)
    report, _, _ = pipeline.run_experiment(cfg)
    assert list(report.fading_k_factor) == ["ab", "ma", "mb"]
    for name, got in report.fading_k_factor.items():
        want = fading.get(name, {}).get("k_factor", cfg.fading.k_factor)
        assert got == pytest.approx(want, rel=1e-12, abs=0.0)


def test_rakg_report_carries_finite_power_gap():
    report, _, _ = pipeline.run_experiment(small_cfg(rounds=2000))
    assert report.tx_power_gap_vs_oa_db is not None
    assert np.isfinite(report.tx_power_gap_vs_oa_db)
    assert report.tx_power_gap_vs_oa_db >= 0.0
