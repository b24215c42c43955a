"""End-to-end orchestration: simulate, quantize, attack-account, reconcile.

The quantization-plus-accounting stage is a pure function of trace
columns, so a session that was exported to CSV and re-ingested yields
byte-identical downstream results (the replay path), and raw
experiment captures can have the attack applied offline the same way
the simulator does it.
"""
from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import adversary, fuzzy, metrics
from .analysis import AnalysisResult, closed_form_p0_p1, expected_rates, guess_count_pmf, key_guess_probability
from .config import ExperimentConfig
from .errors import ContractError
from .quantize import Bitstream, confirm_excursions, find_excursions, quantize, thresholds
from .session import MeasurementTrace, simulate_session
from .traceio import export_trace_csv, write_bitstream, write_commitments

_PMF_REPORT_LIMIT = 20_000
# analyze_config's own thresholds come from a clean session of at most this many rounds
_CALIBRATION_ROUNDS = 200_000
# reports list per-attack records only up to this many attacked rounds
_ATTACK_ROUNDS_REPORT_LIMIT = 10_000


@dataclass
class ProtocolResult:
    """Quantization outputs plus attack accounting for one trace."""

    thresholds_alice: tuple[float, float]
    thresholds_bob: tuple[float, float]
    l_a: np.ndarray
    l_b: np.ndarray
    s_a: Bitstream
    s_b: Bitstream
    attack: adversary.AttackTrace | None


def run_protocol(trace: MeasurementTrace, beta: float, excursion_len: int) -> ProtocolResult:
    """Threshold selection, index exchange, quantization, attack accounting."""
    q_a = thresholds(trace.x_a, beta)
    q_b = thresholds(trace.x_b, beta)
    l_a = find_excursions(trace.x_a, q_a[0], q_a[1], excursion_len)
    l_b = confirm_excursions(trace.x_b, l_a, q_b[0], q_b[1], excursion_len)
    s_a = quantize(trace.x_a, l_b, q_a[0], q_a[1])
    s_b = quantize(trace.x_b, l_b, q_b[0], q_b[1])
    attack = None
    if np.any(trace.injected):
        attack = adversary.account_attacks(
            trace.x_a, trace.rss_ma, trace.rss_mb, trace.injected, beta, s_a,
        )
    return ProtocolResult(
        thresholds_alice=q_a,
        thresholds_bob=q_b,
        l_a=l_a,
        l_b=l_b,
        s_a=s_a,
        s_b=s_b,
        attack=attack,
    )


def _simulate_from_config(
    cfg: ExperimentConfig, rng: np.random.Generator, **overrides
) -> MeasurementTrace:
    """A session of the config's scenario and run parameters, less any overrides."""
    args = dict(
        n_rounds=cfg.rounds,
        coherence_block_rounds=cfg.coherence_block_rounds,
        beta=cfg.beta,
        noise_sigma_db=cfg.noise_sigma_db,
        rng=rng,
        attack_enabled=cfg.attack.enabled,
        attack_d=cfg.attack.d,
        injection_power_dbm=cfg.attack.injection_power_dbm,
        repeat_injection=cfg.attack.repeat_injection,
    )
    return simulate_session(cfg.build_scenario(), **{**args, **overrides})


def build_report(
    cfg: ExperimentConfig,
    trace: MeasurementTrace,
    protocol: ProtocolResult,
    *,
    rng: np.random.Generator,
    include_attack_rounds: bool = True,
) -> tuple[metrics.SessionReport, list[fuzzy.Commitment]]:
    """Reconcile, verify, and assemble the session report.

    The report lists one record per attacked round when
    include_attack_rounds is set and there are at most
    _ATTACK_ROUNDS_REPORT_LIMIT of them. Also returns the commitments the
    reconciliation opened (none when Alice's stream is shorter than one
    block).
    """
    ell = len(protocol.s_a)
    attack = protocol.attack
    n = attack.n if attack else 0
    n0 = attack.n0 if attack else 0
    m = attack.m if attack else 0
    kre, krr = metrics.attack_metrics(n, m, ell) if ell else (None, 0.0)
    listed = bool(attack and include_attack_rounds
                  and attack.attacked_total <= _ATTACK_ROUNDS_REPORT_LIMIT)

    rs = cfg.rs_params()
    reconciliation_ok: bool | None = None
    verification_ok: bool | None = None
    reconciled_bits = 0
    parity_bits = 0
    commitments: list[fuzzy.Commitment] = []
    if ell >= rs.block_bits:
        commitments, covered = fuzzy.commit_stream(protocol.s_a.bits, rs, rng)
        parity_bits = len(commitments) * rs.parity_bits
        recovered = fuzzy.open_stream(protocol.s_b.bits, commitments, rs)
        if isinstance(recovered, fuzzy.ReconcileFailure):
            reconciliation_ok = False
            verification_ok = False
        else:
            reconciliation_ok = True
            reconciled_bits = covered
            key_alice = fuzzy.derive_key(protocol.s_a.bits[:covered])
            key_bob = fuzzy.derive_key(recovered)
            verification_ok, _ = fuzzy.verify_keys(key_alice, key_bob, rng)

    sbr = metrics.secret_bit_rate(
        reconciled_bits if reconciliation_ok else 0, m, parity_bits, trace.n_rounds
    )
    randomness = metrics.randomness_tests(protocol.s_a.bits) if ell else {}
    if ell >= metrics.MIN_BITS:
        apen = randomness["approximate_entropy"].statistic
    else:  # the battery does not run ApEn below MIN_BITS; its formula needs 8
        apen = metrics.approximate_entropy(protocol.s_a.bits) if ell >= 8 else None
    mismatch = metrics.bit_mismatch_rate(protocol.s_a.bits, protocol.s_b.bits)
    report = metrics.SessionReport(
        scheme=trace.scheme,
        seed=cfg.seed,
        n_rounds=trace.n_rounds,
        ell=ell,
        n=n,
        n0=n0,
        m=m,
        attacked_total=attack.attacked_total if attack else 0,
        kre=kre,
        krr=krr,
        bit_mismatch_rate=mismatch,
        secret_bit_rate=sbr,
        apen=apen,
        randomness=randomness,
        reconciliation_ok=reconciliation_ok,
        verification_ok=verification_ok,
        p_x_dbm=trace.p_x_dbm,
        thresholds_alice=protocol.thresholds_alice,
        thresholds_bob=protocol.thresholds_bob,
        attack_rounds=attack.to_records() if listed else [],
    )
    return report, commitments


def write_session_files(
    out_dir: str | Path,
    report: metrics.SessionReport,
    trace: MeasurementTrace,
    protocol: ProtocolResult,
) -> Path:
    """Write trace.csv, alice.bits, bob.bits (each bitstream with its .rounds
    sidecar) and report.json into out_dir, creating it; returns it.

    The two sidecars are byte-identical: both streams are quantized on
    L_b, the rounds Bob confirmed, so Bob's is copied from Alice's. Each
    is still written, because the sidecar fixes its bitstream's bit
    count, so either `.bits` file is a complete input to `randomness`,
    `commit` and `open` on its own."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    export_trace_csv(trace, out / "trace.csv")
    write_bitstream(out / "alice.bits", protocol.s_a)
    same = np.array_equal(protocol.s_a.source_rounds, protocol.s_b.source_rounds)
    write_bitstream(out / "bob.bits", protocol.s_b, same_rounds_as=out / "alice.bits" if same else None)
    with open(out / "report.json", "w", encoding="utf-8") as fh:
        json.dump(report.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    return out


def run_experiment(
    cfg: ExperimentConfig,
    out_dir: str | Path | None = None,
    *,
    include_attack_rounds: bool = True,
) -> tuple[metrics.SessionReport, MeasurementTrace, ProtocolResult]:
    """simulate -> quantize -> attack accounting -> reconcile -> report.

    With out_dir set, writes the session files (`write_session_files`)
    and the commitment blob (the set the report verified) into it.
    include_attack_rounds=False leaves the per-attack records out of the
    report (see `build_report`).
    """
    rng = np.random.default_rng(cfg.seed)
    scenario = cfg.build_scenario()
    trace = _simulate_from_config(cfg, rng)
    protocol = run_protocol(trace, cfg.beta, cfg.excursion_len)
    report, commitments = build_report(
        cfg, trace, protocol, rng=rng, include_attack_rounds=include_attack_rounds
    )
    report.tx_power_gap_vs_oa_db = scenario.tx_power_gap_vs_oa_db
    links, paths = scenario.links, scenario.links.ab.path_count
    report.extra["fading_k_factor"] = {
        "ab": links.fading_ab.k_factor(paths),
        "ma": links.fading_am.k_factor(paths),
        "mb": links.fading_mb.k_factor(paths),
    }
    if out_dir is not None:
        out = write_session_files(out_dir, report, trace, protocol)
        if commitments:
            write_commitments(out / "commitments.bin", commitments, cfg.rs_params())
    return report, trace, protocol


def replay_trace(
    trace: MeasurementTrace, cfg: ExperimentConfig
) -> tuple[metrics.SessionReport, MeasurementTrace, ProtocolResult]:
    """Run the offline pipeline on an ingested trace.

    A clean trace (no injected flags) gets the attack applied offline
    when the config enables it: injected rounds take their values from
    the recorded reciprocal M-A / M-B observations, which is exactly
    how the simulator injects.
    """
    if cfg.attack.enabled and not np.any(trace.injected):
        offset = (
            0.0
            if cfg.attack.injection_power_dbm is None
            else cfg.attack.injection_power_dbm - trace.p_x_dbm
        )
        x_a, x_b, injected = adversary.apply_attack(
            trace.x_a,
            trace.x_b,
            trace.rss_ma,
            trace.rss_mb,
            cfg.beta,
            cfg.attack.d,
            power_offset_db=offset,
            repeat_injection=cfg.attack.repeat_injection,
        )
        trace = dataclasses.replace(trace, x_a=x_a, x_b=x_b, injected=injected)
    protocol = run_protocol(trace, cfg.beta, cfg.excursion_len)
    report, _ = build_report(cfg, trace, protocol, rng=np.random.default_rng(cfg.seed))
    return report, trace, protocol


def run_trials(cfg: ExperimentConfig, trials: int):
    """Run seeded sessions one after another; results ordered by trial index."""
    if trials < 1:
        raise ContractError("trials must be >= 1")
    seeds = [int(s.generate_state(1)[0]) for s in np.random.SeedSequence(cfg.seed).spawn(trials)]
    cfg.build_scenario()  # built once: the per-trial copies share it
    return [
        run_experiment(cfg.model_copy(update={"seed": seed}), include_attack_rounds=False)[0]
        for seed in seeds
    ]


def analyze_config(
    cfg: ExperimentConfig,
    *,
    q_minus: float | None = None,
    q_plus: float | None = None,
    counts: tuple[int, int, int] | None = None,
) -> AnalysisResult:
    """Closed-form p0/p1 for the config, plus rate/PMF/p_key when counts given.

    Thresholds default to a clean calibration session at the config's
    seed and at most _CALIBRATION_ROUNDS rounds (Eq.-style mean/std of
    Alice's series); counts are (ell, n, n0) from a measured or simulated
    run.
    """
    scenario = cfg.build_scenario()
    if q_minus is None or q_plus is None:
        cal_trace = _simulate_from_config(
            cfg,
            np.random.default_rng(cfg.seed),
            n_rounds=min(cfg.rounds, _CALIBRATION_ROUNDS),
            attack_enabled=False,
        )
        q_minus, q_plus = thresholds(cal_trace.x_a, cfg.beta)
    fading, p_x = scenario.links.fading_am, scenario.p_x_dbm
    p0, p1, excluded_modes = closed_form_p0_p1(
        scenario.profile, scenario.g_am, abs(fading.los_mean), fading.sigma0,
        q_minus, q_plus, p_x,
    )
    e_kre = e_krr = None
    key_guess = None
    pmf = None
    counts_dict: dict = {"q_minus": q_minus, "q_plus": q_plus, "p_x_dbm": p_x}
    if counts is not None:
        ell, n, n0 = counts
        e_kre, e_krr = expected_rates(n, n0, p0, p1, ell)
        key_guess = key_guess_probability(ell, n, n0, p0, p1)
        if n <= _PMF_REPORT_LIMIT:
            pmf = guess_count_pmf(n, n0, p0, p1)
        counts_dict.update({"ell": ell, "n": n, "n0": n0})
    return AnalysisResult(
        p0=p0,
        p1=p1,
        e_kre=e_kre,
        e_krr=e_krr,
        key_guess=key_guess,
        pmf=pmf,
        excluded_modes=excluded_modes,
        counts=counts_dict,
    )
