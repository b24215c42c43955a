import json
import re
import warnings

import numpy as np
import pytest

from phykey import errors, pipeline
from phykey.cli import RuntimeFailure, main
from phykey.config import config_from_mapping
from phykey.errors import ContractError, PhykeyError


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_cfg(tmp_path, text):
    p = tmp_path / "cfg.yaml"
    p.write_text(text)
    return str(p)


BASE_CFG = (
    "seed: 7\n"
    "rounds: 6000\n"
    "reconciliation: {symbol_bits: 4, n: 15, k: 11}\n"
)


def test_simulate_json_report(tmp_path, capsys):
    cfg = write_cfg(tmp_path, BASE_CFG)
    code, out, _ = run_cli(capsys, "simulate", "--config", cfg)
    assert code == 0
    reports = json.loads(out)
    assert len(reports) == 1
    assert reports[0]["n_rounds"] == 6000


def test_simulate_writes_artifacts(tmp_path, capsys):
    cfg = write_cfg(tmp_path, BASE_CFG)
    out_dir = tmp_path / "out"
    code, _, _ = run_cli(capsys, "simulate", "--config", cfg, "--out-dir", str(out_dir))
    assert code == 0
    for name in ("report.json", "trace.csv", "alice.bits", "bob.bits"):
        assert (out_dir / name).exists()


def test_simulate_trials_ordered(tmp_path, capsys):
    cfg = write_cfg(tmp_path, BASE_CFG.replace("6000", "2000"))
    code, out, _ = run_cli(capsys, "simulate", "--config", cfg, "--trials", "3")
    assert code == 0
    reports = json.loads(out)
    assert len(reports) == 3
    code2, out2, _ = run_cli(capsys, "simulate", "--config", cfg, "--trials", "3")
    assert [r["seed"] for r in json.loads(out2)] == [r["seed"] for r in reports]


def test_usage_error_exit_code_1(tmp_path, capsys):
    code, _, err = run_cli(capsys, "simulate")  # missing --config
    assert code == 1


def test_unknown_subcommand_exit_code_1(capsys):
    code, _, _ = run_cli(capsys, "frobnicate")
    assert code == 1


def test_validation_error_exit_code_2(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "seed: 1\nbeta: 1.5\n")
    code, _, err = run_cli(capsys, "simulate", "--config", cfg)
    assert code == 2
    assert "beta" in err


PHYKEY_ERRORS = [c for c in vars(errors).values()
                 if isinstance(c, type) and issubclass(c, PhykeyError)]


@pytest.mark.parametrize("error", PHYKEY_ERRORS + [RuntimeFailure], ids=lambda c: c.__name__)
def test_exit_code_follows_the_error_class(tmp_path, capsys, monkeypatch, error):
    # every PhykeyError is a refused input (2) except the --strict RuntimeFailure (3)
    def run_experiment(cfg, out_dir=None):
        raise error("boom")

    monkeypatch.setattr(pipeline, "run_experiment", run_experiment)
    cfg = write_cfg(tmp_path, BASE_CFG)
    expected = (3, "runtime failure") if error is RuntimeFailure else (2, "validation error")
    code, out, err = run_cli(capsys, "simulate", "--config", cfg)
    assert (code, out, err) == (expected[0], "", f"{expected[1]}: boom\n")


def test_out_dir_naming_a_file_is_an_io_error_exit_3(tmp_path, capsys):
    cfg = write_cfg(tmp_path, BASE_CFG.replace("6000", "2000"))
    taken = tmp_path / "taken"
    taken.write_text("not a directory\n")
    code, _, err = run_cli(capsys, "simulate", "--config", cfg, "--out-dir", str(taken))
    assert code == 3
    assert err.startswith("i/o error: ") and str(taken) in err


def test_zero_trials_is_a_usage_error(tmp_path, capsys):
    cfg = write_cfg(tmp_path, BASE_CFG)
    code, out, err = run_cli(capsys, "simulate", "--config", cfg, "--trials", "0")
    assert (code, out) == (1, "")
    assert err == "usage error: Invalid value for '--trials': 0 is not in the range x>=1.\n"


def test_seed_override(tmp_path, capsys):
    cfg = write_cfg(tmp_path, BASE_CFG)
    _, out1, _ = run_cli(capsys, "simulate", "--config", cfg, "--seed", "99")
    assert json.loads(out1)[0]["seed"] == 99


@pytest.mark.parametrize("command", ["simulate", "simulate_trials", "analyze", "replay", "commit"])
def test_negative_seed_is_a_usage_error(tmp_path, capsys, command):
    # the config's own `seed` must be >= 0; --seed keeps the same rule
    cfg = write_cfg(tmp_path, BASE_CFG.replace("6000", "2000"))
    out_dir = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--out-dir", str(out_dir)]) == 0
    argv = {
        "simulate": ["simulate", "--config", cfg, "--seed", "-2"],
        "simulate_trials": ["simulate", "--config", cfg, "--trials", "2", "--seed", "-2"],
        "analyze": ["analyze", "--config", cfg, "--seed", "-2"],
        "replay": ["replay", str(out_dir / "trace.csv"), "--config", cfg, "--seed", "-2"],
        "commit": ["commit", str(out_dir / "alice.bits"), "--out", str(tmp_path / "c.bin"),
                   "--seed", "-1"],
    }[command]
    code, _, err = run_cli(capsys, *argv)
    assert code == 1
    assert "usage error" in err and "--seed" in err


def test_csv_format_output(tmp_path, capsys):
    cfg = write_cfg(tmp_path, BASE_CFG)
    code, out, _ = run_cli(capsys, "simulate", "--config", cfg, "--format", "csv")
    assert code == 0
    header = out.splitlines()[0]
    assert "krr" in header and "ell" in header


def test_analyze_outputs_probabilities(tmp_path, capsys):
    cfg = write_cfg(tmp_path, BASE_CFG)
    code, out, _ = run_cli(capsys, "analyze", "--config", cfg)
    assert code == 0
    res = json.loads(out)
    assert 0.0 <= res["p0"] <= 1.0 and 0.0 <= res["p1"] <= 1.0


def test_analyze_with_report_counts(tmp_path, capsys):
    cfg = write_cfg(tmp_path, BASE_CFG)
    out_dir = tmp_path / "out"
    run_cli(capsys, "simulate", "--config", cfg, "--out-dir", str(out_dir))
    code, out, _ = run_cli(
        capsys, "analyze", "--config", cfg, "--report", str(out_dir / "report.json")
    )
    assert code == 0
    res = json.loads(out)
    assert res["key_guess"]["beats_random"] in (False, True)
    assert "log10_p_key" in res["key_guess"]


@pytest.mark.parametrize("kind, message", [
    ("trials", "holds 2 sessions; analyze needs one"),
    ("not_json", "not a JSON report"),
    ("no_counts", "ell, n and n0 must be integers"),
])
def test_analyze_rejects_unusable_report_exit_2(tmp_path, capsys, kind, message):
    # each is a file phykey writes or a damaged one: a validation error
    # naming the path, never a traceback
    cfg = write_cfg(tmp_path, BASE_CFG.replace("6000", "2000"))
    report = tmp_path / "out" / "report.json"
    if kind == "trials":
        assert main(["simulate", "--config", cfg, "--trials", "2", "--out-dir",
                     str(report.parent)]) == 0
    else:
        report.parent.mkdir()
        report.write_text('{"ell": 5' if kind == "not_json" else '{"ell": 5}')
    code, _, err = run_cli(capsys, "analyze", "--config", cfg, "--report", str(report))
    assert code == 2
    assert str(report) in err and message in err


@pytest.mark.parametrize("ell, n, n0", [(500, 3, 5), (30, 40, 20), (0, 0, 0)],
                         ids=["n0-above-n", "n-above-ell", "no-key-bits"])
def test_analyze_rejects_inconsistent_report_counts_exit_2(tmp_path, capsys, ell, n, n0):
    # a session with no key bits writes ell = 0; the others are damaged reports
    cfg = write_cfg(tmp_path, BASE_CFG)
    report = tmp_path / "report.json"
    report.write_text(json.dumps({"ell": ell, "n": n, "n0": n0}))
    code, out, err = run_cli(capsys, "analyze", "--config", cfg, "--report", str(report))
    assert code == 2 and out == ""
    assert f"validation error: {report}: counts need ell >= 1 and 0 <= n0 <= n <= ell" in err


def test_analyze_refuses_excursion_len_above_1_exit_2(tmp_path, capsys):
    cfg = write_cfg(tmp_path, BASE_CFG + "excursion_len: 2\n")
    code, out, err = run_cli(capsys, "analyze", "--config", cfg)
    assert code == 2 and out == ""
    assert "the closed form assumes an excursion length of 1, got excursion_len=2" in err


@pytest.mark.parametrize("command", ["simulate", "analyze"])
def test_profile_without_usable_mode_exits_2(tmp_path, capsys, command):
    # every mode has zero gain everywhere, so no transmit power calibrates
    profile = tmp_path / "dead.csv"
    profile.write_text("mode,angle_deg,gain_linear\n"
                       + "".join(f"{m},{a},0\n" for m in range(3) for a in (0, 120, 240)))
    cfg = write_cfg(tmp_path, BASE_CFG + f"antenna: {{profile_csv: {json.dumps(str(profile))}}}\n")
    code, out, err = run_cli(capsys, command, "--config", cfg)
    assert code == 2 and out == ""
    assert f"validation error: {profile}: every mode has zero gain on all A->B paths" in err


@pytest.mark.parametrize("command", ["simulate", "analyze"])
@pytest.mark.parametrize("config, rows", [
    (b"seed: 7\nrounds: 60\xff00\n", None),
    (None, b"0,0,1\n0,180,0.\xff5\n"),
    (None, b"0,0,1\n100000000000000000000,0,1\n"),
], ids=["config-0xff", "profile-0xff", "profile-mode-1e20"])
def test_undecodable_or_wide_input_exits_2_naming_the_file(tmp_path, capsys, command, config, rows):
    # each used to escape as a UnicodeDecodeError or OverflowError traceback
    cfg, profile = tmp_path / "cfg.yaml", tmp_path / "beam.csv"
    profile.write_bytes(b"mode,angle_deg,gain_linear\n" + (rows or b""))
    cfg.write_bytes(config or f"{BASE_CFG}antenna: {{profile_csv: {json.dumps(str(profile))}}}\n"
                    .encode())
    code, out, err = run_cli(capsys, command, "--config", str(cfg))
    assert (code, out) == (2, "")
    where = f"{cfg}: " if config else f"{profile}: line 3: "
    assert err.startswith(f"validation error: {where}")


@pytest.mark.parametrize("pair", ["[-62.08, -67.80]", "[NaN, NaN]", "[-Infinity, Infinity]"])
def test_analyze_rejects_impossible_thresholds_exit_2(tmp_path, capsys, pair):
    # swapped thresholds leave an empty quantizer band; no session writes them
    cfg = write_cfg(tmp_path, BASE_CFG)
    report = tmp_path / "report.json"
    report.write_text(f'{{"ell": 500, "n": 40, "n0": 20, "thresholds_alice": {pair}}}')
    code, out, err = run_cli(capsys, "analyze", "--config", cfg, "--report", str(report))
    assert code == 2 and out == ""
    assert str(report) in err and "thresholds must be finite with q_minus <= q_plus" in err
    q_minus, q_plus = json.loads(pair)
    with pytest.raises(ContractError, match="thresholds must be finite"):
        pipeline.analyze_config(config_from_mapping({"seed": 7, "rounds": 2000}),
                                q_minus=q_minus, q_plus=q_plus, counts=(500, 40, 20))


def test_replay_roundtrip_metrics(tmp_path, capsys):
    cfg = write_cfg(tmp_path, BASE_CFG)
    out_dir = tmp_path / "out"
    _, direct_out, _ = run_cli(
        capsys, "simulate", "--config", cfg, "--out-dir", str(out_dir)
    )
    direct = json.loads(direct_out)[0]
    code, replay_out, _ = run_cli(
        capsys, "replay", str(out_dir / "trace.csv"), "--config", cfg
    )
    assert code == 0
    replayed = json.loads(replay_out)
    for key in ("ell", "n", "n0", "m", "krr", "bit_mismatch_rate"):
        assert replayed[key] == direct[key]


def test_offline_injection_at_set_power_matches_simulate(tmp_path):
    # Mallory injects at 10 dBm, about 15 dB under the calibrated 24.99 dBm:
    # replaying the clean capture must shift her injections by the same
    # offset the simulator uses, so the attack counts and KRE agree. The
    # thresholds are left out: the trace's 4 decimals move them.
    cfgs = {}
    for name, enabled in (("attack", True), ("clean", False)):
        cfgs[name] = tmp_path / f"{name}.yaml"  # JSON is valid YAML
        cfgs[name].write_text(json.dumps({"seed": 7, "rounds": 50_000, "attack": {
            "enabled": enabled, "injection_power_dbm": 10}}))
    assert main(["simulate", "--config", str(cfgs["clean"]), "--out-dir",
                 str(tmp_path / "clean")]) == 0
    assert main(["simulate", "--config", str(cfgs["attack"]), "--out-dir",
                 str(tmp_path / "sim")]) == 0
    assert main(["replay", str(tmp_path / "clean" / "trace.csv"), "--config",
                 str(cfgs["attack"]), "--out-dir", str(tmp_path / "replay")]) == 0
    simulated, replayed = (json.loads((tmp_path / d / "report.json").read_text())
                           for d in ("sim", "replay"))
    keys = ("p_x_dbm", "tx_power_gap_vs_oa_db", "attacked_total", "n", "m", "kre")
    assert {k: replayed[k] for k in keys} == {k: simulated[k] for k in keys}
    assert simulated["p_x_dbm"] == pytest.approx(24.9885, abs=1e-4)
    assert (simulated["attacked_total"], simulated["n"], simulated["m"]) == (10_079, 8_108, 0)
    assert simulated["kre"] == 0.0


def test_commit_open_cycle(tmp_path, capsys, rng):
    bits = rng.integers(0, 2, size=120).astype(np.uint8)
    from phykey.quantize import Bitstream
    from phykey.traceio import write_bitstream

    stream = Bitstream(bits=bits, source_rounds=np.arange(120))
    bits_path = tmp_path / "alice.bits"
    write_bitstream(bits_path, stream)
    commit_path = tmp_path / "c.bin"
    code, out, _ = run_cli(
        capsys, "commit", str(bits_path), "--out", str(commit_path), "--seed", "3"
    )
    assert code == 0
    assert json.loads(out)["blocks"] == 2
    recovered_path = tmp_path / "recovered.bits"
    code, out, _ = run_cli(
        capsys,
        "open",
        str(bits_path),
        "--commitments",
        str(commit_path),
        "--out",
        str(recovered_path),
    )
    assert code == 0
    res = json.loads(out)
    assert res["ok"] is True
    assert res["recovered_bits"] == 120


def test_commit_unsupported_symbol_size_exit_2_before_reading(tmp_path, capsys, monkeypatch):
    from phykey import traceio

    def read_bitstream(path):
        raise AssertionError(f"read {path}")

    monkeypatch.setattr(traceio, "read_bitstream", read_bitstream)
    bits_path = tmp_path / "alice.bits"
    bits_path.write_bytes(b"\xff")
    code, _, err = run_cli(
        capsys, "commit", str(bits_path), "--out", str(tmp_path / "c.bin"), "--seed", "1",
        "--symbol-bits", "13",
    )
    assert code == 2
    assert "got m=13" in err
    assert not (tmp_path / "c.bin").exists()


def test_commit_shorter_than_one_block_exit_2(tmp_path, capsys):
    from phykey.quantize import Bitstream
    from phykey.traceio import write_bitstream

    bits_path = tmp_path / "short.bits"
    write_bitstream(bits_path, Bitstream(bits=np.ones(30, np.uint8), source_rounds=np.arange(30)))
    code, out, err = run_cli(
        capsys, "commit", str(bits_path), "--out", str(tmp_path / "c.bin"), "--seed", "1"
    )
    assert (code, out) == (2, "")
    assert f"{bits_path}: holds 30 bits, fewer than one block of 60 bits" in err
    assert not (tmp_path / "c.bin").exists()


def test_open_shorter_than_its_commitments_exit_2(tmp_path, capsys, monkeypatch):
    from phykey import fuzzy
    from phykey.quantize import Bitstream
    from phykey.traceio import write_bitstream

    bits = np.ones(130, np.uint8)
    write_bitstream(tmp_path / "long.bits", Bitstream(bits=bits, source_rounds=np.arange(130)))
    run_cli(capsys, "commit", str(tmp_path / "long.bits"), "--out", str(tmp_path / "c.bin"),
            "--seed", "1")
    short = tmp_path / "short.bits"
    write_bitstream(short, Bitstream(bits=bits[:100], source_rounds=np.arange(100)))

    def open_stream(*args):
        raise AssertionError("opened a short stream")

    monkeypatch.setattr(fuzzy, "open_stream", open_stream)
    for strict in ((), ("--strict",)):
        code, out, err = run_cli(capsys, "open", str(short), "--commitments",
                                 str(tmp_path / "c.bin"), *strict)
        assert (code, out) == (2, "")
        assert err == (f"validation error: {short}: holds 100 bits, fewer than the 120 bits "
                       f"of the 2 blocks in {tmp_path / 'c.bin'}\n")


def test_open_strict_failure_counts_blocks_on_one_stderr_line(tmp_path, capsys):
    # the attacked capture of the CI paper flow: most blocks fail to open
    cfg = config_from_mapping({"seed": 3, "rounds": 5000, "attack": {"enabled": True, "d": 3.0}})
    pipeline.run_experiment(cfg, out_dir=tmp_path / "run")
    run_cli(capsys, "commit", str(tmp_path / "run" / "alice.bits"), "--out",
            str(tmp_path / "c.bin"), "--seed", "3")
    code, out, err = run_cli(capsys, "open", str(tmp_path / "run" / "bob.bits"),
                             "--commitments", str(tmp_path / "c.bin"), "--strict")
    assert code == 3
    reason = json.loads(out)["reason"]
    failed = reason.count("block ")
    assert failed > 1 and reason.startswith("block ")
    assert err.count("\n") == 1 and not re.search(r"block \d+:", err)
    assert err.startswith(f"runtime failure: reconciliation failed: {failed} of ")


def test_open_strict_failure_exit_3(tmp_path, capsys, rng):
    bits = rng.integers(0, 2, size=60).astype(np.uint8)
    from phykey.quantize import Bitstream
    from phykey.traceio import write_bitstream

    write_bitstream(tmp_path / "a.bits", Bitstream(bits=bits, source_rounds=np.arange(60)))
    run_cli(capsys, "commit", str(tmp_path / "a.bits"), "--out", str(tmp_path / "c.bin"),
            "--seed", "3")
    corrupted = bits.copy()
    corrupted[::4] ^= 1  # spread corruption beyond t symbols
    write_bitstream(tmp_path / "b.bits", Bitstream(bits=corrupted, source_rounds=np.arange(60)))
    code, out, _ = run_cli(
        capsys, "open", str(tmp_path / "b.bits"), "--commitments", str(tmp_path / "c.bin"),
        "--strict",
    )
    assert code == 3


def test_simulate_strict_reconciliation_failure_exit_3(tmp_path, capsys):
    # heavy non-reciprocal noise on a static channel drives the mismatch
    # far beyond the code's correction radius
    cfg = write_cfg(
        tmp_path,
        "seed: 9\nscheme: OAKG\nrounds: 20000\nnoise_sigma_db: 1.5\n"
        "attack: {enabled: false}\n"
        "reconciliation: {symbol_bits: 4, n: 15, k: 11}\n",
    )
    code, out, err = run_cli(capsys, "simulate", "--config", cfg, "--strict")
    assert code == 3
    reports_code, out2, _ = run_cli(capsys, "simulate", "--config", cfg)
    assert reports_code == 0  # without --strict the failure is only reported
    assert json.loads(out2)[0]["reconciliation_ok"] is False


def test_randomness_subcommand(tmp_path, capsys, rng):
    from phykey.quantize import Bitstream
    from phykey.traceio import write_bitstream

    bits = rng.integers(0, 2, size=4000).astype(np.uint8)
    write_bitstream(tmp_path / "k.bits", Bitstream(bits=bits, source_rounds=np.arange(4000)))
    code, out, _ = run_cli(capsys, "randomness", str(tmp_path / "k.bits"))
    assert code == 0
    res = json.loads(out)
    assert set(res) == {"monobit", "block_frequency", "runs", "approximate_entropy"}
    assert all(r["p_value"] is not None for r in res.values())


def test_gen_profile_emits_loadable_csv(tmp_path, capsys):
    out_path = tmp_path / "beam.csv"
    code, out, _ = run_cli(
        capsys, "gen-profile", "--out", str(out_path), "--modes", "24",
        "--front-to-back-db", "12",
    )
    assert code == 0
    from phykey.traceio import load_antenna_profile

    profile = load_antenna_profile(out_path)
    assert profile.mode_count == 24


@pytest.mark.parametrize("route", ["gen-profile", "config"])
def test_infinite_front_to_back_is_rejected_without_a_warning(tmp_path, capsys, route):
    # the option reaches the synthesizer's check; the config is refused at load
    if route == "gen-profile":
        argv = ["gen-profile", "--out", str(tmp_path / "p.csv"), "--front-to-back-db", "inf"]
        want = "front_to_back_db must be finite and >= 0"
    else:
        cfg = write_cfg(tmp_path, BASE_CFG + "antenna: {synthesis: {front_to_back_db: 1e400}}\n")
        argv = ["simulate", "--config", cfg]
        want = "antenna.synthesis.front_to_back_db: expected a finite number"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, _, err = run_cli(capsys, *argv)
    assert code == 2
    assert want in err


def test_replay_header_mismatch_exit_2(tmp_path, capsys):
    cfg = write_cfg(tmp_path, BASE_CFG)
    bad = tmp_path / "bad.csv"
    bad.write_text("round,x_a,x_b\n0,1,2\n")
    code, _, err = run_cli(capsys, "replay", str(bad), "--config", cfg)
    assert code == 2
    assert "rss_ma" in err
