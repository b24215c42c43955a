"""Golden digests: pinned sha256 of every artifact a run writes.

A refactor is behaviour-preserving only if these stay unchanged. A
change that alters an artifact on purpose re-pins the digest here and
says why in CHANGES.md. To print the current digests, run
`PYTHONPATH=src python tests/test_golden.py`.
"""
import hashlib
import json

import pytest

from phykey import pipeline
from phykey.antenna import AntennaProfile
from phykey.cli import main
from phykey.config import config_from_mapping
from phykey.traceio import save_antenna_profile

ARTIFACTS = ("report.json", "trace.csv", "alice.bits", "alice.bits.rounds",
             "bob.bits", "commitments.bin")

CONFIGS = {
    "rakg_attacked": {"seed": 5, "rounds": 20_000},
    "rakg_repeat": {"seed": 6, "rounds": 20_000, "attack": {"repeat_injection": True}},
    "rakg_clean": {"seed": 7, "rounds": 20_000, "attack": {"enabled": False}},
    "rakg_noisy": {"seed": 8, "rounds": 20_000, "noise_sigma_db": 2.0},
    "oakg_attacked": {"seed": 9, "scheme": "OAKG", "rounds": 20_000},
}

GOLDEN = {
    "oakg_attacked": {
        "report.json": "e0faa62e384570fc53d2598dd21d2bdbc69e30a63462a2d7873a83c9bf60bb1f",
        "trace.csv": "9798dc02cc4a160b03f893716fac8c7b887a4e108e2f40f3fbc7971d3dc1e63b",
        "alice.bits": "48554ce7b5b2e6e044ef679ad3823777df562d908b341350a5a2a4b3c9cccd09",
        "alice.bits.rounds": "1e2e67927a27566a1d96b84ff9cc584c22fa1ec7251434f0c7404ccf3773cff3",
        "bob.bits": "48554ce7b5b2e6e044ef679ad3823777df562d908b341350a5a2a4b3c9cccd09",
        "commitments.bin": "fe646df9c9d4b885f373e4310d8b9e778ef10df612d53bcf4970d64d58a0f67b"
    },
    "rakg_attacked": {
        "report.json": "8563e11a09c7d436a404fa2711a83eb8d8f5ae43f9c450daede98190f496eb81",
        "trace.csv": "387317bd82af50a1fbe46a4597264bc7412c6797950c9d2354f30913c9c9f0a4",
        "alice.bits": "95b29eea53dee0da61ea1fe88b1042a3612c0a9b770346316a20abbab09a350c",
        "alice.bits.rounds": "9e7739c16323301eb9509595175209230a8837cec36e34a2b807a8d833fc2aae",
        "bob.bits": "26cca58043567553020d54d543f6bbb0a9d948f72037451bd84ea4e7af452297",
        "commitments.bin": "cbe8b0c84ed460028b763372b2bc94c5bdfe5d3a807d28879f1e7a8e0552269a"
    },
    "rakg_clean": {
        "report.json": "0b10357bb9a90f30e273ce7b69f217844df64301d0fc92267292fbb37f0c8f45",
        "trace.csv": "1fda46ebb6c170abbf6a90f743168ec76ce25bbb0846606b6efbb85db0065a13",
        "alice.bits": "7a2f87814de7c94a97f8573be0b459deaa3685de440b4f569eff16be69768712",
        "alice.bits.rounds": "1b12e8bc5d7616ef4eb0db9819da1eeae3e05480c1fc7abd32096e7d17f2bbed",
        "bob.bits": "7a2f87814de7c94a97f8573be0b459deaa3685de440b4f569eff16be69768712",
        "commitments.bin": "bb4e131dbd72f8b78e667b7384a5abfde66d2edb96a48e3cca566fa775fc5cc3"
    },
    "rakg_noisy": {
        "report.json": "72803b41054a389c6b68475a811842c3f90b58aabf9b726518c8edaad49f44e4",
        "trace.csv": "997cd7eb9a4be435bd89325841d95cdeaeba7bbcf6134d06f86a9cc180192634",
        "alice.bits": "e5a61d8f339d07f67619536ef3c4776189e6ebaea84c0d24aa207070ba8baf42",
        "alice.bits.rounds": "f3bceb1b9d82e6570f8ab80c0b07cb5aa9bce3c57934cdbc5038eccf7e794a19",
        "bob.bits": "9d36b48a261848d9a76f534d7bc1986ebb8bb81a1e8b1baff481f863278b4d4c",
        "commitments.bin": "f051678395d63a091aaa8acd197480b542bfe07348d28ef2d6229124557fb807"
    },
    "rakg_repeat": {
        "report.json": "db974d1fe3aadca3e0ef0f907daecc9b6d65037c65877089a831f5a4f072693e",
        "trace.csv": "c86d375406388ae45adb795c949b9ccb07271be7c9961d9baa3fe473e3a6c5fe",
        "alice.bits": "9f88297e3c97458c96b36cd0a5a7f84e725b19834725d6009e7d33eeac585a4f",
        "alice.bits.rounds": "95887253fc93975c362ab9b7f77c717bf1538b1989785e83f8e019d06d504950",
        "bob.bits": "e0eb82094fda4d0e15fffedc18cea44e2a297e64fe3394925479d52f70e136ee",
        "commitments.bin": "3aa5f7674aac634602965ea3d68a07c1247dc1545a133e46a94ab9ecc76d9dd8"
    }
}

# every file `replay --out-dir` writes; it writes no commitment blob
REPLAY_ARTIFACTS = ("report.json", "trace.csv", "alice.bits", "alice.bits.rounds",
                    "bob.bits", "bob.bits.rounds")

REPLAY_GOLDEN = {
    "report.json": "ca682e8bd516357baf06a18fbaf646923996c9604fd603407478075e12a70b65",
    "trace.csv": "ece5b520537f62b2a9efa390ed58b4f42b6781a4e01bf964d6166dadb3907987",
    "alice.bits": "1a908e6d6dca10f3270041e060d5a7b7d19d62b45a85862d046406175555a814",
    "alice.bits.rounds": "72e6b50100927ecf2c0081ed957da198ee393e8ec64a9dbcf314639c09879947",
    "bob.bits": "3169f870758da5041d37e6bc266d445dc9ab010fca9d1a715daad1437dca6628",
    "bob.bits.rounds": "72e6b50100927ecf2c0081ed957da198ee393e8ec64a9dbcf314639c09879947",
}

# sha256 of analyze_config(...).to_dict() (p0/p1, rates, p_key, pmf)
ANALYSIS_GOLDEN = {
    "oakg_attacked_seed5": "b82819064d76b3bc4f2e069daff13d55ff60c9c4dea2ccadf0b722806fa3410a",
    "rakg_attacked": "3854e8878c65b7e89dd608daa2c639d4996122024ea9ca258636c8cd8e88e57f",
    "zero_gain_mode": "8ced23e67e181ceaf958b89341a7ee278b8f9ae8b5e9ffd4144cf50b56c1721c",
}


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run_digests(name, out_dir) -> dict:
    pipeline.run_experiment(config_from_mapping(CONFIGS[name]), out_dir)
    return {a: _sha256(out_dir / a) for a in ARTIFACTS}


def replay_digests(tmp_dir) -> dict:
    """Every file `replay` writes when it applies the attack offline to the
    clean capture; asserts it writes no other."""
    run_digests("rakg_clean", tmp_dir / "clean")
    cfg_path = tmp_dir / "attack.yaml"
    cfg_path.write_text(json.dumps(dict(CONFIGS["rakg_clean"], attack={"enabled": True})))
    out = tmp_dir / "replay"
    code = main(["replay", str(tmp_dir / "clean" / "trace.csv"), "--config", str(cfg_path),
                 "--out-dir", str(out)])
    assert code == 0
    assert sorted(p.name for p in out.iterdir()) == sorted(REPLAY_ARTIFACTS)
    return {a: _sha256(out / a) for a in REPLAY_ARTIFACTS}


def _zero_gain_profile(path):
    """Three modes on a coarse table; mode 1 has zero gain over [20, 70]
    degrees, so on every M-A path of the default geometry (bearings 60,
    49.1 and 35.7) while it still reaches Bob's LoS at 0 degrees."""
    profile = AntennaProfile(
        modes=(0, 1, 2),
        angles_deg=[0.0, 20.0, 30.0, 70.0, 180.0, 270.0],
        gains=[[1.0, 0.8, 0.6, 0.4, 0.3, 0.9],
               [1.0, 0.0, 0.0, 0.0, 0.5, 0.7],
               [0.3, 0.6, 1.0, 0.7, 0.2, 0.1]],
    )
    save_antenna_profile(profile, path)
    return path


def analysis_digest(name, tmp_dir) -> str:
    """analyze_config of a session's thresholds and counts, or of a
    calibration session for the hand-built profile with a dead mode."""
    if name == "zero_gain_mode":
        csv = _zero_gain_profile(tmp_dir / "profile.csv")
        cfg = config_from_mapping({"seed": 10, "rounds": 5_000,
                                   "antenna": {"profile_csv": str(csv)}})
        with pytest.warns(UserWarning, match="excluding 1 degenerate mode"):
            result = pipeline.analyze_config(cfg, counts=(400, 40, 18))
        assert result.excluded_modes == 1
    else:
        mapping = dict(CONFIGS["rakg_attacked"])
        if name == "oakg_attacked_seed5":
            mapping["scheme"] = "OAKG"
        cfg = config_from_mapping(mapping)
        report, _, _ = pipeline.run_experiment(cfg)
        q_minus, q_plus = report.thresholds_alice
        result = pipeline.analyze_config(
            cfg, q_minus=q_minus, q_plus=q_plus, counts=(report.ell, report.n, report.n0)
        )
    assert result.pmf is not None
    blob = json.dumps(result.to_dict(), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def test_attacked_report_lists_attack_rounds():
    report, _, _ = pipeline.run_experiment(config_from_mapping(CONFIGS["rakg_attacked"]))
    assert 0 < report.attacked_total <= 10_000
    assert len(report.attack_rounds) == report.attacked_total


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_artifact_digests(name, tmp_path):
    assert run_digests(name, tmp_path) == GOLDEN[name]


def test_offline_replay_artifact_digests(tmp_path, capsys):
    assert replay_digests(tmp_path) == REPLAY_GOLDEN


@pytest.mark.parametrize("name", sorted(ANALYSIS_GOLDEN))
def test_analysis_digests(name, tmp_path):
    assert analysis_digest(name, tmp_path) == ANALYSIS_GOLDEN[name]


if __name__ == "__main__":
    import contextlib
    import io
    import tempfile
    from pathlib import Path

    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        digests = {name: run_digests(name, tmp / name) for name in sorted(CONFIGS)}
        with contextlib.redirect_stdout(io.StringIO()):
            replay = replay_digests(tmp / "replay")
        analyses = {}
        for name in ("oakg_attacked_seed5", "rakg_attacked", "zero_gain_mode"):
            (tmp / "analysis" / name).mkdir(parents=True)
            analyses[name] = analysis_digest(name, tmp / "analysis" / name)
        print("GOLDEN =", json.dumps(digests, indent=4))
        print("REPLAY_GOLDEN =", json.dumps(replay, indent=4))
        print("ANALYSIS_GOLDEN =", json.dumps(analyses, indent=4))
