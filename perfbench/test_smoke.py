"""Smoke test of the benchmark at tiny sizes.

    python3 -m pytest perfbench -q
"""
import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

import run

sys.path.insert(0, str(run.SRC))
import workloads  # noqa: E402  (needs phykey on the path)
from phykey import fuzzy  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def bench(capsys, workload, trace):
    argv = ["--workload", workload, "--seed", "5", "--seconds", "0", "--trace", str(trace)]
    assert run.main(argv, sizes=workloads.TINY) == 0
    lines = capsys.readouterr().out.splitlines()
    return lines, json.loads(lines[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_printed_with_its_unit(capsys, workload):
    digests = []
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        lines, result = bench(capsys, workload, trace)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        want = {m["name"]: m["unit"] for m in SPEC[key]}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        assert got == want
        for name, unit in want.items():
            assert any(line.split()[:1] == [name] and line.endswith(f" {unit}") for line in lines)
        digests += [line for line in lines if line.startswith("outputs_sha256=")]
    assert len(digests) == 2 and digests[0] == digests[1]


def test_flipped_reconciled_bit_is_counted_as_failed(capsys, monkeypatch):
    open_stream = fuzzy.open_stream

    def flipped(*args, **kwargs):
        recovered = open_stream(*args, **kwargs)
        if isinstance(recovered, np.ndarray) and recovered.size:
            recovered = recovered.copy()
            recovered[0] ^= 1
        return recovered

    monkeypatch.setattr(fuzzy, "open_stream", flipped)
    lines, result = bench(capsys, "reconcile", 0)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 1
    assert "failed_ratio=1.0000" in lines[0]


def test_exits_nonzero_without_program_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(run.ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    argv = [sys.executable, "perfbench/run.py", "--workload", "attack", "--seed", "1",
            "--seconds", "1", "--trace", "0"]
    done = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
