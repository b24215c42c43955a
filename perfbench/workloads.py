"""The benchmark's three workloads: generated configs, one timed operation
each, and the checks the benchmark applies to every operation's outputs.

Every check recomputes its expectation from data the benchmark holds
(trace columns, bitstreams, file contents, the closed-form formulas), so
a wrong program output is counted as a failure rather than trusted.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import shutil
from pathlib import Path

import numpy as np

from phykey import cli, pipeline
from phykey.config import parse_config

# Sizes of one operation. TINY is for the smoke test only.
FULL = {
    "rounds": 250_000,
    "replay_rounds": 100_000,
    "warmup_rounds": 20_000,
    "setup_repeats": 2,
    "min_ops": 2,
}
TINY = {
    "rounds": 12_000,
    "replay_rounds": 12_000,
    "warmup_rounds": 6_000,
    "setup_repeats": 1,
    "min_ops": 1,
}

TOL = 1e-9
# Operation index of the warm-up; measured operations count up from 0.
WARMUP_OP = 2**32 - 1


def derive_seed(seed: int, index: int) -> int:
    """Session seed of operation `index` in a run with workload seed `seed`."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def session_config(seed, rounds, *, attack, noise_sigma_db=0.0):
    """A RAKG session with the default geometry and 360-mode beam."""
    return {
        "seed": seed,
        "scheme": "RAKG",
        "rounds": rounds,
        "coherence_block_rounds": 10,
        "noise_sigma_db": noise_sigma_db,
        "antenna": {"synthesis": {"mode_count": 360}},
        "attack": {"enabled": attack, "d": 3.0},
    }


def digest_of(obj) -> str:
    """sha256 of a JSON form of obj with floats kept to 10 significant digits,
    so a reordered float sum does not change it but a changed statistic does."""

    def canonical(v):
        if isinstance(v, np.generic):
            v = v.item()
        if isinstance(v, float):
            return format(v, ".10g")
        if isinstance(v, dict):
            return {str(k): canonical(x) for k, x in v.items()}
        if isinstance(v, (list, tuple)):
            return [canonical(x) for x in v]
        return v

    text = json.dumps(canonical(obj), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def _close(a, b) -> bool:
    return a is not None and math.isclose(a, b, rel_tol=TOL, abs_tol=TOL)


def _thresholds(x, beta):
    x = np.asarray(x, dtype=float)
    x = x[np.isfinite(x)]
    mu, sd = float(np.mean(x)), float(np.std(x))
    return mu - beta * sd, mu + beta * sd


def block_symbol_errors(a_bits, b_bits, rs, blocks=None) -> np.ndarray:
    """Differing m-bit symbols per n-symbol block of two bitstreams."""
    if blocks is None:
        blocks = min(len(a_bits), len(b_bits)) // rs.block_bits
    span = blocks * rs.block_bits
    a = np.asarray(a_bits[:span], dtype=np.uint8).reshape(blocks, rs.n, rs.m)
    b = np.asarray(b_bits[:span], dtype=np.uint8).reshape(blocks, rs.n, rs.m)
    return np.count_nonzero(np.any(a != b, axis=2), axis=1)


def check_reconciliation(reconciled, verified, a_bits, b_bits, rs) -> list[str]:
    """Both flags are true exactly when every block differs in <= t symbols."""
    errors = block_symbol_errors(a_bits, b_bits, rs)
    expected = bool(np.all(errors <= rs.t)) if errors.size else None
    if reconciled == expected and verified == expected:
        return []
    worst = int(errors.max()) if errors.size else 0
    return [
        f"reconciliation_ok={reconciled} verification_ok={verified}, expected "
        f"{expected} (worst block has {worst} symbol errors, t={rs.t})"
    ]


def _beats_random(n0, n1, p0, p1) -> bool:
    """log2 p_key > -ell, i.e. n0*log2(2*p0) + n1*log2(2*p1) > 0."""
    total = 0.0
    for count, p in ((n0, p0), (n1, p1)):
        if count:
            total += -math.inf if p == 0.0 else count * math.log2(2.0 * p)
    return total > 0.0


def check_analysis(result, ell, n, n0) -> list[str]:
    """p0/p1 in [0, 1], E[KRE] their n0-weighted mean, both routes agree."""
    p0, p1 = result.p0, result.p1
    if not (0.0 <= p0 <= 1.0 and 0.0 <= p1 <= 1.0):
        return [f"p0={p0} p1={p1} outside [0, 1]"]
    problems = []
    correct = n0 * p0 + (n - n0) * p1
    if n > 0:
        lo, hi = min(p0, p1), max(p0, p1)
        if not _close(result.e_kre, correct / n):
            problems.append(f"e_kre={result.e_kre}, expected {correct / n}")
        elif not lo - TOL <= result.e_kre <= hi + TOL:
            problems.append(f"e_kre={result.e_kre} outside [{lo}, {hi}]")
    if not _close(result.e_krr, correct / ell):
        problems.append(f"e_krr={result.e_krr}, expected {correct / ell}")
    kg = result.key_guess
    own = _beats_random(n0, n - n0, p0, p1)
    if not kg.beats_random == kg.beats_random_logratio == own:
        problems.append(
            f"beats_random={kg.beats_random} logratio={kg.beats_random_logratio}, "
            f"expected {own}"
        )
    return problems


class Workload:
    """Configs generated from the workload seed, the timed operation, its checks.

    Operations are numbered from 0, and operation i gets its own session
    seed. `run` is the timed part and calls only phykey's public API or CLI.
    """

    name = ""

    def __init__(self, sizes: dict, workdir: Path, seed: int):
        self.sizes = sizes
        self.workdir = workdir
        self.seed = seed
        workdir.mkdir(parents=True, exist_ok=True)
        self.config_paths = self._write(self.configs(warmup=False), "")
        self.warmup_paths = self._write(self.configs(warmup=True), "warmup-")
        self.cfg = {k: parse_config(p) for k, p in self.config_paths.items()}
        self.warmup_cfg = {k: parse_config(p) for k, p in self.warmup_paths.items()}

    def _write(self, configs: dict, prefix: str) -> dict:
        paths = {}
        for key, mapping in configs.items():
            path = self.workdir / f"{prefix}{key}.yaml"
            path.write_text(json.dumps(mapping, indent=1) + "\n")  # JSON is YAML
            paths[key] = path
        return paths

    @property
    def rounds(self) -> int:
        """Simulated probing rounds of one operation."""
        return next(iter(self.cfg.values())).rounds

    def op_seed(self, index: int) -> int:
        return derive_seed(self.seed, index)

    def warm_up(self) -> None:
        """One small operation, so lazy imports and codec caches are filled."""
        self.discard(self.run(WARMUP_OP, warmup=True))

    def session_rounds(self, warmup: bool) -> int:
        return self.sizes["warmup_rounds" if warmup else "rounds"]

    def configs(self, warmup: bool) -> dict:
        raise NotImplementedError

    def run(self, index: int, warmup: bool = False):
        raise NotImplementedError

    def check(self, out) -> list[str]:
        """Problems found in an operation's outputs; empty when it is correct."""
        raise NotImplementedError

    def digest(self, out) -> str:
        raise NotImplementedError

    def discard(self, out) -> None:
        """Delete files an operation wrote."""


class Attack(Workload):
    """A RAKG session under attack, then analyze with its thresholds and counts."""

    name = "attack"

    def configs(self, warmup):
        return {"attack": session_config(self.seed, self.session_rounds(warmup), attack=True)}

    def run(self, index, warmup=False):
        cfg = (self.warmup_cfg if warmup else self.cfg)["attack"]
        cfg = cfg.model_copy(update={"seed": self.op_seed(index)})
        report, trace, protocol = pipeline.run_experiment(cfg)
        q_minus, q_plus = report.thresholds_alice
        result = pipeline.analyze_config(
            cfg, q_minus=q_minus, q_plus=q_plus, counts=(report.ell, report.n, report.n0)
        )
        return cfg, report, trace, protocol, result

    def check(self, out):
        cfg, report, trace, protocol, result = out
        problems = []
        injected = np.asarray(trace.injected, dtype=bool)
        attacked = int(np.count_nonzero(injected))
        keyed = int(np.count_nonzero(np.isin(protocol.s_a.source_rounds, np.flatnonzero(injected))))
        if injected[0] or report.attacked_total != attacked or report.n != keyed:
            problems.append(
                f"attacked_total={report.attacked_total} n={report.n}, trace has "
                f"{attacked} injected rounds ({keyed} keyed), round 0 injected={injected[0]}"
            )
        if not (0 <= report.m <= report.n <= report.attacked_total and 0 <= report.n0 <= report.n):
            problems.append(f"counts out of order: m={report.m} n0={report.n0} n={report.n}")
        if report.n == 0 or not (_close(report.kre, report.m / report.n) and 0 <= report.kre <= 1):
            problems.append(f"kre={report.kre} with m={report.m} n={report.n}")
        beta = cfg.beta
        if not all(map(_close, report.thresholds_alice, _thresholds(trace.x_a, beta))):
            problems.append(f"thresholds_alice={report.thresholds_alice} differ from mean -/+ beta*std")
        clean = _thresholds(trace.x_a[~injected], beta)
        attack = protocol.attack
        if not (_close(attack.q_minus, clean[0]) and _close(attack.q_plus, clean[1])):
            problems.append(
                f"attack thresholds ({attack.q_minus}, {attack.q_plus}) differ from "
                f"the non-injected rounds' {clean}"
            )
        if result.counts.get("ell") != report.ell or result.counts.get("n") != report.n:
            problems.append(f"analysis counts {result.counts} differ from the report")
        problems += check_analysis(result, report.ell, report.n, report.n0)
        problems += check_reconciliation(
            report.reconciliation_ok, report.verification_ok,
            protocol.s_a.bits, protocol.s_b.bits, cfg.rs_params(),
        )
        return problems

    def digest(self, out):
        _, report, _, _, result = out
        return digest_of([report.to_dict(), result.to_dict()])


class Reconcile(Workload):
    """A RAKG session with the attack off and 2 dB measurement noise."""

    name = "reconcile"

    def configs(self, warmup):
        rounds = self.session_rounds(warmup)
        return {"reconcile": session_config(self.seed, rounds, attack=False, noise_sigma_db=2.0)}

    def run(self, index, warmup=False):
        cfg = (self.warmup_cfg if warmup else self.cfg)["reconcile"]
        cfg = cfg.model_copy(update={"seed": self.op_seed(index)})
        report, trace, protocol = pipeline.run_experiment(cfg)
        return cfg, report, trace, protocol

    def check(self, out):
        cfg, report, trace, protocol = out
        s_a, s_b = protocol.s_a, protocol.s_b
        problems = []
        if np.any(trace.injected) or report.attacked_total != 0:
            problems.append("rounds were injected with the attack off")
        if not (report.ell == len(s_a) == len(s_b)) or not np.array_equal(
            s_a.source_rounds, s_b.source_rounds
        ):
            problems.append(f"ell={report.ell} but |S_a|={len(s_a)} |S_b|={len(s_b)}")
        problems += check_reconciliation(
            report.reconciliation_ok, report.verification_ok, s_a.bits, s_b.bits, cfg.rs_params()
        )
        return problems

    def digest(self, out):
        return digest_of(out[1].to_dict())


def _read_bits(path: Path) -> tuple[np.ndarray, int]:
    """A packed bitstream and the bit count its .rounds sidecar gives."""
    count = len(Path(f"{path}.rounds").read_text().split())
    packed = np.frombuffer(path.read_bytes(), dtype=np.uint8)
    if packed.size != -(-count // 8):
        raise ValueError(f"{path} holds {packed.size} bytes for {count} sidecar rounds")
    return np.unpackbits(packed)[:count], count


def _scan_trace(path: Path) -> tuple[int, int, int]:
    """(rows, injected rows, injected flag of round 0) of a trace CSV."""
    rows = injected = 0
    first = -1
    with open(path, encoding="utf-8") as fh:
        col = fh.readline().rstrip("\n").split(",").index("injected")
        for line in fh:
            flag = int(line.rstrip("\n").split(",")[col])
            if rows == 0:
                first = flag
            rows += 1
            injected += flag
    return rows, injected, first


class Replay(Workload):
    """`simulate` a clean capture with the CLI, then `replay` it under attack."""

    name = "replay"

    def session_rounds(self, warmup):
        # 100k rounds (a 4.8 MB trace) keep an operation short enough for
        # several to fit in one run
        return self.sizes["warmup_rounds" if warmup else "replay_rounds"]

    def configs(self, warmup):
        rounds = self.session_rounds(warmup)
        return {
            "clean": session_config(self.seed, rounds, attack=False),
            "attack": session_config(self.seed, rounds, attack=True),
        }

    def run(self, index, warmup=False):
        paths = self.warmup_paths if warmup else self.config_paths
        seed = self.op_seed(index)
        out = self.workdir / f"op-{index}"
        codes = []
        with contextlib.redirect_stdout(io.StringIO()):
            codes.append(cli.main([
                "simulate", "--config", str(paths["clean"]), "--seed", str(seed),
                "--out-dir", str(out), "--strict",
            ]))
            codes.append(cli.main([
                "replay", str(out / "trace.csv"), "--config", str(paths["attack"]),
                "--seed", str(seed), "--out-dir", str(out / "replay"),
            ]))
        return out, codes

    def check(self, out):
        directory, codes = out
        if codes != [0, 0]:
            return [f"exit codes {codes}"]
        rs = self.cfg["clean"].rs_params()
        rounds = self.cfg["clean"].rounds
        problems = []
        for sub, attacked in ((directory, False), (directory / "replay", True)):
            report = json.loads((sub / "report.json").read_text())
            rows, injected, first = _scan_trace(sub / "trace.csv")
            if report["n_rounds"] != rounds or rows != rounds:
                problems.append(f"{sub.name}: n_rounds={report['n_rounds']}, {rows} rows, want {rounds}")
            if attacked and (injected < 1 or first != 0 or report["attacked_total"] != injected):
                problems.append(
                    f"replay: {injected} injected rows, round 0 flag {first}, "
                    f"attacked_total={report['attacked_total']}"
                )
            if not attacked and (injected or report["reconciliation_ok"] is not True):
                problems.append(f"simulate: {injected} injected rows, reconciliation_ok={report['reconciliation_ok']}")
            a_bits, a_count = _read_bits(sub / "alice.bits")
            b_bits, b_count = _read_bits(sub / "bob.bits")
            if not a_count == b_count == report["ell"]:
                problems.append(f"{sub.name}: sidecars hold {a_count}/{b_count} bits, ell={report['ell']}")
                continue
            problems += check_reconciliation(
                report["reconciliation_ok"], report["verification_ok"], a_bits, b_bits, rs
            )
        return problems

    def digest(self, out):
        directory = out[0]
        return digest_of([
            json.loads((directory / "report.json").read_text()),
            json.loads((directory / "replay" / "report.json").read_text()),
        ])

    def discard(self, out):
        shutil.rmtree(out[0], ignore_errors=True)


WORKLOADS = {w.name: w for w in (Attack, Reconcile, Replay)}
