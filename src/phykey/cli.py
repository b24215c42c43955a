"""Command-line surface: simulate, analyze, replay, commit, open,
randomness, gen-profile.

Exit codes: 0 success, 1 usage, 2 any refused input (every
`PhykeyError` but `RuntimeFailure`), 3 a `--strict` failure
(`RuntimeFailure`) or an I/O error.
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

import click
import numpy as np

from . import fuzzy, metrics, pipeline, traceio
from .antenna import synthesize_rotated_beam
from .config import parse_config
from .errors import ConfigError, ContractError, PhykeyError
from .quantize import Bitstream
from .reed_solomon import RsParams

EXIT_USAGE = 1
EXIT_VALIDATION = 2
EXIT_RUNTIME = 3

_SEED = click.IntRange(min=0)  # the config's `seed` rule, as a usage error (exit 1)


class RuntimeFailure(PhykeyError):
    """A --strict failure: reconciliation or verification did not succeed."""


def _emit(data, fmt: str) -> None:
    if fmt == "json":
        click.echo(json.dumps(data, indent=2, sort_keys=True, default=str))
    else:
        rows = data if isinstance(data, list) else [data]
        keys = sorted({k for row in rows for k in row if not isinstance(row[k], (dict, list))})
        click.echo(",".join(keys))
        for row in rows:
            click.echo(",".join(str(row.get(k, "")) for k in keys))


def _load_config(config_path, seed):
    cfg = parse_config(config_path)
    if seed is not None:
        cfg = cfg.model_copy(update={"seed": int(seed)})
    return cfg


def _summary(report: metrics.SessionReport) -> dict:
    d = report.to_dict()
    d.pop("attack_rounds", None)
    return d


def _report_inputs(path) -> dict:
    """analyze_config's thresholds and counts from one session's report.json;
    a ConfigError naming the path and the problem otherwise."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            rep = json.load(fh)
    except ValueError as exc:  # invalid JSON or undecodable bytes
        raise ConfigError(f"{path}: not a JSON report: {exc}") from None
    if isinstance(rep, list):
        raise ConfigError(f"{path}: holds {len(rep)} sessions; analyze needs one session's report")
    rep = rep if isinstance(rep, dict) else {}
    counts = tuple(rep.get(k) for k in ("ell", "n", "n0"))
    if not all(type(v) is int for v in counts):
        raise ConfigError(f"{path}: not a session report: ell, n and n0 must be integers")
    ell, n, n0 = counts
    if not (ell >= 1 and 0 <= n0 <= n <= ell):
        raise ConfigError(
            f"{path}: counts need ell >= 1 and 0 <= n0 <= n <= ell, got ell={ell}, n={n}, n0={n0}"
        )
    q = rep.get("thresholds_alice")
    if q is not None and not (type(q) is list and len(q) == 2
                              and all(type(v) in (int, float) for v in q)):
        raise ConfigError(f"{path}: thresholds_alice must be a pair of numbers")
    if q is not None:
        try:
            pipeline.check_thresholds(*q)
        except ContractError as exc:
            raise ConfigError(f"{path}: {exc}") from None
    return {"q_minus": q and q[0], "q_plus": q and q[1], "counts": counts}


@click.group()
def cli():
    """Physical-layer key generation simulator and analysis toolkit."""


@cli.command()
@click.option("--config", "config_path", required=True, type=click.Path(exists=True))
@click.option("--seed", type=_SEED, default=None, help="Override the config seed.")
@click.option("--trials", type=click.IntRange(min=1), default=1, show_default=True)
@click.option("--out-dir", type=click.Path(), default=None)
@click.option("--strict", is_flag=True, default=False)
@click.option("--format", "fmt", type=click.Choice(["json", "csv"]), default="json")
def simulate(config_path, seed, trials, out_dir, strict, fmt):
    """Run seeded key-generation sessions with the configured adversary."""
    cfg = _load_config(config_path, seed)
    if trials == 1:
        report, _, _ = pipeline.run_experiment(cfg, out_dir=out_dir)
        reports = [report]
    else:
        reports = pipeline.run_trials(cfg, trials)
        if out_dir is not None:
            out = Path(out_dir)
            out.mkdir(parents=True, exist_ok=True)
            with open(out / "report.json", "w", encoding="utf-8") as fh:
                json.dump([_summary(r) for r in reports], fh, indent=2, sort_keys=True)
                fh.write("\n")
    _emit([_summary(r) for r in reports], fmt)
    if strict and any(
        r.reconciliation_ok is False or r.verification_ok is False for r in reports
    ):
        raise RuntimeFailure("reconciliation or verification failed")


@cli.command()
@click.option("--config", "config_path", required=True, type=click.Path(exists=True))
@click.option("--seed", type=_SEED, default=None)
@click.option("--report", "report_path", type=click.Path(exists=True), default=None,
              help="Pull thresholds and counts from a simulate report.")
@click.option("--format", "fmt", type=click.Choice(["json", "csv"]), default="json")
def analyze(config_path, seed, report_path, fmt):
    """Closed-form p0/p1 and, when counts are available, rates and p_key."""
    cfg = _load_config(config_path, seed)
    inputs = {} if report_path is None else _report_inputs(report_path)
    result = pipeline.analyze_config(cfg, **inputs)
    _emit(result.summary(), fmt)  # no PMF: too bulky for the report; the API's `.pmf` has it


@cli.command()
@click.argument("trace_csv", type=click.Path(exists=True))
@click.option("--config", "config_path", required=True, type=click.Path(exists=True))
@click.option("--seed", type=_SEED, default=None)
@click.option("--out-dir", type=click.Path(), default=None)
@click.option("--strict", is_flag=True, default=False)
@click.option("--format", "fmt", type=click.Choice(["json", "csv"]), default="json")
def replay(trace_csv, config_path, seed, out_dir, strict, fmt):
    """Re-run quantization and attack accounting on a recorded trace.

    With --out-dir, writes the same session files as simulate, less the
    commitment blob."""
    cfg = _load_config(config_path, seed)
    report, trace, protocol = pipeline.replay_trace(traceio.ingest_trace(trace_csv), cfg)
    if out_dir is not None:
        pipeline.write_session_files(out_dir, report, trace, protocol)
    _emit(_summary(report), fmt)
    if strict and (report.reconciliation_ok is False or report.verification_ok is False):
        raise RuntimeFailure("reconciliation or verification failed")


@cli.command()
@click.argument("bitstream", type=click.Path(exists=True))
@click.option("--out", required=True, type=click.Path())
@click.option("--seed", type=_SEED, required=True)
@click.option("--symbol-bits", type=int, default=4, show_default=True)
@click.option("--n", type=int, default=15, show_default=True)
@click.option("--k", type=int, default=11, show_default=True)
def commit(bitstream, out, seed, symbol_bits, n, k):
    """Commit to a bitstream file; emits the commitment blob."""
    params = RsParams(m=symbol_bits, n=n, k=k)
    stream = traceio.read_bitstream(bitstream)
    if stream.bits.size < params.block_bits:
        raise ContractError(f"{bitstream}: holds {stream.bits.size} bits, fewer than one "
                            f"block of {params.block_bits} bits (n * symbol-bits)")
    commitments, covered = fuzzy.commit_stream(
        stream.bits, params, np.random.default_rng(seed)
    )
    traceio.write_commitments(out, commitments, params)
    click.echo(json.dumps({"blocks": len(commitments), "covered_bits": covered, "out": str(out)}))


@cli.command(name="open")
@click.argument("bitstream", type=click.Path(exists=True))
@click.option("--commitments", "commit_path", required=True, type=click.Path(exists=True))
@click.option("--out", type=click.Path(), default=None,
              help="Write the recovered bitstream here on success.")
@click.option("--strict", is_flag=True, default=False)
def open_cmd(bitstream, commit_path, out, strict):
    """Open a commitment with the peer's bitstream."""
    stream = traceio.read_bitstream(bitstream)
    commitments, params = traceio.read_commitments(commit_path)
    need = len(commitments) * params.block_bits
    if stream.bits.size < need:
        raise ContractError(f"{bitstream}: holds {stream.bits.size} bits, fewer than the {need} "
                            f"bits of the {len(commitments)} blocks in {commit_path}")
    recovered = fuzzy.open_stream(stream.bits, commitments, params)
    if isinstance(recovered, fuzzy.ReconcileFailure):
        click.echo(json.dumps({"ok": False, "reason": recovered.reason}))
        if strict:  # stdout's reason names the blocks; stderr only counts them
            raise RuntimeFailure(f"reconciliation failed: {recovered.failed} of "
                                 f"{len(commitments)} blocks did not open")
        return
    if out is not None:
        rounds = np.arange(recovered.size, dtype=np.int64)
        traceio.write_bitstream(out, Bitstream(bits=recovered, source_rounds=rounds))
    key = fuzzy.derive_key(recovered).hex()
    click.echo(json.dumps({"ok": True, "recovered_bits": int(recovered.size), "key_sha256": key}))


@cli.command()
@click.argument("bitstream", type=click.Path(exists=True))
@click.option("--format", "fmt", type=click.Choice(["json", "csv"]), default="json")
def randomness(bitstream, fmt):
    """Run the four-test randomness battery on a bitstream file."""
    stream = traceio.read_bitstream(bitstream)
    results = metrics.randomness_tests(stream.bits)
    if fmt == "json":
        _emit({k: v.to_dict() for k, v in results.items()}, "json")
    else:
        _emit([v.to_dict() for v in results.values()], "csv")


@cli.command(name="gen-profile")
@click.option("--out", required=True, type=click.Path())
@click.option("--modes", type=int, default=360, show_default=True)
@click.option("--front-to-back-db", type=float, default=20.0, show_default=True)
@click.option("--beam-exponent", type=float, default=1.0, show_default=True)
def gen_profile(out, modes, front_to_back_db, beam_exponent):
    """Emit a synthesized rotated-beam profile CSV."""
    profile = synthesize_rotated_beam(
        mode_count=modes,
        front_to_back_db=front_to_back_db,
        beam_exponent=beam_exponent,
    )
    traceio.save_antenna_profile(profile, out)
    click.echo(json.dumps({"modes": modes, "out": str(out)}))


def main(argv=None) -> int:
    try:
        cli.main(args=argv, standalone_mode=False)
        return 0
    except click.ClickException as exc:
        click.echo(f"usage error: {exc.format_message()}", err=True)
        return EXIT_USAGE
    except click.exceptions.Abort:
        return EXIT_USAGE
    except RuntimeFailure as exc:
        click.echo(f"runtime failure: {exc}", err=True)
        return EXIT_RUNTIME
    except PhykeyError as exc:
        click.echo(f"validation error: {exc}", err=True)
        return EXIT_VALIDATION
    except OSError as exc:
        click.echo(f"i/o error: {exc}", err=True)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
