#!/usr/bin/env python3
"""phykey benchmark: one seeded workload per run, untraced or traced.

    python3 perfbench/run.py --workload attack --seed 1 --seconds 22 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 22 --trace 0

Runs from a source checkout (it imports phykey from ./src). One process,
one thread: operations run one after another, each with a session seed
derived from --seed, until --seconds of measuring have passed and at
least `min_ops` operations have run. Every
operation's outputs are checked; the last line of stdout is the JSON
result. --trace 0 reports the end-to-end metrics, --trace 1 the
per-layer ones (see README.md).

Timed metrics are scaled to a reference host speed: between operations
(and in each set-up interpreter once it is set up) the benchmark times a
fixed probe that does not touch phykey, and multiplies every time by
PROBE_REFERENCE_S over the probe's mean. A shared host whose speed
drifts by tens of percent then moves the probe and the program alike,
and the ratio stays put.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
WORKLOAD_NAMES = ("attack", "reconcile", "replay")
# Probe time per unit of operation (or set-up) time, and the probe unit's
# mean on the reference host: a 2-vCPU Intel Xeon VM at 2.1 GHz.
PROBE_SHARE = 0.15
PROBE_REFERENCE_S = 0.05

# Set-up as a user pays it: a fresh interpreter imports the CLI and the
# pipeline and loads the workload's configs. Prints the monotonic clock
# (shared by all processes) when done, then the mean of a few host probe
# units run right after, which scale that interpreter's set-up time.
SETUP_CHILD = """
import sys, time
sys.path.insert(0, sys.argv[1])
import phykey.cli, phykey.pipeline
from phykey.config import parse_config
for path in sys.argv[3:]:
    parse_config(path)
print(time.monotonic())
sys.path.insert(0, sys.argv[2])
from run import HostProbe
probe = HostProbe()
for _ in range(8):
    probe.unit()
print(probe.mean())
"""


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must be >= 0")
    return args


class HostProbe:
    """Times a fixed unit of interpreter and numpy work that does not touch
    phykey; its mean over a run gauges how fast the host ran meanwhile."""

    def __init__(self):
        self.seconds: list[float] = []
        self.busy = 0.0
        self.unit()  # warm-up, not counted
        self.seconds.clear()

    def unit(self) -> None:
        # Interpreter work and many small numpy calls, like the program's
        # inner loops. Large-array numpy work slowed half as much as the
        # operations did in a slow phase, so the probe leaves it out.
        start = time.perf_counter()
        total = 0
        for i in range(200_000):
            total += i * i % 7
        small = np.arange(16.0)
        for _ in range(40_000):
            small = small + 1.0
        self.seconds.append(time.perf_counter() - start)

    def keep_up(self, busy_s: float) -> None:
        """Add `busy_s` of timed work; probe until probing is PROBE_SHARE of it."""
        self.busy += busy_s
        while sum(self.seconds) < PROBE_SHARE * self.busy:
            self.unit()

    def mean(self) -> float:
        return statistics.fmean(self.seconds)

    def scale(self) -> float:
        """Factor taking a time measured on this run's host to the reference host."""
        return PROBE_REFERENCE_S / self.mean()


def measure_setup(config_paths, repeats: int) -> tuple[float, float]:
    """Median seconds from spawning a fresh interpreter until it is set up,
    unscaled and scaled to the reference host."""
    times, scaled = [], []
    for _ in range(repeats):
        start = time.monotonic()
        done = subprocess.run(
            [sys.executable, "-c", SETUP_CHILD, str(SRC), str(Path(__file__).resolve().parent),
             *map(str, config_paths)],
            cwd=ROOT, capture_output=True, text=True, check=True, timeout=120,
        )
        end, probe_s = map(float, done.stdout.split()[-2:])
        times.append(end - start)
        scaled.append(times[-1] * PROBE_REFERENCE_S / probe_s)
    return statistics.median(times), statistics.median(scaled)


class Tally:
    """Operations attempted and failed, times of those that completed, digests."""

    def __init__(self):
        self.attempted = 0
        self.failed: set[int] = set()
        self.seconds: list[float] = []
        self.digests: dict[int, str | None] = {}


def run_op(wl, index: int, tally: Tally, tracer=None) -> float:
    """Run, time and check operation `index`; returns its seconds."""
    tally.attempted += 1
    scope = tracer.tracing(index) if tracer else contextlib.nullcontext()
    out = None
    try:
        with scope:
            start = time.perf_counter()
            out = wl.run(index)
            seconds = time.perf_counter() - start
        problems = wl.check(out)
        tally.digests[index] = wl.digest(out)
    except Exception:
        traceback.print_exc()
        tally.failed.add(index)
        tally.digests[index] = None
        return 0.0
    finally:
        if out is not None:
            wl.discard(out)
    if problems:
        print(f"check failed: {wl.name} op {index}: {'; '.join(problems)}", file=sys.stderr)
        tally.failed.add(index)
    tally.seconds.append(seconds)
    return seconds


def operations(seconds: float, min_ops: int):
    """Operation indices: at least min_ops, until `seconds` pass."""
    start = time.perf_counter()
    index = 0
    while index < min_ops or time.perf_counter() - start < seconds:
        yield index
        index += 1


def measure(wl, seconds: float, min_ops: int) -> tuple[Tally, HostProbe]:
    """Operations back to back, the host probe keeping up between them."""
    tally, probe = Tally(), HostProbe()
    probe.unit()
    for index in operations(seconds, min_ops):
        probe.keep_up(run_op(wl, index, tally))
    return tally, probe


def measure_traced(wl, seconds: float, min_ops: int, tracer) -> tuple[Tally, Tally]:
    """Each operation runs twice, untraced and traced, in alternating order;
    the traced copy gives per-layer metrics, the pair the tracing overhead."""
    plain, traced = Tally(), Tally()
    for index in operations(seconds, min_ops):
        for use_tracer in ((False, True) if index % 2 == 0 else (True, False)):
            run_op(wl, index, traced if use_tracer else plain, tracer if use_tracer else None)
        if traced.digests[index] != plain.digests[index]:
            print(f"traced op {index} output differs from untraced", file=sys.stderr)
            traced.failed.add(index)
    return plain, traced


def outputs_sha256(tally: Tally, ops: int) -> str:
    """Digest over the first `ops` operations, which every run completes."""
    digests = [tally.digests.get(i) or "failed" for i in range(ops)]
    return hashlib.sha256("".join(digests).encode()).hexdigest()


def run_workload(args, sizes) -> dict:
    import workloads

    workdir = OUT / f"work-{args.workload}-{args.seed}-{time.monotonic_ns()}"
    notes = []
    try:
        wl = workloads.WORKLOADS[args.workload](sizes, workdir, args.seed)
        if not args.trace:
            setup_unscaled, setup_s = measure_setup(wl.config_paths.values(), sizes["setup_repeats"])
        wl.warm_up()
        min_ops = sizes["min_ops"]
        if args.trace:
            import tracing

            tracer = tracing.Tracer()
            plain, tally = measure_traced(wl, args.seconds, min_ops, tracer)
            metrics = tracer.metrics(tally.attempted)
            total = sum(plain.seconds)
            overhead = sum(tally.seconds) / total if total else 0.0
            metrics["trace.overhead_ratio"] = (overhead, "ratio")
            attempted = plain.attempted + tally.attempted
            failed = len(plain.failed) + len(tally.failed)
            tracer.write(
                OUT / f"trace-{args.workload}-seed{args.seed}.json",
                workload=args.workload, seed=args.seed,
            )
        else:
            tally, probe = measure(wl, args.seconds, min_ops)
            attempted, failed = tally.attempted, len(tally.failed)
            done, busy = len(tally.seconds), sum(tally.seconds) or float("inf")
            notes = [
                f"unscaled: rounds_per_s {wl.rounds * done / busy:.6g} "
                f"setup_s {setup_unscaled:.6g}",
                f"host probe: mean {probe.mean():.6f} s over "
                f"{len(probe.seconds)} units, scale {probe.scale():.4f}",
            ]
            busy *= probe.scale()
            metrics = {
                "rounds_per_s": (wl.rounds * done / busy, "1/s"),
                "setup_s": (setup_s, "s"),
                "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
            }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    digest_ops = min_ops
    print(
        f"workload={args.workload} seed={args.seed} trace={args.trace} "
        f"attempted={attempted} failed={failed} failed_ratio={failed / attempted:.4f}"
    )
    print(f"outputs_sha256={outputs_sha256(tally, digest_ops)} over operations 0-{digest_ops - 1}")
    times = sorted(tally.seconds)
    if times:
        print(f"operation seconds: min {times[0]:.4f} median {statistics.median(times):.4f} "
              f"max {times[-1]:.4f} over {len(times)}")
    for line in notes:
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {value:14.6g} {unit}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def run_all(args) -> int:
    """Every workload in its own process (peak RSS is per process)."""
    results = {}
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = done.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if done.returncode or not lines:
            print(f"{name}: exited with {done.returncode}", file=sys.stderr)
            return 1
        results[name] = json.loads(lines[-1])
    print(json.dumps(results))
    return 0


def main(argv=None, sizes=None) -> int:
    args = parse_args(argv)
    if not (SRC / "phykey" / "__init__.py").is_file():
        print(f"error: no phykey sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import phykey
    import workloads

    if not Path(phykey.__file__).resolve().is_relative_to(SRC):
        print(f"error: phykey was imported from {phykey.__file__}, not {SRC}", file=sys.stderr)
        return 2
    result = run_workload(args, sizes or workloads.FULL)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
