"""Outside-in spans around phykey's public functions, for the traced run.

While an operation is traced, each function below is replaced by a
timing wrapper at every phykey module that binds it (`phykey.pipeline`
binds `simulate_session`, `phykey.adversary` binds `thresholds`, the
package root binds many), so every call the program makes is seen and
nothing under src/ changes. Spans stay in memory until the run ends.
Counts are computed afterwards from the arguments and results the
wrappers saw: L_a/L_b sizes, S_a against S_b per RS block, file sizes.
"""
from __future__ import annotations

import importlib
import inspect
import json
import os
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from workloads import block_symbol_errors

# span name -> (module, function). Functions of a group share one metric.
FUNCTIONS = {
    "session.simulate_session": ("phykey.session", "simulate_session"),
    "session.build_links": ("phykey.session", "build_links"),
    "antenna.calibrate_tx_power": ("phykey.antenna", "calibrate_tx_power"),
    "antenna.synthesize_rotated_beam": ("phykey.antenna", "synthesize_rotated_beam"),
    "adversary.apply_attack": ("phykey.adversary", "apply_attack"),
    "adversary.account_attacks": ("phykey.adversary", "account_attacks"),
    "fuzzy.commit_stream": ("phykey.fuzzy", "commit_stream"),
    "fuzzy.open_stream": ("phykey.fuzzy", "open_stream"),
    "traceio.export_trace_csv": ("phykey.traceio", "export_trace_csv"),
    "traceio.ingest_trace": ("phykey.traceio", "ingest_trace"),
    "traceio.write_bitstream": ("phykey.traceio", "write_bitstream"),
    "analysis.closed_form_p0_p1": ("phykey.analysis", "closed_form_p0_p1"),
    "analysis.guess_count_pmf": ("phykey.analysis", "guess_count_pmf"),
    "analysis.key_guess_probability": ("phykey.analysis", "key_guess_probability"),
    "metrics.randomness_tests": ("phykey.metrics", "randomness_tests"),
    "metrics.approximate_entropy": ("phykey.metrics", "approximate_entropy"),
    "quantize.thresholds": ("phykey.quantize", "thresholds"),
    "quantize.find_excursions": ("phykey.quantize", "find_excursions"),
    "quantize.confirm_excursions": ("phykey.quantize", "confirm_excursions"),
    "quantize.quantize": ("phykey.quantize", "quantize"),
    "pipeline.run_experiment": ("phykey.pipeline", "run_experiment"),
    "pipeline.replay_trace": ("phykey.pipeline", "replay_trace"),
    "pipeline.analyze_config": ("phykey.pipeline", "analyze_config"),
    "cli.main": ("phykey.cli", "main"),
}
GROUPS = ("quantize", "pipeline", "cli")
MIB = 1 << 20


def group_of(name: str) -> str:
    layer = name.split(".")[0]
    return layer if layer in GROUPS else name


class Tracer:
    """Spans [name, start, end, parent index, op id] and counts of traced ops."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._calls: list[tuple] = []
        self._op = None

    def _wrap(self, name, fn):
        signature = inspect.signature(fn)

        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            span = [name, 0.0, 0.0, parent, self._op]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            self._calls.append((name, signature.bind(*args, **kwargs).arguments, result, span))
            return result

        return traced

    @contextmanager
    def tracing(self, op: int):
        """Wrap every binding of FUNCTIONS for the duration of one operation."""
        wrappers = {}
        for name, (module, attr) in FUNCTIONS.items():
            fn = getattr(importlib.import_module(module), attr)
            wrappers[id(fn)] = (fn, self._wrap(name, fn))
        patched = [
            (module, attr, value)
            for key, module in list(sys.modules.items())
            if key == "phykey" or key.startswith("phykey.")
            for attr, value in vars(module).items()
            if id(value) in wrappers and wrappers[id(value)][0] is value
        ]
        self._op = op
        for module, attr, value in patched:
            setattr(module, attr, wrappers[id(value)][1])
        try:
            yield
            self._count(self._calls)
        finally:
            for module, attr, value in patched:
                setattr(module, attr, value)
            self._op = None
            self._calls = []

    def _count(self, calls) -> None:
        c = self.counts
        committed = None
        for name, args, result, span in calls:
            seconds = span[2] - span[1]
            if name == "adversary.apply_attack":
                c["adversary.injected"] += int(np.count_nonzero(result[2]))
            elif name == "adversary.account_attacks":
                c["adversary.attacked_total"] += result.attacked_total
                c["adversary.n"] += result.n
                c["adversary.m"] += result.m
            elif name == "fuzzy.commit_stream":
                committed = args["s_a"]
                c["fuzzy.blocks"] += len(result[0])
                c["commit_s"] += seconds
            elif name == "fuzzy.open_stream" and committed is not None:
                rs = args["params"]
                errors = block_symbol_errors(committed, args["s_b"], rs, len(args["commitments"]))
                failing = np.flatnonzero(errors > rs.t)
                c["fuzzy.blocks_opened"] += int(failing[0]) + 1 if failing.size else errors.size
                c["fuzzy.dirty_blocks"] += int(np.count_nonzero(errors))
                c["fuzzy.symbol_errors"] += int(errors.sum())
                c["checked_blocks"] += errors.size
                c["open_s"] += seconds
            elif name == "traceio.export_trace_csv":
                size = os.path.getsize(args["path"])
                c["traceio.bytes_written"] += size
                c["export_bytes"] += size
                c["export_s"] += seconds
            elif name == "traceio.write_bitstream":
                path = args["path"]
                c["traceio.bytes_written"] += os.path.getsize(path) + os.path.getsize(f"{path}.rounds")
            elif name == "traceio.ingest_trace":
                c["traceio.bytes_read"] += os.path.getsize(args["path"])
                c["ingest_s"] += seconds
            elif name == "analysis.closed_form_p0_p1":
                c["modes"] += args["profile"].mode_count
            elif name == "quantize.find_excursions":
                c["quantize.l_a"] += result.size
            elif name == "quantize.confirm_excursions":
                c["quantize.l_b"] += result.size
            elif name == "quantize.quantize":
                c["quantize.bits"] += len(result)

    def self_times(self) -> tuple[Counter, Counter]:
        """Per metric name: seconds not covered by child spans, and calls."""
        child = defaultdict(float)
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        self_s, calls = Counter(), Counter()
        for i, (name, start, end, _, _) in enumerate(self.spans):
            self_s[group_of(name)] += end - start - child[i]
            calls[group_of(name)] += 1
        return self_s, calls

    def metrics(self, ops: int) -> dict:
        """Per-layer metrics per traced operation, as {name: (value, unit)}."""
        self_s, calls = self.self_times()
        c = self.counts
        out = {}
        for name in dict.fromkeys(map(group_of, FUNCTIONS)):
            out[f"{name}.self_s"] = (self_s[name] / ops, "s")
            out[f"{name}.calls"] = (calls[name] / ops, "count")

        def ratio(num, den):
            return num / den if den else 0.0

        for key in ("adversary.injected", "adversary.attacked_total", "adversary.n", "adversary.m"):
            out[key] = (c[key] / ops, "count")
        out["adversary.useful_ratio"] = (ratio(c["adversary.n"], c["adversary.attacked_total"]), "ratio")
        for key in ("fuzzy.blocks", "fuzzy.dirty_blocks", "fuzzy.symbol_errors", "fuzzy.blocks_opened"):
            out[key] = (c[key] / ops, "count")
        clean = c["checked_blocks"] - c["fuzzy.dirty_blocks"]
        out["fuzzy.clean_block_ratio"] = (ratio(clean, c["checked_blocks"]), "ratio")
        out["fuzzy.commit_blocks_per_s"] = (ratio(c["fuzzy.blocks"], c["commit_s"]), "1/s")
        out["fuzzy.open_blocks_per_s"] = (ratio(c["fuzzy.blocks_opened"], c["open_s"]), "1/s")
        out["traceio.bytes_written"] = (c["traceio.bytes_written"] / ops, "B")
        out["traceio.bytes_read"] = (c["traceio.bytes_read"] / ops, "B")
        out["traceio.export_mib_per_s"] = (ratio(c["export_bytes"] / MIB, c["export_s"]), "MiB/s")
        out["traceio.ingest_mib_per_s"] = (ratio(c["traceio.bytes_read"] / MIB, c["ingest_s"]), "MiB/s")
        out["analysis.modes"] = (ratio(c["modes"], calls["analysis.closed_form_p0_p1"]), "count")
        for key in ("quantize.l_a", "quantize.l_b", "quantize.bits"):
            out[key] = (c[key] / ops, "count")
        out["quantize.confirm_ratio"] = (ratio(c["quantize.l_b"], c["quantize.l_a"]), "ratio")
        return out

    def write(self, path: Path, **header) -> None:
        fields = ("name", "start", "end", "parent", "op")
        spans = [dict(zip(fields, span)) for span in self.spans]
        path.write_text(json.dumps({**header, "spans": spans}) + "\n")
