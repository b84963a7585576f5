"""Spans around tacloc's public functions, and the per-layer figures from them.

A traced run replaces each public entry point listed in TRACED, in every
tacloc module namespace that holds it, by a wrapper that records a span
(name, parent, op, start, end) and the counts that go with the call. No
program file changes: callers that look a name up at call time reach the
wrapper (the names `tacloc.cli` imported, `register` inside
`register_sequence`, the `*_residuals` calls inside the estimators), and
leaving `installed()` restores every name. Spans stay in memory until the
run ends.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import os
import resource
import time
from collections import Counter

LAYERS = ("cli", "io", "simulate", "registration", "estimators")
OP_SPAN = "bench.op"  # root span the runner opens around each op

IO_READS = ("read_scenario", "read_marker_log", "read_motion_sequence", "read_truth",
            "read_report", "sha256_of_file")
IO_WRITES = ("write_scenario", "write_marker_log", "write_motion_sequence", "write_truth",
             "write_report")
RESIDUALS = ("fixed_point_residuals", "fixed_direction_residuals", "line_contact_residuals")
ESTIMATES = ("estimate_fixed_point", "estimate_fixed_direction", "estimate_line_contact")

# Defining module -> {public function: span name}.
TRACED = {
    "cli": {"main": "cli.main"},
    "io": {name: f"io.{name}" for name in IO_READS + IO_WRITES},
    "simulate": {"generate": "simulate.generate"},
    "registration": {"register": "registration.register",
                     "register_sequence": "registration.register_sequence"},
    "estimators": {**{name: f"estimators.{name}" for name in ESTIMATES},
                   **{name: "estimators.residuals" for name in RESIDUALS}},
}
NAMESPACES = ("tacloc", *(f"tacloc.{layer}" for layer in LAYERS))
# Counts the wrappers record beyond span calls.
COUNTS = ("io.bytes_written", "io.bytes_read", "simulate.frames_generated",
          "registration.frames_registered", "estimators.frames_used")

# name -> unit of every per-layer metric. All are per op except the shares,
# which are of the traced op wall time, and maxrss_growth_mb, which is the
# growth of the process's peak RSS over the traced phase while a span of that
# layer was the innermost open one.
PER_LAYER = {
    "cli.main.calls": "count",
    "cli.main.self_ms": "ms",
    **{f"io.{name}.self_ms": "ms" for name in
       ("write_marker_log", "read_marker_log", "read_scenario", "write_truth", "read_truth",
        "write_motion_sequence", "write_report", "read_report", "sha256_of_file")},
    "io.read_marker_log.calls": "count",
    "io.bytes_written": "bytes",
    "io.bytes_read": "bytes",
    "simulate.generate.self_ms": "ms",
    "simulate.frames_generated": "count",
    "registration.register.calls": "count",
    "registration.register.self_ms": "ms",
    "registration.register_sequence.self_ms": "ms",
    "registration.frames_registered": "count",
    "registration.frames_per_estimate": "ratio",
    **{f"estimators.{name}.self_ms": "ms" for name in ESTIMATES},
    "estimators.residuals.self_ms": "ms",
    "estimators.residuals.calls": "count",
    "estimators.frames_used": "count",
    **{f"{layer}.self_share": "ratio" for layer in LAYERS},
    **{f"{layer}.maxrss_growth_mb": "MB" for layer in LAYERS},
    "op.traced_ms": "ms",
    "trace_overhead_ratio": "ratio",
}


def _maxrss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class Tracer:
    """In-memory span recorder. Spans of one op share that op's number."""

    def __init__(self):
        self.names: list[str] = []
        self.parents: list[int | None] = []
        self.ops: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.rss_kb: list[int] = []  # ru_maxrss growth while the span was open
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._op = -1

    def begin(self, name: str) -> int:
        idx = len(self.names)
        parent = self._stack[-1] if self._stack else None
        if parent is None:
            self._op += 1
        self.names.append(name)
        self.parents.append(parent)
        self.ops.append(self._op)
        self.rss_kb.append(_maxrss_kb())
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def end(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        self.rss_kb[idx] = _maxrss_kb() - self.rss_kb[idx]
        popped = self._stack.pop()
        if popped != idx:
            raise RuntimeError(f"span {idx} closed while span {popped} was innermost")

    def inside(self, name: str) -> bool:
        return any(self.names[i] == name for i in self._stack)

    def write_jsonl(self, path) -> None:
        origin = self.starts[0] if self.starts else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for i, name in enumerate(self.names):
                fh.write(json.dumps({
                    "id": i, "parent": self.parents[i], "op": self.ops[i], "name": name,
                    "start_ms": (self.starts[i] - origin) * 1e3,
                    "end_ms": (self.ends[i] - origin) * 1e3}) + "\n")


def self_values(parents, totals) -> list:
    """Each span's total minus the totals of its direct children.

    A child's total already covers its own descendants, so subtracting the
    direct children leaves the part of the span no child span covers.
    """
    out = list(totals)
    for child, parent in enumerate(parents):
        if parent is not None:
            out[parent] -= totals[child]
    return out


def _file_size(path) -> int:
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


def _first_arg(args, kwargs):
    return args[0] if args else next(iter(kwargs.values()), None)


def _counting_hooks(tracer: Tracer, func: str):
    """(before, after) callables that record the counts for one function."""
    if func in IO_READS:
        def before(arg):
            return _file_size(arg)

        def after(arg, result, size):
            tracer.counts["io.bytes_read"] += size
        return before, after
    if func in IO_WRITES:
        def after(arg, result, _):
            tracer.counts["io.bytes_written"] += _file_size(arg)
        return None, after
    if func == "generate":
        def after(arg, result, _):
            tracer.counts["simulate.frames_generated"] += len(result[0])
        return None, after
    if func == "register":
        # frames registered inside register_sequence are counted by its length
        def before(arg):
            return tracer.inside("registration.register_sequence")

        def after(arg, result, nested):
            if not nested:
                tracer.counts["registration.frames_registered"] += 1
        return before, after
    if func == "register_sequence":
        def after(arg, result, _):
            tracer.counts["registration.frames_registered"] += len(result) - 1
        return None, after
    if func in ESTIMATES:
        def after(arg, result, _):
            tracer.counts["estimators.frames_used"] += sum(1 for m in arg if m.frame_index != 0)
        return None, after
    return None, None


def _wrap(tracer: Tracer, fn, span: str, func: str):
    before, after = _counting_hooks(tracer, func)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        arg = _first_arg(args, kwargs)
        pre = before(arg) if before else None
        idx = tracer.begin(span)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end(idx)
        if after:
            after(arg, result, pre)
        return result
    return traced


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Wrap every TRACED function under each name a caller can look it up by."""
    namespaces = [importlib.import_module(name) for name in NAMESPACES]
    saved = []
    try:
        for layer, funcs in TRACED.items():
            home = importlib.import_module(f"tacloc.{layer}")
            for func, span in funcs.items():
                original = getattr(home, func)
                wrapper = _wrap(tracer, original, span, func)
                for module in namespaces:
                    if getattr(module, func, None) is original:
                        saved.append((module, func, original))
                        setattr(module, func, wrapper)
        yield tracer
    finally:
        for module, func, original in reversed(saved):
            setattr(module, func, original)


def layer_metrics(tracer: Tracer, ops: int) -> dict:
    """Per-op figures for every PER_LAYER name except trace_overhead_ratio."""
    durations = [(e - s) * 1e3 for s, e in zip(tracer.starts, tracer.ends)]
    self_ms = self_values(tracer.parents, durations)
    self_rss = self_values(tracer.parents, tracer.rss_kb)
    by_name = Counter()
    calls = Counter(tracer.names)
    by_layer = Counter()
    rss_layer = Counter()
    op_ms = 0.0
    for i, name in enumerate(tracer.names):
        by_name[name] += self_ms[i]
        layer = name.split(".", 1)[0]
        by_layer[layer] += self_ms[i]
        rss_layer[layer] += self_rss[i]
        if name == OP_SPAN:
            op_ms += durations[i]

    out = {}
    for metric in PER_LAYER:
        span, _, stat = metric.rpartition(".")
        if stat == "self_ms":
            out[metric] = by_name[span] / ops
        elif stat == "calls":
            out[metric] = calls[span] / ops
        elif stat == "self_share":
            out[metric] = by_layer[span] / op_ms if op_ms else 0.0
        elif stat == "maxrss_growth_mb":
            out[metric] = rss_layer[span] / 1024.0
        elif metric in COUNTS:
            out[metric] = tracer.counts[metric] / ops
    used = tracer.counts["estimators.frames_used"]
    out["registration.frames_per_estimate"] = (
        tracer.counts["registration.frames_registered"] / used if used else 0.0)
    out["op.traced_ms"] = op_ms / ops
    return out
