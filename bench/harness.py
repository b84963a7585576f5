"""Closed-loop runner, latency statistics, host scaling and the environment block.

The host this benchmark was built on changes speed by up to 1.5x over
minutes, for all CPU work, so wall times from two sets of runs are not
comparable. Every op is therefore followed by a few runs of a fixed
reference kernel (interpreter, JSON and small-numpy work), and the gated
times are scaled to a host on which that kernel takes REF_KERNEL_MS:
scaled = wall * REF_KERNEL_MS / kernel time around the op. Wall figures are
reported beside them.

The scaling is not exact: when the host is at its fastest the kernel speeds
up more than the workloads do (0.40 ms against 0.66 ms, while long_sequence
gained only 1.3x), which leaves scaled times about 27% high and throughput
about 21% low. The bounds were calibrated on runs whose median kernel time
lay in REF_BAND_MS; a run outside it is marked in its environment block.
"""

from __future__ import annotations

import ctypes
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import tacloc

from spans import OP_SPAN, installed

MIN_BEYOND = 10  # samples a reported percentile must have above it
# peak_rss_mb is read after this many whole cycles, a fixed op count, so
# memory that grows from op to op moves it; a run never stops before then.
RSS_CYCLES = 3

# Median time of one reference kernel run on a 2-vCPU Intel Xeon VM at
# 2.0 GHz (Python 3.11.7, numpy 2.4.6) in its faster state. It fixes the
# units of the scaled figures; changing it rescales them all.
REF_KERNEL_MS = 0.70
# Median kernel times of the runs the bounds were calibrated on.
REF_BAND_MS = (0.45, 0.85)
REF_SHARE = 0.03  # share of each op's time spent timing the kernel after it
_REF_DOC = {"frames": [{"frame_index": i, "positions": [[0.1 * i, 1.5, -2.25]] * 8}
                       for i in range(8)]}
_REF_MATRIX = np.arange(9.0).reshape(3, 3) + np.eye(3)


def _reference_kernel() -> None:
    json.loads(json.dumps(_REF_DOC))
    total = 0
    for i in range(1000):
        total += i * i
    for _ in range(20):
        np.linalg.svd(_REF_MATRIX)


def reference_ms(reps: int) -> float:
    """Median wall time of `reps` runs of the reference kernel, in ms."""
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        _reference_kernel()
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1e3


def tail_percentile(samples, q: float) -> float | None:
    """Nearest-rank q-quantile of samples, or None when fewer than
    MIN_BEYOND samples lie above its rank (p90 needs at least 100 samples)."""
    n = len(samples)
    rank = math.ceil(q * n)
    if n == 0 or n - rank < MIN_BEYOND:
        return None
    return sorted(samples)[rank - 1]


@dataclass
class LoopResult:
    """What a closed loop measured: one entry per attempted op."""

    cycle: int = 1  # ops per cycle of the workload's inputs
    seconds: list = field(default_factory=list)
    ref_ms: list = field(default_factory=list)  # kernel time around each op
    rss_mb: float | None = None  # ru_maxrss after RSS_CYCLES whole cycles
    keys: list = field(default_factory=list)
    frames: list = field(default_factory=list)
    errors: list = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return len(self.seconds)

    @property
    def failed(self) -> int:
        return sum(error is not None for error in self.errors)

    def fail_key(self, key: str, error: str) -> None:
        """Fail every op of one cycle key that has not failed yet."""
        for i, k in enumerate(self.keys):
            if k == key and self.errors[i] is None:
                self.errors[i] = error

    def scaled_seconds(self) -> list:
        """Op times scaled to the reference host speed."""
        return [s * REF_KERNEL_MS / r for s, r in zip(self.seconds, self.ref_ms)]

    def throughput(self, seconds: list) -> float:
        """Marker frames carried through correct ops per second of op time
        (`seconds`, one per op), the median over whole cycles of the inputs.

        A cycle holds every input once, so each cycle's rate is comparable;
        the median keeps a slow spell of the host from moving the figure.
        """
        rates = []
        for start in range(0, self.attempted - self.cycle + 1, self.cycle):
            chunk = range(start, start + self.cycle)
            good = sum(self.frames[i] for i in chunk if self.errors[i] is None)
            rates.append(good / sum(seconds[i] for i in chunk))
        return statistics.median(rates)


def closed_loop(workload, seconds: float, tracer=None, max_ops: int | None = None,
                result: LoopResult | None = None) -> LoopResult:
    """Run ops back to back, each starting when the previous one (and its
    check) ended, until `seconds` have passed, the cycle is whole and at
    least RSS_CYCLES cycles ran, or until `max_ops` ops ran.

    Only the op call is timed. An op that raises fails with the exception's
    text. With a tracer, each op runs inside a root span. After each op the
    reference kernel is timed; the op's kernel time is the mean of the
    samples before and after it.
    """
    cycle = len(workload.cycle)
    result = result if result is not None else LoopResult(cycle)
    before = reference_ms(3)
    start = time.perf_counter()
    i = 0
    while True:
        key = workload.cycle[i % cycle]
        span = tracer.begin(OP_SPAN) if tracer else None
        t0 = time.perf_counter()
        try:
            output = workload.op(i)
            error = None
        except Exception as err:  # any crash is a failed op, never a crashed run
            traceback.print_exc(file=sys.stderr)
            error = f"{type(err).__name__}: {err}"
        elapsed = time.perf_counter() - t0
        if tracer:
            tracer.end(span)
        if error is None:
            error = workload.check(i, output)
        after = reference_ms(max(3, round(REF_SHARE * elapsed * 1e3 / before)))
        result.ref_ms.append((before + after) / 2)
        before = after
        result.seconds.append(elapsed)
        result.keys.append(key)
        result.frames.append(workload.frames[key])
        result.errors.append(error)
        if result.attempted == RSS_CYCLES * cycle:
            result.rss_mb = peak_rss_mb()
        i += 1
        if max_ops is not None and i >= max_ops:
            break
        if (i % cycle == 0 and i >= RSS_CYCLES * cycle
                and time.perf_counter() - start >= seconds):
            break
    return result


def alternate_traced(workload, seconds: float, tracer) -> tuple:
    """Whole cycles, traced and untraced in turn, until `seconds` have passed.

    Returns the (traced, untraced) results. Alternating keeps a slow spell
    of the host from landing on one side of the trace overhead. The first
    cycle is traced, so spans see the process's peak RSS grow.
    """
    cycle = len(workload.cycle)
    traced, plain = LoopResult(cycle), LoopResult(cycle)
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        with installed(tracer):
            closed_loop(workload, 0.0, tracer=tracer, max_ops=cycle, result=traced)
        closed_loop(workload, 0.0, max_ops=cycle, result=plain)
    return traced, plain


def apply_final_check(workload, result: LoopResult) -> None:
    for key, error in workload.final_check().items():
        result.fail_key(key, error)


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _blas() -> tuple[str, int | None]:
    """BLAS library name from numpy's build config and its thread cap, asked of
    the loaded OpenBLAS when there is one."""
    try:
        name = np.__config__.CONFIG["Build Dependencies"]["blas"]["name"]
    except (AttributeError, KeyError):
        name = "unknown"
    threads = None
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        libs = set()
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            func = getattr(lib, symbol, None)
            if func is not None:
                func.restype = ctypes.c_int
                threads = int(func())
                break
        if threads is not None:
            break
    return name, threads


def _git_commit(root: Path) -> str:
    """HEAD's commit read from .git without running git; 'unknown' outside a clone."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(root: Path, workload, seed: int, ops: int) -> dict:
    blas, blas_threads = _blas()
    nproc = len(os.sched_getaffinity(0))
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": blas_threads,
        "nproc": nproc,
        "blas_threads_within_nproc": blas_threads is None or blas_threads <= nproc,
        "tacloc": tacloc.__version__,
        "git_commit": _git_commit(root),
        "platform": platform.platform(),
        "workload": workload.name,
        "seed": seed,
        "shape": {**workload.shape(), "ops": ops},
    }


def summarize(result: LoopResult) -> dict:
    """The end-to-end figures of one untraced loop: name -> (value, unit).

    Unprefixed times are scaled to the reference host speed; `wall_` ones
    are as measured.
    """
    scaled = result.scaled_seconds()
    ms = [s * 1e3 for s in scaled]
    wall_ms = [s * 1e3 for s in result.seconds]
    return {
        "throughput_frames_per_s": (result.throughput(scaled), "frames/s"),
        "latency_p50_ms": (statistics.median(ms), "ms"),
        "latency_p90_ms": (tail_percentile(ms, 0.9), "ms"),
        "error_rate": (result.failed / result.attempted, "ratio"),
        "peak_rss_mb": (result.rss_mb, "MB"),
        "run_peak_rss_mb": (peak_rss_mb(), "MB"),
        "wall_throughput_frames_per_s": (result.throughput(result.seconds), "frames/s"),
        "wall_latency_p50_ms": (statistics.median(wall_ms), "ms"),
        "wall_latency_p90_ms": (tail_percentile(wall_ms, 0.9), "ms"),
        "ref_kernel_ms": (statistics.median(result.ref_ms), "ms"),
    }


def ref_in_band(ref_ms: float) -> bool:
    """Whether a run's median kernel time lies where the bounds were calibrated."""
    return REF_BAND_MS[0] <= ref_ms <= REF_BAND_MS[1]
