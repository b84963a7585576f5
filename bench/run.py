#!/usr/bin/env python3
"""tacloc benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload scenarios --seed 0 --seconds 30 --trace 0

Run from the root of a checkout; it imports tacloc from `src/` there. With
`--trace 0` the op loop runs untraced and the last line of standard output
is a JSON object with the end-to-end metrics. With `--trace 1` whole cycles
of the inputs run in turn with and without spans wrapped around tacloc's
public functions, and the metrics are the per-layer ones plus
`trace_overhead_ratio`. The lines before it print the environment block and
every figure with its unit. The full result goes to
`.bench_out/BENCH_<workload>_seed<seed>_trace<0|1>.json` and, when traced,
the spans to `.bench_out/spans_<workload>_seed<seed>.jsonl`.
"""

import time

T0 = time.perf_counter()  # set-up is timed from here, before tacloc is imported

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORK = ROOT / ".bench_work"
WORKLOADS = ("scenarios", "large_log", "long_sequence")
# Fresh processes that only set up, besides this one; set-up is their median.
SETUP_PROBES = 16
# The end-to-end metrics the final line carries, times scaled to the
# reference host speed (see harness). error_rate travels as attempted/failed
# and latency_p90_ms is printed only where a run has the samples for it, so
# neither is gated.
GATED = ("throughput_frames_per_s", "latency_p50_ms", "peak_rss_mb", "setup_s")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="measure at least this long, then finish the cycle")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="set up, print the set-up seconds and kernel ms, and exit")
    return parser.parse_args(argv)


def _import_tacloc():
    """Import tacloc from this checkout's src/, never from an installed copy."""
    if not (SRC / "tacloc" / "__init__.py").is_file():
        raise SystemExit(f"bench: no tacloc sources under {SRC}")
    sys.path[:0] = [str(SRC), str(BENCH)]
    import tacloc
    if Path(tacloc.__file__).resolve().parent != SRC / "tacloc":
        raise SystemExit(f"bench: imported tacloc from {tacloc.__file__}, not {SRC}")


def _probe_setup(args) -> tuple:
    """(set-up seconds, kernel ms) of a fresh process running this script with --setup-probe."""
    done = subprocess.run(
        [sys.executable, str(Path(__file__)), "--workload", args.workload,
         "--seed", str(args.seed), "--setup-probe"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    setup, ref = done.stdout.strip().splitlines()[-1].split()
    return float(setup), float(ref)


def _fmt(value) -> str:
    return "n/a" if value is None else f"{value:.6g}"


def main(argv=None) -> int:
    args = _parse(argv)
    _import_tacloc()
    import harness
    import spans
    import workloads

    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        workload = workloads.make(args.workload, args.seed, workdir)
        setup = (time.perf_counter() - T0, harness.reference_ms(9))
        if args.setup_probe:
            print(*setup)
            return 0
        if args.trace:
            tracer = spans.Tracer()
            results = harness.alternate_traced(workload, args.seconds, tracer)
        else:
            samples = [setup] + [_probe_setup(args) for _ in range(SETUP_PROBES)]
            results = [harness.closed_loop(workload, args.seconds)]
        for result in results:
            harness.apply_final_check(workload, result)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if WORK.exists() and not any(WORK.iterdir()):
            WORK.rmdir()

    attempted = sum(r.attempted for r in results)
    failures = [e for r in results for e in r.errors if e is not None]
    env = harness.environment(ROOT, workload, args.seed, attempted)
    if args.trace:
        traced, plain = results
        units = spans.PER_LAYER
        values = spans.layer_metrics(tracer, traced.attempted)
        values["trace_overhead_ratio"] = (statistics.median(traced.seconds)
                                          / statistics.median(plain.seconds))
        figures = {name: (values[name], units[name]) for name in units}
        notes = {}
        gated = list(units)
    else:
        (result,) = results
        figures = harness.summarize(result)
        figures["setup_s"] = (statistics.median(
            wall * harness.REF_KERNEL_MS / ref for wall, ref in samples), "s")
        figures["wall_setup_s"] = (statistics.median(wall for wall, _ in samples), "s")
        n = result.attempted
        env["ref_kernel_in_band"] = harness.ref_in_band(figures["ref_kernel_ms"][0])
        p90 = (f"(n={n})" if figures["latency_p90_ms"][0] is not None
               else f"(not reported: n={n} ops, needs >= 100)")
        notes = {
            "latency_p50_ms": f"(n={n})", "wall_latency_p50_ms": f"(n={n})",
            "latency_p90_ms": p90, "wall_latency_p90_ms": p90,
            "error_rate": f"({result.failed}/{n})",
            "peak_rss_mb": f"(after {harness.RSS_CYCLES} cycles of {len(workload.cycle)} ops)",
            "setup_s": f"(median of {len(samples)} fresh processes)",
        }
        gated = GATED

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}_seed{args.seed}"
    record = {
        "env": env, "trace": args.trace, "seconds": args.seconds,
        "attempted": attempted, "failed": len(failures), "failures": failures[:10],
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in figures.items()},
    }
    (OUT / f"BENCH_{stem}_trace{args.trace}.json").write_text(json.dumps(record, indent=2) + "\n")
    if args.trace:
        tracer.write_jsonl(OUT / f"spans_{stem}.jsonl")

    if not env["blas_threads_within_nproc"]:
        print(f"bench: BLAS allows {env['blas_threads']} threads on {env['nproc']} cpus",
              file=sys.stderr)
    if not env.get("ref_kernel_in_band", True):
        low, high = harness.REF_BAND_MS
        print(f"bench: median reference kernel {figures['ref_kernel_ms'][0]:.3f} ms lies "
              f"outside the calibrated {low}-{high} ms; scaled times may be off by "
              "more than the bounds allow", file=sys.stderr)
    for error in dict.fromkeys(failures):
        print(f"bench: failed op: {error}", file=sys.stderr)
    print("env " + json.dumps(env))
    for name, (value, unit) in figures.items():
        print(f"{args.workload} {name} {_fmt(value)} {unit} {notes.get(name, '')}".rstrip())
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": figures[name][0], "unit": figures[name][1]}
                    for name in gated},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
