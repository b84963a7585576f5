#!/usr/bin/env python3
"""Compare two checkouts on one benchmark workload in alternating pairs.

    python3 tools/bench_pairs.py --parent DIR --change DIR --workload large_log --pairs 10

Each pair runs `bench/run.py --trace 0` once in each checkout, one after the
other, as its own process; the side that goes first flips from pair to
pair, so a drift of the host's speed falls on both sides alike. Every run's
end-to-end metrics are printed as it ends, with correct=false when one of
its ops failed its check. Then, per metric, come both medians, the
interquartile range of the parent's runs, the change's median relative to
the parent's, and how many pairs each side won; a tie counts for neither.
Each metric then gets a verdict against its bound, a fraction of the
parent's median: "worse beyond bound" when the change's median is worse than
the parent's by more than the bound; else "unresolved" when the parent's IQR
exceeds the bound, unless every change run beats every parent run; else
"within bound". Last comes whether the gain rule is met: the change better
in at least 9/10 of the pairs, its median ahead of the parent's by more than
the parent's IQR. The run length, the metrics, which way each is better and
its bound are read from the repository's BENCHMARK.json. A run that exits
nonzero, or whose last line is not JSON, stops the comparison with the tail
of its stderr and exit code 1. A run whose ops failed their check still
counts toward the summary, but after it each such run is named by pair and
side, and the exit code is 1; so is a metric worse beyond its bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
STDERR_TAIL = 20  # lines of a broken run's stderr to show
GAIN_SHARE = 0.9  # of the pairs the change must win for the gain rule
WORSE = "worse beyond bound"


class RunFailed(Exception):
    """A bench run that exited nonzero or printed no JSON result."""


def benchmark_spec() -> tuple:
    """The run seconds, {metric name: "higher" or "lower"} and {metric name:
    bound} for the gated end-to-end metrics."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = spec["end_to_end"]
    return (spec["run_seconds"], {m["name"]: m["better"] for m in metrics},
            {m["name"]: m["bound"] for m in metrics})


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """The last line of one untraced bench run in checkout, as its JSON object,
    or RunFailed with the exit code and the tail of the run's stderr."""
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    try:
        if done.returncode == 0 and lines:
            return json.loads(lines[-1])
    except json.JSONDecodeError:
        pass
    tail = "\n".join(done.stderr.splitlines()[-STDERR_TAIL:]) or "(stderr is empty)"
    what = "printed no JSON result" if done.returncode == 0 else "exited"
    raise RunFailed(f"{what} with exit code {done.returncode}; its stderr ends:\n{tail}")


def summarize(pairs: list, better: dict, bounds: dict) -> dict:
    """Per metric: the parent's and the change's median, the parent's
    interquartile range, the pairs won by the change and by the parent, the
    verdict against the metric's bound and whether the gain rule is met.

    pairs holds one (parent values, change values) per pair, each a
    {metric: value} dict; better maps each metric to "higher" or "lower",
    and bounds each metric to its bound.
    """
    summary = {}
    for name, direction in better.items():
        parent = [p[name] for p, _ in pairs]
        change = [c[name] for _, c in pairs]
        sign = 1.0 if direction == "higher" else -1.0
        q1, _, q3 = (statistics.quantiles(parent, n=4, method="inclusive")
                     if len(parent) > 1 else parent * 3)
        parent_median, change_median = statistics.median(parent), statistics.median(change)
        change_wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
        slack = bounds[name] * parent_median
        if sign * (parent_median - change_median) > slack:
            verdict = WORSE
        elif q3 - q1 > slack and min(sign * c for c in change) <= max(sign * p for p in parent):
            verdict = "unresolved"
        else:
            verdict = "within bound"
        summary[name] = {
            "parent_median": parent_median,
            "change_median": change_median,
            "parent_iqr": q3 - q1,
            "change_wins": change_wins,
            "parent_wins": sum(sign * (p - c) > 0 for p, c in zip(parent, change)),
            "verdict": verdict,
            "gain": (change_wins >= GAIN_SHARE * len(pairs)
                     and sign * (change_median - parent_median) > q3 - q1),
        }
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True, help="the checkout compared against")
    parser.add_argument("--change", type=Path, required=True, help="the checkout under test")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10, help="at least 1")
    parser.add_argument("--seed", type=int, default=0,
                        help="the workload seed; check a claim on one not used while tuning")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error(f"--pairs must be at least 1, got {args.pairs}")

    seconds, better, bounds = benchmark_spec()
    pairs, failed_runs = [], []
    for k in range(args.pairs):
        sides = ("parent", "change") if k % 2 == 0 else ("change", "parent")
        values = {}
        for side in sides:
            checkout = getattr(args, side)
            try:
                result = run_once(checkout, args.workload, args.seed, seconds)
            except RunFailed as err:
                print(f"bench_pairs: the {side} run of pair {k} in {checkout} {err}",
                      file=sys.stderr)
                return 1
            values[side] = {name: result["metrics"][name]["value"] for name in better}
            figures = " ".join(f"{name}={value:.6g}" for name, value in values[side].items())
            failed = f" failed={result['failed']}/{result['attempted']}" if result["failed"] else ""
            correct = "" if result["correct"] else " correct=false"
            print(f"pair {k} {side} {figures}{failed}{correct}", flush=True)
            if result["failed"] or not result["correct"]:
                failed_runs.append(f"pair {k} {side}")
        pairs.append((values["parent"], values["change"]))

    summary = summarize(pairs, better, bounds)
    for name, s in summary.items():
        print(f"{name} ({better[name]} is better): parent median {s['parent_median']:.6g}"
              f" (IQR {s['parent_iqr']:.6g}), change median {s['change_median']:.6g}"
              f" ({s['change_median'] / s['parent_median'] - 1:+.2%}),"
              f" change better in {s['change_wins']}/{len(pairs)},"
              f" parent better in {s['parent_wins']}/{len(pairs)};"
              f" {s['verdict']} (bound {bounds[name]:.0%});"
              f" gain rule {'met' if s['gain'] else 'not met'}")
    if failed_runs:
        print(f"bench_pairs: ops failed their check in {', '.join(failed_runs)}", file=sys.stderr)
    worse = [name for name, s in summary.items() if s["verdict"] == WORSE]
    if worse:
        print(f"bench_pairs: {WORSE}: {', '.join(worse)}", file=sys.stderr)
    return 1 if failed_runs or worse else 0


if __name__ == "__main__":
    sys.exit(main())
