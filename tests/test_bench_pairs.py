"""tools/bench_pairs.py: the per-metric summary of alternating benchmark pairs."""

import importlib.util
import pathlib

import pytest

SCRIPT = pathlib.Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"


@pytest.fixture(scope="module")
def bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_runs_and_metrics_are_the_benchmarks_own(bench_pairs):
    assert bench_pairs.benchmark_spec() == (30, {
        "throughput_frames_per_s": "higher", "latency_p50_ms": "lower",
        "peak_rss_mb": "lower", "setup_s": "lower"})


def test_summary_gives_medians_the_parents_spread_and_wins(bench_pairs):
    parent = [10.0, 12.0, 11.0, 13.0, 11.0]
    change = [11.0, 11.0, 12.0, 13.0, 15.0]  # pair 1 worse, pair 3 a tie
    pairs = [({"up": p, "down": p}, {"up": c, "down": c}) for p, c in zip(parent, change)]
    summary = bench_pairs.summarize(pairs, {"up": "higher", "down": "lower"})
    # inclusive quartiles of 10, 11, 11, 12, 13 are 11 and 12
    assert summary["up"] == {"parent_median": 11.0, "change_median": 12.0, "parent_iqr": 1.0,
                             "change_wins": 3, "parent_wins": 1}
    assert summary["down"] == {"parent_median": 11.0, "change_median": 12.0, "parent_iqr": 1.0,
                               "change_wins": 1, "parent_wins": 3}


def test_one_pair_has_no_spread(bench_pairs):
    summary = bench_pairs.summarize([({"m": 2.0}, {"m": 1.0})], {"m": "lower"})
    assert summary["m"] == {"parent_median": 2.0, "change_median": 1.0, "parent_iqr": 0.0,
                            "change_wins": 1, "parent_wins": 0}
