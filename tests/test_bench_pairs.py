"""tools/bench_pairs.py: the per-metric summary of alternating benchmark pairs."""

import importlib.util
import pathlib
import textwrap

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
        "peak_rss_mb": "lower", "setup_s": "lower"}, {
        "throughput_frames_per_s": 0.25, "latency_p50_ms": 0.25,
        "peak_rss_mb": 0.2, "setup_s": 0.25})


def test_summary_gives_medians_the_parents_spread_and_wins(bench_pairs):
    parent = [10.0, 12.0, 11.0, 13.0, 11.0]
    change = [11.0, 11.0, 12.0, 13.0, 15.0]  # pair 1 worse, pair 3 a tie
    pairs = [({"up": p, "down": p}, {"up": c, "down": c}) for p, c in zip(parent, change)]
    summary = bench_pairs.summarize(pairs, {"up": "higher", "down": "lower"},
                                    {"up": 0.25, "down": 0.25})
    # inclusive quartiles of 10, 11, 11, 12, 13 are 11 and 12
    assert summary["up"] == {"parent_median": 11.0, "change_median": 12.0, "parent_iqr": 1.0,
                             "change_wins": 3, "parent_wins": 1, "verdict": "within bound",
                             "gain": False}
    assert summary["down"] == {"parent_median": 11.0, "change_median": 12.0, "parent_iqr": 1.0,
                               "change_wins": 1, "parent_wins": 3, "verdict": "within bound",
                               "gain": False}


def test_one_pair_has_no_spread(bench_pairs):
    summary = bench_pairs.summarize([({"m": 2.0}, {"m": 1.0})], {"m": "lower"}, {"m": 0.25})
    assert summary["m"] == {"parent_median": 2.0, "change_median": 1.0, "parent_iqr": 0.0,
                            "change_wins": 1, "parent_wins": 0, "verdict": "within bound",
                            "gain": True}


def _fake_checkout(root: pathlib.Path, script: str) -> pathlib.Path:
    (root / "bench").mkdir(parents=True)
    (root / "bench" / "run.py").write_text(script)
    return root


def test_a_broken_run_stops_with_its_exit_code_and_stderr(bench_pairs, tmp_path, capsys):
    broken = _fake_checkout(tmp_path / "broken", textwrap.dedent("""\
        import sys
        print("partial output")
        print("first line", file=sys.stderr)
        print("Traceback: it broke", file=sys.stderr)
        sys.exit(3)
        """))
    assert bench_pairs.main(["--parent", str(broken), "--change", str(broken),
                             "--workload", "scenarios", "--pairs", "2"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (f"bench_pairs: the parent run of pair 0 in {broken} exited with exit code 3;"
                   " its stderr ends:\nfirst line\nTraceback: it broke\n")


def test_a_run_without_a_json_result_stops(bench_pairs, tmp_path, capsys):
    silent = _fake_checkout(tmp_path / "silent", "print('no result')\n")
    assert bench_pairs.main(["--parent", str(silent), "--change", str(silent),
                             "--workload", "scenarios", "--pairs", "1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"bench_pairs: the parent run of pair 0 in {silent} printed no JSON"
                          " result with exit code 0;")
    assert err.endswith("(stderr is empty)\n")


def test_a_run_whose_ops_failed_prints_correct_false(bench_pairs, tmp_path, capsys):
    metrics = {name: {"value": 1.0} for name in bench_pairs.benchmark_spec()[1]}
    script = "import json\nprint(json.dumps({}))\n"
    good = _fake_checkout(tmp_path / "good", script.format(repr(
        {"correct": True, "attempted": 4, "failed": 0, "metrics": metrics})))
    bad = _fake_checkout(tmp_path / "bad", script.format(repr(
        {"correct": False, "attempted": 4, "failed": 1, "metrics": metrics})))
    assert bench_pairs.main(["--parent", str(good), "--change", str(bad),
                             "--workload", "scenarios", "--pairs", "1"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("pair 0 parent ") and lines[0].endswith("setup_s=1")
    assert lines[1].startswith("pair 0 change ") and lines[1].endswith(
        "setup_s=1 failed=1/4 correct=false")


def test_runs_with_failed_ops_are_named_after_the_summary_and_exit_1(bench_pairs, monkeypatch,
                                                                    capsys):
    metrics = {name: {"value": 1.0} for name in bench_pairs.benchmark_spec()[1]}
    # in call order: pair 0 parent then change, pair 1 change then parent, pair 2 parent, change
    runs = iter([(True, 0), (False, 0), (True, 0), (True, 2), (True, 0), (True, 0)])

    def run_once(checkout, workload, seed, seconds):
        correct, failed = next(runs)
        return {"correct": correct, "attempted": 4, "failed": failed, "metrics": metrics}

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    assert bench_pairs.main(["--parent", "p", "--change", "c", "--workload", "scenarios",
                             "--pairs", "3"]) == 1
    out, err = capsys.readouterr()
    lines = out.splitlines()
    assert len(lines) == 6 + 4  # every run, then the summary of every metric
    assert lines[6].startswith("throughput_frames_per_s (higher is better): parent median 1 ")
    assert err == "bench_pairs: ops failed their check in pair 0 change, pair 1 parent\n"


def test_fewer_than_one_pair_is_a_usage_error(bench_pairs, capsys):
    with pytest.raises(SystemExit) as stop:
        bench_pairs.main(["--parent", ".", "--change", ".", "--workload", "scenarios",
                          "--pairs", "0"])
    assert stop.value.code == 2
    assert "--pairs must be at least 1, got 0" in capsys.readouterr().err


def test_the_summary_gives_the_relative_change_of_medians(bench_pairs, tmp_path, capsys):
    def checkout(name, value):
        metrics = {metric: {"value": value} for metric in bench_pairs.benchmark_spec()[1]}
        result = {"correct": True, "attempted": 1, "failed": 0, "metrics": metrics}
        return _fake_checkout(tmp_path / name, f"import json\nprint(json.dumps({result!r}))\n")

    assert bench_pairs.main(["--parent", str(checkout("parent", 8.0)),
                             "--change", str(checkout("change", 8.4)),
                             "--workload", "scenarios", "--pairs", "2"]) == 0
    summary = capsys.readouterr().out.splitlines()[4:]
    assert summary[0] == ("throughput_frames_per_s (higher is better): parent median 8"
                          " (IQR 0), change median 8.4 (+5.00%), change better in 2/2,"
                          " parent better in 0/2; within bound (bound 25%); gain rule met")
    assert len(summary) == 4 and all("change median 8.4 (+5.00%)," in line for line in summary)


def _stub_runs(bench_pairs, monkeypatch, values: dict):
    """Stub run_once: run k of a side gets values[metric][side][k] for each metric."""
    count = {"parent": 0, "change": 0}

    def run_once(checkout, workload, seed, seconds):
        side = str(checkout)
        k, count[side] = count[side], count[side] + 1
        metrics = {name: {"value": runs[side][k]} for name, runs in values.items()}
        return {"correct": True, "attempted": 1, "failed": 0, "metrics": metrics}

    monkeypatch.setattr(bench_pairs, "run_once", run_once)


def test_each_metric_gets_a_verdict_and_a_worse_one_exits_1(bench_pairs, monkeypatch, capsys):
    steady = [100.0, 101.0, 99.0, 100.0, 102.0, 98.0, 100.0, 101.0, 99.0, 100.0]
    noisy = [10.0, 14.0, 6.0, 13.0, 7.0, 12.0, 8.0, 11.0, 9.0, 10.0]  # IQR/median 0.35
    _stub_runs(bench_pairs, monkeypatch, {
        # 10% more frames/s in every pair
        "throughput_frames_per_s": {"parent": steady, "change": [1.1 * v for v in steady]},
        # 30% slower: beyond the 25% bound
        "latency_p50_ms": {"parent": steady, "change": [1.3 * v for v in steady]},
        # a parent too noisy to tell whether the same values, reordered, are worse
        "peak_rss_mb": {"parent": noisy, "change": noisy[::-1]},
        # as noisy, but every change run beats every parent run
        "setup_s": {"parent": noisy, "change": [0.5 * min(noisy)] * 10},
    })
    assert bench_pairs.main(["--parent", "parent", "--change", "change",
                             "--workload", "scenarios", "--pairs", "10"]) == 1
    out, err = capsys.readouterr()
    verdicts = [line.split("; ", 1)[1] for line in out.splitlines()[20:]]
    assert verdicts == ["within bound (bound 25%); gain rule met",
                        "worse beyond bound (bound 25%); gain rule not met",
                        "unresolved (bound 20%); gain rule not met",
                        "within bound (bound 25%); gain rule met"]
    assert err == "bench_pairs: worse beyond bound: latency_p50_ms\n"


@pytest.mark.parametrize("wins, ahead, met", [
    (10, 2.0, True), (9, 2.0, True),  # 9/10 of the pairs is enough
    (8, 2.0, False),
    (10, 1.0, False),  # the medians differ by less than the parent's IQR of 1.5
])
def test_the_gain_rule_wants_nine_pairs_in_ten_and_medians_apart(bench_pairs, monkeypatch,
                                                                  capsys, wins, ahead, met):
    parent = [10.0, 11.0, 12.0, 10.0, 11.0, 12.0, 10.0, 11.0, 12.0, 11.0]  # IQR 1.5
    change = [p + ahead if k < wins else p - 0.5 for k, p in enumerate(parent)]
    _stub_runs(bench_pairs, monkeypatch,
               {"throughput_frames_per_s": {"parent": parent, "change": change}})
    monkeypatch.setattr(bench_pairs, "benchmark_spec", lambda: (
        30, {"throughput_frames_per_s": "higher"}, {"throughput_frames_per_s": 0.25}))
    assert bench_pairs.main(["--parent", "parent", "--change", "change",
                             "--workload", "scenarios", "--pairs", "10"]) == 0
    line = capsys.readouterr().out.splitlines()[-1]
    assert line.endswith(f"change better in {wins}/10, parent better in {10 - wins}/10;"
                         f" within bound (bound 25%); gain rule {'met' if met else 'not met'}")


def test_a_metric_just_at_its_bound_is_within_it(bench_pairs):
    # 25% worse is not more than the bound of 25%; a hair more is
    pairs = [({"m": 8.0}, {"m": 10.0})] * 3
    assert bench_pairs.summarize(pairs, {"m": "lower"}, {"m": 0.25})["m"]["verdict"] == (
        "within bound")
    assert bench_pairs.summarize(pairs, {"m": "lower"}, {"m": 0.2499})["m"]["verdict"] == (
        "worse beyond bound")
