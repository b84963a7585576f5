"""Self-tests of the benchmark harness.

    python3 -m pytest bench/tests -q

They cover the span arithmetic, the percentile rule, the correctness checks
on tiny shapes of every workload (including corrupted outputs that must count
as failures), the counts that must repeat exactly, and the result contract.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import harness
import run
import spans
import workloads
from tacloc import cli, estimators, io as tio

ROOT = Path(__file__).resolve().parents[2]
TINY_PINS = {"scenarios": workloads.load_pins()["scenarios"], "large_log": {}}
REPEATED_COUNTS = ("io.bytes_written", "io.bytes_read", "cli.main.calls",
                   "registration.frames_registered", "registration.frames_per_estimate")


def tiny(name, tmp_path, seed=3):
    if name == "scenarios":
        return workloads.Scenarios(seed, tmp_path / "scenarios", TINY_PINS)
    if name == "large_log":
        return workloads.LargeLog(seed, tmp_path / "large_log", TINY_PINS,
                                  rows=6, cols=6, frames=8)
    return workloads.LongSequence(seed, frames=40)


def one_cycle(workload, tracer=None):
    result = harness.closed_loop(workload, 0.0, tracer=tracer, max_ops=len(workload.cycle))
    harness.apply_final_check(workload, result)
    return result


def traced_cycle(name, tmp_path):
    tracer = spans.Tracer()
    workload = tiny(name, tmp_path)
    with spans.installed(tracer):
        result = harness.closed_loop(workload, 0.0, tracer=tracer, max_ops=len(workload.cycle))
    harness.apply_final_check(workload, result)
    assert result.failed == 0, result.errors
    return spans.layer_metrics(tracer, result.attempted)


# --- span arithmetic --------------------------------------------------------

def test_self_values_subtracts_direct_children_only():
    # 0 covers 1 and 3 (siblings); 1 covers 2 (nested twice)
    parents = [None, 0, 1, 0]
    totals = [10.0, 6.0, 2.0, 3.0]
    assert spans.self_values(parents, totals) == [1.0, 4.0, 2.0, 3.0]


def test_layer_metrics_on_nested_and_sibling_spans():
    tracer = spans.Tracer()
    # two ops; op 0: cli.main [0, 10] with io.read_marker_log [1, 4] and
    # registration.register_sequence [5, 9] holding registration.register [6, 8]
    layout = [("bench.op", None, 0, 0.0, 0.010), ("cli.main", 0, 0, 0.0, 0.010),
              ("io.read_marker_log", 1, 0, 0.001, 0.004),
              ("registration.register_sequence", 1, 0, 0.005, 0.009),
              ("registration.register", 3, 0, 0.006, 0.008),
              ("bench.op", None, 1, 0.020, 0.030), ("io.read_marker_log", 5, 1, 0.020, 0.026)]
    for name, parent, op, start, end in layout:
        tracer.names.append(name)
        tracer.parents.append(parent)
        tracer.ops.append(op)
        tracer.starts.append(start)
        tracer.ends.append(end)
        tracer.rss_kb.append(0)
    m = spans.layer_metrics(tracer, ops=2)
    assert m["cli.main.self_ms"] == pytest.approx((10 - 3 - 4) / 2)
    assert m["io.read_marker_log.self_ms"] == pytest.approx((3 + 6) / 2)
    assert m["io.read_marker_log.calls"] == 1.0
    assert m["registration.register_sequence.self_ms"] == pytest.approx(2 / 2)
    assert m["registration.register.self_ms"] == pytest.approx(2 / 2)
    assert m["op.traced_ms"] == pytest.approx(10.0)
    assert m["io.self_share"] == pytest.approx(9 / 20)
    assert m["cli.self_share"] == pytest.approx(3 / 20)
    assert m["registration.self_share"] == pytest.approx(4 / 20)
    shares = sum(m[f"{layer}.self_share"] for layer in spans.LAYERS)
    assert shares == pytest.approx(16 / 20)  # the rest is the ops' own self time


def test_tracer_rejects_spans_closed_out_of_order():
    tracer = spans.Tracer()
    outer = tracer.begin("cli.main")
    tracer.begin("io.read_marker_log")
    with pytest.raises(RuntimeError):
        tracer.end(outer)


def test_installed_restores_every_name():
    before = (cli.main, cli.write_marker_log, tio.write_marker_log,
              estimators.fixed_point_residuals, cli.fixed_point_residuals)
    with spans.installed(spans.Tracer()):
        assert cli.main is not before[0]
        assert estimators.fixed_point_residuals is not before[3]
    after = (cli.main, cli.write_marker_log, tio.write_marker_log,
             estimators.fixed_point_residuals, cli.fixed_point_residuals)
    assert after == before


# --- percentile rule --------------------------------------------------------

def test_p90_needs_ten_samples_beyond_it():
    assert harness.tail_percentile(list(range(99)), 0.9) is None
    samples = list(range(100, 0, -1))
    p90 = harness.tail_percentile(samples, 0.9)
    assert p90 == 90
    assert sum(s > p90 for s in samples) == 10
    assert harness.tail_percentile([], 0.9) is None


def test_summary_omits_p90_below_one_hundred_ops():
    ref = harness.REF_KERNEL_MS
    result = harness.LoopResult(seconds=[0.01] * 99, ref_ms=[ref] * 99, keys=["a"] * 99,
                                frames=[7] * 99, errors=[None] * 99)
    figures = harness.summarize(result)
    assert figures["latency_p90_ms"][0] is None
    assert figures["latency_p50_ms"][0] == pytest.approx(10.0)
    assert figures["throughput_frames_per_s"][0] == pytest.approx(700.0)
    result.errors[0] = "bad"
    assert harness.summarize(result)["error_rate"][0] == pytest.approx(1 / 99)


def test_times_scale_with_the_reference_kernel():
    ref = harness.REF_KERNEL_MS
    # the host ran the kernel half as fast around the second op
    result = harness.LoopResult(seconds=[0.01] * 100 + [0.02] * 100,
                                ref_ms=[ref] * 100 + [2 * ref] * 100, keys=["a"] * 200,
                                frames=[7] * 200, errors=[None] * 200)
    figures = harness.summarize(result)
    assert figures["latency_p50_ms"][0] == pytest.approx(10.0)
    assert figures["latency_p90_ms"][0] == pytest.approx(10.0)
    assert figures["throughput_frames_per_s"][0] == pytest.approx(700.0)
    assert figures["wall_latency_p90_ms"][0] == pytest.approx(20.0)
    assert figures["ref_kernel_ms"][0] == pytest.approx(1.5 * ref)


def test_throughput_is_the_median_cycle_rate():
    # cycles of two ops: 10 frames in 1 s, 10 in 2 s (a slow spell), 10 in 1 s
    seconds = [0.5, 0.5, 1.0, 1.0, 0.5, 0.5]
    result = harness.LoopResult(cycle=2, seconds=seconds, keys=list("ababab"),
                                frames=[4, 6] * 3, errors=[None] * 6)
    assert result.throughput(seconds) == pytest.approx(10.0)
    result.errors[1] = "bad"  # a failed op carries no frames: rates 4, 5, 10
    assert result.throughput(seconds) == pytest.approx(5.0)
    result.errors[5] = "bad"  # rates 4, 5, 4
    assert result.throughput(seconds) == pytest.approx(4.0)


def test_loop_times_the_kernel_around_every_op(tmp_path):
    workload = tiny("long_sequence", tmp_path)
    result = one_cycle(workload)
    assert len(result.ref_ms) == result.attempted == 3
    assert all(r > 0 for r in result.ref_ms)
    assert result.rss_mb is None  # read only after RSS_CYCLES cycles


def test_loop_runs_the_rss_cycles_and_reads_rss_after_them(tmp_path):
    workload = tiny("long_sequence", tmp_path)
    result = harness.closed_loop(workload, 0.0)
    assert result.attempted == harness.RSS_CYCLES * len(workload.cycle)
    assert result.rss_mb == pytest.approx(harness.peak_rss_mb(), rel=0.5)


def test_ref_band_marks_runs_outside_the_calibration():
    low, high = harness.REF_BAND_MS
    assert harness.ref_in_band(harness.REF_KERNEL_MS)
    assert not harness.ref_in_band(low * 0.9)
    assert not harness.ref_in_band(high * 1.1)


# --- workloads, tiny shapes -------------------------------------------------

@pytest.mark.parametrize("name", workloads.NAMES)
def test_tiny_workload_passes_its_checks(name, tmp_path):
    workload = tiny(name, tmp_path)
    result = one_cycle(workload)
    assert result.attempted == len(workload.cycle)
    assert result.failed == 0, result.errors


def test_noncanonical_marker_log_fails_every_op(tmp_path, monkeypatch):
    """A log that reads back fine but is not in canonical form fails the
    write->read->write check, which fails every op that wrote it."""
    def compact_writer(path, log):
        doc = {"schema": tio.MARKER_LOG_SCHEMA, "units": log.units,
               "frames": [{"frame_index": f.frame_index, "positions": f.positions.tolist()}
                          for f in log.frames]}
        Path(path).write_text(json.dumps(doc))

    monkeypatch.setattr(cli, "write_marker_log", compact_writer)
    workload = tiny("large_log", tmp_path)
    result = harness.closed_loop(workload, 60.0, max_ops=2)
    assert result.errors == [None, None]
    harness.apply_final_check(workload, result)
    assert result.failed == 2
    assert "write->read->write" in result.errors[0]


def test_changed_bytes_fail_the_scenario_pins(tmp_path, monkeypatch):
    original = cli.write_truth

    def drifting_writer(path, truth, units="mm"):
        original(path, truth, units=units)
        Path(path).write_text(Path(path).read_text() + "\n")

    monkeypatch.setattr(cli, "write_truth", drifting_writer)
    result = one_cycle(tiny("scenarios", tmp_path))
    assert result.failed == result.attempted
    assert all("truth.json" in e for e in result.errors)


def test_wrong_estimate_fails_the_truth_check(tmp_path, monkeypatch):
    original = estimators.estimate_fixed_point

    def shifted(motions, *args, **kwargs):
        est = original(motions, *args, **kwargs)
        return type(est)(kind=est.kind, point=est.point + np.array([0.0, 0.0, 0.1]),
                         direction=None, residual_rms=est.residual_rms,
                         conditioning=est.conditioning)

    monkeypatch.setattr(estimators, "estimate_fixed_point", shifted)
    result = one_cycle(tiny("long_sequence", tmp_path))
    assert result.errors[0].startswith("point_distance")
    assert result.errors[1:] == [None, None]
    assert harness.summarize(result)["error_rate"][0] == pytest.approx(1 / 3)


def test_raising_op_fails_and_the_loop_goes_on(tmp_path, monkeypatch):
    def broken(motions, *args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr(estimators, "estimate_fixed_direction", broken)
    result = one_cycle(tiny("long_sequence", tmp_path))
    assert result.errors == [None, "RuntimeError: boom", None]


def test_failed_exit_code_is_a_failed_op(tmp_path):
    workload = tiny("large_log", tmp_path)
    workload.scenario.write_text("{}")
    result = one_cycle(workload)
    assert result.failed == 1
    assert result.errors[0].startswith("exit codes [3]")


# --- traced counts ----------------------------------------------------------

def test_traced_counts_match_each_workloads_purpose(tmp_path):
    scenarios = traced_cycle("scenarios", tmp_path / "a")
    large = traced_cycle("large_log", tmp_path / "b")
    long_seq = traced_cycle("long_sequence", tmp_path / "c")
    assert scenarios["registration.frames_per_estimate"] == 2.0
    assert large["registration.frames_per_estimate"] == 2.0
    assert long_seq["registration.frames_per_estimate"] == 1.0
    assert scenarios["cli.main.calls"] == 4.0
    assert large["cli.main.calls"] == 3.0
    assert large["io.read_marker_log.calls"] == 2.0
    for metric in ("cli.main.calls", "io.bytes_written", "io.bytes_read"):
        assert long_seq[metric] == 0.0
    assert long_seq["simulate.frames_generated"] == 40.0
    assert large["estimators.frames_used"] == 7.0
    assert large["io.bytes_written"] > 0 and large["io.bytes_read"] > 0


@pytest.mark.parametrize("name", workloads.NAMES)
def test_counts_repeat_exactly_for_a_seed(name, tmp_path):
    first = traced_cycle(name, tmp_path / "first")
    second = traced_cycle(name, tmp_path / "second")
    for metric in REPEATED_COUNTS:
        assert first[metric] == second[metric], metric


# --- result contract --------------------------------------------------------

def test_benchmark_json_lists_what_the_runs_print():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.NAMES)
    assert run.WORKLOADS == workloads.NAMES
    assert [m["name"] for m in spec["end_to_end"]] == list(run.GATED)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == spans.PER_LAYER


def test_large_log_pins_cover_the_default_seed():
    pins = workloads.load_pins()
    assert set(pins["scenarios"]) == {p.stem for p in workloads.SCENARIO_DIR.glob("*.json")}
    assert "0" in pins["large_log"]


def test_run_refuses_a_tree_without_tacloc(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run([sys.executable, "bench/run.py", "--workload", "scenarios",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""


def test_run_prints_the_result_line_last(tmp_path):
    done = subprocess.run([sys.executable, "bench/run.py", "--workload", "scenarios",
                           "--seed", "0", "--seconds", "0.2", "--trace", "1"],
                          cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == set(spans.PER_LAYER)
    assert all(math.isfinite(m["value"]) for m in result["metrics"].values())
