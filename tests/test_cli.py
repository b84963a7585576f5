"""Command-line interface: exit codes, file pipeline, determinism."""

import contextlib
import copy
import dataclasses
import io
import json
import tempfile
import warnings
from importlib import resources

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import assume, given, settings

from tacloc import (MarkerFrame, MarkerLog, generate, read_report, read_scenario,
                    write_marker_log)
from tacloc import cli
from tacloc.cli import main
from tacloc.simulate import MarkerGrid


def scenario_path(name):
    return str(resources.files("tacloc") / "scenarios" / f"{name}.json")


def simulate(tmp_path, name="pivot_point", truth=False):
    tmp_path.mkdir(parents=True, exist_ok=True)
    log = tmp_path / "log.json"
    args = ["simulate", "--scenario", scenario_path(name), "--out", str(log)]
    if truth:
        args += ["--truth", str(tmp_path / "truth.json")]
    assert main(args) == 0
    return log


def test_simulate_register_estimate_pipeline(tmp_path):
    log = simulate(tmp_path, truth=True)
    assert (tmp_path / "truth.json").exists()

    motions = tmp_path / "motions.json"
    assert main(["register", "--log", str(log), "--out", str(motions)]) == 0
    entries = json.loads(motions.read_text())["motions"]
    assert len(entries) == 6
    assert all("rms_error" in e for e in entries)

    report_path = tmp_path / "report.json"
    assert main(["estimate", "--type", "point", "--log", str(log),
                 "--out", str(report_path)]) == 0
    report = read_report(report_path)
    np.testing.assert_allclose(report.estimate.point, [1.5, -2.0, 4.0], atol=1e-9)
    assert report.provenance["frame_count"] == 6
    assert len(report.estimate.per_frame_residuals) == 5
    assert len(report.provenance["input_sha256"]) == 64


def test_estimate_report_matches_library_result_exactly(tmp_path):
    # the CLI may serialize, never reformat: reading the report back must
    # reproduce the library's numbers bit for bit
    from tacloc import (estimate_fixed_point, fixed_point_residuals,
                        read_marker_log, register_sequence)

    log_path = simulate(tmp_path, "pivot_point_noisy")
    report_path = tmp_path / "report.json"
    assert main(["estimate", "--type", "point", "--log", str(log_path),
                 "--out", str(report_path)]) == 0
    report = read_report(report_path)

    motions = register_sequence(read_marker_log(log_path).frames)
    direct = estimate_fixed_point(motions)
    assert np.array_equal(report.estimate.point, direct.point)
    assert report.estimate.residual_rms == direct.residual_rms
    assert report.estimate.conditioning.condition_number == direct.conditioning.condition_number
    assert np.array_equal(report.estimate.per_frame_residuals,
                          fixed_point_residuals(motions, direct.point))


def test_estimate_line_requires_n0(tmp_path):
    log = simulate(tmp_path, "box_on_edge")
    with pytest.raises(SystemExit) as excinfo:
        main(["estimate", "--type", "line", "--log", str(log),
              "--out", str(tmp_path / "r.json")])
    assert excinfo.value.code == 2


def test_estimate_line_with_n0(tmp_path):
    log = simulate(tmp_path, "box_on_edge")
    report_path = tmp_path / "report.json"
    assert main(["estimate", "--type", "line", "--log", str(log),
                 "--n0=0,0,1", "--out", str(report_path)]) == 0
    report = read_report(report_path)
    np.testing.assert_allclose(report.estimate.direction, [1, 0, 0], atol=1e-9)
    np.testing.assert_allclose(report.estimate.point, [0, 2, -3], atol=1e-9)


@pytest.mark.parametrize("n0", ["nan,0,1", "0,inf,1", "-inf,0,0", "0,1e999,1"])
def test_non_finite_n0_exits_2_before_the_log_is_read(tmp_path, capsys, n0):
    # the log does not exist: reading it first would exit 3
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SystemExit) as excinfo:
            main(["estimate", "--type", "line", "--log", str(tmp_path / "missing.json"),
                  "--n0=" + n0, "--out", str(tmp_path / "r.json")])
    assert excinfo.value.code == 2
    assert "finite" in capsys.readouterr().err


@pytest.mark.parametrize("scaled, plain, same_bytes", [
    (f"{2.0**1023!r},{2.0**1023!r},0", "1,1,0", True), ("0,0,1e308", "0,0,1", True),
    (f"{2.0**-1074!r},0,{2.0**-1074!r}", "1,0,1", True),
    # not power-of-two multiples of the plain vector: the unit n0 may move in its last bit
    ("1e308,1e308,0", "1,1,0", False), ("1e-320,0,1e-320", "1,0,1", False)])
def test_n0_is_read_at_any_scale(tmp_path, scaled, plain, same_bytes):
    log = simulate(tmp_path, "box_on_edge")
    reports = []
    for k, n0 in enumerate((scaled, plain)):
        out = tmp_path / f"report{k}.json"
        assert main(["estimate", "--type", "line", "--log", str(log),
                     "--n0=" + n0, "--out", str(out)]) == 0
        reports.append(out.read_bytes())
    if same_bytes:
        assert reports[0] == reports[1]
    # a last-bit change of n0 moves the estimate by at most its condition number times as much
    scaled_est, plain_est = [json.loads(report)["estimate"] for report in reports]
    bound = 4 * np.finfo(float).eps * plain_est["conditioning"]["condition_number"]
    for key in ("point", "direction"):
        got, want = np.array(scaled_est[key]), np.array(plain_est[key])
        assert np.linalg.norm(got - want) <= bound * np.linalg.norm(want)


@pytest.mark.parametrize("n0, type_, message", [
    ("1,2", "point", "expected x,y,z"),
    ("a,b,c", "point", "could not convert"),
    ("0,0,0", "line", "--n0 must be nonzero"),
], ids=["two_entries", "not_numbers", "zero_line_normal"])
def test_bad_n0_exits_2_before_the_log_is_read(tmp_path, capsys, n0, type_, message):
    with pytest.raises(SystemExit) as excinfo:
        main(["estimate", "--type", type_, "--log", str(tmp_path / "missing.json"),
              "--n0=" + n0, "--out", str(tmp_path / "r.json")])
    assert excinfo.value.code == 2
    assert message in capsys.readouterr().err


def test_missing_input_file_exits_3(tmp_path, capsys):
    assert main(["register", "--log", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path / "out.json")]) == 3
    assert "cannot read" in capsys.readouterr().err


def test_malformed_json_exits_3(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["estimate", "--type", "point", "--log", str(bad),
                 "--out", str(tmp_path / "r.json")]) == 3
    err = capsys.readouterr().err
    assert "line" in err


def test_wrong_json_types_in_marker_log_exit_3(tmp_path, capsys):
    log = simulate(tmp_path)
    valid = json.loads(log.read_text())
    for key, value in (("frames", [1]), ("frame_index", "a"), ("frame_index", 0.5),
                       ("coordinate", "1.5"), ("coordinate", True), ("coordinate", False)):
        data = copy.deepcopy(valid)
        if key == "frames":
            data["frames"] = value
        elif key == "coordinate":
            data["frames"][1]["positions"][2][0] = value
        else:
            data["frames"][0]["frame_index"] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        assert main(["register", "--log", str(bad), "--out", str(tmp_path / "o.json")]) == 3
        assert "invalid input" in capsys.readouterr().err


@pytest.mark.parametrize("content", [
    b"\xff\xfe{}",
    b'{"schema": "tacloc.marker_log/1", "units": "mm", "frames": ' + b"1" * 5001 + b"}",
    b"[" * 200_000,
], ids=["not_utf8", "integer_beyond_digit_limit", "nesting_too_deep"])
def test_undecodable_input_file_exits_3(tmp_path, capsys, content):
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    assert main(["register", "--log", str(bad), "--out", str(tmp_path / "o.json")]) == 3
    err = capsys.readouterr().err
    assert "invalid input" in err and "Traceback" not in err


def test_register_writes_the_sequence_register_sequence_returned(tmp_path, monkeypatch):
    original, registered, written = cli.register_sequence, [], []

    def register_sequence(frames):
        registered.append(original(frames))
        return registered[-1]
    monkeypatch.setattr(cli, "register_sequence", register_sequence)
    monkeypatch.setattr(cli, "write_motion_sequence",
                        lambda path, motions: written.append(motions))
    assert main(["register", "--log", str(simulate(tmp_path)),
                 "--out", str(tmp_path / "motions.json")]) == 0
    (motions,) = written
    assert motions is registered[0]
    # its motions still view the stacks registration built
    assert all(np.shares_memory(m.rotation, motions.rotations) for m in motions)


def test_wrong_schema_exits_3(tmp_path):
    wrong = tmp_path / "wrong.json"
    wrong.write_text('{"schema": "tacloc.motions/1", "units": "mm", "motions": []}')
    assert main(["register", "--log", str(wrong), "--out", str(tmp_path / "o.json")]) == 3


def test_estimation_failure_exits_4(tmp_path, capsys):
    # two frames, then one: below the default min_frames of 3
    grid = MarkerGrid().reference_positions()
    log = tmp_path / "short.json"
    for frames in ((MarkerFrame(grid, 0), MarkerFrame(grid + 0.1, 1)), (MarkerFrame(grid, 0),)):
        write_marker_log(log, MarkerLog(frames))
        assert main(["estimate", "--type", "point", "--log", str(log),
                     "--out", str(tmp_path / "r.json")]) == 4
        assert "estimation failed" in capsys.readouterr().err
    # registering a single frame is not an estimate: it succeeds
    assert main(["register", "--log", str(log), "--out", str(tmp_path / "m.json")]) == 0


def small_angle_log(tmp_path, name):
    """A bundled scenario's log with every rotation cut to 5%: below 2 degrees."""
    config = read_scenario(scenario_path(name))
    schedule = tuple(dataclasses.replace(step, angle=0.05 * step.angle)
                     for step in config.schedule)
    frames, _ = generate(dataclasses.replace(config, schedule=schedule))
    log = tmp_path / f"{name}_small.json"
    write_marker_log(log, MarkerLog(tuple(frames), units=config.units))
    return log


def test_strict_ill_conditioned_exits_4(tmp_path):
    # identical frames: every motion registers as the identity
    grid = MarkerGrid().reference_positions()
    static = tmp_path / "static.json"
    write_marker_log(static, MarkerLog(tuple(MarkerFrame(grid, k) for k in range(4))))
    cases = [(["--type", "point"], static),
             (["--type", "direction"], small_angle_log(tmp_path, "hinge_direction")),
             (["--type", "line", "--n0=0,0,1"], small_angle_log(tmp_path, "box_on_edge"))]
    for type_args, log in cases:
        args = ["estimate", *type_args, "--log", str(log), "--out", str(tmp_path / "r.json")]
        assert main(args + ["--strict"]) == 4, type_args
        # non-strict succeeds but flags the answer
        assert main(args) == 0, type_args
        assert read_report(tmp_path / "r.json").estimate.conditioning.well_posed is False


def test_bad_config_value_exits_2(tmp_path):
    log = simulate(tmp_path)
    assert main(["estimate", "--type", "point", "--log", str(log),
                 "--out", str(tmp_path / "r.json"), "--angle-threshold", "-1"]) == 2


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("flag", ["--angle-threshold", "--cond-threshold", "--rank-tolerance"])
def test_non_finite_threshold_exits_2(tmp_path, capsys, flag, value):
    log = simulate(tmp_path)
    assert main(["estimate", "--type", "point", "--log", str(log),
                 "--out", str(tmp_path / "r.json"), flag, value]) == 2
    assert main(["roundtrip", "--scenario", scenario_path("pivot_point"), flag, value]) == 2
    assert "positive and finite" in capsys.readouterr().err


def test_roundtrip_all_bundled_scenarios():
    for name in ("box_on_edge", "box_on_edge_noisy", "pivot_point",
                 "pivot_point_noisy", "hinge_direction", "hinge_direction_noisy"):
        assert main(["roundtrip", "--scenario", scenario_path(name)]) == 0, name


def test_roundtrip_failure_exits_1(tmp_path, capsys):
    import pathlib
    data = json.loads(pathlib.Path(scenario_path("pivot_point_noisy")).read_text())
    data["tolerances"]["point_distance"] = 1e-15  # unreachable under noise
    impossible = tmp_path / "impossible.json"
    impossible.write_text(json.dumps(data))
    assert main(["roundtrip", "--scenario", str(impossible)]) == 1
    assert "FAIL" in capsys.readouterr().out


@pytest.mark.parametrize("keys, value", [
    (["schedule"], 1),
    (["schedule", 0], 1),
    (["schedule", 0, "angle"], [0.1]),
    (["schedule", 0, "angle"], "0.1"),
    (["seed"], 1.5),
    (["seed"], -1),
    (["grid", "rows"], 11.7),
    (["tolerances", "point_distance"], None),
    (["tolerances", "point_distance"], "0.1"),
    (["tolerances", "point_distance"], float("nan")),
], ids=["schedule_not_list", "step_not_object", "angle_list", "angle_string",
        "seed_fraction", "seed_negative", "rows_fraction", "tolerance_missing",
        "tolerance_string", "tolerance_nan"])
def test_malformed_scenario_exits_3(tmp_path, capsys, keys, value):
    import pathlib
    data = json.loads(pathlib.Path(scenario_path("pivot_point")).read_text())
    node = data
    for key in keys[:-1]:
        node = node[key]
    if value is None:  # None deletes the key
        del node[keys[-1]]
    else:
        node[keys[-1]] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    assert main(["roundtrip", "--scenario", str(bad)]) == 3
    assert "invalid input" in capsys.readouterr().err


@pytest.mark.parametrize("keys", [["noise_sigma", 0], ["schedule", 0, "axis", 0],
                                  ["grid", "pose", "rotation", 0, 0], ["contact", "point", 0]],
                         ids=["noise_sigma", "axis", "pose", "contact_point"])
@pytest.mark.parametrize("kind", ["string", "boolean"])
def test_scenario_number_of_another_json_type_exits_3(tmp_path, capsys, keys, kind):
    import pathlib
    data = json.loads(pathlib.Path(scenario_path("pivot_point")).read_text())
    node = data
    for key in keys[:-1]:
        node = node[key]
    number = node[keys[-1]]
    # the same number where JSON allows it (a 0 or 1 as false or true), so a
    # reader that converted the value would simulate exactly as before
    node[keys[-1]] = str(number) if kind == "string" else bool(number) if number in (0, 1) else True
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    field = next(key for key in reversed(keys) if isinstance(key, str))
    for command in (["simulate", "--scenario", str(bad), "--out", str(tmp_path / "log.json")],
                    ["roundtrip", "--scenario", str(bad)]):
        assert main(command) == 3, command
        err = capsys.readouterr().err
        assert "invalid input" in err and field in err, err
    assert not (tmp_path / "log.json").exists()


@pytest.mark.parametrize("rows", [10**400, 2**62], ids=["10**400", "2**62"])
def test_grid_no_array_can_hold_exits_3(tmp_path, capsys, rows):
    import pathlib
    data = json.loads(pathlib.Path(scenario_path("box_on_edge")).read_text())
    data["grid"]["rows"] = rows
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    for command in (["simulate", "--scenario", str(bad), "--out", str(tmp_path / "log.json")],
                    ["roundtrip", "--scenario", str(bad)]):
        assert main(command) == 3, command
        err = capsys.readouterr().err
        assert "invalid input: grid:" in err, err
    assert not (tmp_path / "log.json").exists()


def test_roundtrip_keeps_workdir_files(tmp_path):
    work = tmp_path / "work"
    assert main(["roundtrip", "--scenario", scenario_path("hinge_direction"),
                 "--workdir", str(work)]) == 0
    for name in ("markers.json", "truth.json", "motions.json", "report.json"):
        assert (work / name).exists()


def test_simulate_is_bitwise_deterministic(tmp_path):
    a = simulate(tmp_path / "a", "box_on_edge_noisy")
    b = simulate(tmp_path / "b", "box_on_edge_noisy")
    assert a.read_bytes() == b.read_bytes()


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as excinfo:
        main(["frobnicate"])
    assert excinfo.value.code == 2


# A tiny valid marker log: no three markers collinear, so any single
# mutation that leaves the file well-formed still registers.
FUZZ_LOG = {"schema": "tacloc.marker_log/1", "units": "mm", "frames": [
    {"frame_index": 0, "positions": [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0],
                                     [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]},
    {"frame_index": 1, "positions": [[0.1, 0.0, 0.0], [1.1, 0.0, 0.0],
                                     [0.1, 1.0, 0.0], [0.1, 0.0, 1.0]]},
    {"frame_index": 2, "positions": [[0.0, 0.1, 0.0], [1.0, 0.1, 0.0],
                                     [0.0, 1.1, 0.0], [0.0, 0.1, 1.0]]},
]}


def _paths(node, prefix=()):
    """Every (container path, key) pair inside a JSON document."""
    keys = node.keys() if isinstance(node, dict) else range(len(node))
    for key in keys:
        yield prefix, key
        if isinstance(node[key], (dict, list)):
            yield from _paths(node[key], prefix + (key,))


def _json_kind(value) -> str:
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return "number"
    return type(value).__name__


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.sampled_from(["frame_index", "positions", "units",
                                                      "schema", "frames"]),
                                     inner, max_size=3)),
    max_leaves=6)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(list(_paths(FUZZ_LOG))), st.booleans(), _JSON_VALUES)
def test_mutated_marker_log_exits_0_or_3_without_traceback(where, delete, value):
    # Each example deletes one node or swaps it for a value of another JSON
    # kind (a number for a number is a change of data, not of form).
    prefix, key = where
    doc = copy.deepcopy(FUZZ_LOG)
    parent = doc
    for step in prefix:
        parent = parent[step]
    if delete:
        del parent[key]
    else:
        assume(_json_kind(value) != _json_kind(parent[key]))
        parent[key] = value
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        log = f"{tmp}/log.json"
        with open(log, "w") as fh:
            fh.write(json.dumps(doc))
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(["register", "--log", log, "--out", f"{tmp}/motions.json"])
    assert code in (0, 3), err.getvalue()
    assert "Traceback" not in err.getvalue()
    if len(prefix) == 4 and prefix[2] == "positions":  # a coordinate gone or not a number
        assert code == 3, (doc, err.getvalue())


def test_estimate_n0_is_normalized_as_the_library_normalizes_it(tmp_path):
    # 0.1,0.2,5 is not within 1e-12 of unit length, so --n0 is divided by its norm
    from tacloc import (EstimateReport, EstimatorConfig, __version__, estimate_line_contact,
                        read_marker_log, register_sequence, write_report)
    from tacloc.io import sha256_of_file

    log_path = simulate(tmp_path, "box_on_edge")
    out = tmp_path / "report.json"
    assert main(["estimate", "--type", "line", "--log", str(log_path),
                 "--n0=0.1,0.2,5", "--out", str(out)]) == 0
    n0 = np.array([0.1, 0.2, 5.0])
    motions = register_sequence(read_marker_log(log_path))
    expected = tmp_path / "expected.json"
    write_report(expected, EstimateReport(
        estimate=estimate_line_contact(motions, n0 / np.linalg.norm(n0)),
        config=EstimatorConfig(),
        provenance={"input_sha256": sha256_of_file(log_path), "tool_version": __version__,
                    "frame_count": len(motions)}))
    assert out.read_bytes() == expected.read_bytes()


def _edited_scenario(tmp_path, name, path, value):
    doc = json.loads((resources.files("tacloc") / "scenarios" / f"{name}.json").read_text())
    container = doc
    for key in path[:-1]:
        container = container[key]
    container[path[-1]] = value
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(doc))
    return scenario


def _run_without_warnings(args):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return main(args)


@pytest.mark.parametrize("command", ["simulate", "roundtrip"])
@pytest.mark.parametrize("pitch", [1e200, 1e300])
def test_a_grid_whose_coordinates_overflow_is_an_invalid_input_file(tmp_path, capsys,
                                                                    command, pitch):
    scenario = _edited_scenario(tmp_path, "pivot_point", ["grid", "pitch"], pitch)
    args = [command, "--scenario", str(scenario)]
    args += ["--out", str(tmp_path / "log.json")] if command == "simulate" else []
    assert _run_without_warnings(args) == 3
    err = capsys.readouterr().err
    assert "invalid input: grid: grid extent" in err and "its square overflows" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("axis", [[1e308, 1e308, 0], [1e-320, 0, 1e-320]])
def test_a_schedule_axis_is_read_at_any_finite_scale(tmp_path, axis):
    scenario = _edited_scenario(tmp_path, "pivot_point", ["schedule", 1, "axis"], axis)
    assert _run_without_warnings(["roundtrip", "--scenario", str(scenario),
                                  "--workdir", str(tmp_path / "work")]) == 0


def test_a_grid_too_coarse_for_its_tolerance_runs_to_its_verdict(tmp_path, capsys):
    # a 1e-9 mm tolerance is below what a 1e154 mm grid resolves
    scenario = _edited_scenario(tmp_path, "pivot_point", ["grid", "pitch"], 1e153)
    doc = json.loads(scenario.read_text())
    doc["grid"]["dome_height"] = 5e151
    scenario.write_text(json.dumps(doc))
    assert _run_without_warnings(["roundtrip", "--scenario", str(scenario)]) == 1
    assert capsys.readouterr().out.endswith("roundtrip pivot_point: FAIL\n")


def test_a_pivot_too_far_to_square_simulates_without_a_warning(tmp_path, capsys):
    scenario = _edited_scenario(tmp_path, "pivot_point", ["contact", "point"], [1e308, 0, 0])
    assert _run_without_warnings(["simulate", "--scenario", str(scenario),
                                  "--out", str(tmp_path / "log.json")]) == 0
    # the moved markers round to one point, so no rotation can be registered
    assert _run_without_warnings(["roundtrip", "--scenario", str(scenario)]) == 4
    assert "marker covariance rank 0 < 2" in capsys.readouterr().err
