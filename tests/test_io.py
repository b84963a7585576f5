"""File formats: byte-stable serialization, validation, error reporting."""

import copy
import hashlib
import json
import math
import pathlib
import tempfile
import textwrap
import tracemalloc
import warnings

import hypothesis.extra.numpy as hnp
import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from tacloc import (ConditioningReport, ContactEstimate, ContactKind,
                    EstimateReport, EstimatorConfig, MarkerFrame, MarkerLog,
                    MotionSequence, NonFiniteValue, ParseError, RelativeMotion,
                    ScenarioConfig, SchemaVersionMismatch, generate, read_marker_log,
                    read_motion_sequence, read_report, read_scenario, read_truth,
                    register_sequence, write_marker_log, write_motion_sequence, write_report,
                    write_scenario, write_truth)
from tacloc.cli import main
from tacloc.io import _HASH_BLOCK, _number, dumps, sha256_of_file

GOLDEN_LOG = textwrap.dedent("""\
    {
      "schema": "tacloc.marker_log/1",
      "units": "mm",
      "frames": [
        {
          "frame_index": 0,
          "positions": [
            [0, 0.5, 1],
            [1, -0.25, 0.125]
          ]
        },
        {
          "frame_index": 1,
          "positions": [
            [0.10000000000000001, 0.5, 1],
            [1.1000000000000001, -0.25, 0.125]
          ]
        }
      ]
    }
    """)


def tiny_log():
    return MarkerLog((MarkerFrame(np.array([[0.0, 0.5, 1.0], [1.0, -0.25, 0.125]]), 0),
                      MarkerFrame(np.array([[0.1, 0.5, 1.0], [1.1, -0.25, 0.125]]), 1)),
                     units="mm")


def bundled_scenario(name):
    from importlib import resources
    return resources.files("tacloc") / "scenarios" / f"{name}.json"


def test_marker_log_bytes_match_golden(tmp_path):
    path = tmp_path / "log.json"
    write_marker_log(path, tiny_log())
    assert path.read_text() == GOLDEN_LOG


def test_marker_log_write_read_write_is_byte_identical(tmp_path):
    config = read_scenario(bundled_scenario("box_on_edge_noisy"))
    frames, _ = generate(config)
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    write_marker_log(p1, MarkerLog(tuple(frames), units=config.units))
    write_marker_log(p2, read_marker_log(p1))
    assert p1.read_bytes() == p2.read_bytes()


def test_seventeen_digit_floats_round_trip_exactly(tmp_path):
    rng = np.random.default_rng(50)
    positions = rng.standard_normal((40, 3)) * np.logspace(-8, 8, 40)[:, None]
    path = tmp_path / "log.json"
    write_marker_log(path, MarkerLog((MarkerFrame(positions, 0),
                                      MarkerFrame(positions * 2.0, 1))))
    back = read_marker_log(path)
    assert np.array_equal(back.frames[0].positions, positions)
    assert np.array_equal(back.frames[1].positions, positions * 2.0)


def test_parse_error_reports_line_and_column(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{\n  "schema": "tacloc.marker_log/1",\n  "frames": [}\n}\n')
    with pytest.raises(ParseError) as excinfo:
        read_marker_log(path)
    assert excinfo.value.line == 3
    assert excinfo.value.column is not None


def test_a_top_level_array_is_a_parse_error(tmp_path):
    path = tmp_path / "log.json"
    path.write_text("[1]")
    with pytest.raises(ParseError, match="expected a JSON object at top level, got list"):
        read_marker_log(path)


def test_schema_mismatch(tmp_path):
    path = tmp_path / "log.json"
    path.write_text('{"schema": "tacloc.marker_log/2", "units": "mm", "frames": []}')
    with pytest.raises(SchemaVersionMismatch):
        read_marker_log(path)
    # a motions file is not a marker log
    write_motion_sequence(path, MotionSequence((RelativeMotion.identity(0),
                                                RelativeMotion.identity(1))))
    with pytest.raises(SchemaVersionMismatch):
        read_marker_log(path)


def test_non_finite_coordinates_are_named(tmp_path):
    path = tmp_path / "log.json"
    data = json.loads(GOLDEN_LOG)
    data["frames"][1]["positions"][1][2] = float("nan")
    path.write_text(json.dumps(data))
    with pytest.raises(NonFiniteValue) as excinfo:
        read_marker_log(path)
    assert "frame 1" in str(excinfo.value)
    assert "marker 1" in str(excinfo.value)


def test_writer_rejects_non_finite_floats():
    with pytest.raises(NonFiniteValue):
        dumps({"x": float("nan")})
    with pytest.raises(NonFiniteValue):
        dumps({"x": float("inf")})


def test_structural_validation(tmp_path):
    path = tmp_path / "log.json"
    base = json.loads(GOLDEN_LOG)

    sparse = json.loads(GOLDEN_LOG)
    sparse["frames"][1]["frame_index"] = 5  # indices must be dense from 0
    path.write_text(json.dumps(sparse))
    with pytest.raises(ParseError):
        read_marker_log(path)

    uneven = json.loads(GOLDEN_LOG)
    uneven["frames"][1]["positions"].append([0.0, 0.0, 0.0])
    path.write_text(json.dumps(uneven))
    with pytest.raises(ParseError):
        read_marker_log(path)

    del base["frames"]
    path.write_text(json.dumps(base))
    with pytest.raises(ParseError):
        read_marker_log(path)


def _set(path_keys, value):
    def mutate(doc):
        node = doc
        for key in path_keys[:-1]:
            node = node[key]
        node[path_keys[-1]] = value
    return mutate


@pytest.mark.parametrize("mutate", [
    _set(["frames"], [1]),
    _set(["frames", 0, "frame_index"], "0"),
    _set(["frames", 0, "frame_index"], 0.5),
    _set(["frames", 1, "frame_index"], 1.0),
    _set(["frames", 1, "frame_index"], True),
    _set(["frames", 0, "frame_index"], -1),
    _set(["units"], 5),
    _set(["units"], None),
    _set(["frames", 1, "positions", 0, 0], 10**400),
    _set(["frames", 1, "positions", 0, 0], "1.5"),
    _set(["frames", 1, "positions", 1, 2], True),
    _set(["frames", 0, "positions", 0, 0], False),
    _set(["frames", 0, "positions", 1], [True, False, True]),
    _set(["frames", 1, "positions", 0, 1], None),
], ids=["frame_not_object", "index_string", "index_fraction",
        "index_integral_float", "index_bool", "index_negative", "units_number",
        "units_null", "coordinate_overflows_float", "coordinate_string", "coordinate_true",
        "coordinate_false", "coordinate_row_of_booleans", "coordinate_null"])
def test_marker_log_reader_rejects_wrong_json_types(tmp_path, mutate):
    path = tmp_path / "log.json"
    data = json.loads(GOLDEN_LOG)
    mutate(data)
    path.write_text(json.dumps(data))
    with pytest.raises(ParseError):
        read_marker_log(path)


def test_motion_reader_accepts_only_integer_frame_indices(tmp_path):
    from tacloc import MotionSequence, RelativeMotion
    path = tmp_path / "motions.json"
    write_motion_sequence(path, MotionSequence((RelativeMotion.identity(0),
                                                RelativeMotion.identity(1))))
    for index in (1.5, True, "1"):
        data = json.loads(path.read_text())
        data["motions"][1]["frame_index"] = index
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        with pytest.raises(ParseError):
            read_motion_sequence(bad)


def test_motion_sequence_round_trip(tmp_path):
    config = read_scenario(bundled_scenario("pivot_point_noisy"))
    frames, truth = generate(config)
    motions = register_sequence(frames)
    p1, p2 = tmp_path / "m1.json", tmp_path / "m2.json"
    write_motion_sequence(p1, motions)
    back = read_motion_sequence(p1)
    for got, want in zip(back, motions):
        assert np.array_equal(got.rotation, want.rotation)
        assert np.array_equal(got.translation, want.translation)
        assert got.frame_index == want.frame_index
    assert back.rms_errors == motions.rms_errors
    write_motion_sequence(p2, back)
    assert p1.read_bytes() == p2.read_bytes()

    # the register command's output keeps every rms_error through read -> write
    log, registered = tmp_path / "log.json", tmp_path / "registered.json"
    write_marker_log(log, MarkerLog(tuple(frames), units=config.units))
    assert main(["register", "--log", str(log), "--out", str(registered)]) == 0
    write_motion_sequence(p2, read_motion_sequence(registered))
    assert p2.read_bytes() == registered.read_bytes()

    # motions without fit RMS, such as the truth, stay without
    write_motion_sequence(p1, truth.motions)
    assert read_motion_sequence(p1).rms_errors is None

    for bad in (None, True, "0.1", -1.0):
        data = json.loads(registered.read_text())
        data["motions"][2]["rms_error"] = bad
        if bad is None:
            del data["motions"][2]["rms_error"]
        p1.write_text(json.dumps(data))
        with pytest.raises(ParseError):
            read_motion_sequence(p1)


def test_motion_file_keeps_its_units(tmp_path):
    motions = MotionSequence((RelativeMotion.identity(0),
                              RelativeMotion(np.eye(3), [0.001, 0.0, -0.002], 1)),
                             rms_errors=(0.0, 1e-5), units="m")
    p1, p2 = tmp_path / "m1.json", tmp_path / "m2.json"
    write_motion_sequence(p1, motions)
    back = read_motion_sequence(p1)
    assert back.units == "m"
    write_motion_sequence(p2, back)
    assert p1.read_bytes() == p2.read_bytes()

    # register writes the marker log's units, and they survive read -> write too
    log, registered = tmp_path / "log.json", tmp_path / "registered.json"
    frames, _ = generate(read_scenario(bundled_scenario("pivot_point")))
    write_marker_log(log, MarkerLog(tuple(frames), units="m"))
    assert main(["register", "--log", str(log), "--out", str(registered)]) == 0
    assert json.loads(registered.read_text())["units"] == "m"
    write_motion_sequence(p2, read_motion_sequence(registered))
    assert p2.read_bytes() == registered.read_bytes()

    for bad in (None, 1, ["m"]):
        data = json.loads(p1.read_text())
        data["units"] = bad
        if bad is None:
            del data["units"]
        p2.write_text(json.dumps(data))
        with pytest.raises(ParseError, match="units"):
            read_motion_sequence(p2)


def test_scenario_and_truth_round_trip(tmp_path):
    for name in ("box_on_edge", "pivot_point_noisy", "hinge_direction"):
        src = bundled_scenario(name)
        config = read_scenario(src)
        out = tmp_path / f"{name}.json"
        write_scenario(out, config)
        assert out.read_bytes() == src.read_bytes()

        _, truth = generate(config)
        t1, t2 = tmp_path / "t1.json", tmp_path / "t2.json"
        write_truth(t1, truth, units=config.units)
        write_truth(t2, read_truth(t1), units=config.units)
        assert t1.read_bytes() == t2.read_bytes()


def test_truth_file_keeps_its_units(tmp_path):
    config = read_scenario(bundled_scenario("pivot_point"))
    config = ScenarioConfig(contact=config.contact, grid=config.grid, schedule=config.schedule,
                            units="m")
    _, truth = generate(config)
    assert truth.motions.units == "m"
    p1, p2 = tmp_path / "t1.json", tmp_path / "t2.json"
    write_truth(p1, truth)
    assert json.loads(p1.read_text())["units"] == "m"
    back = read_truth(p1)
    assert back.motions.units == "m"
    write_truth(p2, back)
    assert p1.read_bytes() == p2.read_bytes()

    for bad in (None, 1, ["m"]):
        data = json.loads(p1.read_text())
        data["units"] = bad
        if bad is None:
            del data["units"]
        p2.write_text(json.dumps(data))
        with pytest.raises(ParseError, match="units"):
            read_truth(p2)


def test_report_round_trip_preserves_infinite_condition_number(tmp_path):
    estimate = ContactEstimate(
        kind=ContactKind.FIXED_POINT, point=np.array([1.0, 2.0, 3.0]), direction=None,
        residual_rms=0.25, per_frame_residuals=np.array([0.1, 0.2]),
        conditioning=ConditioningReport(max_rotation_angle=0.0,
                                        smallest_singular_value=0.0,
                                        condition_number=math.inf,
                                        well_posed=False))
    report = EstimateReport(estimate=estimate, config=EstimatorConfig(),
                            provenance={"input_sha256": "00" * 32,
                                        "tool_version": "0.1.0", "frame_count": 3})
    path = tmp_path / "report.json"
    write_report(path, report)
    assert json.loads(path.read_text())["estimate"]["conditioning"]["condition_number"] is None
    back = read_report(path)
    assert math.isinf(back.estimate.conditioning.condition_number)
    assert not back.estimate.conditioning.well_posed
    np.testing.assert_array_equal(back.estimate.per_frame_residuals, [0.1, 0.2])
    assert back.provenance == report.provenance
    assert back.config == EstimatorConfig()


@pytest.mark.parametrize("section, key, value", [
    ("conditioning", "well_posed", "no"),
    ("conditioning", "well_posed", 1),
    ("conditioning", "max_rotation_angle", "0.5"),
    ("conditioning", "smallest_singular_value", True),
    ("conditioning", "condition_number", "12"),
    ("estimate", "residual_rms", "0.5"),
    ("estimate", "residual_rms", None),
    ("config", "min_frames", "3"),
    ("config", "min_frames", 3.0),
    ("config", "min_frames", True),
    ("config", "angle_threshold", "0.035"),
    ("config", "cond_threshold", False),
    ("config", "rank_tolerance", [1e-8]),
    ("report", "per_frame_residuals", {}),
    ("report", "provenance", "ab"),
    ("report", "provenance", []),
    ("report", "per_frame_residuals", ["0.5", 0.1]),
    ("report", "per_frame_residuals", [0.1, True]),
    ("report", "per_frame_residuals", [[0.1], [0.1]]),
    ("report", "per_frame_residuals", [0.1, None]),
    ("report", "per_frame_residuals", [0.1, 10**400]),
    ("conditioning", "condition_number", 0.5),
    ("conditioning", "smallest_singular_value", -1),
])
def test_report_reader_rejects_wrong_json_types(tmp_path, section, key, value):
    src = tmp_path / "report.json"
    assert main(["roundtrip", "--scenario", str(bundled_scenario("pivot_point")),
                 "--workdir", str(tmp_path)]) == 0
    read_report(src)
    data = json.loads(src.read_text())
    target = {"conditioning": data["estimate"]["conditioning"], "estimate": data["estimate"],
              "config": data["config"], "report": data}[section]
    target[key] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    with pytest.raises(ParseError, match=key):
        read_report(bad)


def test_a_report_direction_too_long_to_square_is_rejected_without_a_warning(tmp_path):
    src = tmp_path / "report.json"
    assert main(["roundtrip", "--scenario", str(bundled_scenario("hinge_direction")),
                 "--workdir", str(tmp_path)]) == 0
    data = json.loads(src.read_text())
    data["estimate"]["direction"] = [1e308, 1e308, 0]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ParseError, match=r"unit norm, got \|d\| = 1.414\d*e\+308"):
            read_report(bad)


def test_report_needs_the_estimates_residuals(tmp_path):
    estimate = ContactEstimate(
        kind=ContactKind.FIXED_POINT, point=np.zeros(3), direction=None, residual_rms=0.25,
        conditioning=ConditioningReport(max_rotation_angle=1.0, smallest_singular_value=1.0,
                                        condition_number=1.0, well_posed=True))
    assert estimate.per_frame_residuals is None
    report = EstimateReport(estimate=estimate, config=EstimatorConfig(), provenance={})
    with pytest.raises(ValueError, match="per-frame residuals"):
        write_report(tmp_path / "report.json", report)
    assert not (tmp_path / "report.json").exists()


def test_report_of_line_estimate_round_trips(tmp_path):
    config = read_scenario(bundled_scenario("box_on_edge"))
    frames, _ = generate(config)
    from tacloc import estimate_line_contact, line_contact_residuals
    motions = register_sequence(frames)
    n0 = config.contact.surface_normal
    est = estimate_line_contact(motions, n0)
    assert np.array_equal(est.per_frame_residuals, line_contact_residuals(motions, n0, est.point))
    report = EstimateReport(estimate=est, config=EstimatorConfig(),
                            provenance={"input_sha256": "ab", "tool_version": "x",
                                        "frame_count": len(frames)})
    path = tmp_path / "report.json"
    write_report(path, report)
    back = read_report(path)
    assert back.estimate.kind is ContactKind.LINE
    assert np.array_equal(back.estimate.point, est.point)
    assert np.array_equal(back.estimate.direction, est.direction)
    assert np.array_equal(back.estimate.per_frame_residuals, est.per_frame_residuals)
    assert len(back.estimate.per_frame_residuals) == len(frames) - 1


def test_bundled_scenarios_all_parse():
    names = ["box_on_edge", "box_on_edge_noisy", "pivot_point",
             "pivot_point_noisy", "hinge_direction", "hinge_direction_noisy"]
    for name in names:
        config = read_scenario(bundled_scenario(name))
        assert config.name == name
        assert config.tolerances  # every scenario states its tolerances


# ---------------------------------------------------------------------------
# One numeric rule for every file: a number must be a JSON number.

READERS = {"tacloc.marker_log/1": read_marker_log, "tacloc.motions/1": read_motion_sequence,
           "tacloc.truth/1": read_truth, "tacloc.scenario/1": read_scenario,
           "tacloc.report/1": read_report}


@pytest.fixture(scope="module")
def roundtrip_files(tmp_path_factory):
    """The files of a box_on_edge roundtrip: its report is a line estimate,
    so it carries both a point and a direction."""
    work = tmp_path_factory.mktemp("box_on_edge")
    assert main(["roundtrip", "--scenario", str(bundled_scenario("box_on_edge")),
                 "--workdir", str(work)]) == 0
    return work


def _document(files, source):
    """The JSON of a roundtrip file ('markers', 'motions', 'truth', 'report')
    or of a bundled scenario."""
    if source in ("markers", "motions", "truth", "report"):
        return json.loads((files / f"{source}.json").read_text())
    return json.loads(bundled_scenario(source).read_text())


def _container(doc, path):
    for key in path[:-1]:
        doc = doc[key]
    return doc


def _read(doc, directory):
    path = pathlib.Path(directory) / "doc.json"
    path.write_text(json.dumps(doc))
    return READERS[doc["schema"]](path)


# Every numeric field of the motion, truth, scenario and report files.
NUMERIC_FIELDS = [
    ("motions", ["motions", 1, "rotation"]),
    ("motions", ["motions", 1, "translation"]),
    ("motions", ["motions", 1, "rms_error"]),
    ("motions", ["motions", 1, "frame_index"]),
    ("truth", ["contact", "direction"]),
    ("truth", ["contact", "point"]),
    ("truth", ["contact", "surface_normal"]),
    ("truth", ["motions", 1, "rotation"]),
    ("truth", ["motions", 1, "translation"]),
    ("truth", ["motions", 1, "frame_index"]),
    ("pivot_point", ["noise_sigma"]),
    ("pivot_point", ["seed"]),
    ("pivot_point", ["grid", "rows"]),
    ("pivot_point", ["grid", "cols"]),
    ("pivot_point", ["grid", "pitch"]),
    ("pivot_point", ["grid", "dome_height"]),
    ("pivot_point", ["grid", "pose", "rotation"]),
    ("pivot_point", ["grid", "pose", "translation"]),
    ("pivot_point", ["grid", "pose", "frame_index"]),
    ("pivot_point", ["contact", "point"]),
    ("pivot_point", ["schedule", 1, "angle"]),
    ("pivot_point", ["schedule", 1, "axis"]),
    ("pivot_point", ["schedule", 1, "slide"]),
    ("pivot_point", ["tolerances", "point_distance"]),
    ("hinge_direction", ["contact", "direction"]),
    ("hinge_direction", ["schedule", 1, "translation"]),
    ("box_on_edge", ["contact", "direction"]),
    ("box_on_edge", ["contact", "point"]),
    ("box_on_edge", ["contact", "surface_normal"]),
    ("report", ["estimate", "point"]),
    ("report", ["estimate", "direction"]),
    ("report", ["estimate", "residual_rms"]),
    ("report", ["estimate", "conditioning", "max_rotation_angle"]),
    ("report", ["estimate", "conditioning", "smallest_singular_value"]),
    ("report", ["estimate", "conditioning", "condition_number"]),
    ("report", ["per_frame_residuals"]),
    ("report", ["config", "angle_threshold"]),
    ("report", ["config", "cond_threshold"]),
    ("report", ["config", "rank_tolerance"]),
    ("report", ["config", "min_frames"]),
]
INTEGER_KEYS = {"frame_index", "seed", "rows", "cols", "min_frames"}
FAULTS = ("string", "true", "false", "null", "row_of_booleans", "overflow", "wrong_shape")


def _faulty(value, fault):
    """value with one fault: in the first number of its last row when value
    is an array, else in value itself."""
    if fault == "wrong_shape":
        return [value]  # one dimension too many; for a scalar, a list
    if isinstance(value, list):
        value = copy.deepcopy(value)
        row = value[-1] if isinstance(value[-1], list) else value
        if fault == "row_of_booleans":
            row[:] = [k % 2 == 0 for k in range(len(row))]
        else:
            row[0] = _faulty(row[0], fault)
        return value
    return {"string": str(value), "true": True, "false": False, "null": None,
            "row_of_booleans": [True, False, True], "overflow": 10**400}[fault]


def _fault_cases():
    for source, path in NUMERIC_FIELDS:
        for fault in FAULTS:
            if fault == "overflow" and path[-1] in INTEGER_KEYS:
                continue  # a JSON integer of any size is an integer
            if fault == "null" and path[-1] == "condition_number":
                continue  # null is how a report stores an infinite condition number
            yield pytest.param(source, path, fault,
                               id=f"{source}-{'.'.join(map(str, path))}-{fault}")


@pytest.mark.parametrize("source, path, fault", list(_fault_cases()))
def test_every_numeric_field_rejects_other_json_types(roundtrip_files, tmp_path,
                                                      source, path, fault):
    doc = _document(roundtrip_files, source)
    _read(doc, tmp_path)  # the file as written reads
    node = _container(doc, path)
    assert node[path[-1]] is not None
    node[path[-1]] = _faulty(node[path[-1]], fault)
    with pytest.raises(ParseError, match=path[-1]):
        _read(doc, tmp_path)


# One element of an array field in which any finite number is valid data, so
# that the reader's verdict turns on the element's JSON type alone.
ANY_NUMBER_ELEMENTS = [
    ("markers", ["frames", 1, "positions", 3, 1]),
    ("motions", ["motions", 1, "translation", 0]),
    ("truth", ["motions", 2, "translation", 2]),
    ("pivot_point", ["contact", "point", 1]),
    ("pivot_point", ["grid", "pose", "translation", 0]),
    ("hinge_direction", ["schedule", 1, "translation", 2]),
    ("report", ["estimate", "point", 0]),
    ("report", ["per_frame_residuals", 1]),
]

# Integers stay within 64 bits: numpy reads a longer one as an object, which
# the array rule rejects although _number takes it.
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2**63, 2**63 - 1) | st.floats()
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=2), inner,
                                                                 max_size=2),
    max_leaves=5)


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(ANY_NUMBER_ELEMENTS), _JSON_VALUES)
def test_an_array_element_reads_iff_it_is_a_finite_json_number(roundtrip_files, where, value):
    source, path = where
    doc = _document(roundtrip_files, source)
    _container(doc, path)[path[-1]] = value
    try:
        _number(value, "element")
        expected = True
    except ParseError:
        expected = False
    with tempfile.TemporaryDirectory() as tmp:
        try:
            _read(doc, tmp)
            accepted = True
        except (ParseError, NonFiniteValue):  # anything else is a bug and fails the test
            accepted = False
    assert accepted == expected, value


def test_integers_beyond_64_bits_are_rejected_in_arrays(roundtrip_files, tmp_path):
    doc = _document(roundtrip_files, "motions")
    doc["motions"][1]["translation"][0] = 2**64
    with pytest.raises(ParseError, match="translation"):
        _read(doc, tmp_path)


@pytest.mark.parametrize("source, path, value, message", [
    ("box_on_edge", ["contact", "kind"], "wedge", "unknown contact kind 'wedge'"),
    ("box_on_edge", ["contact", "surface_normal"], [1, 0, 0],
     "contact: surface_normal must be perpendicular to the edge"),
    ("pivot_point", ["schedule", 1, "axis"], [0, 0, 0], "schedule step 1: axis must be nonzero"),
    ("report", ["estimate", "direction"], [2, 0, 0], "estimate: direction must be unit norm"),
    ("report", ["config", "min_frames"], 0, "config: min_frames must be at least 1"),
    ("report", ["estimate", "point"], None,
     "estimate: line estimate must carry a point iff the kind does"),
    ("report", ["estimate", "kind"], "fixed_point",
     "estimate: fixed_point estimate must carry a direction iff the kind does"),
    ("report", ["estimate", "residual_rms"], -1, "estimate: residual_rms must be nonnegative"),
    ("pivot_point", ["grid", "rows"], 1, "grid: grid needs at least 2 rows and 2 cols"),
    ("pivot_point", ["grid", "pitch"], 0, "grid: pitch must be positive"),
    ("pivot_point", ["grid", "pitch"], 1e300, "grid: grid extent 1e+301 is too large"),
], ids=["unknown_contact_kind", "edge_normal_along_edge", "zero_axis", "direction_not_unit",
        "min_frames_zero", "line_report_without_point", "point_report_with_direction",
        "negative_residual_rms", "one_grid_row", "zero_pitch", "overflowing_grid"])
def test_a_value_its_type_rejects_is_a_parse_error_naming_its_context(
        roundtrip_files, tmp_path, source, path, value, message):
    doc = _document(roundtrip_files, source)
    _container(doc, path)[path[-1]] = value
    with pytest.raises(ParseError) as excinfo:
        _read(doc, tmp_path)
    assert str(excinfo.value).startswith(message)


@pytest.mark.parametrize("source", ["motions", "truth"])
def test_a_bad_motion_is_named(roundtrip_files, tmp_path, source):
    doc = _document(roundtrip_files, source)
    doc["motions"][2]["rotation"][2] = [-v for v in doc["motions"][2]["rotation"][2]]
    with pytest.raises(ParseError, match="motion 2: matrix is a reflection"):
        _read(doc, tmp_path)
    doc = _document(roundtrip_files, source)
    doc["motions"][3]["rotation"][1][0] = float("nan")
    with pytest.raises(NonFiniteValue, match="motion 3 'rotation': non-finite value at entry 1"):
        _read(doc, tmp_path)


@pytest.mark.parametrize("motions", [5, [], {}, "motions"])
@pytest.mark.parametrize("source", ["motions", "truth"])
def test_motions_must_be_a_non_empty_list(roundtrip_files, tmp_path, source, motions):
    doc = _document(roundtrip_files, source)
    doc["motions"] = motions
    with pytest.raises(ParseError, match="'motions' must be a non-empty list"):
        _read(doc, tmp_path)


def test_every_file_kind_reads_and_writes_back_byte_for_byte(roundtrip_files, tmp_path):
    writers = {read_marker_log: write_marker_log, read_motion_sequence: write_motion_sequence,
               read_truth: write_truth, read_scenario: write_scenario, read_report: write_report}
    sources = [roundtrip_files / f"{name}.json" for name in ("markers", "motions", "truth",
                                                             "report")]
    for source in sources + [bundled_scenario("box_on_edge")]:
        reader = READERS[json.loads(source.read_text())["schema"]]
        out = tmp_path / "out.json"
        writers[reader](out, reader(source))
        assert out.read_bytes() == source.read_bytes(), source


def test_failed_write_leaves_the_file_as_it_was(roundtrip_files, tmp_path):
    path = tmp_path / "report.json"
    path.write_bytes((roundtrip_files / "report.json").read_bytes())
    report = read_report(path)
    before = path.read_bytes()
    bad = EstimateReport(estimate=report.estimate, config=report.config,
                         provenance={**report.provenance, "note": float("nan")})
    with pytest.raises(NonFiniteValue):
        write_report(path, bad)
    assert path.read_bytes() == before


def _traced_peak(call) -> int:
    """The most bytes call had allocated at once, as tracemalloc counts them."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_writing_a_marker_log_holds_little_more_than_its_text(tmp_path):
    # a writer that copies the document per nesting level peaks at 3x the file
    rng = np.random.default_rng(17)
    log = MarkerLog(tuple(MarkerFrame(rng.standard_normal((400, 3)), k) for k in range(20)))
    path = tmp_path / "log.json"
    write_marker_log(path, log)
    first = path.read_bytes()
    peak = _traced_peak(lambda: write_marker_log(path, log))
    assert path.read_bytes() == first
    assert peak < 1.5 * len(first), peak / len(first)


@pytest.mark.parametrize("size", [0, 1, _HASH_BLOCK, 8 * _HASH_BLOCK, 8 * _HASH_BLOCK + 12345])
def test_sha256_of_file_hashes_block_by_block(tmp_path, size):
    path = tmp_path / "data.bin"
    path.write_bytes(np.random.default_rng(size).bytes(size))
    digest = []
    peak = _traced_peak(lambda: digest.append(sha256_of_file(path)))
    assert digest == [hashlib.sha256(path.read_bytes()).hexdigest()]
    assert peak < 2 * _HASH_BLOCK


# ---------------------------------------------------------------------------
# Byte-stability oracle: the emitter as it was before whole-array formatting,
# kept verbatim. Every value must render to the same text through io.dumps.

_REF_INDENT = "  "


def _reference_emit(value, depth: int) -> str:
    if value is None:
        return "null"
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        value = float(value)
        if not math.isfinite(value):
            raise NonFiniteValue(f"cannot serialize {value!r}")
        return format(value, ".17g")
    if isinstance(value, np.ndarray):
        value = value.tolist()
    if isinstance(value, dict):
        if not value:
            return "{}"
        pad = _REF_INDENT * (depth + 1)
        body = ",\n".join(f"{pad}{json.dumps(str(k))}: {_reference_emit(v, depth + 1)}"
                          for k, v in value.items())
        return "{\n" + body + "\n" + _REF_INDENT * depth + "}"
    if isinstance(value, (list, tuple)):
        items = list(value)
        if not items:
            return "[]"
        if all(not isinstance(v, (dict, list, tuple, np.ndarray)) for v in items):
            return "[" + ", ".join(_reference_emit(v, depth) for v in items) + "]"
        pad = _REF_INDENT * (depth + 1)
        body = ",\n".join(pad + _reference_emit(v, depth + 1) for v in items)
        return "[\n" + body + "\n" + _REF_INDENT * depth + "]"
    raise TypeError(f"cannot serialize {type(value).__name__}")


def _oracle_values():
    rng = np.random.default_rng(7)
    specials = np.array([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308 / 3,
                         1.7976931348623157e308, -1.7976931348623157e308,
                         1.0, -3.0, 1e16, 1e17, 123456789012345678.0, 0.1, 1 / 3])
    mixed = rng.standard_normal((7, 3)) * np.logspace(-300, 300, 7)[:, None]
    return {
        "specials_1d": specials,
        "specials_2d": specials[:12].reshape(4, 3),
        "integral": np.arange(-4.0, 5.0).reshape(3, 3),
        "float32": rng.standard_normal((5, 3)).astype(np.float32),
        "float32_1d": np.array([0.1, -2.5, 3e38], dtype=np.float32),
        "empty_1d": np.zeros(0),
        "empty_rows": np.zeros((0, 3)),
        "empty_cols": np.zeros((4, 0)),
        "one_row": np.array([[0.5, -0.25, 1e-9]]),
        "many_rows": mixed,
        "rotation": np.eye(3),
        "transposed": rng.standard_normal((3, 5)).T,
        "three_d": rng.standard_normal((2, 2, 3)),
        "ints": np.arange(6).reshape(2, 3),
        "ints_1d": np.arange(-3, 3, dtype=np.int32),
        "bools": np.array([[True, False, True]]),
        "scalar_array": np.array(2.5),
        "nested": [{"positions": rng.standard_normal((2, 3)), "index": 1},
                   [np.array([1.5, -0.0]), np.array([[1.0, 2.0]])], []],
        "scalars": [np.float64(0.1), np.float32(0.1), np.int64(3), np.bool_(True), None, "x"],
    }


def _outcome(render, value):
    """The text rendered, or the type and message of the error raised."""
    try:
        return render(value)
    except (NonFiniteValue, TypeError) as err:
        return type(err), str(err)


def _assert_matches_reference(value):
    for wrapped in (value, {"k": value}, [value, value], {"a": [{"b": value}]}):
        doc = {"v": wrapped}
        assert _outcome(dumps, doc) == _outcome(lambda d: _reference_emit(d, 0) + "\n", doc)


@pytest.mark.parametrize("name", sorted(_oracle_values()))
def test_dumps_matches_reference_emitter(name):
    _assert_matches_reference(_oracle_values()[name])


@settings(max_examples=300, deadline=None)
@given(hnp.arrays(dtype=st.sampled_from([np.float64, np.float32, np.int64, np.bool_]),
                  shape=hnp.array_shapes(min_dims=1, max_dims=3, min_side=0, max_side=4)))
def test_dumps_matches_reference_emitter_on_random_arrays(arr):
    _assert_matches_reference(arr)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("shape", [(5,), (4, 3), (1, 3), (2, 2, 3)])
def test_non_finite_arrays_raise_the_reference_message(bad, shape):
    for offset in (0, 1, -1):
        arr = np.arange(float(np.prod(shape))).reshape(shape)
        arr.flat[offset] = bad
        arr.flat[-1 if offset != -1 else 0] = -bad  # a second offender, other sign
        with pytest.raises(NonFiniteValue):
            dumps({"v": arr})
        _assert_matches_reference(arr)
        _assert_matches_reference(arr.astype(np.float32))


# SHA-256s of `simulate --truth` output for the bundled scenarios, taken
# before whole-array formatting (the same values the benchmark pins).
SCENARIO_SHA256 = {
    "box_on_edge": ("74704b9dbb86c4dc98cc6a8b60d8964c600dbb55754d1722ce9abfb188cb23d2",
                    "2c8a3cb69408cff2803cd537f1a619a0ac9d1bce81cb75a00abd785580b9b47b"),
    "box_on_edge_noisy": ("d4488dbefa8965902e313e2475a4326fd8f22756440b9749c5634f5ceb959d01",
                          "2c8a3cb69408cff2803cd537f1a619a0ac9d1bce81cb75a00abd785580b9b47b"),
    "hinge_direction": ("5e83127db1c950c3855116d109bff1280218df57cfb979caf67f3736feb31f3f",
                        "139e13cab71df59821b51d8417583f33b2944948fbc96a81dc100037a6ded6d6"),
    "hinge_direction_noisy": ("9d69de3f64126da20078521794545d330e22c5754124d44a0c92f04b8d77bd92",
                              "139e13cab71df59821b51d8417583f33b2944948fbc96a81dc100037a6ded6d6"),
    "pivot_point": ("111563fab5d7dadc1b20809b4feb0308a384cc304d396ba0487dd76895e02a01",
                    "527a9e7998d171ec7079061637ab9450a426cf7030875c52d5151d37f473ae66"),
    "pivot_point_noisy": ("d6120de29bb41320b25b675a53a9f49d261b841d243097a4b723ac9172ae30c3",
                          "527a9e7998d171ec7079061637ab9450a426cf7030875c52d5151d37f473ae66"),
}


@pytest.mark.parametrize("name", sorted(SCENARIO_SHA256))
def test_simulated_files_match_golden_sha256(tmp_path, name):
    markers, truth = tmp_path / "markers.json", tmp_path / "truth.json"
    assert main(["simulate", "--scenario", str(bundled_scenario(name)),
                 "--out", str(markers), "--truth", str(truth)]) == 0
    got = tuple(hashlib.sha256(p.read_bytes()).hexdigest() for p in (markers, truth))
    assert got == SCENARIO_SHA256[name]


# SHA-256s of the motions.json and report.json that `roundtrip --workdir`
# writes for the bundled scenarios, taken when roundtrip still ran the
# simulate, register and estimate commands one after another.
ROUNDTRIP_SHA256 = {
    "box_on_edge": ("6b69398a832c34c36e2463beac7a9aadad094deae6b7049031cc1888ce14f1a4",
                   "da0031c593c85057c5b9c1f4fb760a9bc82367a53cddf471cfa5776cb891ed8c"),
    "box_on_edge_noisy": ("cb3145167c4cf2ae116019ac1e4e0e3b8130437667dde903159dbfc5a4e39a59",
                         "e42641828dd4bc2b0df9e3f10f36fe1f13871a0cef7705313a942cb8ddcac73e"),
    "hinge_direction": ("dd9b674e53536fa625ac8453f7345eeab5ae44550f5c0e5a964ccceaeb7c7563",
                       "6bf68fd503198f0e16776612eac0064789714801ec3fa09a9f227e9dbd5551c0"),
    "hinge_direction_noisy": ("2b316dd3310a39bea233aae0d8ad01641d957fb075df8c8e53c0170dff1b8016",
                             "2fdba03c9d2f8bab1bea30605c85b5ada0f7016ef147066a3f3e749593a4a941"),
    "pivot_point": ("82ccf5fea80bd40a1950d093fec2a2c15c8364649e01a87606e1e5b20b612c38",
                   "0a7a969550bafe5f10ba8235fe3101c6fe903eaf0c1a0c9008418713efed3391"),
    "pivot_point_noisy": ("e36ddd046debc03a9b2166eb274049fd8093093452addcb80dc2222b2399cbda",
                         "e737f4d861abb19e0bdaab245af55517ace87375d98c50780a1c76591ce7d57c"),
}


@pytest.mark.parametrize("name", sorted(ROUNDTRIP_SHA256))
def test_roundtrip_files_match_golden_sha256(tmp_path, name):
    assert main(["roundtrip", "--scenario", str(bundled_scenario(name)),
                 "--workdir", str(tmp_path)]) == 0
    got = tuple(hashlib.sha256((tmp_path / f).read_bytes()).hexdigest()
                for f in ("markers.json", "truth.json", "motions.json", "report.json"))
    assert got == SCENARIO_SHA256[name] + ROUNDTRIP_SHA256[name]


def test_make_scenarios_reproduces_the_bundled_files(tmp_path):
    import importlib.util
    import pathlib
    script = pathlib.Path(__file__).resolve().parent.parent / "tools" / "make_scenarios.py"
    spec = importlib.util.spec_from_file_location("make_scenarios", script)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert sorted(c.name for c in module.SCENARIOS) == sorted(SCENARIO_SHA256)
    for config in module.SCENARIOS:
        out = tmp_path / f"{config.name}.json"
        write_scenario(out, config)
        assert out.read_bytes() == bundled_scenario(config.name).read_bytes(), config.name
