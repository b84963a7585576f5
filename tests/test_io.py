"""File formats: byte-stable serialization, validation, error reporting."""

import copy
import dataclasses
import hashlib
import io
import json
import math
import os
import pathlib
import stat
import tempfile
import textwrap
import threading
import tracemalloc
import warnings

import hypothesis.extra.numpy as hnp
import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from tacloc import motion
from tacloc import (ConditioningReport, ContactEstimate, ContactKind,
                    EstimateReport, EstimatorConfig, FixedPointContact, MarkerFrame, MarkerGrid,
                    MarkerLog, MotionSequence, MotionStep, NonFiniteValue, ParseError, Provenance,
                    RelativeMotion, ScenarioConfig, ScenarioTruth, SchemaVersionMismatch, generate,
                    read_marker_log, read_motion_sequence, read_report, read_scenario,
                    read_truth, register_sequence, write_marker_log, write_motion_sequence,
                    write_report, write_scenario, write_truth)
from tacloc.cli import main
from tacloc.io import (_HASH_BLOCK, _array, _entries, _invalid, _number, _positions_array,
                       _require, dumps, sha256_of_file)

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
    _set(["frames", 0, "positions"], []),
], ids=["frame_not_object", "index_string", "index_fraction",
        "index_integral_float", "index_bool", "index_negative", "units_number",
        "units_null", "coordinate_overflows_float", "coordinate_string", "coordinate_true",
        "coordinate_false", "coordinate_row_of_booleans", "coordinate_null", "no_markers"])
def test_marker_log_reader_rejects_wrong_json_types(tmp_path, mutate):
    path = tmp_path / "log.json"
    data = json.loads(GOLDEN_LOG)
    mutate(data)
    path.write_text(json.dumps(data))
    with pytest.raises(ParseError):
        read_marker_log(path)


def _reference_read_marker_log(path) -> MarkerLog:
    """A marker log read the plain way: the whole document decoded to Python
    objects first, then each frame's positions list through _array, a scan of
    every entry for a boolean, which numpy would read as 1 or 0, and the
    magnitude range."""
    data = json.loads(pathlib.Path(path).read_text(encoding="utf-8"))
    units = _require(data, "units", "marker log", str)
    raw_frames = _entries(data, "frames", "marker log")
    shape, stack = (None, 3), []
    for i, raw in enumerate(raw_frames):
        index = _require(raw, "frame_index", f"frame {i}", int)
        if index != i:
            raise ParseError(f"frame {i}: frame indices must be dense from 0, got {index}")
        stack.append(_array(raw, "positions", f"frame {i}", shape, "marker"))
        if any(type(v) is bool for row in raw["positions"] for v in row):
            raise ParseError(f"frame {i} 'positions' is not numeric: an entry is a boolean")
        with _invalid():
            motion._in_range(stack[-1], f"frame {i} 'positions'")
        shape = stack[0].shape
    return MarkerLog._of_stack(np.array(stack), units=units)


def _every_frame_in_range(stack) -> bool:
    """Whether each frame's largest |entry| is 0 or in [2**-200, 2**200], the magnitude range."""
    tops = np.abs(stack).max(axis=(1, 2), initial=0.0)
    return bool(((tops == 0.0) | ((tops >= 2.0**-200) & (tops <= 2.0**200))).all())


def _read_outcome(read, path):
    """The log's units, stack shape and bytes, or the type and message of the error raised."""
    try:
        log = read(path)
    except (ParseError, NonFiniteValue) as err:  # anything else fails the test
        return type(err), str(err)
    return log.units, log.positions.shape, log.positions.tobytes()


_NESTED_FRAME = {"frame_index": 0, "positions": [[1.0, 2.0, 3.0]]}
# What replaces one coordinate, or one frame's whole positions.
COORDINATE_CORRUPTIONS = {"string": "1.5", "true": True, "false": False, "null": None,
                          "overflow": 10**400, "big_integer": 2**64, "nan": math.nan,
                          "infinity": -math.inf, "nested_object": _NESTED_FRAME,
                          "past_range": 2.0**201}
POSITIONS_CORRUPTIONS = {"positions_object": _NESTED_FRAME, "positions_empty": [],
                         "positions_number": 2.0, "positions_below_range": [[2.0**-201, 0, 0]]}
# The other corruptions, each of a document, one frame of it, a marker and an axis.
SHAPE_CORRUPTIONS = {
    "none": lambda doc, frame, m, a: None,
    "ragged_row": lambda doc, frame, m, a: frame["positions"][m].pop(a),
    "long_row": lambda doc, frame, m, a: frame["positions"][m].append(1.0),
    "extra_marker": lambda doc, frame, m, a: frame["positions"].append([0.0, 0.0, 0.0]),
    "row_is_number": lambda doc, frame, m, a: frame["positions"].__setitem__(m, 1.0),
    "nested_row": lambda doc, frame, m, a: frame["positions"].__setitem__(m, _NESTED_FRAME),
    "frame_index": lambda doc, frame, m, a: frame.__setitem__("frame_index", 7),
    "stray_top_level": lambda doc, frame, m, a: doc.__setitem__("positions", [[1.0, 2.0], [3.0]]),
    "stray_top_level_floats": lambda doc, frame, m, a: doc.__setitem__(
        "positions", frame["positions"]),
    "units_spelling_true": lambda doc, frame, m, a: doc.__setitem__("units", "untrue"),
}
LOG_CORRUPTIONS = sorted({**COORDINATE_CORRUPTIONS, **POSITIONS_CORRUPTIONS, **SHAPE_CORRUPTIONS})


def _corrupt(doc, corruption, f, m, a) -> None:
    frame = doc["frames"][f]
    if corruption in COORDINATE_CORRUPTIONS:
        frame["positions"][m][a] = COORDINATE_CORRUPTIONS[corruption]
    elif corruption in POSITIONS_CORRUPTIONS:
        frame["positions"] = POSITIONS_CORRUPTIONS[corruption]
    else:
        SHAPE_CORRUPTIONS[corruption](doc, frame, m, a)


@settings(max_examples=300, deadline=None)
@given(stack=hnp.arrays(np.float64, hnp.array_shapes(min_dims=3, max_dims=3, max_side=4).map(
           lambda s: s[:2] + (3,)), elements=st.floats(allow_nan=False, allow_infinity=False)),
       corruption=st.sampled_from(LOG_CORRUPTIONS), where=st.tuples(*[st.integers(0)] * 3))
def test_marker_log_reader_matches_a_plain_reader(stack, corruption, where):
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "log.json"
        write_marker_log(path, MarkerLog._of_stack(stack))
        doc = json.loads(path.read_text())
        f, m, a = (k % n for k, n in zip(where, stack.shape))
        _corrupt(doc, corruption, f, m, a)
        if corruption != "none":
            path.write_text(json.dumps(doc))
        got = _read_outcome(read_marker_log, path)
        assert got == _read_outcome(_reference_read_marker_log, path), corruption
        # a stack of any floats, so a frame may be out of range: then the log is rejected
        if corruption == "none" and _every_frame_in_range(stack):
            assert got[2] == stack.tobytes()


@pytest.mark.parametrize("top, accepted", [
    (2.0**200, True), (2.0**-200, True), (0.0, True),
    (np.nextafter(2.0**200, math.inf), False), (np.nextafter(2.0**-200, 0.0), False)],
    ids=["top", "bottom", "zero", "past_top", "below_bottom"])
def test_a_marker_log_frame_is_read_within_the_magnitude_range(tmp_path, top, accepted):
    # the range is on a frame's largest |entry|: a residue or a subnormal beside it is read
    frame = [[top, top * 1e-17, 5e-324 if top else 0.0], [0.0, 0.0, -top]]
    stack = np.array([[[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], frame])
    path = tmp_path / "log.json"
    write_marker_log(path, MarkerLog._of_stack(stack))
    if accepted:
        assert read_marker_log(path).positions.tobytes() == stack.tobytes()
        assert MarkerFrame(frame).positions.tobytes() == stack[1].tobytes()
    else:
        with pytest.raises(ParseError, match=r"^frame 1 'positions': largest \|entry\| "):
            read_marker_log(path)
        with pytest.raises(ValueError, match=r"^positions: largest \|entry\| "):
            MarkerFrame(frame)


def test_reading_a_marker_log_holds_about_twice_its_text(tmp_path):
    # decoding the whole document before converting it peaks at 3.4x the file
    rng = np.random.default_rng(19)
    path = tmp_path / "log.json"
    stack = rng.standard_normal((30, 400, 3))
    write_marker_log(path, MarkerLog._of_stack(stack))
    canonical = path.read_text()
    # a true anywhere in the text, even inside a string, is read the same way
    for text in (canonical,
                 canonical.replace('  "units": "mm",\n', '  "units": "mm",\n  "note": true,\n'),
                 canonical.replace('"units": "mm"', '"units": "untrue"')):
        assert text.count("true") == (text != canonical)
        path.write_text(text)
        peak = _traced_peak(lambda: read_marker_log(path))
        assert peak < 2.5 * path.stat().st_size, peak / path.stat().st_size
        assert read_marker_log(path).positions.tobytes() == stack.tobytes()


def test_reading_a_marker_log_converts_each_frame_once(tmp_path, monkeypatch):
    path, log = tmp_path / "log.json", _log(3)
    write_marker_log(path, log)
    calls = []
    floats = motion._floats
    monkeypatch.setattr(motion, "_floats", lambda *args: calls.append(args[1]) or floats(*args))
    assert read_marker_log(path).positions.tobytes() == log.positions.tobytes()
    assert len(calls) == 3, calls


# Where a boolean hides in a list of rows: (rows, cols, row, col). _floats scans only
# the rows that its flat index of every 0 or 1 names.
BOOLEAN_SPOTS = {"first_entry": (1600, 3, 0, 0), "middle_row_last": (1600, 3, 917, 2),
                 "last_entry": (1600, 3, -1, -1), "rotation_last_row": (3, 3, 2, 0)}


def _rows_with_a_boolean(spot):
    n, cols, row, col = BOOLEAN_SPOTS[spot]
    rows = np.random.default_rng(n).standard_normal((n, cols)).tolist()
    rows[row][col] = True
    return rows


@pytest.mark.parametrize("spot", sorted(BOOLEAN_SPOTS))
def test_a_boolean_anywhere_in_a_list_of_rows_is_rejected(spot):
    rows = _rows_with_a_boolean(spot)
    shape = (3, 3) if len(rows) == 3 else (None, 3)
    with pytest.raises(ValueError, match="^rows is not numeric: an entry is a boolean$"):
        motion._floats(rows, "rows", shape)


@pytest.mark.parametrize("spot", sorted(s for s in BOOLEAN_SPOTS if BOOLEAN_SPOTS[s][0] > 3))
def test_a_boolean_anywhere_in_a_logged_frame_names_the_frame(tmp_path, spot):
    frames = [np.random.default_rng(0).standard_normal((1600, 3)).tolist(),
              _rows_with_a_boolean(spot)]
    path = tmp_path / "log.json"
    path.write_text(json.dumps({"schema": "tacloc.marker_log/1", "units": "mm", "frames": [
        {"frame_index": k, "positions": rows} for k, rows in enumerate(frames)]}))
    with pytest.raises(ParseError, match="^frame 1 'positions' is not numeric: "
                                         "an entry is a boolean$"):
        read_marker_log(path)


def test_rows_of_exact_zeros_and_ones_are_accepted(tmp_path):
    # a noiseless unit grid's frame 0: every row is a suspect, none holds a bool
    grid = [[float(i % 2), float(i // 2 % 2), 0.0] for i in range(1600)]
    assert motion._floats(grid, "grid", (None, 3)).tolist() == grid
    assert motion._floats(np.eye(3).tolist(), "rotation", (3, 3)).tolist() == np.eye(3).tolist()
    path = tmp_path / "log.json"
    path.write_text(json.dumps({"schema": "tacloc.marker_log/1", "units": "mm", "frames": [
        {"frame_index": k, "positions": grid} for k in range(2)]}))
    assert read_marker_log(path).positions.tolist() == [grid, grid]


# A hand-written log, one line per list entry; the bad one lacks the comma after [1, 0, 0].
HAND_WRITTEN_LOG = ['{"schema": "tacloc.marker_log/1",', ' "units": "mm",', ' "frames": [',
                    '  {"frame_index": 0, "positions": [[0, 0, 0], [1, 0, 0], [0, 1, 0.5]]},',
                    '  {"frame_index": 1, "positions": [[0, 0, 1], [1, 0, 1], [0, 1, 1.5]]}',
                    ' ]', '}', '']


@pytest.mark.parametrize("source", ["path", "binary_file"])
@pytest.mark.parametrize("newline", ["\r", "\r\n"], ids=["cr", "crlf"])
def test_a_log_with_other_line_ends_reads_and_fails_as_text_mode_reads_it(tmp_path, newline,
                                                                           source):
    def read(lines):
        data = newline.join(lines).encode()
        path = tmp_path / "log.json"
        path.write_bytes(data)
        return read_marker_log(path if source == "path" else io.BytesIO(data))

    assert read(HAND_WRITTEN_LOG).positions.tolist() == [
        [[0, 0, 0], [1, 0, 0], [0, 1, 0.5]], [[0, 0, 1], [1, 0, 1], [0, 1, 1.5]]]
    bad = [line.replace("[1, 0, 0],", "[1, 0, 0]") for line in HAND_WRITTEN_LOG]
    with pytest.raises(ParseError) as excinfo:  # text mode counts a bare CR as a line end
        read(bad)
    assert (str(excinfo.value), excinfo.value.line, excinfo.value.column) == (
        "Expecting ',' delimiter", 4, 57)


def test_every_reader_reads_an_open_binary_file_as_its_path(tmp_path):
    workdir = tmp_path / "work"
    assert main(["roundtrip", "--scenario", str(bundled_scenario("box_on_edge")),
                 "--workdir", str(workdir)]) == 0
    files = [(read_marker_log, write_marker_log, workdir / "markers.json"),
             (read_motion_sequence, write_motion_sequence, workdir / "motions.json"),
             (read_truth, write_truth, workdir / "truth.json"),
             (read_report, write_report, workdir / "report.json"),
             (read_scenario, write_scenario, bundled_scenario("box_on_edge"))]
    for read, write, path in files:
        with open(path, "rb") as fh:
            value = read(fh)
            assert fh.closed
        write(tmp_path / "again.json", value)
        assert (tmp_path / "again.json").read_bytes() == path.read_bytes(), path.name


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


def test_negative_zero_round_trips_bit_exact(tmp_path):
    # "%.17g" writes -0.0 as -0, which JSON reads back as the integer 0
    stack = np.array([[[-0.0, 1.0, 0.0], [2.0, -0.0, -0.0]], [[0.0, -0.0, 1.0], [2.0, 0.5, 0.0]]])
    motions = MotionSequence((RelativeMotion.identity(0),
                              RelativeMotion([[1.0, -0.0, 0.0], [0.0, 1.0, -0.0], [-0.0, 0.0, 1.0]],
                                             [-0.0, 0.5, 0.0], 1)),
                             rms_errors=(-0.0, 1e-5))
    pivot = read_scenario(bundled_scenario("pivot_point"))
    config = dataclasses.replace(
        pivot, contact=FixedPointContact([-0.0, 0.0, 1.0]), noise_sigma=(0.0, -0.0, 0.0),
        schedule=(MotionStep(angle=-0.0, axis=(-0.0, 0.0, 1.0)),) + pivot.schedule[1:])
    cases = [
        (write_marker_log, read_marker_log, MarkerLog._of_stack(stack),
         lambda log: [log.positions]),
        (write_motion_sequence, read_motion_sequence, motions,
         lambda m: [m.rotations, m.translations, m.rms_errors]),
        (write_scenario, read_scenario, config,
         lambda c: [c.contact.point, c.noise_sigma, c.schedule[0].angle, c.schedule[0].axis]),
    ]
    for write, read, value, parts in cases:
        p1, p2 = tmp_path / "first.json", tmp_path / "second.json"
        write(p1, value)
        assert "-0.0" in p1.read_text()
        back = read(p1)
        for want, got in zip(parts(value), parts(back)):
            assert np.array_equal(np.signbit(got), np.signbit(want)), write.__name__
            assert np.array_equal(got, want)
        write(p2, back)
        assert p2.read_bytes() == p1.read_bytes(), write.__name__


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


def test_a_scenario_of_numpy_numbers_reads_back(tmp_path):
    # the constructors reject a bool or fractional seed; numpy numbers still write and read
    pivot = read_scenario(bundled_scenario("pivot_point"))
    step = pivot.schedule[0]
    config = dataclasses.replace(
        pivot, seed=np.int64(3), grid=dataclasses.replace(pivot.grid, pitch=np.float64(2.0),
                                                          dome_height=np.float64(0.1)),
        schedule=(MotionStep(angle=np.float64(step.angle), axis=step.axis, slide=np.float64(0)),))
    p1, p2 = tmp_path / "first.json", tmp_path / "second.json"
    write_scenario(p1, config)
    back = read_scenario(p1)
    assert (back.seed, back.grid.pitch, back.grid.dome_height) == (3, 2.0, 0.1)
    write_scenario(p2, back)
    assert p2.read_bytes() == p1.read_bytes()


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


PROVENANCE = Provenance(input_sha256="00" * 32, tool_version="0.1.0", frame_count=3)


def test_report_round_trip_preserves_infinite_condition_number(tmp_path):
    estimate = ContactEstimate(
        kind=ContactKind.FIXED_POINT, point=np.array([1.0, 2.0, 3.0]), direction=None,
        residual_rms=0.25, per_frame_residuals=np.array([0.1, 0.2]),
        conditioning=ConditioningReport(max_rotation_angle=0.0,
                                        smallest_singular_value=0.0,
                                        condition_number=math.inf,
                                        well_posed=False))
    report = EstimateReport(estimate=estimate, config=EstimatorConfig(), provenance=PROVENANCE)
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
    ("report", "per_frame_residuals", None),  # ContactEstimate's default, which no report holds
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


def test_a_report_direction_out_of_range_is_rejected_without_a_warning(tmp_path):
    src = tmp_path / "report.json"
    assert main(["roundtrip", "--scenario", str(bundled_scenario("hinge_direction")),
                 "--workdir", str(tmp_path)]) == 0
    data = json.loads(src.read_text())
    data["estimate"]["direction"] = [1e308, 1e308, 0]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ParseError, match=r"^estimate: direction: largest \|entry\| 1e\+308 "):
            read_report(bad)


def test_report_needs_the_estimates_residuals(tmp_path):
    estimate = ContactEstimate(
        kind=ContactKind.FIXED_POINT, point=np.zeros(3), direction=None, residual_rms=0.25,
        conditioning=ConditioningReport(max_rotation_angle=1.0, smallest_singular_value=1.0,
                                        condition_number=1.0, well_posed=True))
    assert estimate.per_frame_residuals is None
    report = EstimateReport(estimate=estimate, config=EstimatorConfig(), provenance=PROVENANCE)
    with pytest.raises(ValueError, match="per-frame residuals"):
        write_report(tmp_path / "report.json", report)
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("field, value, message", [
    ("min_frames", 2.5, "min_frames must be an integer, got 2.5"),
    ("min_frames", 3.0, "min_frames must be an integer, got 3.0"),
    ("min_frames", True, "min_frames must be an integer, got True"),
    ("min_frames", "3", "min_frames must be an integer, got '3'"),
    ("angle_threshold", True, "angle_threshold must be a finite number, got True"),
    ("cond_threshold", True, "cond_threshold must be a finite number, got True"),
    ("rank_tolerance", False, "rank_tolerance must be a finite number, got False"),
])
def test_a_config_that_its_report_would_not_read_back_is_rejected(field, value, message):
    with pytest.raises(ValueError, match=message):
        EstimatorConfig(**{field: value})


def test_a_numpy_integer_min_frames_round_trips_through_a_report(tmp_path):
    config = EstimatorConfig(min_frames=np.int64(4), cond_threshold=np.float64(1e5))
    estimate = ContactEstimate(
        kind=ContactKind.FIXED_POINT, point=np.zeros(3), direction=None, residual_rms=0.0,
        per_frame_residuals=np.zeros(4),
        conditioning=ConditioningReport(max_rotation_angle=0.5, smallest_singular_value=1.0,
                                        condition_number=2.0, well_posed=True))
    path = tmp_path / "report.json"
    write_report(path, EstimateReport(estimate=estimate, config=config, provenance=PROVENANCE))
    assert json.loads(path.read_text())["config"]["min_frames"] == 4
    assert read_report(path).config == EstimatorConfig(min_frames=4, cond_threshold=1e5)


def test_report_of_line_estimate_round_trips(tmp_path):
    config = read_scenario(bundled_scenario("box_on_edge"))
    frames, _ = generate(config)
    from tacloc import estimate_line_contact, line_contact_residuals
    motions = register_sequence(frames)
    n0 = config.contact.surface_normal
    est = estimate_line_contact(motions, n0)
    assert np.array_equal(est.per_frame_residuals, line_contact_residuals(motions, n0, est.point))
    report = EstimateReport(estimate=est, config=EstimatorConfig(),
                            provenance=Provenance(input_sha256="ab", tool_version="x",
                                                  frame_count=len(frames)))
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
            "row_of_booleans": [True, False, True], "overflow": 10**400, "nan": math.nan}[fault]


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


# The record that an error in a field is named by, by the path to the field's container.
RECORD_NAMES = {(): "scenario", ("tolerances",): "scenario", ("grid",): "grid",
                ("grid", "pose"): "grid pose", ("contact",): "contact",
                ("schedule", 1): "schedule step 1", ("motions", 1): "motion 1",
                ("estimate",): "estimate", ("estimate", "conditioning"): "conditioning",
                ("config",): "config"}


@pytest.mark.parametrize("source, path", [pytest.param(*field, id="-".join(
    [field[0], ".".join(map(str, field[1]))])) for field in NUMERIC_FIELDS])
def test_a_nan_in_every_numeric_field_names_the_field_and_its_record(roundtrip_files, tmp_path,
                                                                      source, path):
    doc = _document(roundtrip_files, source)
    node = _container(doc, path)
    node[path[-1]] = _faulty(node[path[-1]], "nan")
    with pytest.raises((ParseError, NonFiniteValue)) as excinfo:
        _read(doc, tmp_path)
    message = str(excinfo.value)
    # a report's per_frame_residuals sit at its top level, but are its estimate's
    record = "estimate" if path == ["per_frame_residuals"] else RECORD_NAMES[tuple(path[:-1])]
    assert message.startswith(record) and path[-1] in message, message


# One element of an array field in which any finite number is valid data, so
# that the reader's verdict turns on the element's JSON type alone, and on
# the magnitude range where the field is a length that enters from outside.
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
# the length of the path to the value held to the magnitude range, by the element's path:
# a frame's positions or a scenario's vector; a measured or estimated value has none
RANGED_PREFIX = {("frames", 1, "positions", 3, 1): 3, ("contact", "point", 1): 2,
                 ("grid", "pose", "translation", 0): 3, ("schedule", 1, "translation", 2): 3}

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
    if expected and (prefix := RANGED_PREFIX.get(tuple(path))):
        top = np.abs(np.array(_container(doc, path[:prefix + 1]), dtype=float)).max()
        expected = top == 0.0 or 2.0**-200 <= top <= 2.0**200
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
    ("report", ["estimate", "kind"], "pivot", "estimate: 'pivot' is not a valid ContactKind"),
    ("report", ["estimate", "residual_rms"], -1, "estimate: residual_rms must be nonnegative"),
    ("pivot_point", ["grid", "rows"], 1, "grid: grid needs at least 2 rows and 2 cols"),
    ("pivot_point", ["grid", "pitch"], 0, "grid: pitch must be positive"),
    ("pivot_point", ["grid", "pitch"], 1e300, "grid: pitch: largest |entry| 1e+300 is neither"),
    ("pivot_point", ["tolerances"], [["point_distance", 0.05]],
     "scenario: tolerances must be a dict, got [['point_distance', 0.05]]"),
], ids=["unknown_contact_kind", "edge_normal_along_edge", "zero_axis", "direction_not_unit",
        "min_frames_zero", "line_report_without_point", "point_report_with_direction",
        "unknown_estimate_kind", "negative_residual_rms", "one_grid_row", "zero_pitch",
        "pitch_out_of_range", "tolerance_pairs"])
def test_a_value_its_type_rejects_is_a_parse_error_naming_its_context(
        roundtrip_files, tmp_path, source, path, value, message):
    doc = _document(roundtrip_files, source)
    _container(doc, path)[path[-1]] = value
    with pytest.raises(ParseError) as excinfo:
        _read(doc, tmp_path)
    assert str(excinfo.value).startswith(message)


@pytest.mark.parametrize("key, value", [
    ("noise_sigma", 0.01),  # ScenarioConfig's shorthand for three equal ones
], ids=["bare_noise_sigma"])
def test_a_value_the_scenario_takes_but_its_file_cannot_hold_is_a_parse_error(
        roundtrip_files, tmp_path, key, value):
    doc = _document(roundtrip_files, "pivot_point")
    doc[key] = value
    with pytest.raises(ParseError, match=key):
        _read(doc, tmp_path)


@pytest.mark.parametrize("key", ["angle", "axis", "slide", "translation"])
def test_a_schedule_step_holds_every_field(roundtrip_files, tmp_path, key):
    doc = _document(roundtrip_files, "hinge_direction")
    del doc["schedule"][1][key]
    with pytest.raises(ParseError) as excinfo:
        _read(doc, tmp_path)
    assert str(excinfo.value) == f"schedule step 1 is missing {key!r}"


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
    # the first bad motion is named, whatever its fault and the later one's
    reflection = "matrix is a reflection or singular, not a rotation"
    negative = "frame_index must be a nonnegative integer, got -1"
    for index_at, reflection_at, message in ((1, 3, f"motion 1: {negative}"),
                                             (4, 2, f"motion 2: {reflection}")):
        doc = _document(roundtrip_files, source)
        doc["motions"][index_at]["frame_index"] = -1
        rotation = doc["motions"][reflection_at]["rotation"]
        rotation[2] = [-v for v in rotation[2]]
        with pytest.raises(ParseError) as excinfo:
            _read(doc, tmp_path)
        assert str(excinfo.value) == message
    # a repeated index is the sequence's fault, not one motion's: no motion is named
    doc = _document(roundtrip_files, source)
    doc["motions"][2]["frame_index"] = doc["motions"][1]["frame_index"]
    with pytest.raises(ParseError) as excinfo:
        _read(doc, tmp_path)
    context = {"motions": "motion file", "truth": "truth"}[source]
    assert str(excinfo.value).startswith(
        f"{context}: frame_index must be strictly increasing, got [0, 1, 1,")
    # so are the units: the sequence's constructor checks them, and the file is named
    doc = _document(roundtrip_files, source)
    doc["units"] = 5
    with pytest.raises(ParseError) as excinfo:
        _read(doc, tmp_path)
    assert str(excinfo.value) == f"{context}: units must be a string, got 5"


@pytest.mark.parametrize("motions", [5, {}, "motions"])
@pytest.mark.parametrize("source", ["motions", "truth"])
def test_motions_must_be_a_list(roundtrip_files, tmp_path, source, motions):
    doc = _document(roundtrip_files, source)
    doc["motions"] = motions
    with pytest.raises(ParseError, match="'motions' must be list"):
        _read(doc, tmp_path)


def test_an_empty_motion_sequence_reads_and_writes_back(tmp_path):
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    empty = MotionSequence(())
    truth = ScenarioTruth(motions=empty, contact_geometry=FixedPointContact((1, 2, 3)))
    for write, read, value in ((write_motion_sequence, read_motion_sequence, empty),
                               (write_truth, read_truth, truth)):
        write(first, value)
        assert json.loads(first.read_text())["motions"] == []
        back = read(first)
        assert len(back.motions) == 0  # a sequence's tuple of motions, or a truth's sequence
        write(second, back)
        assert second.read_bytes() == first.read_bytes()
    # an empty sequence has no fit to report, so rms_errors=() is held as None, as its file reads
    empty = MotionSequence((), rms_errors=(), units="m")
    write_motion_sequence(first, empty)
    back = read_motion_sequence(first)
    assert (back.rms_errors, back.units) == (empty.rms_errors, empty.units) == (None, "m")


def _assert_keys_in_field_order(record: dict, cls, name: str, without=()):
    want = [f.name for f in dataclasses.fields(cls) if f.name not in without]
    assert list(record) == want, f"{name} keys {list(record)} are not {cls.__name__}'s fields"


def test_scenario_and_report_keys_follow_their_dataclass_fields(roundtrip_files, tmp_path):
    path = tmp_path / "written.json"
    write_scenario(path, read_scenario(bundled_scenario("box_on_edge")))
    scenario = json.loads(path.read_text())
    assert list(scenario)[0] == "schema"
    _assert_keys_in_field_order({k: v for k, v in scenario.items() if k != "schema"},
                                ScenarioConfig, "scenario")
    _assert_keys_in_field_order(scenario["grid"], MarkerGrid, "grid")

    write_report(path, read_report(roundtrip_files / "report.json"))
    report = json.loads(path.read_text())
    _assert_keys_in_field_order(report["estimate"], ContactEstimate, "estimate",
                                without=("per_frame_residuals",))
    _assert_keys_in_field_order(report["estimate"]["conditioning"], ConditioningReport,
                                "conditioning")
    _assert_keys_in_field_order(report["config"], EstimatorConfig, "config")
    _assert_keys_in_field_order(report["provenance"], Provenance, "provenance")


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
    provenance = dataclasses.replace(report.provenance)
    # set past the constructor, which rejects a NaN: the render must fail before the file opens
    object.__setattr__(provenance, "frame_count", float("nan"))
    bad = EstimateReport(estimate=report.estimate, config=report.config, provenance=provenance)
    with pytest.raises(NonFiniteValue):
        write_report(path, bad)
    assert path.read_bytes() == before


MISSING = object()


@pytest.mark.parametrize("key, value, message", [
    ("frame_count", MISSING, "provenance is missing 'frame_count'"),
    ("frame_count", "6", "provenance: frame_count must be an integer, got '6'"),
    ("frame_count", -1, "provenance: frame_count must be nonnegative, got -1"),
    ("frame_count", True, "provenance: frame_count must be an integer, got True"),
    ("tool_version", 1, "provenance: tool_version must be a string, got 1"),
], ids=["missing_frame_count", "str_frame_count", "negative_frame_count", "bool_frame_count",
        "int_tool_version"])
def test_a_provenance_its_record_rejects_is_a_parse_error_naming_provenance(
        roundtrip_files, tmp_path, key, value, message):
    doc = _document(roundtrip_files, "report")
    if value is MISSING:
        del doc["provenance"][key]
    else:
        doc["provenance"][key] = value
    with pytest.raises(ParseError) as excinfo:
        _read(doc, tmp_path)
    assert str(excinfo.value) == message


def test_a_provenance_key_that_no_field_names_is_dropped(roundtrip_files, tmp_path):
    doc = _document(roundtrip_files, "report")
    provenance = Provenance(**doc["provenance"])
    doc["provenance"]["note"] = [float("nan")]  # json writes NaN, and reads it back
    assert _read(doc, tmp_path).provenance == provenance


# ---------------------------------------------------------------------------
# An existing output is overwritten in place, and its old tail trimmed.

def _log(frame_count):
    rng = np.random.default_rng(frame_count)
    return MarkerLog(tuple(MarkerFrame(rng.standard_normal((40, 3)), k)
                           for k in range(frame_count)))


def _report(frame_count, tool_version="0.1.0"):
    estimate = ContactEstimate(
        kind=ContactKind.FIXED_POINT, point=np.array([1.0, 2.0, 3.0]), direction=None,
        residual_rms=0.25, per_frame_residuals=np.linspace(0.0, 1.0, frame_count),
        conditioning=ConditioningReport(max_rotation_angle=1.0, smallest_singular_value=1.0,
                                        condition_number=1.0, well_posed=True))
    provenance = dataclasses.replace(PROVENANCE, tool_version=tool_version)
    return EstimateReport(estimate=estimate, config=EstimatorConfig(), provenance=provenance)


@pytest.mark.parametrize("writer, long, short", [
    (write_marker_log, _log(100), _log(2)),
    (write_report, _report(500, "x" * 5000), _report(2)),
], ids=["marker_log", "report"])
def test_a_shorter_document_over_a_longer_file_leaves_no_tail(tmp_path, writer, long, short):
    path, fresh = tmp_path / "out.json", tmp_path / "fresh.json"
    writer(path, long)
    long_size = path.stat().st_size
    writer(path, short)
    writer(fresh, short)
    assert path.read_bytes() == fresh.read_bytes()
    assert 10 * len(fresh.read_bytes()) < long_size


def test_a_fifo_receives_the_whole_document(tmp_path):
    fifo, fresh = tmp_path / "fifo", tmp_path / "fresh.json"
    os.mkfifo(fifo)
    received = []
    reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()), daemon=True)
    reader.start()
    write_marker_log(fifo, _log(100))  # blocks until the reader opens the FIFO
    reader.join(timeout=30)
    assert not reader.is_alive()
    write_marker_log(fresh, _log(100))
    assert received == [fresh.read_bytes()]


def test_dev_null_is_a_target():
    write_report(os.devnull, _report(3))
    assert main(["simulate", "--scenario", str(bundled_scenario("pivot_point")),
                 "--out", os.devnull, "--truth", os.devnull]) == 0


def test_a_symlinked_output_is_written_through_and_kept(tmp_path):
    target, link, fresh = tmp_path / "target.json", tmp_path / "link.json", tmp_path / "f.json"
    write_marker_log(target, _log(100))
    link.symlink_to(target)
    write_marker_log(link, _log(2))
    write_marker_log(fresh, _log(2))
    assert link.is_symlink() and os.readlink(link) == str(target)
    assert target.read_bytes() == fresh.read_bytes()


def test_permission_bits_are_kept_and_a_new_file_gets_those_open_gives(tmp_path):
    existing, new, plain = tmp_path / "existing.json", tmp_path / "new.json", tmp_path / "p"
    existing.write_text("x" * 10000)
    existing.chmod(0o640)
    write_report(existing, _report(2))
    assert stat.S_IMODE(existing.stat().st_mode) == 0o640
    write_report(new, _report(2))
    with open(plain, "w"):
        pass
    assert stat.S_IMODE(new.stat().st_mode) == stat.S_IMODE(plain.stat().st_mode)


def test_a_directory_as_out_exits_3(tmp_path, capsys):
    log = tmp_path / "log.json"
    write_marker_log(log, _log(3))
    assert main(["register", "--log", str(log), "--out", str(tmp_path)]) == 3
    assert "cannot read or write file" in capsys.readouterr().err


def test_only_the_marker_log_reader_decodes_with_the_positions_hook(roundtrip_files,
                                                                    monkeypatch):
    decoded = []

    def spy(obj):
        decoded.append("positions" in obj)
        return _positions_array(obj)

    monkeypatch.setattr("tacloc.io._positions_array", spy)
    read_scenario(bundled_scenario("box_on_edge"))
    for reader, name in ((read_truth, "truth"), (read_motion_sequence, "motions"),
                         (read_report, "report")):
        reader(roundtrip_files / f"{name}.json")
    assert decoded == []
    log = read_marker_log(roundtrip_files / "markers.json")
    assert decoded == [True] * len(log) + [False]  # each frame's object, then the document


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
        if value == 0 and math.copysign(1.0, value) < 0:
            return "-0.0"  # -0 would read back as the integer 0
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


def _negative_zero_arrays():
    """Arrays that take each path of the writer's -0 rewrite, or skip it."""
    rng = np.random.default_rng(13)
    last, middle = rng.standard_normal((1600, 3)), rng.standard_normal((1600, 3))
    last[-1, -1] = -0.0  # written as "-0]"
    middle[800, 0] = -0.0  # written as "-0,"
    # -0.x, -1e-05 and the like, and +0.0: "%.17g" writes no -0 for any of them
    none = -np.abs(rng.standard_normal((1600, 3))) * np.logspace(-12, 3, 1600)[:, None]
    none[::5, 1], none[::7, 2] = -1e-05, 0.0
    return {"last_entry": last, "opens_a_middle_row": middle, "no_negative_zero": none,
            "last_entry_1d": last[-1], "first_entry_1d": middle[800],
            "no_negative_zero_1d": none[:40].ravel()}


@pytest.mark.parametrize("name", sorted(_negative_zero_arrays()))
def test_negative_zero_is_written_as_the_reference_writes_it(name):
    arr = _negative_zero_arrays()[name]
    _assert_matches_reference(arr)
    text = dumps({"v": arr})
    written = {"-0.0]": "last_entry" in name, "-0.0,": name.startswith(("opens", "first"))}
    assert {token: token in text for token in written} == written
    assert "-0," not in text and "-0]" not in text
    assert np.signbit(np.array(json.loads(text)["v"])).tolist() == np.signbit(arr).tolist()


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
