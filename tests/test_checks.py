"""Argument checks that no file reaches, and the index check a motion stack gets where it
enters, in its file's reader: each raises its own error and message."""

import io
import json
import math
import numbers
import warnings

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, reject, settings

from tacloc import (ConditioningReport, ContactEstimate, ContactKind, EdgeContact,
                    EstimateReport, EstimatorConfig, FixedDirectionContact, FixedPointContact,
                    MarkerFrame, MarkerGrid, MarkerLog, MotionSequence, MotionStep,
                    NonFiniteValue, Provenance, RankDeficientBeyondLine, RegistrationResult,
                    ParseError, RelativeMotion, ScenarioConfig, estimate_line_point,
                    fixed_direction_residuals, fixed_point_residuals, line_contact_residuals,
                    orthonormalize, propagate_plane, read_motion_sequence, read_report,
                    register_sequence, rotation_about_axis, write_report)
from tacloc.io import MOTIONS_SCHEMA, dumps
from tacloc.motion import L, _floats, _in_range, _vector

GRID = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
MOTIONS = MotionSequence((RelativeMotion.identity(0),
                          RelativeMotion.about_line((1, 0, 0), 0.3, frame_index=1)))


def _read_stack(index):
    """A motion file's stack of two identity motions, the second with frame_index index, read."""
    motions = [{"frame_index": i, "rotation": np.eye(3).tolist(), "translation": [0.0] * 3}
               for i in (0, index)]
    doc = {"schema": MOTIONS_SCHEMA, "units": "mm", "motions": motions}
    return read_motion_sequence(io.BytesIO(json.dumps(doc).encode()))


def _scenario(**fields):
    return ScenarioConfig(contact=FixedPointContact((0, 0, 0)),
                          schedule=(MotionStep(angle=0.1, axis=(0, 0, 1)),), **fields)


PAST = 2.0**201  # one binade past the top of the magnitude range
BELOW = 2.0**-201  # one binade below its bottom
# (call, the name its error gives, the largest |entry| it prints), and each case's id
OUT_OF_RANGE = [
    (lambda: MarkerFrame([[0, 0, PAST]]), "positions", "3.21e+60"),
    (lambda: MarkerFrame([[BELOW, 0, 0], [0, -BELOW, 0]]), "positions", "3.11e-61"),
    (lambda: FixedPointContact((PAST, 0, 0)), "point", "3.21e+60"),
    (lambda: EdgeContact((1, 0, 0), (0, 0, -BELOW), (0, 0, 1)), "point", "3.11e-61"),
    (lambda: EdgeContact((PAST, 0, 0), (0, 0, 0), (0, 0, 1)), "direction", "3.21e+60"),
    (lambda: EdgeContact((1, 0, 0), (0, 0, 0), (0, 0, BELOW)), "surface_normal", "3.11e-61"),
    (lambda: FixedDirectionContact((0, BELOW, BELOW)), "direction", "3.11e-61"),
    (lambda: MotionStep(angle=0.1, axis=(PAST, PAST, 0)), "axis", "3.21e+60"),
    (lambda: MotionStep(angle=0.1, slide=-BELOW), "slide", "3.11e-61"),
    (lambda: MotionStep(angle=0.1, translation=(0, PAST, 0)), "translation", "3.21e+60"),
    (lambda: MarkerGrid(pitch=BELOW, dome_height=0.0), "pitch", "3.11e-61"),
    (lambda: MarkerGrid(dome_height=PAST), "dome_height", "3.21e+60"),
    # the default dome is 5% of the pitch, so it leaves the range before the pitch does
    (lambda: MarkerGrid(pitch=2.0**-200), "dome_height", "3.11e-62"),
    (lambda: MarkerGrid(pose=RelativeMotion(np.eye(3), (0, 0, PAST))), "pose translation",
     "3.21e+60"),
    (lambda: _scenario(noise_sigma=(0, BELOW, 0)), "noise_sigma", "3.11e-61"),
    (lambda: rotation_about_axis((0, 0, PAST), 0.3), "axis", "3.21e+60"),
    (lambda: RelativeMotion.about_line((BELOW, 0, 0), 0.3), "axis", "3.11e-61"),
    (lambda: RelativeMotion.about_line((0, 0, 1), 0.3, (PAST, PAST, 0)), "point", "3.21e+60"),
    (lambda: propagate_plane((0, 0, BELOW), MOTIONS), "n0", "3.11e-61"),
    (lambda: fixed_direction_residuals(MOTIONS, (PAST, 0, 0)), "direction", "3.21e+60"),
    (lambda: line_contact_residuals(MOTIONS, (0, 0, PAST), (0, 0, 0)), "surface_normal",
     "3.21e+60"),
    (lambda: _estimate(kind=ContactKind.FIXED_DIRECTION, point=None,
                       direction=(PAST, 0, 0)), "direction", "3.21e+60"),
]
OUT_OF_RANGE_IDS = ["positions", "positions_below", "point", "edge_point_below",
                    "edge_direction", "surface_normal_below", "hinge_direction_below", "axis",
                    "slide_below", "translation", "pitch_below", "dome_height",
                    "default_dome_height_below", "pose_translation", "noise_sigma_below",
                    "rotation_axis", "line_axis_below", "line_point", "n0_below", "residual_direction",
                    "residual_surface_normal", "estimate_direction"]


def _conditioning(**fields):
    return ConditioningReport(**{"max_rotation_angle": 0.5, "smallest_singular_value": 1.0,
                                 "condition_number": 2.0, "well_posed": True, **fields})


def _estimate(residual_rms=0.25, per_frame_residuals=(0.25, 0.25), kind=ContactKind.FIXED_POINT,
              point=(1.0, 2.0, 3.0), direction=None):
    return ContactEstimate(kind, point=point, direction=direction, residual_rms=residual_rms,
                           conditioning=_conditioning(), per_frame_residuals=per_frame_residuals)


PROVENANCE = Provenance(input_sha256="00" * 32, tool_version="0.1.0", frame_count=3)


def _report(provenance=PROVENANCE, estimate=None):
    return EstimateReport(estimate=estimate or _estimate(), config=EstimatorConfig(),
                          provenance=provenance)


@pytest.mark.parametrize("call, error, message", [
    (lambda: propagate_plane((0, 0, 1e300), MOTIONS), ValueError,
     "n0: largest |entry| 1e+300 is neither 0 nor in [2**-200, 2**200]"),
    (lambda: estimate_line_point(MotionSequence(()), (0, 0, 1), (1, 0, 0)),
     RankDeficientBeyondLine,
     "edge-point system rank 0 < 2; position undetermined beyond the line"),
    (lambda: dumps({"provenance": object()}), TypeError, "cannot serialize object"),
    (lambda: orthonormalize(np.eye(2)), ValueError,
     "rotation must have shape (3, 3), got (2, 2)"),
    (lambda: rotation_about_axis((0, 0, 0), 0.3), ValueError, "axis must be nonzero"),
    (lambda: MarkerLog(()), ValueError, "marker log needs at least one frame"),
    (lambda: MarkerLog((MarkerFrame(GRID, 0), MarkerFrame(GRID, 2))), ValueError,
     "frame indices must be dense from 0, got [0, 2]"),
    (lambda: MarkerLog((MarkerFrame(GRID, 0), MarkerFrame(GRID[:2], 1))), ValueError,
     "marker count must be constant, got [2, 3]"),
    (lambda: MotionSequence((RelativeMotion.identity(0), "motion")), TypeError,
     "expected RelativeMotion, got str"),
    # a frame list is checked for its types before its values, as a motion list is
    (lambda: MarkerLog([1, 2]), TypeError, "expected MarkerFrame, got int"),
    (lambda: MarkerLog((MarkerFrame(GRID, 0), MarkerFrame(GRID, 2), None)), TypeError,
     "expected MarkerFrame, got NoneType"),
    (lambda: register_sequence([1, 2]), TypeError, "expected MarkerFrame, got int"),
    (lambda: register_sequence((MarkerFrame(GRID, 0), MarkerFrame(GRID[:2], 1), "frame")),
     TypeError, "expected MarkerFrame, got str"),
    (lambda: RegistrationResult(RelativeMotion.identity(), -1.0, 3), ValueError,
     "rms_error must be nonnegative"),
    (lambda: RegistrationResult(RelativeMotion.identity(), 0.0, 4), ValueError,
     "marker_covariance_rank must be in 0..3, got 4"),
    (lambda: MotionStep(angle=math.nan), ValueError, "angle must be a finite number, got nan"),
    (lambda: MotionStep(angle=0.1, slide=math.inf), ValueError,
     "slide must be a finite number, got inf"),
    (lambda: ScenarioConfig(contact=ContactKind.LINE, schedule=(MotionStep(angle=0.1),)),
     TypeError, "unknown contact type ContactKind"),
    # each would write a scenario file that read_scenario rejects
    (lambda: MotionStep(angle=True), ValueError, "angle must be a finite number, got True"),
    (lambda: MotionStep(angle=0.1, slide=True), ValueError,
     "slide must be a finite number, got True"),
    (lambda: MarkerGrid(pitch=True), ValueError, "pitch must be a finite number, got True"),
    (lambda: MarkerGrid(dome_height=True), ValueError,
     "dome_height must be a finite number, got True"),
    (lambda: _scenario(seed=True), ValueError, "seed must be an integer, got True"),
    (lambda: _scenario(seed=2.5), ValueError, "seed must be an integer, got 2.5"),
    # each was taken, and its writer then failed or wrote a file that its reader rejects or
    # reads back as another value
    (lambda: _scenario(tolerances={"point_distance": True}), ValueError,
     "tolerance 'point_distance' must be a finite number, got True"),
    (lambda: _scenario(tolerances={"point_distance": math.nan}), ValueError,
     "tolerance 'point_distance' must be a finite number, got nan"),
    (lambda: _scenario(tolerances={"point_distance": "x"}), ValueError,
     "tolerance 'point_distance' must be a finite number, got 'x'"),
    (lambda: _scenario(tolerances={1: 0.1}), ValueError,
     "tolerance names must be strings, got 1"),
    (lambda: _scenario(tolerances=[("point_distance", 0.1)]), ValueError,
     "tolerances must be a dict, got [('point_distance', 0.1)]"),
    (lambda: _scenario(name=5), ValueError, "name must be a string, got 5"),
    (lambda: _scenario(units=3), ValueError, "units must be a string, got 3"),
    (lambda: _scenario(noise_sigma=True), ValueError,
     "noise_sigma must be a finite number, got True"),
    (lambda: RelativeMotion.identity(True), ValueError,
     "frame_index must be a nonnegative integer, got True"),
    (lambda: MarkerFrame(GRID, True), ValueError,
     "frame_index must be a nonnegative integer, got True"),
    (lambda: _read_stack(True), ParseError, "motion 1 'frame_index' must be int, got bool"),
    (lambda: MotionSequence(MOTIONS.motions, rms_errors=[0.0, True]), ValueError,
     "rms_error must be a finite number, got True"),
    (lambda: MotionSequence(MOTIONS.motions, units=5), ValueError,
     "units must be a string, got 5"),
    (lambda: MarkerLog((MarkerFrame(GRID, 0),), units=5), ValueError,
     "units must be a string, got 5"),
    (lambda: _scenario(grid="x"), TypeError, "grid must be a MarkerGrid, got str"),
    # each was taken, and its report then failed to write or did not read back
    (lambda: _estimate(residual_rms=True), ValueError,
     "residual_rms must be a finite number, got True"),
    (lambda: _conditioning(smallest_singular_value=True), ValueError,
     "smallest_singular_value must be a finite number, got True"),
    (lambda: _conditioning(condition_number=True), ValueError,
     "condition_number must be a finite number, got True"),
    (lambda: _conditioning(well_posed=1), ValueError, "well_posed must be a bool, got 1"),
    (lambda: _conditioning(max_rotation_angle=math.nan), ValueError,
     "max_rotation_angle must be a finite number, got nan"),
    (lambda: _report({"input_sha256": "00" * 32, "tool_version": "0.1.0", "frame_count": 3}),
     TypeError, "provenance must be a Provenance, got dict"),
    (lambda: Provenance(input_sha256="ab", tool_version=1, frame_count=3), ValueError,
     "tool_version must be a string, got 1"),
    (lambda: Provenance(input_sha256="ab", tool_version="x", frame_count=-1), ValueError,
     "frame_count must be nonnegative, got -1"),
    # each was taken, and its report then failed to write or did not read back
    (lambda: EstimatorConfig(angle_threshold=np.True_), ValueError,
     "angle_threshold must be a finite number, got np.True_"),
    (lambda: EstimatorConfig(cond_threshold=10**400), ValueError,
     f"cond_threshold must be a finite number, got 1{'0' * 39}"),
    (lambda: _conditioning(condition_number=10**400), ValueError,
     f"condition_number must be a finite number, got 1{'0' * 39}"),
    (lambda: _estimate(residual_rms=math.inf), ValueError,
     "residual_rms must be a finite number, got inf"),
    (lambda: _estimate(per_frame_residuals=(0.25, math.nan)), ValueError,
     "per_frame_residuals: non-finite value at entry 1"),
    # each failed inside numpy or float(), with an error that did not name the field
    (lambda: MotionStep(angle="x"), ValueError, "angle must be a finite number, got 'x'"),
    (lambda: MotionStep(angle=10**400), ValueError,
     f"angle must be a finite number, got 1{'0' * 39}"),
    (lambda: MarkerGrid(pitch="a"), ValueError, "pitch must be a finite number, got 'a'"),
    (lambda: MarkerGrid(pitch=10**400), ValueError,
     f"pitch must be a finite number, got 1{'0' * 39}"),
    (lambda: MarkerGrid(pitch=10**200), ValueError,
     "pitch: largest |entry| 1e+200 is neither 0 nor in [2**-200, 2**200]"),
    (lambda: _conditioning(max_rotation_angle="x"), ValueError,
     "max_rotation_angle must be a finite number, got 'x'"),
    (lambda: _conditioning(max_rotation_angle=10**400), ValueError,
     f"max_rotation_angle must be a finite number, got 1{'0' * 39}"),
    # each was taken, though no fit yields it
    (lambda: RegistrationResult(RelativeMotion.identity(), math.nan, 3), ValueError,
     "rms_error must be a finite number, got nan"),
    (lambda: RegistrationResult(RelativeMotion.identity(), math.inf, 3), ValueError,
     "rms_error must be a finite number, got inf"),
    (lambda: RegistrationResult(RelativeMotion.identity(), True, 3), ValueError,
     "rms_error must be a finite number, got True"),
    (lambda: RegistrationResult(RelativeMotion.identity(), 0.0, True), ValueError,
     "marker_covariance_rank must be an integer, got True"),
    (lambda: RegistrationResult(RelativeMotion.identity(), 0.0, 2.0), ValueError,
     "marker_covariance_rank must be an integer, got 2.0"),
    # each array was taken as numbers, though its file's reader rejects it
    (lambda: FixedPointContact(["1", "2", "3"]), ValueError,
     "point is not numeric: read as <U1"),
    (lambda: RelativeMotion(np.eye(3), ["1", "0", "0"]), ValueError,
     "translation is not numeric: read as <U1"),
    (lambda: MotionStep(angle=0.1, axis=["0", "0", "1"]), ValueError,
     "axis is not numeric: read as <U1"),
    (lambda: _estimate(per_frame_residuals=["0.5"]), ValueError,
     "per_frame_residuals is not numeric: read as <U3"),
    (lambda: RelativeMotion(np.eye(3, dtype=bool), (0, 0, 0)), ValueError,
     "rotation is not numeric: read as bool"),
    (lambda: MarkerFrame(np.ones((3, 3), dtype=bool)), ValueError,
     "positions is not numeric: read as bool"),
    (lambda: _scenario(noise_sigma=[True, 0.0, 0.0]), ValueError,
     "noise_sigma is not numeric: an entry is a boolean"),
    (lambda: _scenario(noise_sigma=(0.1, -0.1, 0.0)), ValueError,
     "noise_sigma must be nonnegative, got (0.1, -0.1, 0.0)"),
    (lambda: RelativeMotion(np.eye(3), [[0.0], [0.0], [0.0]]), ValueError,
     "translation must have shape (3,), got (3, 1)"),
    (lambda: _estimate(per_frame_residuals=[[0.25, 0.25]]), ValueError,
     "per_frame_residuals must have shape (None,), got (1, 2)"),
    # each failed inside numpy or float(), with an error that did not name the field
    (lambda: _scenario(noise_sigma="x"), ValueError,
     "noise_sigma must be a finite number, got 'x'"),
    (lambda: _scenario(noise_sigma=10**400), ValueError,
     f"noise_sigma must be a finite number, got 1{'0' * 39}"),
    (lambda: FixedPointContact([10**400, 0, 0]), ValueError,
     "point is not numeric: read as object"),
    (lambda: _scenario(noise_sigma=[[0.1], [0.1, 0.2]]), ValueError,
     "noise_sigma is not numeric: setting an array element with a sequence. The requested "
     "array has an inhomogeneous shape after 1 dimensions. The detected shape was (2,) + "
     "inhomogeneous part."),
    (lambda: RelativeMotion.identity("x"), ValueError,
     "frame_index must be a nonnegative integer, got 'x'"),
    (lambda: RelativeMotion.identity(None), ValueError,
     "frame_index must be a nonnegative integer, got None"),
    (lambda: MarkerFrame(GRID, "x"), ValueError,
     "frame_index must be a nonnegative integer, got 'x'"),
    # each was taken, though no file holds it
    (lambda: RelativeMotion.identity(1e300), ValueError,
     "frame_index must be a nonnegative integer, got 1e+300"),
    (lambda: RelativeMotion.identity(2.0), ValueError,
     "frame_index must be a nonnegative integer, got 2.0"),
    # a motion file's stack holds only JSON integer indices: its reader rejects any other
    (lambda: _read_stack(2.0), ParseError, "motion 1 'frame_index' must be int, got float"),
    (lambda: _read_stack("x"), ParseError, "motion 1 'frame_index' must be int, got str"),
    # each was taken, and its report then failed to write, or failed inside its error message
    (lambda: _estimate(kind="pivot"), ValueError, "'pivot' is not a valid ContactKind"),
    # each was taken: a zero direction read as a fixed one
    (lambda: fixed_point_residuals(MOTIONS, (math.nan, 0, 0)), NonFiniteValue,
     "point: non-finite value at entry 0"),
    (lambda: fixed_point_residuals(MOTIONS, (1, 2)), ValueError,
     "point must have shape (3,), got (2,)"),
    (lambda: fixed_direction_residuals(MOTIONS, (0, 0, 0)), ValueError,
     "direction must be nonzero"),
    (lambda: line_contact_residuals(MOTIONS, (0, 0, 1), (1, math.inf, 3)), NonFiniteValue,
     "point: non-finite value at entry 1"),
    # taken, and written as "positions": [], which no log reads back
    (lambda: MarkerFrame(np.zeros((0, 3))), ValueError,
     "positions must hold at least one marker"),
    # each length or direction out of the magnitude range, named
    *((call, ValueError, f"{name}: largest |entry| {top} is neither 0 nor in [2**-200, 2**200]")
      for call, name, top in OUT_OF_RANGE),
], ids=["n0_huge", "line_point_of_no_motions",
        "unserializable_value", "rotation_not_3x3", "zero_axis", "empty_log",
        "log_indices_not_dense", "log_marker_counts_differ", "sequence_of_non_motions",
        "log_of_non_frames", "log_of_a_non_frame_after_a_bad_index",
        "registration_of_non_frames", "registration_of_a_non_frame_after_a_short_frame",
        "negative_fit_rms", "covariance_rank_above_3", "non_finite_angle",
        "non_finite_slide", "unknown_contact_type", "bool_angle", "bool_slide", "bool_pitch",
        "bool_dome_height", "bool_seed", "fractional_seed", "bool_tolerance", "nan_tolerance",
        "str_tolerance", "int_tolerance_name", "tolerance_pairs", "int_name", "int_units",
        "bool_noise_sigma",
        "bool_motion_index", "bool_frame_index", "bool_index_in_a_stack", "bool_rms_error",
        "int_sequence_units", "int_log_units", "str_grid", "bool_residual_rms",
        "bool_smallest_singular_value", "bool_condition_number", "int_well_posed",
        "nan_max_rotation_angle", "dict_provenance", "int_tool_version",
        "negative_frame_count", "numpy_bool_threshold", "huge_int_threshold",
        "huge_int_condition_number", "inf_residual_rms", "nan_per_frame_residual", "str_angle",
        "huge_int_angle", "str_pitch", "huge_int_pitch", "int_pitch_out_of_range",
        "str_max_rotation_angle",
        "huge_int_max_rotation_angle", "nan_fit_rms", "inf_fit_rms", "bool_fit_rms",
        "bool_covariance_rank", "float_covariance_rank", "str_point", "str_translation",
        "str_axis", "str_per_frame_residual", "bool_rotation", "bool_positions",
        "bool_in_noise_sigma", "negative_noise_sigma", "column_translation",
        "2d_per_frame_residuals", "str_noise_sigma", "huge_int_noise_sigma", "huge_int_point",
        "ragged_noise_sigma", "str_motion_index", "none_motion_index", "str_frame_index",
        "huge_float_motion_index", "float_motion_index", "float_index_in_a_stack",
        "str_index_in_a_stack", "str_estimate_kind",
        "nan_residual_point", "short_residual_point", "zero_residual_direction",
        "inf_residual_line_point",
        "frame_without_markers", *(f"{name}_out_of_range" for name in OUT_OF_RANGE_IDS)])
def test_a_check_raises_its_error(call, error, message):
    with pytest.raises(error) as excinfo:
        call()
    assert str(excinfo.value) == message


# A direction or normal is any nonzero 3-vector in range, taken as its unit
@pytest.mark.parametrize("call, scaled, unit", [
    (lambda v: propagate_plane(v, MOTIONS), (0, 0, 2), (0, 0, 1)),
    (lambda v: fixed_direction_residuals(MOTIONS, v), (0, 0, 5), (0, 0, 1)),
    (lambda v: line_contact_residuals(MOTIONS, v, (1, 2, 3)), (0, 0, 2), (0, 0, 1)),
], ids=["n0_not_unit", "long_residual_direction", "long_residual_surface_normal"])
def test_a_scaled_direction_gives_its_unit_directions_results(call, scaled, unit):
    assert np.array_equal(call(scaled), call(unit))


def test_a_scenario_and_its_grid_take_keywords_only_and_a_scenario_needs_its_schedule():
    # field order is the file's key order, so no argument is bound by its position
    with pytest.raises(TypeError, match="positional"):
        MarkerGrid(11)
    with pytest.raises(TypeError, match="positional"):
        ScenarioConfig("name")
    with pytest.raises(TypeError, match="'schedule'"):
        ScenarioConfig(contact=FixedPointContact((0, 0, 0)))


# An int of more digits than Python writes as text: its repr raises a ValueError of its own.
HUGE = 10**5000
# 2001 frame indices, 5 twice: a list too long to show whole
REPEATED = [*range(6), 5, *range(7, 2001)]


@pytest.mark.parametrize("call, message", [
    (lambda: MotionStep(angle=HUGE), "angle must be a finite number, got an int too long to write"),
    (lambda: _scenario(seed=[HUGE]), "seed must be an integer, got a value too long to write"),
    (lambda: _scenario(seed=-HUGE), "seed must be nonnegative, got an int too long to write"),
    (lambda: RelativeMotion.identity(-HUGE),
     "frame_index must be a nonnegative integer, got an int too long to write"),
    (lambda: _scenario(name=HUGE), "name must be a string, got an int too long to write"),
    (lambda: _scenario(name=["x"] * 50), f"name must be a string, got {str(['x'] * 50):.40}"),
    (lambda: _conditioning(well_posed=HUGE), "well_posed must be a bool, got an int too long to "
     "write"),
    (lambda: _scenario(tolerances={HUGE: 0.1}),
     "tolerance names must be strings, got an int too long to write"),
    (lambda: _scenario(tolerances={(HUGE,): 0.1}),
     "tolerance names must be strings, got a value too long to write"),
    (lambda: Provenance(input_sha256="ab", tool_version="x", frame_count=-HUGE),
     "frame_count must be nonnegative, got an int too long to write"),
    (lambda: MotionSequence((RelativeMotion.identity(HUGE), RelativeMotion.identity(1))),
     "frame_index must be strictly increasing, got a value too long to write"),
    (lambda: MarkerLog((MarkerFrame(GRID, 0), MarkerFrame(GRID, HUGE))),
     "frame indices must be dense from 0, got a value too long to write"),
    (lambda: MotionSequence([RelativeMotion.identity(k) for k in REPEATED]),
     f"frame_index must be strictly increasing, got {str(REPEATED):.40}"),
    (lambda: MarkerLog([MarkerFrame(GRID, k) for k in REPEATED]),
     f"frame indices must be dense from 0, got {str(REPEATED):.40}"),
], ids=["angle", "seed_in_a_list", "negative_seed", "frame_index", "name", "long_name",
        "well_posed", "tolerance_name", "tolerance_name_tuple", "negative_frame_count",
        "sequence_index_list", "log_index_list", "long_sequence_index_list",
        "long_log_index_list"])
def test_an_error_shows_a_value_repr_cannot_and_names_its_field(call, message):
    with pytest.raises(ValueError) as excinfo:
        call()
    assert str(excinfo.value) == message


# Every scalar field that motion._number or motion._integer checks, as (a call that makes its
# object with the field set to a value, the name its errors start with, whether it takes an
# integer, a value it takes).
SCALAR_FIELDS = {
    "angle_threshold": (lambda v: EstimatorConfig(angle_threshold=v), "angle_threshold", False,
                        0.5),
    "cond_threshold": (lambda v: EstimatorConfig(cond_threshold=v), "cond_threshold", False, 2.0),
    "rank_tolerance": (lambda v: EstimatorConfig(rank_tolerance=v), "rank_tolerance", False, 0.5),
    "min_frames": (lambda v: EstimatorConfig(min_frames=v), "min_frames", True, 3),
    "max_rotation_angle": (lambda v: _conditioning(max_rotation_angle=v), "max_rotation_angle",
                           False, 0.5),
    "smallest_singular_value": (lambda v: _conditioning(smallest_singular_value=v),
                                "smallest_singular_value", False, 0.5),
    "condition_number": (lambda v: _conditioning(condition_number=v), "condition_number", False,
                         2.0),
    "residual_rms": (lambda v: _estimate(residual_rms=v), "residual_rms", False, 0.25),
    "angle": (lambda v: MotionStep(angle=v), "angle", False, 0.5),
    "slide": (lambda v: MotionStep(angle=0.1, slide=v), "slide", False, 0.5),
    "rows": (lambda v: MarkerGrid(rows=v), "rows", True, 3),
    "cols": (lambda v: MarkerGrid(cols=v), "cols", True, 3),
    "pitch": (lambda v: MarkerGrid(pitch=v), "pitch", False, 0.5),
    "dome_height": (lambda v: MarkerGrid(dome_height=v), "dome_height", False, 0.5),
    "seed": (lambda v: _scenario(seed=v), "seed", True, 2),
    "tolerances": (lambda v: _scenario(tolerances={"point_distance": v}),
                   "tolerance 'point_distance'", False, 0.5),
    "rms_errors": (lambda v: MotionSequence(MOTIONS.motions, rms_errors=[0.0, v]), "rms_error",
                   False, 0.5),
    "fit_rms_error": (lambda v: RegistrationResult(RelativeMotion.identity(), v, 3), "rms_error",
                      False, 0.5),
    "marker_covariance_rank": (lambda v: RegistrationResult(RelativeMotion.identity(), 0.0, v),
                               "marker_covariance_rank", True, 3),
    "frame_count": (lambda v: Provenance(input_sha256="ab", tool_version="x", frame_count=v),
                    "frame_count", True, 3),
}

NOT_NUMBERS = {"true": True, "numpy_true": np.True_, "nan": math.nan, "inf": math.inf,
               "minus_inf": -math.inf, "string": "x", "huge_int": 10**400}


def _scalar_cases():
    for field, (make, name, integer, _) in SCALAR_FIELDS.items():
        values = dict(NOT_NUMBERS, fraction=2.5) if integer else dict(NOT_NUMBERS)
        if integer:
            del values["huge_int"]  # an integer of any size is one, as a JSON file reads it
        if field == "condition_number":
            del values["inf"]  # a report writes an infinite condition number as null
        rule = "an integer" if integer else "a finite number"
        for label, value in values.items():
            yield pytest.param(make, value, f"{name} must be {rule}, got {value!r:.40}",
                               id=f"{field}-{label}")


@pytest.mark.parametrize("make, value, message", list(_scalar_cases()))
def test_every_scalar_field_takes_one_number_rule(make, value, message):
    with pytest.raises(ValueError) as excinfo:
        make(value)
    assert str(excinfo.value) == message


def test_numpy_numbers_are_still_taken():
    config = _scenario(tolerances={"point_distance": np.float32(0.5), "frames": np.int64(3)},
                       noise_sigma=np.float32(0.25), seed=np.int64(2))
    assert config.noise_sigma.tolist() == [0.25] * 3
    assert RelativeMotion.identity(np.int64(2)).frame_index == 2
    sequence = MotionSequence(MOTIONS.motions, rms_errors=[0.0, np.float32(0.5)])
    assert sequence.rms_errors == (0.0, 0.5)
    assert not _conditioning(well_posed=np.bool_(False), max_rotation_angle=np.float32(0.5),
                             smallest_singular_value=np.float64(0.0)).well_posed
    for make, _, integer, value in SCALAR_FIELDS.values():
        make(np.int64(value) if integer else np.float32(value))


def test_a_numpy_provenance_reads_back_as_python_values_and_writes_back_byte_for_byte(tmp_path):
    provenance = Provenance(input_sha256=np.str_("ab"), tool_version="x",
                            frame_count=np.int64(3))
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    write_report(first, _report(provenance))
    back = read_report(first).provenance
    assert back == Provenance(input_sha256="ab", tool_version="x", frame_count=3)
    assert type(back.input_sha256) is str and type(back.frame_count) is int
    write_report(second, _report(back))
    assert second.read_bytes() == first.read_bytes()


def test_an_estimate_stores_its_kind_as_a_contact_kind(tmp_path):
    estimate = _estimate(kind="fixed_point")
    assert estimate.kind is ContactKind.FIXED_POINT
    path = tmp_path / "report.json"
    write_report(path, _report(estimate=estimate))
    assert read_report(path).estimate.kind is ContactKind.FIXED_POINT


# Every array field a value type holds, as (a call that makes its object with the field set to a
# value and returns what it stores of it, the name its errors start with, a value it takes whose
# first entry is a 0 and whose entries are all integers, so every container below holds it).
ARRAY_FIELDS = {
    "rotation": (lambda v: RelativeMotion(v, (0, 0, 0)).rotation, "rotation",
                 [[0, -1, 0], [1, 0, 0], [0, 0, 1]]),
    "translation": (lambda v: RelativeMotion(np.eye(3), v).translation, "translation", [0, 2, 3]),
    "about_line_point": (lambda v: RelativeMotion.about_line((0, 0, 1), 0.3, v).translation,
                         "point", [0, 2, 3]),
    "rotation_axis": (lambda v: rotation_about_axis(v, 0.3), "axis", [0, 0, 1]),
    "positions": (lambda v: MarkerFrame(v).positions, "positions",
                  [[0, 0, 0], [1, 0, 0], [0, 1, 0]]),
    "step_axis": (lambda v: MotionStep(angle=0.1, axis=v).axis, "axis", [0, 0, 1]),
    "step_translation": (lambda v: MotionStep(angle=0.1, translation=v).translation,
                         "translation", [0, 2, 3]),
    "pivot_point": (lambda v: FixedPointContact(v).point, "point", [0, 2, 3]),
    "hinge_direction": (lambda v: FixedDirectionContact(v).direction, "direction", [0, 0, 1]),
    "edge_direction": (lambda v: EdgeContact(v, (0, 0, 0), (1, 0, 0)).direction, "direction",
                       [0, 0, 1]),
    "edge_point": (lambda v: EdgeContact((0, 0, 1), v, (1, 0, 0)).point, "point", [0, 2, 3]),
    "edge_normal": (lambda v: EdgeContact((1, 0, 0), (0, 0, 0), v).surface_normal,
                    "surface_normal", [0, 0, 1]),
    "estimate_point": (lambda v: _estimate(point=v).point, "point", [0, 2, 3]),
    "estimate_direction": (lambda v: _estimate(kind=ContactKind.FIXED_DIRECTION, point=None,
                                               direction=v).direction, "direction", [0, 0, 1]),
    "per_frame_residuals": (lambda v: _estimate(per_frame_residuals=v).per_frame_residuals,
                            "per_frame_residuals", [0, 2]),
    "noise_sigma": (lambda v: _scenario(noise_sigma=v).noise_sigma, "noise_sigma", [0, 2, 3]),
}

# Each put in place of the first entry; each but the last four is no number a file holds.
ENTRIES = {"string": "1", "true": True, "numpy_true": np.True_, "none": None,
           "huge_int": 10**400, "nan": math.nan, "zero": 0, "float_zero": 0.0,
           "float32_zero": np.float32(0), "int64_zero": np.int64(0)}


def _is_number(entry) -> bool:
    """Whether entry is a number a file reads back as a finite float: no bool, nor an integer
    beyond 64 bits."""
    return (isinstance(entry, numbers.Real) and not isinstance(entry, (bool, np.bool_))
            and abs(entry) < 2**63 and math.isfinite(entry))


def _with_first(value, entry):
    """A copy of a nested list with its first entry replaced."""
    if isinstance(value[0], list):
        return [_with_first(value[0], entry), *value[1:]]
    return [entry, *value[1:]]


def _bits(arr):
    assert isinstance(arr, np.ndarray) and arr.dtype == np.float64
    return arr.shape, arr.tobytes()


@pytest.mark.parametrize("field", sorted(ARRAY_FIELDS))
def test_every_array_field_takes_one_array_rule(field):
    make, name, value = ARRAY_FIELDS[field]
    want = _bits(make(np.array(value, dtype=float).tolist()))
    for label, entry in ENTRIES.items():
        if _is_number(entry):
            assert _bits(make(_with_first(value, entry))) == want, label
        else:
            with pytest.raises(ValueError) as excinfo:
                make(_with_first(value, entry))
            assert str(excinfo.value).startswith((f"{name} ", f"{name}:")), label
    # a tuple of rows, and arrays, which the value copies: the caller's array stays writeable
    rows = tuple(map(tuple, value)) if isinstance(value[0], list) else tuple(value)
    assert _bits(make(rows)) == want
    for dtype in (np.float64, np.float32, np.int64):
        given = np.array(value, dtype=dtype)
        assert _bits(make(given)) == want, dtype
        assert given.flags.writeable and np.array_equal(given, value), dtype


def _composed(value, name):
    """The rule motion._vector replaces, kept as its oracle."""
    return _in_range(_floats(value, name, (3,)), name)


def _outcome(check, value):
    """check(value, "v") as the shape and bytes of the fresh float64 copy it returns, or as the
    type and message of the error it raises."""
    try:
        arr = check(value, "v")
    except Exception as err:  # whatever the oracle raises, the rule must raise too
        return type(err), str(err)
    assert type(arr) is np.ndarray and arr.dtype == np.float64 and arr.flags.writeable
    assert not (isinstance(value, np.ndarray) and np.shares_memory(arr, value))
    return arr.shape, arr.tobytes()


def _same_outcome(value):
    assert _outcome(_vector, value) == _outcome(_composed, value)


_EDGES = [2.0**-L, 2.0**L, math.nextafter(2.0**-L, 0.0), math.nextafter(2.0**L, math.inf),
          -0.0, 5e-324, 1e-310, math.nan, math.inf, -math.inf]
_BAD = [True, np.True_, "1", None, 10**400]


def _with(entry, at):
    return [entry if k == at else v for k, v in enumerate([1.0, -2.0, 3.0])]


@pytest.mark.parametrize("value", [
    *[_with(e, k) for e in _EDGES + _BAD for k in range(3)],
    *[np.array(_with(e, k)) for e in _EDGES for k in range(3)],
    [-0.0, -0.0, -0.0], [0, 0, 0], [1.0, 5e-324, 0.0], [2**63 - 1, 0, 0], (1, 2, 3),
    np.array([1, 2, 3], dtype=np.float32), np.array([1, 2, 3]),
    np.array([1, 2, 3], dtype=np.uint8), np.array([True, False, True]),
    np.array([1.0, 2.0, 3.0], dtype=object),
    np.arange(6.0)[::2], [[1, 2], [3]], [1, [2, 3], 4], [1.0, 2.0], [1.0, 2.0, 3.0, 4.0],
    [[1.0], [2.0], [3.0]], [[1.0, 2.0, 3.0]], 1.0, np.array(1.0), [], "123",
], ids=repr)
def test_a_vector_has_the_outcome_of_its_composed_rule(value):
    _same_outcome(value)


_ENTRY = st.one_of(st.floats(allow_subnormal=True), st.integers(-2**70, 2**70),
                   st.sampled_from(_EDGES + _BAD))
_SHAPED = st.one_of(st.lists(_ENTRY, min_size=3, max_size=3),
                    st.lists(_ENTRY, max_size=4),  # (0,), (2,), (4,)
                    st.lists(st.lists(_ENTRY, min_size=1, max_size=3), min_size=1, max_size=3),
                    st.lists(st.one_of(_ENTRY, st.lists(_ENTRY, max_size=2)), min_size=3,
                             max_size=3),  # ragged
                    _ENTRY)  # 0-d


def _contained(value, container):
    """value as a list, as a tuple of tuples, or as a numpy array of the dtype container."""
    if container is list:
        return value
    if container is tuple:
        return tuple(_contained(v, tuple) for v in value) if isinstance(value, list) else value
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            return np.array(value, dtype=container)
        except (ValueError, TypeError, OverflowError):
            reject()


@settings(max_examples=500, deadline=None)
@given(_SHAPED, st.sampled_from([list, tuple, np.float64, np.float32, np.int64, np.uint8, bool,
                                 object]))
def test_any_value_has_the_outcome_of_its_composed_rule(value, container):
    _same_outcome(_contained(value, container))
