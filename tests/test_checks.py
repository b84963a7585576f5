"""Argument checks that no file reaches: each raises its own error and message."""

import math

import numpy as np
import pytest

from tacloc import (ContactKind, MarkerFrame, MarkerLog, MotionSequence, MotionStep,
                    PlaneTrack, RankDeficientBeyondLine, RegistrationResult, RelativeMotion,
                    ScenarioConfig, estimate_line_point, orthonormalize, propagate_plane,
                    rotation_about_axis)
from tacloc.io import dumps

GRID = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
MOTIONS = MotionSequence((RelativeMotion.identity(0),
                          RelativeMotion.about_line((1, 0, 0), 0.3, frame_index=1)))


@pytest.mark.parametrize("call, error, message", [
    (lambda: PlaneTrack(np.zeros((2, 2)), [0.0, 0.0]), ValueError,
     "normals must have shape (k, 3), got (2, 2)"),
    (lambda: PlaneTrack(np.eye(3), [0.0, 0.0]), ValueError,
     "normals and offsets must have equal length"),
    (lambda: PlaneTrack(2.0 * np.eye(3), [0.0, 0.0, 0.0]), ValueError,
     "plane normals must be unit vectors"),
    (lambda: propagate_plane((0, 0, 2), np.zeros(3), MOTIONS), ValueError,
     "n0 must be a unit vector, got norm 2.0"),
    (lambda: propagate_plane((0, 0, 1e300), np.zeros(3), MOTIONS), ValueError,
     "n0 must be a unit vector, got norm 1e+300"),
    (lambda: estimate_line_point(MOTIONS, PlaneTrack([(0.0, 0.0, 1.0)], [0.0]), (1, 0, 0)),
     ValueError, "track length 1 != motion count 2"),
    (lambda: estimate_line_point(MotionSequence(()), PlaneTrack(np.zeros((0, 3)), []), (1, 0, 0)),
     RankDeficientBeyondLine,
     "edge-point system rank 0 < 2; position undetermined beyond the line"),
    (lambda: dumps({"provenance": object()}), TypeError, "cannot serialize object"),
    (lambda: orthonormalize(np.eye(2)), ValueError, "rotation must be 3x3, got shape (2, 2)"),
    (lambda: rotation_about_axis((0, 0, 0), 0.3), ValueError, "axis must be nonzero"),
    (lambda: MarkerLog(()), ValueError, "marker log needs at least one frame"),
    (lambda: MarkerLog((MarkerFrame(GRID, 0), MarkerFrame(GRID, 2))), ValueError,
     "frame indices must be dense from 0, got [0, 2]"),
    (lambda: MarkerLog((MarkerFrame(GRID, 0), MarkerFrame(GRID[:2], 1))), ValueError,
     "marker count must be constant, got [2, 3]"),
    (lambda: MotionSequence((RelativeMotion.identity(0), "motion")), TypeError,
     "expected RelativeMotion, got str"),
    (lambda: RegistrationResult(RelativeMotion.identity(), -1.0, 3), ValueError,
     "rms_error must be nonnegative"),
    (lambda: RegistrationResult(RelativeMotion.identity(), 0.0, 4), ValueError,
     "marker_covariance_rank must be in 0..3, got 4"),
    (lambda: MotionStep(angle=math.nan), ValueError, "angle must be finite"),
    (lambda: MotionStep(angle=0.1, slide=math.inf), ValueError, "slide must be finite"),
    (lambda: ScenarioConfig(contact=ContactKind.LINE, schedule=(MotionStep(angle=0.1),)),
     TypeError, "unknown contact type ContactKind"),
], ids=["plane_normals_not_rows_of_3", "plane_counts_differ", "plane_normal_not_unit",
        "n0_not_unit", "n0_huge", "track_shorter_than_motions", "line_point_of_no_motions",
        "unserializable_value", "rotation_not_3x3", "zero_axis", "empty_log",
        "log_indices_not_dense", "log_marker_counts_differ", "sequence_of_non_motions",
        "negative_fit_rms", "covariance_rank_above_3", "non_finite_angle",
        "non_finite_slide", "unknown_contact_type"])
def test_a_check_raises_its_error(call, error, message):
    with pytest.raises(error) as excinfo:
        call()
    assert str(excinfo.value) == message
