"""tacloc: contact localization from tactile measurements of rigid motion.

A vision-based tactile sensor sees its marker field move when the grasped
object rocks against the environment. Those small rigid motions are enough
to localize the external contact: a pivoting object reveals the fixed
contact point, a hinging object reveals the fixed contact direction, and an
object rocking on an edge while sliding along it reveals the edge as a
line. This package provides the motion types, the marker registration, the
three contact estimators, a scenario simulator, and file formats plus a CLI
tying them together.
"""

from .errors import (AmbiguousDirection, DegenerateMarkers, IllConditioned,
                     InvalidSchedule, MismatchedFrames, NonFiniteValue,
                     ParseError, RankDeficientBeyondLine,
                     SchemaVersionMismatch, TaclocError, TooFewFrames,
                     TooFewMarkers)
from .estimators import (ConditioningReport, ContactEstimate, ContactKind,
                         EstimatorConfig, estimate_fixed_direction,
                         estimate_fixed_point, estimate_line_contact,
                         estimate_line_direction, estimate_line_point,
                         fixed_direction_residuals, fixed_point_residuals,
                         line_contact_residuals, propagate_plane)
from .io import (EstimateReport, Provenance, read_marker_log,
                 read_motion_sequence, read_report, read_scenario, read_truth,
                 write_marker_log, write_motion_sequence, write_report,
                 write_scenario, write_truth)
from .motion import (MarkerFrame, MarkerLog, MotionSequence, RelativeMotion,
                     compose, inverse, orthonormalize, rotation_about_axis,
                     rotation_angle)
from .registration import RegistrationResult, register, register_sequence
from .simulate import (EdgeContact, FixedDirectionContact, FixedPointContact,
                       MarkerGrid, MotionStep, ScenarioConfig, ScenarioTruth,
                       constraint_residuals, generate)

__version__ = "0.1.0"

__all__ = [
    "AmbiguousDirection",
    "ConditioningReport",
    "ContactEstimate",
    "ContactKind",
    "DegenerateMarkers",
    "EdgeContact",
    "EstimateReport",
    "EstimatorConfig",
    "FixedDirectionContact",
    "FixedPointContact",
    "IllConditioned",
    "InvalidSchedule",
    "MarkerFrame",
    "MarkerGrid",
    "MarkerLog",
    "MismatchedFrames",
    "MotionSequence",
    "MotionStep",
    "NonFiniteValue",
    "ParseError",
    "Provenance",
    "RankDeficientBeyondLine",
    "RegistrationResult",
    "RelativeMotion",
    "ScenarioConfig",
    "ScenarioTruth",
    "SchemaVersionMismatch",
    "TaclocError",
    "TooFewFrames",
    "TooFewMarkers",
    "compose",
    "constraint_residuals",
    "estimate_fixed_direction",
    "estimate_fixed_point",
    "estimate_line_contact",
    "estimate_line_direction",
    "estimate_line_point",
    "fixed_direction_residuals",
    "fixed_point_residuals",
    "generate",
    "inverse",
    "line_contact_residuals",
    "orthonormalize",
    "propagate_plane",
    "read_marker_log",
    "read_motion_sequence",
    "read_report",
    "read_scenario",
    "read_truth",
    "register",
    "register_sequence",
    "rotation_about_axis",
    "rotation_angle",
    "write_marker_log",
    "write_motion_sequence",
    "write_report",
    "write_scenario",
    "write_truth",
    "__version__",
]
