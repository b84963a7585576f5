"""Contact estimate results and their conditioning diagnostics."""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .motion import _as_vector3, _readonly, _row_norms

UNIT_NORM_TOL = 1e-9


class ContactKind(str, enum.Enum):
    FIXED_POINT = "fixed_point"
    FIXED_DIRECTION = "fixed_direction"
    LINE = "line"


@dataclass(frozen=True)
class ConditioningReport:
    """How well the motion sequence determines the contact unknowns.

    condition_number is the ratio of the largest singular value of the
    estimation system to the smallest one relevant to the estimate; for
    null-space estimators (fixed direction, line direction) the relevant
    margin is the second-smallest singular value, since the smallest one
    corresponds to the estimated direction itself.
    """

    max_rotation_angle: float
    smallest_singular_value: float
    condition_number: float
    well_posed: bool

    def __post_init__(self):
        if self.smallest_singular_value < 0.0:
            raise ValueError("smallest_singular_value must be nonnegative")
        if not (self.condition_number >= 1.0 or np.isinf(self.condition_number)):
            raise ValueError(f"condition_number must be >= 1 or inf, got {self.condition_number}")


@dataclass(frozen=True, eq=False)
class ContactEstimate:
    """Tagged contact-localization result.

    FIXED_POINT carries `point` only, FIXED_DIRECTION carries `direction`
    only, LINE carries both (point = closest point on the edge to the
    origin). per_frame_residuals holds the constraint residual at each moving
    frame (None if not recorded: no report then); residual_rms is their RMS.
    """

    kind: ContactKind
    point: np.ndarray | None
    direction: np.ndarray | None
    residual_rms: float
    conditioning: ConditioningReport
    per_frame_residuals: np.ndarray | None = None

    def __post_init__(self):
        wants_point = self.kind in (ContactKind.FIXED_POINT, ContactKind.LINE)
        wants_direction = self.kind in (ContactKind.FIXED_DIRECTION, ContactKind.LINE)
        if wants_point != (self.point is not None):
            raise ValueError(f"{self.kind.value} estimate must carry a point iff the kind does")
        if wants_direction != (self.direction is not None):
            raise ValueError(f"{self.kind.value} estimate must carry a direction iff the kind does")
        if self.point is not None:
            object.__setattr__(self, "point", _readonly(_as_vector3(self.point, "point")))
        if self.direction is not None:
            direction = _as_vector3(self.direction, "direction")
            if abs((norm := _row_norms(direction[None])[0]) - 1.0) > UNIT_NORM_TOL:
                raise ValueError(f"direction must be unit norm, got |d| = {norm}")
            object.__setattr__(self, "direction", _readonly(direction))
        if self.per_frame_residuals is not None:
            residuals = np.array(self.per_frame_residuals, dtype=float).reshape(-1)
            object.__setattr__(self, "per_frame_residuals", _readonly(residuals))
        if not (self.residual_rms >= 0.0):
            raise ValueError(f"residual_rms must be nonnegative, got {self.residual_rms}")
