"""Contact localization from a tracked motion sequence.

Each estimator turns the kinematic constraint of one contact type into a
small linear-algebra problem over the stacked motion measurements:

* fixed point   — a body point stays put in the world; least squares on
                  the stacked (I - R_k) system.
* fixed direction — a body direction stays put; smallest right singular
                  vector of the stacked (R_k - I) system.
* line contact with slip — the object's contacting face stays on a plane
  pivoting about a fixed environment edge; the edge direction is the
  smallest eigenvector of the summed normal outer products and the edge
  point is the minimum-norm solution of the stacked plane-membership
  system.

All solves use orthogonal factorizations of the stacked systems; normal
equations are never formed, so the condition number reported is that of the
problem itself, not its square. Each estimator returns a ContactEstimate,
defined here with its ContactKind and ConditioningReport.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import AmbiguousDirection, IllConditioned, RankDeficientBeyondLine, TooFewFrames
from .motion import (_EYE3, MotionSequence, _floats, _integer, _max_rotation_angle,
                     _moving_stack, _norm, _number, _readonly, _row_dots, _row_norms, _shown,
                     _stack, _unit, _unit_rows, _vector)

_STORED_UNIT_TOL = 1e-9  # for an estimate's stored direction, as a report reads it back


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
        # only what read_report reads back, where an infinite condition number is a null
        for name in ("max_rotation_angle", "smallest_singular_value"):
            _number(getattr(self, name), name)
        if not (isinstance(cond := self.condition_number, float) and cond == math.inf):
            _number(cond, "condition_number")
        if not isinstance(self.well_posed, (bool, np.bool_)):
            raise ValueError(f"well_posed must be a bool, got {_shown(self.well_posed)}")
        if self.smallest_singular_value < 0.0:
            raise ValueError("smallest_singular_value must be nonnegative")
        if not self.condition_number >= 1.0:
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
        object.__setattr__(self, "kind", ContactKind(self.kind))
        wants_point = self.kind in (ContactKind.FIXED_POINT, ContactKind.LINE)
        wants_direction = self.kind in (ContactKind.FIXED_DIRECTION, ContactKind.LINE)
        if wants_point != (self.point is not None):
            raise ValueError(f"{self.kind.value} estimate must carry a point iff the kind does")
        if wants_direction != (self.direction is not None):
            raise ValueError(f"{self.kind.value} estimate must carry a direction iff the kind does")
        if self.point is not None:
            object.__setattr__(self, "point", _readonly(_floats(self.point, "point", (3,))))
        if self.direction is not None:
            direction = _vector(self.direction, "direction")
            if abs((norm := _norm(direction)) - 1.0) > _STORED_UNIT_TOL:
                raise ValueError(f"direction must be unit norm, got |d| = {norm}")
            object.__setattr__(self, "direction", _readonly(direction))
        if self.per_frame_residuals is not None:
            residuals = _floats(self.per_frame_residuals, "per_frame_residuals", (None,))
            object.__setattr__(self, "per_frame_residuals", _readonly(residuals))
        if _number(self.residual_rms, "residual_rms") < 0.0:
            raise ValueError(f"residual_rms must be nonnegative, got {self.residual_rms}")


@dataclass(frozen=True)
class EstimatorConfig:
    """Thresholds shared by the estimators.

    angle_threshold is the smallest max rotation angle (radians) considered
    informative: below roughly 2 degrees, pivot error exceeds 10% of scale
    at 1% marker noise, so that is the default. rank_tolerance is relative
    to the largest singular value (scale-free).
    """

    angle_threshold: float = field(default=0.035, metadata={
        "help": "max rotation angle (rad) below which the estimate is flagged ill-posed"})
    cond_threshold: float = field(default=1e6, metadata={"help": "condition number limit"})
    rank_tolerance: float = field(default=1e-8, metadata={"help": "relative singular value cutoff"})
    min_frames: int = field(default=3, metadata={"help": "minimum moving frames required"})

    def __post_init__(self):
        # the same types a report's config reads back
        for name in ("angle_threshold", "cond_threshold", "rank_tolerance"):
            if (value := _number(getattr(self, name), name)) <= 0.0:
                raise ValueError(f"{name} must be positive, got {value}")
        if _integer(self.min_frames, "min_frames") < 1:
            raise ValueError("min_frames must be at least 1")


def _moving_or_raise(motions: MotionSequence, config: EstimatorConfig) -> tuple:
    """The moving frames' rotation and translation stacks, or TooFewFrames."""
    rotations, translations = _moving_stack(motions)
    count = len(rotations)
    if count < config.min_frames:
        raise TooFewFrames(f"need at least {config.min_frames} moving frames, got {count}")
    return rotations, translations


def _conditioning(rotations: np.ndarray, sing: np.ndarray, k: int,
                  config: EstimatorConfig, strict: bool) -> ConditioningReport:
    """The report for singular values sing whose k-th is the weakest determined (cond inf when
    it is 0); in strict mode, IllConditioned unless it is well posed."""
    max_angle = _max_rotation_angle(rotations)
    smallest = float(sing[k])
    cond = float(sing[0] / sing[k]) if smallest > 0.0 else math.inf
    report = ConditioningReport(
        max_rotation_angle=max_angle,
        smallest_singular_value=smallest,
        condition_number=cond,
        well_posed=(max_angle >= config.angle_threshold) and (cond <= config.cond_threshold))
    if strict and not report.well_posed:
        raise IllConditioned(
            f"ill-posed: max rotation angle {max_angle:.3g} rad (needs >= "
            f"{config.angle_threshold:.3g}), condition number {cond:.3g} (needs <= "
            f"{config.cond_threshold:.3g})")
    return report


def _canonical_sign(vec: np.ndarray) -> np.ndarray:
    """Fix the sign: the first component above round-off (1e-12 of the largest) is positive."""
    magnitude = np.abs(vec)
    significant = np.nonzero(magnitude > 1e-12 * magnitude.max())[0]
    if significant.size and vec[significant[0]] < 0.0:
        return -vec
    return vec


def _estimate(kind: ContactKind, point, direction, residuals: np.ndarray,
              report: ConditioningReport) -> ContactEstimate:
    rms = np.sqrt(np.mean(residuals**2))
    return ContactEstimate(kind=kind, point=point, direction=direction, residual_rms=float(rms),
                           per_frame_residuals=residuals, conditioning=report)


def fixed_point_residuals(motions: MotionSequence, point) -> np.ndarray:
    """Per-frame distance the candidate pivot, a point in range, moves over the moving frames."""
    point = _vector(point, "point")
    return _point_residuals(*_moving_stack(motions), point)


def _point_residuals(rotations, translations, point) -> np.ndarray:
    """fixed_point_residuals from the moving frames' stacks."""
    return _row_norms(rotations @ point + translations - point)


def fixed_direction_residuals(motions: MotionSequence, direction) -> np.ndarray:
    """Per-frame change of the candidate body direction, as its unit, over the moving frames."""
    direction = _unit(direction, "direction")
    rotations, _ = _moving_stack(motions)
    return _row_norms((rotations - _EYE3) @ direction)


def line_contact_residuals(motions: MotionSequence, surface_normal, point) -> np.ndarray:
    """Per-frame out-of-plane displacement of the candidate edge point, a point in range.

    surface_normal is the contacting face's normal in the initial frame; the
    residual at frame k is the component of the point's motion along the
    rotated unit normal.
    """
    surface_normal = _unit(surface_normal, "surface_normal")
    rotations, translations = _moving_stack(motions)
    normals = _unit_rows(rotations @ surface_normal, "surface_normal")
    point = _vector(point, "point")
    return _line_residuals(normals, rotations, translations, point)


def _line_residuals(normals, rotations, translations, point) -> np.ndarray:
    """line_contact_residuals from the moving frames' stacks and their unit normals."""
    return np.abs(_row_dots(normals, rotations @ point + translations - point))


def estimate_fixed_point(motions: MotionSequence, config: EstimatorConfig = EstimatorConfig(),
                         strict: bool = False) -> ContactEstimate:
    """Locate the body point that stays fixed in the world.

    Solves the stacked system (I - R_k) p = t_k in the least-squares sense
    through an SVD of the 3N x 3 stack; singular values below
    rank_tolerance times the largest are truncated, so a rank-deficient
    system (e.g. every point on a line is fixed) yields the minimum-norm
    pivot. The system is singular when all rotations are near the identity,
    so accuracy relies on reasonably large measured rotations; the
    conditioning report captures this and well_posed = False flags, but
    does not suppress, the estimate.

    Raises:
        TooFewFrames: fewer than config.min_frames moving frames.
        IllConditioned: only in strict mode, when the estimate is not well
            posed (rotation angle or condition number out of bounds).
    """
    rotations, translations = _moving_or_raise(motions, config)
    stacked = (_EYE3 - rotations).reshape(-1, 3)

    point, _, _, sing = np.linalg.lstsq(stacked, translations.reshape(-1),
                                        rcond=config.rank_tolerance)
    report = _conditioning(rotations, sing, -1, config, strict)

    # the measured point takes no range check: near the origin it may be below 2**-L
    return _estimate(ContactKind.FIXED_POINT, point, None,
                     _point_residuals(rotations, translations, point), report)


def estimate_fixed_direction(motions: MotionSequence, config: EstimatorConfig = EstimatorConfig(),
                             strict: bool = False) -> ContactEstimate:
    """Find the body direction that stays fixed in the world.

    The estimate is the right singular vector of the stacked (R_k - I)
    matrix with the smallest singular value, sign-fixed so its first
    nonzero component is positive. The conditioning margin is the
    second-smallest singular value: it must stay away from zero for the
    null space to be one-dimensional.

    Raises:
        TooFewFrames: fewer than config.min_frames moving frames.
        AmbiguousDirection: the null space has dimension >= 2 (e.g. all
            rotations are the identity), so no unique direction exists.
        IllConditioned: only in strict mode, when the estimate is not well
            posed.
    """
    rotations, _ = _moving_or_raise(motions, config)
    _, sing, vt = np.linalg.svd((rotations - _EYE3).reshape(-1, 3), full_matrices=False)

    if sing[0] <= 0.0 or sing[1] < config.rank_tolerance * sing[0]:
        raise AmbiguousDirection(
            "rotations share no unique fixed direction (null space dimension >= 2)")

    direction = _canonical_sign(vt[2])
    report = _conditioning(rotations, sing, 1, config, strict)

    return _estimate(ContactKind.FIXED_DIRECTION, None, direction,
                     fixed_direction_residuals(motions, direction), report)


def propagate_plane(n0, motions: MotionSequence) -> np.ndarray:
    """The contacting face's unit normal in every frame, (N, 3): unit n0 rotated by each motion."""
    n0 = _unit(n0, "n0")
    rotations, _ = _stack(motions)
    return _unit_rows(rotations @ n0, "n0")


def estimate_line_direction(motions: MotionSequence, n0,
                            config: EstimatorConfig = EstimatorConfig()) -> np.ndarray:
    """Direction of the edge that the face with initial normal n0 keeps holding.

    The edge must be perpendicular to every propagated normal, so the
    direction is the eigenvector with the smallest eigenvalue of the summed
    normal outer products — computed here as the smallest right singular
    vector of the stacked normals, which is the exact global minimizer (no
    iteration, no initial guess).

    Raises:
        TooFewFrames: fewer than config.min_frames moving frames.
        AmbiguousDirection: the normals span <= 1 dimension (no rotation
            about any axis perpendicular to the edge occurred), so the two
            smallest eigenvalues coincide within rank_tolerance.
    """
    _moving_or_raise(motions, config)
    return _line_direction(propagate_plane(n0, motions), config)


def _line_direction(normals: np.ndarray, config: EstimatorConfig) -> np.ndarray:
    """estimate_line_direction's direction from the propagated normals."""
    # thin unless fewer than 3 planes, where only the full factorization has vt[2]
    _, sing, vt = np.linalg.svd(normals, full_matrices=len(normals) < 3)
    # rank_tolerance compares eigenvalues of the outer-product sum, i.e. squared singular
    # values; one plane has a single singular value, its normal spanning one dimension
    if len(sing) < 2 or sing[1] ** 2 < config.rank_tolerance * sing[0] ** 2:
        raise AmbiguousDirection("plane normals span <= 1 dimension; edge direction ambiguous")
    return _canonical_sign(vt[2])


def estimate_line_point(motions: MotionSequence, n0, direction,
                        config: EstimatorConfig = EstimatorConfig()) -> np.ndarray:
    """Point pinning down the edge's position.

    Each frame contributes one row n_k^T (R_k - I) with right-hand side
    -n_k^T t_k, stating that the edge point does not move out of the
    contacting plane (n_k from propagate_plane). The system is rank-deficient
    along the edge, so the minimum-norm least-squares solution is taken and
    then projected exactly onto the plane perpendicular to `direction`: the
    returned point is the point on the estimated edge closest to the origin.

    Raises:
        RankDeficientBeyondLine: the stacked system has rank < 2, so the
            edge position is not determined transverse to its direction.
    """
    return _line_point(motions, propagate_plane(n0, motions), direction, config)[0]


def _line_point(motions: MotionSequence, normals: np.ndarray, direction,
                config: EstimatorConfig):
    """estimate_line_point's point, plus the stacked rows of its system."""
    direction = _unit(direction, "direction")
    rotations, translations = _stack(motions)
    rows = ((rotations - _EYE3).swapaxes(1, 2) @ normals[:, :, None])[:, :, 0]
    rhs = -_row_dots(normals, translations)

    point, _, rank, _ = np.linalg.lstsq(rows, rhs, rcond=config.rank_tolerance)
    if rank < 2:
        raise RankDeficientBeyondLine(
            f"edge-point system rank {rank} < 2; position undetermined beyond the line")
    return point - (point @ direction) * direction, rows


def estimate_line_contact(motions: MotionSequence, n0,
                          config: EstimatorConfig = EstimatorConfig(),
                          strict: bool = False) -> ContactEstimate:
    """Full slipping-line-contact estimate from the contacting face normal.

    Propagates the initial normal through the sequence, recovers the edge
    direction and then its canonical point. The conditioning margin is the
    second-largest singular value of the edge-point system — the weakest of
    its two determined directions (the third is rank-deficient along the
    edge by construction).

    Raises:
        TooFewFrames: fewer than config.min_frames moving frames.
        IllConditioned: only in strict mode, when the estimate is not well
            posed.
    """
    rotations, translations = _moving_or_raise(motions, config)
    normals = propagate_plane(n0, motions)
    direction = _line_direction(normals, config)
    point, rows = _line_point(motions, normals, direction, config)
    # a second factorization: lstsq's singular values differ from these in the last bits
    report = _conditioning(rotations, np.linalg.svd(rows, compute_uv=False), 1, config, strict)

    # the moving frames' normals are the last ones, after frame 0's if the motions hold it
    return _estimate(ContactKind.LINE, point, direction, _line_residuals(
        normals[len(normals) - len(rotations):], rotations, translations, point), report)
