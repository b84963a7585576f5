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
problem itself, not its square.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .contact import ConditioningReport, ContactEstimate, ContactKind
from .errors import AmbiguousDirection, IllConditioned, RankDeficientBeyondLine, TooFewFrames
from .motion import (_EYE3, MotionSequence, _as_vector3, _exponent, _max_rotation_angle,
                     _moving_stack, _readonly, _row_dots, _row_norms, _stack, _unit, _unit_rows)

UNIT_NORM_TOL = 1e-6


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
        if not all(0.0 < x < math.inf
                   for x in (self.angle_threshold, self.cond_threshold, self.rank_tolerance)):
            raise ValueError("all thresholds must be positive and finite")
        if self.min_frames < 1:
            raise ValueError("min_frames must be at least 1")


@dataclass(frozen=True, eq=False)
class PlaneTrack:
    """The contacting face's plane per frame: unit normals and offsets.

    Each plane is {x : normals[k] . x = offsets[k]}; their common
    intersection is the candidate contact edge.
    """

    normals: np.ndarray
    offsets: np.ndarray

    def __post_init__(self):
        normals = np.array(self.normals, dtype=float)
        offsets = np.array(self.offsets, dtype=float).reshape(-1)
        if normals.ndim != 2 or normals.shape[1] != 3:
            raise ValueError(f"normals must have shape (k, 3), got {normals.shape}")
        if normals.shape[0] != offsets.shape[0]:
            raise ValueError("normals and offsets must have equal length")
        if np.any(np.abs(_row_norms(normals) - 1.0) > 1e-9):
            raise ValueError("plane normals must be unit vectors")
        object.__setattr__(self, "normals", _readonly(normals))
        object.__setattr__(self, "offsets", _readonly(offsets))

    def __len__(self) -> int:
        return self.normals.shape[0]


def _moving_or_raise(motions: MotionSequence, config: EstimatorConfig) -> tuple:
    """The moving frames' rotation and translation stacks, or TooFewFrames."""
    rotations, translations = _moving_stack(motions)
    count = len(rotations)
    if count < config.min_frames:
        raise TooFewFrames(f"need at least {config.min_frames} moving frames, got {count}")
    return rotations, translations


def _conditioning(max_angle: float, smallest: float, cond: float,
                  config: EstimatorConfig, strict: bool) -> ConditioningReport:
    """The conditioning report; in strict mode, IllConditioned unless it is well posed."""
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
    e = _exponent(residuals)
    rms = np.ldexp(np.sqrt(np.mean(np.ldexp(residuals, -e)**2)), e)
    return ContactEstimate(kind=kind, point=point, direction=direction, residual_rms=float(rms),
                           per_frame_residuals=residuals, conditioning=report)


def fixed_point_residuals(motions: MotionSequence, point) -> np.ndarray:
    """Per-frame distance the candidate pivot moves, over the moving frames."""
    point = np.asarray(point, dtype=float)
    rotations, translations = _moving_stack(motions)
    return _row_norms(rotations @ point + translations - point)


def fixed_direction_residuals(motions: MotionSequence, direction) -> np.ndarray:
    """Per-frame change of the candidate body direction, over the moving frames."""
    direction = np.asarray(direction, dtype=float)
    rotations, _ = _moving_stack(motions)
    return _row_norms((rotations - _EYE3) @ direction)


def line_contact_residuals(motions: MotionSequence, surface_normal, point) -> np.ndarray:
    """Per-frame out-of-plane displacement of the candidate edge point.

    surface_normal is the contacting face's normal in the initial frame; the
    residual at frame k is the component of the point's motion along the
    rotated normal.
    """
    n0 = np.asarray(surface_normal, dtype=float)
    point = np.asarray(point, dtype=float)
    rotations, translations = _moving_stack(motions)
    normals = _unit_rows(rotations @ n0, "surface_normal")
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

    e = _exponent(translations)
    point, _, _, sing = np.linalg.lstsq(stacked, np.ldexp(translations.reshape(-1), -e),
                                        rcond=config.rank_tolerance)
    point = np.ldexp(point, e)

    smallest = float(sing[-1])
    cond = float(sing[0] / sing[-1]) if smallest > 0.0 else math.inf
    report = _conditioning(_max_rotation_angle(rotations), smallest, cond, config, strict)

    return _estimate(ContactKind.FIXED_POINT, point, None,
                     fixed_point_residuals(motions, point), report)


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
    cond = float(sing[0] / sing[1])
    report = _conditioning(_max_rotation_angle(rotations), float(sing[1]), cond, config, strict)

    return _estimate(ContactKind.FIXED_DIRECTION, None, direction,
                     fixed_direction_residuals(motions, direction), report)


def propagate_plane(n0, x0_hint, motions: MotionSequence) -> PlaneTrack:
    """Carry the initial contact plane through every motion in the sequence.

    The plane with unit normal n0 through x0_hint is moved rigidly: the
    normal rotates, and the offset follows the transformed through-point.
    """
    n0 = _unit(n0, "n0", UNIT_NORM_TOL)
    x0 = _as_vector3(x0_hint, "x0_hint")
    rotations, translations = _stack(motions)
    normals = _unit_rows(rotations @ n0, "n0")
    return PlaneTrack(normals, _row_dots(normals, rotations @ x0 + translations))


def estimate_line_direction(track: PlaneTrack,
                            config: EstimatorConfig = EstimatorConfig()) -> np.ndarray:
    """Direction of the edge common to all tracked planes.

    The edge must be perpendicular to every plane normal, so the direction
    is the eigenvector with the smallest eigenvalue of the summed normal
    outer products — computed here as the smallest right singular vector of
    the stacked normals, which is the exact global minimizer (no iteration,
    no initial guess).

    Raises:
        TooFewFrames: fewer than config.min_frames tracked planes.
        AmbiguousDirection: the normals span <= 1 dimension (no rotation
            about any axis perpendicular to the edge occurred), so the two
            smallest eigenvalues coincide within rank_tolerance.
    """
    if len(track) < config.min_frames:
        raise TooFewFrames(f"need at least {config.min_frames} tracked planes, got {len(track)}")
    # thin unless fewer than 3 planes, where only the full factorization has vt[2]
    _, sing, vt = np.linalg.svd(track.normals, full_matrices=len(track) < 3)
    # rank_tolerance compares eigenvalues of the outer-product sum, i.e. squared singular
    # values; one plane has a single singular value, its normal spanning one dimension
    if len(sing) < 2 or sing[1] ** 2 < config.rank_tolerance * sing[0] ** 2:
        raise AmbiguousDirection("plane normals span <= 1 dimension; edge direction ambiguous")
    return _canonical_sign(vt[2])


def estimate_line_point(motions: MotionSequence, track: PlaneTrack, direction,
                        config: EstimatorConfig = EstimatorConfig()) -> np.ndarray:
    """Point pinning down the edge's position.

    Each frame contributes one row n_k^T (R_k - I) with right-hand side
    -n_k^T t_k, stating that the edge point does not move out of the
    contacting plane. The system is rank-deficient along the edge, so the
    minimum-norm least-squares solution is taken and then projected exactly
    onto the plane perpendicular to `direction`: the returned point is the
    point on the estimated edge closest to the origin.

    Raises:
        RankDeficientBeyondLine: the stacked system has rank < 2, so the
            edge position is not determined transverse to its direction.
    """
    return _line_point(motions, track, direction, config)[0]


def _line_point(motions: MotionSequence, track: PlaneTrack, direction,
                config: EstimatorConfig):
    """estimate_line_point's point, plus the stacked rows of its system."""
    direction = _unit(direction, "direction", UNIT_NORM_TOL)
    if len(track) != len(motions):
        raise ValueError(f"track length {len(track)} != motion count {len(motions)}")

    rotations, translations = _stack(motions)
    rows = ((rotations - _EYE3).swapaxes(1, 2) @ track.normals[:, :, None])[:, :, 0]
    e = _exponent(translations)
    rhs = -_row_dots(track.normals, np.ldexp(translations, -e))

    point, _, rank, _ = np.linalg.lstsq(rows, rhs, rcond=config.rank_tolerance)
    if rank < 2:
        raise RankDeficientBeyondLine(
            f"edge-point system rank {rank} < 2; position undetermined beyond the line")
    return np.ldexp(point - (point @ direction) * direction, e), rows


def estimate_line_contact(motions: MotionSequence, n0,
                          config: EstimatorConfig = EstimatorConfig(),
                          strict: bool = False) -> ContactEstimate:
    """Full slipping-line-contact estimate from the contacting face normal.

    Propagates the initial plane through the sequence, recovers the edge
    direction and then its canonical point. The conditioning margin is the
    second-largest singular value of the edge-point system — the weakest of
    its two determined directions (the third is rank-deficient along the
    edge by construction).

    Raises:
        TooFewFrames: fewer than config.min_frames moving frames.
        IllConditioned: only in strict mode, when the estimate is not well
            posed.
    """
    rotations, _ = _moving_or_raise(motions, config)
    track = propagate_plane(n0, np.zeros(3), motions)
    direction = estimate_line_direction(track, config)
    point, rows = _line_point(motions, track, direction, config)
    # a second factorization: lstsq's singular values differ from these in the last bits
    sing = np.linalg.svd(rows, compute_uv=False)
    cond = float(sing[0] / sing[1]) if sing[1] > 0.0 else math.inf
    report = _conditioning(_max_rotation_angle(rotations), float(sing[1]), cond, config, strict)

    return _estimate(ContactKind.LINE, point, direction,
                     line_contact_residuals(motions, np.asarray(n0, dtype=float), point), report)
