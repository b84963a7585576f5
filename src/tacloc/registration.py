"""Recover rigid object motion from index-corresponded marker frames.

The solve is the classic SVD fit between two 3-D point sets: centroids are
removed, the 3x3 cross-covariance is decomposed, and the reflection case is
repaired by flipping the singular direction with the smallest singular
value. Marker correspondence is assumed given (markers are tracked
upstream); there is no correspondence search.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateMarkers, MismatchedFrames, TooFewMarkers
from .motion import MarkerFrame, MotionSequence, RelativeMotion

# Singular values below this fraction of the largest count as zero.
RANK_TOLERANCE = 1e-8


@dataclass(frozen=True, eq=False)
class RegistrationResult:
    """Best-fit motion plus fit diagnostics.

    marker_covariance_rank is the numerical rank of the centered
    cross-covariance; rank 2 (near-planar marker grids, the realistic
    tactile case) still determines a unique rotation.
    """

    motion: RelativeMotion
    rms_error: float
    marker_covariance_rank: int

    def __post_init__(self):
        if self.rms_error < 0.0:
            raise ValueError("rms_error must be nonnegative")
        if self.marker_covariance_rank not in (0, 1, 2, 3):
            raise ValueError(f"marker_covariance_rank must be in 0..3, got {self.marker_covariance_rank}")


def register(reference: MarkerFrame, current: MarkerFrame,
             rank_tolerance: float = RANK_TOLERANCE) -> RegistrationResult:
    """Fit the proper rigid motion taking `reference` markers onto `current`.

    Minimizes the summed squared distances between moved reference markers
    and current markers. The returned rotation always has det = +1: when the
    best orthogonal fit is a reflection, the smallest singular direction is
    sign-flipped, which yields the best proper rotation instead.

    Raises:
        TooFewMarkers: fewer than 3 markers.
        MismatchedFrames: marker counts differ.
        DegenerateMarkers: marker covariance rank < 2 (collinear or
            coincident markers) — the rotation is unobservable.
    """
    if reference.marker_count < 3:
        raise TooFewMarkers(f"need at least 3 markers, got {reference.marker_count}",
                            frame_index=reference.frame_index)
    if reference.marker_count != current.marker_count:
        raise MismatchedFrames(
            f"marker counts differ: reference has {reference.marker_count}, "
            f"frame {current.frame_index} has {current.marker_count}",
            frame_index=current.frame_index)

    ref = reference.positions
    cur = current.positions
    ref_centroid = ref.mean(axis=0)
    cur_centroid = cur.mean(axis=0)

    cross_cov = (ref - ref_centroid).T @ (cur - cur_centroid)
    u, sing, vt = np.linalg.svd(cross_cov)

    rank = int(np.count_nonzero(sing > rank_tolerance * sing[0])) if sing[0] > 0.0 else 0
    if rank < 2:
        raise DegenerateMarkers(
            f"marker covariance rank {rank} < 2; rotation unobservable",
            frame_index=current.frame_index)

    v = vt.T
    d = np.sign(np.linalg.det(v @ u.T))
    rotation = v @ np.diag([1.0, 1.0, d]) @ u.T
    translation = cur_centroid - rotation @ ref_centroid

    residuals = ref @ rotation.T + translation - cur
    rms = float(np.sqrt(np.mean(np.sum(residuals**2, axis=1))))

    motion = RelativeMotion(rotation, translation, current.frame_index)
    return RegistrationResult(motion=motion, rms_error=rms, marker_covariance_rank=rank)


def register_frames(frames, rank_tolerance: float = RANK_TOLERANCE) -> MotionSequence:
    """Register every frame of a sequence against frames[0], which maps to the
    identity; each fit's RMS (0 for frames[0]) goes in the result's rms_errors."""
    results = [register(frames[0], frame, rank_tolerance) for frame in frames[1:]]
    return MotionSequence((RelativeMotion.identity(frames[0].frame_index),
                           *(r.motion for r in results)),
                          rms_errors=(0.0, *(r.rms_error for r in results)))


def register_sequence(frames, rank_tolerance: float = RANK_TOLERANCE) -> MotionSequence:
    """register_frames for at least two frames; errors name the frame at fault."""
    frames = list(frames)
    if len(frames) < 2:
        raise ValueError(f"need at least 2 frames, got {len(frames)}")
    return register_frames(frames, rank_tolerance)
