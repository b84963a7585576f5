"""Recover rigid object motion from index-corresponded marker frames.

The solve is the classic SVD fit between two 3-D point sets: centroids are
removed, the 3x3 cross-covariance is decomposed, and the reflection case is
repaired by flipping the singular direction with the smallest singular
value. It runs once over a whole sequence, as one broadcast matmul and one
np.linalg.svd over the (N, 3, 3) cross-covariances; register() is that solve
on a stack of one. register_sequence, the one sequence registration, builds
its MotionSequence straight from the solved stacks, checked once, so its
motions are read-only views into them. Marker correspondence is assumed
given (markers are tracked upstream); there is no correspondence search.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateMarkers, MismatchedFrames, TooFewMarkers
from .motion import _EYE3, MarkerFrame, MotionSequence, RelativeMotion

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


def register(reference: MarkerFrame, current: MarkerFrame) -> RegistrationResult:
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
    rotation, translation, rms, rank = _register_all(reference, [current])
    return RegistrationResult(motion=RelativeMotion(rotation[0], translation[0],
                                                    current.frame_index),
                              rms_error=float(rms[0]), marker_covariance_rank=int(rank[0]))


def _register_all(reference: MarkerFrame, frames) -> tuple:
    """register(reference, frame) for every frame, as one solve over the whole stack.

    Returns rotations (N, 3, 3), translations (N, 3), RMS errors (N,) and
    covariance ranks (N,). An error names the first bad frame, as register
    frame by frame would: the reference's marker count, then each frame's
    marker count and degeneracy in turn.
    """
    if not frames:
        return np.empty((0, 3, 3)), np.empty((0, 3)), np.empty(0), np.empty(0, dtype=int)
    count = reference.marker_count
    if count < 3:
        raise TooFewMarkers(f"need at least 3 markers, got {count}",
                            frame_index=reference.frame_index)
    # frames before the first count mismatch stack; a degenerate one among them comes first
    n_ok = next((k for k, f in enumerate(frames) if f.marker_count != count), len(frames))
    results = _solve(reference.positions, frames[:n_ok]) if n_ok else None
    if n_ok < len(frames):
        bad = frames[n_ok]
        raise MismatchedFrames(
            f"marker counts differ: reference has {count}, "
            f"frame {bad.frame_index} has {bad.marker_count}",
            frame_index=bad.frame_index)
    return results


def _solve(ref: np.ndarray, frames) -> tuple:
    """The SVD fit of ref onto each frame, batched over the (N, 3, 3) cross-covariances."""
    cur = np.stack([f.positions for f in frames])
    ref_centroid = ref.mean(axis=0)
    cur_centroid = cur.mean(axis=1)

    cross_cov = (ref - ref_centroid).T @ (cur - cur_centroid[:, None])
    u, sing, vt = np.linalg.svd(cross_cov)

    rank = np.count_nonzero(sing > RANK_TOLERANCE * sing[:, :1], axis=1) * (sing[:, 0] > 0.0)
    degenerate = np.nonzero(rank < 2)[0]
    if degenerate.size:
        k = degenerate[0]
        raise DegenerateMarkers(
            f"marker covariance rank {rank[k]} < 2; rotation unobservable",
            frame_index=frames[k].frame_index)

    v = vt.swapaxes(1, 2)
    ut = u.swapaxes(1, 2)
    flip = np.broadcast_to(np.eye(3), cross_cov.shape).copy()
    flip[:, 2, 2] = np.sign(np.linalg.det(v @ ut))
    rotation = v @ flip @ ut
    translation = cur_centroid - rotation @ ref_centroid

    residuals = ref @ rotation.swapaxes(1, 2) + translation[:, None] - cur
    rms = np.sqrt(np.mean(np.sum(residuals**2, axis=2), axis=1))

    return rotation, translation, rms, rank


def register_sequence(frames) -> MotionSequence:
    """Register each of one or more frames against the first, which maps to the identity;
    each fit's RMS (0 for the first) goes in rms_errors. Errors name the frame at fault."""
    frames = list(frames)
    if not frames:
        raise ValueError("need at least 1 frame, got 0")
    rotations, translations, rms, _ = _register_all(frames[0], frames[1:])
    return MotionSequence._of_stacks(np.concatenate([_EYE3[None], rotations]),
                                     np.concatenate([np.zeros((1, 3)), translations]),
                                     [f.frame_index for f in frames],
                                     rms_errors=(0.0, *rms.tolist()))
