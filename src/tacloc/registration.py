"""Recover rigid object motion from index-corresponded marker frames.

The solve is the classic SVD fit between two 3-D point sets: centroids are
removed, the 3x3 cross-covariance is decomposed, and the reflection case is
repaired by flipping the singular direction with the smallest singular
value (motion._proper_product, orthonormalize's one repair too). It runs
once over a whole (N, m, 3) positions stack, a MarkerLog's own or a list of
frames stacked, in two parts: the fit (_solve), one pass over blocks of
frames and one np.linalg.svd over the cross-covariances, and each fit's RMS
(_fit_rms), a second pass. register() is both on a stack of two.
register_sequence, the one sequence registration, builds its
MotionSequence straight from the fitted stacks, which it keeps unchecked,
and builds no per-frame object: its motions are views built on first
access, and its rms_errors the second pass, run on first read. Marker
correspondence is assumed given (markers are tracked upstream); there is
no correspondence search.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import DegenerateMarkers, MismatchedFrames, TooFewMarkers
from .motion import (_EYE3, MarkerFrame, MarkerLog, MotionSequence, RelativeMotion, _all_of,
                     _blocks, _integer, _number, _per_frame, _proper_product)

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
        if _number(self.rms_error, "rms_error") < 0.0:
            raise ValueError("rms_error must be nonnegative")
        rank = _integer(self.marker_covariance_rank, "marker_covariance_rank")
        if rank not in (0, 1, 2, 3):
            raise ValueError(f"marker_covariance_rank must be in 0..3, got {rank}")


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
    rotation, translation, rank, positions, _ = _register_all([reference, current])
    rms = _fit_rms(positions, rotation, translation)
    return RegistrationResult(motion=RelativeMotion(rotation[0], translation[0],
                                                    current.frame_index),
                              rms_error=float(rms[0]), marker_covariance_rank=int(rank[0]))


def _register_all(frames) -> tuple:
    """register(frames[0], frame) for every later frame, as one solve over the (N, m, 3)
    positions stack: a MarkerLog's own, or a list of one or more MarkerFrames stacked.

    Returns rotations (N - 1, 3, 3), translations and covariance ranks of the
    N - 1 fits (_solve), the (N, m, 3) stack their RMS errors come from
    (_fit_rms), and the N frame indices. An error names the
    first bad frame, as register frame by frame would: the reference's
    marker count, then each frame's marker count and degeneracy in turn.
    """
    if isinstance(frames, MarkerLog):
        positions, indices, mismatch = frames.positions, range(len(frames)), None
    else:
        frames = _all_of(MarkerFrame, frames)
        if not frames:
            raise ValueError("need at least 1 frame, got 0")
        # frames before the first count mismatch stack; a degenerate one among them comes first
        count = frames[0].marker_count
        n_ok = next((k for k, f in enumerate(frames) if f.marker_count != count), len(frames))
        positions = np.stack([f.positions for f in frames[:n_ok]])
        indices = [f.frame_index for f in frames]
        mismatch = frames[n_ok] if n_ok < len(frames) else None
    count = positions.shape[1]
    if len(indices) > 1 and count < 3:
        raise TooFewMarkers(f"need at least 3 markers, got {count}", frame_index=indices[0])
    results = _solve(positions, indices)
    if mismatch is not None:
        raise MismatchedFrames(
            f"marker counts differ: reference has {count}, "
            f"frame {mismatch.frame_index} has {mismatch.marker_count}",
            frame_index=mismatch.frame_index)
    return (*results, positions, indices)


def _solve(positions: np.ndarray, frame_indices) -> tuple:
    """The SVD fit of frame 0 onto each later frame of an (N, m, 3) stack, batched over the
    (N - 1, 3, 3) cross-covariances: its rotations, translations and covariance ranks;
    frame_indices name a degenerate frame."""
    moving, blocks = positions[1:], _blocks(positions[1:])  # no temporary as large as the stack
    ref = positions[0]
    ref_centroid = ref.mean(axis=0)
    ref_centered = (ref - ref_centroid).T
    cur_centroid, cross_cov = np.empty((len(moving), 3)), np.empty((len(moving), 3, 3))
    for b in blocks:
        cur = moving[b].copy()  # centered in place: the stack may be a log's own
        cur_centroid[b] = np.einsum("nmk->nk", cur) / cur.shape[1]  # cur.mean(axis=1), bit for bit
        np.matmul(ref_centered, _per_frame(np.subtract, cur, cur_centroid[b]), out=cross_cov[b])
    u, sing, vt = np.linalg.svd(cross_cov)

    rank = np.count_nonzero(sing > RANK_TOLERANCE * sing[:, :1], axis=1) * (sing[:, 0] > 0.0)
    degenerate = np.nonzero(rank < 2)[0]
    if degenerate.size:
        k = degenerate[0]
        raise DegenerateMarkers(
            f"marker covariance rank {rank[k]} < 2; rotation unobservable",
            frame_index=frame_indices[k + 1])

    rotation = _proper_product(vt.swapaxes(1, 2).copy(), u.swapaxes(1, 2))
    translation = cur_centroid - rotation @ ref_centroid
    return rotation, translation, rank


def _fit_rms(positions: np.ndarray, rotation: np.ndarray, translation: np.ndarray) -> np.ndarray:
    """The RMS marker distance of each of _solve's fits of an (N, m, 3) stack: frame 0 moved by
    rotation[k] and translation[k] against frame k + 1."""
    moving, blocks = positions[1:], _blocks(positions[1:])
    ref = positions[0]
    rotation_t = np.ascontiguousarray(rotation.swapaxes(1, 2))  # the view's bits, but faster
    rms = np.empty(len(moving))
    for b in blocks:
        residuals = _per_frame(np.add, np.matmul(ref, rotation_t[b]), translation[b])
        residuals -= moving[b]
        residuals *= residuals  # squared in place, then x * x + y * y + z * z by columns:
        sums = residuals[..., 0] + residuals[..., 1]  # np.sum(r**2, axis=2), bit for bit
        sums += residuals[..., 2]
        rms[b] = np.sqrt(np.mean(sums, axis=1))
    return rms


def register_sequence(frames) -> MotionSequence:
    """Register each of a MarkerLog's frames, or of one or more MarkerFrames, against the first,
    which maps to the identity; each fit's RMS (0 for the first) goes in rms_errors, and a
    MarkerLog's units in units ("mm" for other frames). Errors name the frame at fault.

    rms_errors is computed when first read: until then the sequence keeps the positions it
    comes from, a MarkerLog's own stack (no copy) or the frames stacked."""
    units = frames.units if isinstance(frames, MarkerLog) else "mm"
    rotations, translations, _, positions, indices = _register_all(frames)
    rotations = np.concatenate([_EYE3[None], rotations])
    translations = np.concatenate([np.zeros((1, 3)), translations])
    # the moving frames' rows of the sequence's own stacks, so no second copy is kept
    rms_errors = partial(_sequence_rms, positions, rotations[1:], translations[1:])
    return MotionSequence._of_stacks(rotations, translations, indices, rms_errors, units)


def _sequence_rms(positions: np.ndarray, rotations: np.ndarray, translations: np.ndarray) -> tuple:
    """register_sequence's rms_errors: 0 for frame 0, then each fit's _fit_rms."""
    return (0.0, *_fit_rms(positions, rotations, translations).tolist())
