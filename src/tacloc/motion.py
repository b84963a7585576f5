"""Rigid-motion and marker-measurement value types.

All motions are expressed relative to the initial (index 0) frame, in the
sensor base frame. Units are caller-defined; the library only requires them
to be uniform within a dataset.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Tolerance on ||R^T R - I||_F and |det(R) - 1| for stored rotations.
ROTATION_TOL = 1e-9


def _readonly(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def _as_vector3(value, name: str) -> np.ndarray:
    vec = np.array(value, dtype=float).reshape(-1)
    if vec.shape != (3,):
        raise ValueError(f"{name} must be a 3-vector, got shape {np.shape(value)}")
    if not np.all(np.isfinite(vec)):
        raise ValueError(f"{name} has non-finite entries: {vec}")
    return vec


def orthonormalize(matrix) -> np.ndarray:
    """Project a 3x3 matrix onto the nearest proper rotation (polar projection).

    The input must be finite and have positive determinant; a reflection is
    rejected rather than silently re-handed.
    """
    mat = np.array(matrix, dtype=float)
    if mat.shape != (3, 3):
        raise ValueError(f"rotation must be 3x3, got shape {mat.shape}")
    if not np.all(np.isfinite(mat)):
        raise ValueError("rotation has non-finite entries")
    if np.linalg.det(mat) <= 0.0:
        raise ValueError("matrix is a reflection or singular, not a rotation")
    if np.linalg.norm(mat.T @ mat - np.eye(3)) <= ROTATION_TOL:
        return mat  # already a rotation; reprojecting would churn the last ulp
    u, _, vt = np.linalg.svd(mat)
    rot = u @ vt
    if np.linalg.det(rot) < 0.0:
        u[:, 2] = -u[:, 2]
        rot = u @ vt
    return rot


def rotation_about_axis(axis, angle: float) -> np.ndarray:
    """Rotation matrix for a right-handed rotation of `angle` radians about `axis`."""
    ax = _as_vector3(axis, "axis")
    norm = np.linalg.norm(ax)
    if norm == 0.0:
        raise ValueError("axis must be nonzero")
    x, y, z = ax / norm
    c, s = math.cos(angle), math.sin(angle)
    k = np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])
    return np.eye(3) + s * k + (1.0 - c) * (k @ k)


@dataclass(frozen=True, eq=False)
class RelativeMotion:
    """Rigid transform of the object from frame 0 to frame `frame_index`.

    rotation is re-orthonormalized on construction via polar projection, so
    the stored matrix is always a proper rotation within ROTATION_TOL.
    """

    rotation: np.ndarray
    translation: np.ndarray
    frame_index: int = 0

    def __post_init__(self):
        rot = orthonormalize(self.rotation)
        trans = _as_vector3(self.translation, "translation")
        if self.frame_index < 0 or int(self.frame_index) != self.frame_index:
            raise ValueError(f"frame_index must be a nonnegative integer, got {self.frame_index}")
        object.__setattr__(self, "rotation", _readonly(rot))
        object.__setattr__(self, "translation", _readonly(trans))
        object.__setattr__(self, "frame_index", int(self.frame_index))

    @classmethod
    def identity(cls, frame_index: int = 0) -> "RelativeMotion":
        return cls(np.eye(3), np.zeros(3), frame_index)

    @classmethod
    def about_line(cls, axis, angle: float, point=(0.0, 0.0, 0.0),
                   frame_index: int = 0) -> "RelativeMotion":
        """Rotation about the line through `point` along `axis` (points on the line stay fixed)."""
        rot = rotation_about_axis(axis, angle)
        pnt = _as_vector3(point, "point")
        return cls(rot, pnt - rot @ pnt, frame_index)

    def transform(self, points) -> np.ndarray:
        """Apply the motion to one point (3,) or a stack of points (..., 3)."""
        pts = np.asarray(points, dtype=float)
        return pts @ self.rotation.T + self.translation

    def is_identity(self, tol: float = ROTATION_TOL) -> bool:
        return (np.linalg.norm(self.rotation - np.eye(3)) <= tol
                and np.linalg.norm(self.translation) <= tol)


def compose(a: RelativeMotion, b: RelativeMotion) -> RelativeMotion:
    """Chain two motions: the result applies `b` first, then `a`.

    Chaining an incremental j->k motion (indexed k) after a 0->j motion gives
    the 0->k motion, so the result keeps the left operand's frame index.
    """
    return RelativeMotion(a.rotation @ b.rotation,
                          a.rotation @ b.translation + a.translation,
                          a.frame_index)


def inverse(m: RelativeMotion) -> RelativeMotion:
    return RelativeMotion(m.rotation.T, -(m.rotation.T @ m.translation), m.frame_index)


def rotation_angle(m: RelativeMotion) -> float:
    """Geodesic rotation angle in [0, pi]: arccos((trace(R) - 1) / 2)."""
    cos_theta = (np.trace(m.rotation) - 1.0) / 2.0
    return math.acos(min(1.0, max(-1.0, cos_theta)))


@dataclass(frozen=True, eq=False)
class MarkerFrame:
    """Time-stamped 3-D marker positions, one row per marker."""

    positions: np.ndarray
    frame_index: int = 0

    def __post_init__(self):
        pos = np.array(self.positions, dtype=float)
        if pos.ndim != 2 or pos.shape[1] != 3:
            raise ValueError(f"positions must have shape (m, 3), got {pos.shape}")
        if not np.all(np.isfinite(pos)):
            raise ValueError("marker positions must be finite")
        if self.frame_index < 0 or int(self.frame_index) != self.frame_index:
            raise ValueError(f"frame_index must be a nonnegative integer, got {self.frame_index}")
        object.__setattr__(self, "positions", _readonly(pos))
        object.__setattr__(self, "frame_index", int(self.frame_index))

    @property
    def marker_count(self) -> int:
        return self.positions.shape[0]


@dataclass(frozen=True, eq=False)
class MotionSequence:
    """Ordered motions of one object, all relative to frame 0.

    frame_index is strictly increasing; if an entry carries index 0 it must
    be the identity motion. rms_errors, when the motions were measured by
    registration, holds each motion's marker fit RMS.
    """

    motions: tuple
    rms_errors: tuple | None = None

    def __post_init__(self):
        motions = tuple(self.motions)
        for m in motions:
            if not isinstance(m, RelativeMotion):
                raise TypeError(f"expected RelativeMotion, got {type(m).__name__}")
        indices = [m.frame_index for m in motions]
        if any(b <= a for a, b in zip(indices, indices[1:])):
            raise ValueError(f"frame_index must be strictly increasing, got {indices}")
        if motions and motions[0].frame_index == 0 and not motions[0].is_identity():
            raise ValueError("the frame-0 motion must be the identity")
        if self.rms_errors is not None:
            rms = tuple(float(e) for e in self.rms_errors)
            if len(rms) != len(motions) or not all(0.0 <= e < math.inf for e in rms):
                raise ValueError("rms_errors must be one finite nonnegative value per motion")
            object.__setattr__(self, "rms_errors", rms)
        object.__setattr__(self, "motions", motions)

    def __iter__(self):
        return iter(self.motions)

    def __len__(self) -> int:
        return len(self.motions)

    def __getitem__(self, i) -> RelativeMotion:
        return self.motions[i]

    def moving(self) -> tuple:
        """The motions excluding the frame-0 reference entry."""
        return tuple(m for m in self.motions if m.frame_index != 0)

    def max_rotation_angle(self) -> float:
        return max((rotation_angle(m) for m in self.moving()), default=0.0)
