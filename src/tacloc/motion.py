"""Rigid-motion and marker-measurement value types.

All motions are expressed relative to the initial (index 0) frame, in the
sensor base frame. Units are caller-defined; the library only requires them
to be uniform within a dataset.

Where a whole sequence is built at once, it is checked once, as a stack:
_motion_stack runs RelativeMotion's checks over (N, 3, 3) rotations and
(N, 3) translations, and _frame_stack runs MarkerFrame's over (N, m, 3)
positions, each as a few array operations. The first bad entry in frame
order raises the error its own constructor would raise. The per-frame
objects are then read-only views into the checked stacks, and a
MotionSequence keeps the stacks it was built from, so the estimators read
them instead of gathering every motion's arrays again. A MotionSequence is
the only motion input the estimators and residual functions take, and its
moving frames are its entries after a leading frame-0 entry (_moving_stack).
The single-object constructors run the same checks on a stack of one:
orthonormalize (and so RelativeMotion) runs _proper_rotations, and
MarkerFrame runs _frame_stack.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

# Tolerance on ||R^T R - I||_F and |det(R) - 1| for stored rotations.
ROTATION_TOL = 1e-9

_REFLECTION = "matrix is a reflection or singular, not a rotation"


def _readonly(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def _frozen(arr: np.ndarray) -> np.ndarray:
    """A read-only view of arr, whose memory's owner is made read-only too: a
    view cannot be made writeable again while its owner is read-only, so
    neither can this one nor any row taken from it."""
    _readonly(arr if arr.base is None else arr.base)
    return _readonly(arr.view())


_EYE3 = _readonly(np.eye(3))


def _as_vector3(value, name: str) -> np.ndarray:
    vec = np.array(value, dtype=float).reshape(-1)
    if vec.shape != (3,):
        raise ValueError(f"{name} must be a 3-vector, got shape {np.shape(value)}")
    if not np.isfinite(vec).all():
        raise ValueError(f"{name} has non-finite entries: {vec}")
    return vec


def _frame_index(value) -> int:
    """value as an int, or ValueError unless it is a nonnegative integer."""
    if value < 0 or int(value) != value:
        raise ValueError(f"frame_index must be a nonnegative integer, got {value}")
    return int(value)


def orthonormalize(matrix) -> np.ndarray:
    """Project a 3x3 matrix onto the nearest proper rotation (polar projection).

    The input must be finite and have positive determinant; a reflection is
    rejected rather than silently re-handed.
    """
    mat = np.array(matrix, dtype=float)
    if mat.shape != (3, 3):
        raise ValueError(f"rotation must be 3x3, got shape {mat.shape}")
    return _proper_rotations(mat[None])[0]


def _proper_rotations(mats: np.ndarray) -> np.ndarray:
    """orthonormalize for every matrix of a float (N, 3, 3) stack, checked at once.

    A matrix within ROTATION_TOL of orthonormal is kept as it is, since
    reprojecting would churn its last ulp; only the others are projected.
    The first matrix, in order, that orthonormalize would reject raises its
    error. Returns mats itself when no matrix needs projecting, else a copy.
    """
    non_finite = np.flatnonzero(~np.isfinite(mats).all(axis=(1, 2)))
    if non_finite.size:
        _proper_rotations(mats[:non_finite[0]])  # a reflection before it is reported first
        raise ValueError("rotation has non-finite entries")
    # within ROTATION_TOL of orthonormal, |det| is 1 to ~1e-9, so any determinant has its sign
    if (np.linalg.det(mats) <= 0.0).any():
        raise ValueError(_REFLECTION)
    gap = (mats.swapaxes(1, 2) @ mats - _EYE3).reshape(-1, 9)
    # sqrt(gap[k] @ gap[k]), row by row; a NaN gap (overflow) counts as far
    far = ~(np.sqrt(_row_dots(gap, gap)) <= ROTATION_TOL)
    if not far.any():
        return mats
    u, _, vt = np.linalg.svd(mats[far])
    rot = u @ vt
    flip = np.linalg.det(rot) < 0.0
    u[flip, :, 2] = -u[flip, :, 2]
    rot[flip] = u[flip] @ vt[flip]
    out = mats.copy()
    out[far] = rot
    return out


def _motion_stack(rotations: np.ndarray, translations: np.ndarray, frame_indices) -> tuple:
    """RelativeMotion's checks over N motions at once, as float (N, 3, 3) and (N, 3) stacks.

    Returns the proper rotations and the translations, both read-only, and
    the frame indices as ints. The first motion, in order, that
    RelativeMotion(rotations[k], translations[k], frame_indices[k]) would
    reject raises the error it would raise: its rotation's, then its
    translation's, then its frame index's.
    """
    frame_indices = list(frame_indices)
    finite = np.isfinite(translations).all(axis=1).tolist()
    # the first motion whose translation or index is bad; rotations up to it come first
    stop = next((k for k, (ok, i) in enumerate(zip(finite, frame_indices))
                 if not (ok and i >= 0 and i % 1 == 0)), len(frame_indices))
    rotations = _proper_rotations(rotations[:stop + 1])
    if stop < len(frame_indices):
        _as_vector3(translations[stop], "translation")  # raises when the translation is at fault
        _frame_index(frame_indices[stop])  # otherwise the index is, and this raises
    return _frozen(rotations), _frozen(translations), [int(i) for i in frame_indices]


def _frame_stack(positions: np.ndarray, frame_indices) -> tuple:
    """MarkerFrame's checks over N frames at once, as a float (N, m, 3) stack.

    Returns the positions, read-only, and the frame indices as ints. The
    first frame, in order, that MarkerFrame would reject raises its error.
    """
    if positions.ndim != 3 or positions.shape[2] != 3:
        raise ValueError(f"positions must have shape (m, 3), got {positions.shape[1:]}")
    indices = []
    for finite, index in zip(np.isfinite(positions).all(axis=(1, 2)).tolist(), frame_indices):
        if not finite:
            raise ValueError("marker positions must be finite")
        indices.append(_frame_index(index))
    return _frozen(positions), indices


def _view(cls, **fields):
    """A cls instance holding fields that a stack check already passed, so
    __post_init__ does not run again; its arrays are views into the stack."""
    obj = object.__new__(cls)
    for name, value in fields.items():
        object.__setattr__(obj, name, value)  # as __init__ sets them: no per-object dict
    return obj


def _marker_frames(positions: np.ndarray, frame_indices) -> tuple:
    """The MarkerFrames of a float (N, m, 3) stack, checked once and viewing its rows."""
    positions, indices = _frame_stack(positions, frame_indices)
    return tuple(_view(MarkerFrame, positions=p, frame_index=i)
                 for p, i in zip(positions, indices))


def rotation_about_axis(axis, angle: float) -> np.ndarray:
    """Rotation matrix for a right-handed rotation of `angle` radians about `axis`."""
    return _rotations_about_axes(_as_vector3(axis, "axis")[None], [angle])[0]


def _rotations_about_axes(axes, angles) -> np.ndarray:
    """rotation_about_axis for each row of finite `axes` (N, 3) and angle, as (N, 3, 3)."""
    x, y, z = _unit_rows(axes, "axis").T
    # math's cos and sin, not numpy's, whose SIMD forms may round differently
    c = np.array([math.cos(a) for a in angles])
    s = np.array([math.sin(a) for a in angles])
    zero = np.zeros_like(x)
    k = np.stack([zero, -z, y, z, zero, -x, -y, x, zero], axis=1).reshape(-1, 3, 3)
    return _EYE3 + s[:, None, None] * k + (1.0 - c)[:, None, None] * (k @ k)


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a[k] @ b[k] for each row k of two (N, 3) stacks.

    A stacked matmul runs the same dot product as `a[k] @ b[k]` alone, so the
    bits match; einsum or a sum over axis 1 rounds differently.
    """
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def _exponent(a: np.ndarray, rows: bool = False):
    """The exponent e (0 for zeros) that brings the largest |entry| of a, or of each row of an
    (N, 3) stack with rows, into [0.5, 1): the one magnitude rule. A length computation scales
    by 2**-e, exactly, before it sums squares or products, so the sums stay finite and normal,
    then scales its result back by 2**e; no result depends on the power of two lengths carry."""
    if rows:  # .max(axis=1) is slow on rows of 3
        x, y, z = np.abs(a).T
        return np.frexp(np.maximum(np.maximum(x, y), z))[1]
    return math.frexp(np.abs(a).max(initial=0.0))[1]


def _row_norms(a: np.ndarray) -> np.ndarray:
    """Each row's norm: sqrt(a[k] @ a[k]) bit for bit (axis=1 norms are not), after _exponent."""
    e = _exponent(a, rows=True)
    scaled = np.ldexp(a, -e[:, None])
    return np.ldexp(np.sqrt(_row_dots(scaled, scaled)), e)


def _unit_rows(rows, name: str) -> np.ndarray:
    """Each row of a finite (N, 3) stack, scaled by _exponent, over its norm; ValueError if zero."""
    scaled = np.ldexp(rows, -_exponent(rows, rows=True)[:, None])
    norms = np.sqrt(_row_dots(scaled, scaled))
    if not norms.all():
        raise ValueError(f"{name} must be nonzero")
    return scaled / norms[:, None]


def _unit(value, name: str, tol: float = math.inf) -> np.ndarray:
    """A finite 3-vector divided by its norm as _unit_rows divides a row, but kept as it is within
    1e-12 of unit length. ValueError if it is zero or its norm is farther than tol from 1."""
    vec = _as_vector3(value, name)
    e = _exponent(vec)
    scaled = np.ldexp(vec, -e)
    norm = math.sqrt(scaled @ scaled)  # the sum _row_dots takes of a row
    length = math.ldexp(norm, e) if e < 1024 or norm < 1.0 else math.inf  # above every double
    if abs(length - 1.0) > tol:
        raise ValueError(f"{name} must be a unit vector, got norm {length}")
    if not norm:
        raise ValueError(f"{name} must be nonzero")
    return vec if abs(length - 1.0) <= 1e-12 else scaled / norm


def _stack(motions) -> tuple:
    """A MotionSequence's rotations (N, 3, 3) and translations (N, 3) stacks."""
    if not isinstance(motions, MotionSequence):
        raise TypeError(f"expected a MotionSequence, got {type(motions).__name__}")
    return motions.rotations, motions.translations


def _moving_stack(motions) -> tuple:
    """_stack of the moving frames: without the leading entry when it is frame 0."""
    rotations, translations = _stack(motions)
    start = 1 if motions and motions[0].frame_index == 0 else 0  # only the first can be frame 0
    return rotations[start:], translations[start:]


def _max_rotation_angle(rotations: np.ndarray) -> float:
    """The largest rotation_angle over a (N, 3, 3) stack of rotations; 0 when it is empty.

    arccos decreases, so this is one math.acos of the smallest cosine, equal
    bit for bit to the largest per-matrix angle.
    """
    cos_theta = (np.trace(rotations, axis1=1, axis2=2) - 1.0) / 2.0
    return math.acos(min(1.0, max(-1.0, float(cos_theta.min(initial=1.0)))))


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
        object.__setattr__(self, "frame_index", _frame_index(self.frame_index))
        object.__setattr__(self, "rotation", _readonly(rot))
        object.__setattr__(self, "translation", _readonly(trans))

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
                and _row_norms(self.translation[None])[0] <= tol)


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
    return _max_rotation_angle(m.rotation[None])


@dataclass(frozen=True, eq=False)
class MarkerFrame:
    """Time-stamped 3-D marker positions, one row per marker."""

    positions: np.ndarray
    frame_index: int = 0

    def __post_init__(self):
        (pos,), (index,) = _frame_stack(np.array(self.positions, dtype=float)[None],
                                        [self.frame_index])
        object.__setattr__(self, "positions", pos)
        object.__setattr__(self, "frame_index", index)

    @property
    def marker_count(self) -> int:
        return self.positions.shape[0]


@dataclass(frozen=True, eq=False)
class MarkerLog:
    """A recording in units: the sequence of marker frames 0..N-1, with constant marker count."""

    frames: tuple
    units: str = "mm"

    def __post_init__(self):
        frames = tuple(self.frames)
        if not frames:
            raise ValueError("marker log needs at least one frame")
        counts = {f.marker_count for f in frames}
        indices = [f.frame_index for f in frames]
        if indices != list(range(len(frames))):
            raise ValueError(f"frame indices must be dense from 0, got {indices}")
        if len(counts) != 1:
            raise ValueError(f"marker count must be constant, got {sorted(counts)}")
        object.__setattr__(self, "frames", frames)

    def __len__(self) -> int:
        return len(self.frames)

    def __getitem__(self, i):
        return self.frames[i]


@dataclass(frozen=True, eq=False)
class MotionSequence:
    """Ordered motions of one object, all relative to frame 0.

    frame_index is strictly increasing; if an entry carries index 0 it must
    be the identity motion. rms_errors, when the motions were measured by
    registration, holds each motion's marker fit RMS. units names the length
    unit of the translations and RMS values. rotations (N, 3, 3) and
    translations (N, 3) hold the motions' arrays as two read-only stacks.
    """

    motions: tuple
    rms_errors: tuple | None = None
    units: str = "mm"
    rotations: np.ndarray = field(init=False, repr=False)
    translations: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        motions = tuple(self.motions)
        for m in motions:
            if not isinstance(m, RelativeMotion):
                raise TypeError(f"expected RelativeMotion, got {type(m).__name__}")
        self._keep(motions, _frozen(np.array([m.rotation for m in motions]).reshape(-1, 3, 3)),
                   _frozen(np.array([m.translation for m in motions]).reshape(-1, 3)))

    @classmethod
    def _of_stacks(cls, rotations: np.ndarray, translations: np.ndarray, frame_indices,
                   rms_errors=None, units: str = "mm") -> "MotionSequence":
        """The sequence of the motions (rotations[k], translations[k], frame_indices[k]).

        The stacks are checked once, as RelativeMotion would check each
        motion, and the motions are read-only views into them.
        """
        rotations, translations, indices = _motion_stack(rotations, translations, frame_indices)
        sequence = _view(cls, rms_errors=rms_errors, units=units)
        sequence._keep(tuple(_view(RelativeMotion, rotation=r, translation=t, frame_index=i)
                             for r, t, i in zip(rotations, translations, indices)),
                       rotations, translations)
        return sequence

    def _keep(self, motions: tuple, rotations: np.ndarray, translations: np.ndarray) -> None:
        """Check the sequence as a whole, then store it."""
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
        object.__setattr__(self, "rotations", rotations)
        object.__setattr__(self, "translations", translations)

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
        return _max_rotation_angle(_moving_stack(self)[0])
