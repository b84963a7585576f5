"""Rigid-motion and marker-measurement value types.

Every value type takes only what its file reads back: each number by _number, each integer
by _integer and each array by _floats, the one check the readers rely on; each length or
direction that enters, by _in_range, the one magnitude range every length computation needs.

All motions are expressed relative to the initial (index 0) frame, in the
sensor base frame. Units are caller-defined; the library only requires them
to be uniform within a dataset.

A MarkerLog is stored as its (N, m, 3) positions and a MotionSequence as its
(N, 3, 3) rotations, (N, 3) translations and frame indices. Each stack is
checked once, where it enters, and then kept: a marker stack frame by frame
(MarkerFrame, generate, read_marker_log); a motion file's by _motion_stack,
whose one mask of RelativeMotion's tests finds the first bad entry in frame
order, which its own RelativeMotion rejects. log.frames and seq.motions are
read-only views into the stacks, built when first read; the estimators,
registration and the writers build none. A registered sequence's
rms_errors are made when first read too, by the maker registration hands
_of_stacks, which holds the positions until then. The estimators and residual
functions take a MotionSequence (_stack), whose moving frames follow a
leading frame-0 entry (_moving_stack).
"""

from __future__ import annotations

import contextlib
import math
import numbers
import operator
from dataclasses import dataclass
from functools import cached_property
from itertools import chain

import numpy as np

from .errors import NonFiniteValue

# Tolerance on ||R^T R - I||_F and |det(R) - 1| for stored rotations.
ROTATION_TOL = 1e-9

_REFLECTION = "matrix is a reflection or singular, not a rotation"

_BOOLS = frozenset({bool, np.bool_})  # no file reads one back as a number

_BLOCK_BYTES = 1 << 17  # of a stack per block of a pass over it: its temporaries stay in cache

# _admitted: whether the largest |entry| of a length or direction that enters, or each of an
# array of them, is 0 or in [2**-L, 2**L]. The deepest product chain, the cross-covariance of m
# markers, reaches m * 2**(2L+2), and numpy's SVD (LAPACK gesdd) rescales its input by a factor
# that is no power of two outside [2**-459, 2**459]: L = 200 keeps it in for m < 2**57, and a
# residue 2**-53 below its value's largest entry squares to a normal double, so scaling commutes.
L = 200
# _stack's bound on the largest |entry| of the translations an estimator takes: those registered
# from positions in range stay below (1 + sqrt(3)) * 2**L and generate's below (3 + sqrt(3)) *
# 2**L, and a residual a few times 2**(L+3) squares to far below the largest double.
TRANSLATION_TOP = 2.0 ** (L + 3)


def _admitted(top):
    return (top == 0.0) | ((top >= 2.0**-L) & (top <= 2.0**L))


def _in_range(value, name: str, error: type = ValueError):
    """value, a float or float array, or error naming it unless its largest |entry| is _admitted."""
    top = abs(value) if isinstance(value, float) else np.abs(value).max(initial=0.0)
    if not _admitted(top):
        raise error(f"{name}: largest |entry| {top:.3g} is neither 0 nor in [2**-{L}, 2**{L}]")
    return value


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


def _shown(value) -> str:
    """value's repr cut to 40 characters, for an error message: never the ValueError that repr
    raises for an int of more digits than Python writes as text."""
    try:
        return f"{value!r:.40}"
    except ValueError:  # the int, or a value holding one
        return f"{'an int' if isinstance(value, int) else 'a value'} too long to write"


def _frame_index(value) -> int:
    """value as an int, or ValueError unless _integer takes it and it is nonnegative."""
    with contextlib.suppress(ValueError):
        if (index := _integer(value, "frame_index")) >= 0:
            return index
    raise ValueError(f"frame_index must be a nonnegative integer, got {_shown(value)}")


def _all_of(cls, values) -> tuple:
    """values as a tuple, or TypeError naming the type of the first entry that is no cls."""
    values = tuple(values)
    for value in values:
        if not isinstance(value, cls):
            raise TypeError(f"expected {cls.__name__}, got {type(value).__name__}")
    return values


def _text(value, name: str) -> str:
    """value, or ValueError unless it is a str, as every file holds there."""
    if not isinstance(value, str):
        raise ValueError(f"{name} must be a string, got {_shown(value)}")
    return value


def _number(value, name: str) -> float:
    """value as a float, or ValueError unless it is a finite real number and no bool: the one
    rule for a number a file holds, which reads it back as that float."""
    if type(value) is float and math.isfinite(value):  # the common case, first for speed
        return value
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        with contextlib.suppress(OverflowError):  # an integer past the largest double
            if math.isfinite(number := float(value)):
                return number
    raise ValueError(f"{name} must be a finite number, got {_shown(value)}")


def _integer(value, name: str) -> int:
    """value as an int, or ValueError unless it is an integer and no bool: the one rule for an
    integer a file holds."""
    if isinstance(value, numbers.Integral) and not isinstance(value, bool):
        return int(value)
    raise ValueError(f"{name} must be an integer, got {_shown(value)}")


def _floats(value, name: str, shape: tuple, rows: str = "entry") -> np.ndarray:
    """value as a new float array, or ValueError unless numpy reads it as real numbers (no string,
    None or integer beyond 64 bits) of exactly shape (None matches any length), no bool among
    them; NonFiniteValue names the first of its rows holding a NaN or an infinity."""
    try:
        arr = np.array(value)  # a copy: the caller's array is not frozen with the value's
    except ValueError as err:  # ragged
        raise ValueError(f"{name} is not numeric: {err}") from err
    if arr.dtype.kind not in "fi":
        raise ValueError(f"{name} is not numeric: read as {arr.dtype}")
    if arr.shape != shape and (arr.ndim != len(shape) or any(  # the exact shape first, for speed
            n not in (None, m) for n, m in zip(shape, arr.shape))):
        raise ValueError(f"{name} must have shape {shape}, got {arr.shape}")
    if not isinstance(value, np.ndarray):  # numpy reads a bool as 1 or 0: scan where it read one
        entries = value
        if arr.ndim == 2:
            # each row once, in order, from the flat index (np.unique would import numpy.ma)
            suspect = dict.fromkeys((np.flatnonzero((arr == 0) | (arr == 1)) // arr.shape[1]).tolist())
            entries = chain.from_iterable(map(value.__getitem__, suspect))
        if not _BOOLS.isdisjoint(map(type, entries)):
            raise ValueError(f"{name} is not numeric: an entry is a boolean")
    arr = arr.astype(float, copy=False)
    if not np.isfinite(arr).all():  # the bad row only on failure, for speed
        finite = np.isfinite(arr).all(axis=tuple(range(1, arr.ndim)))
        raise NonFiniteValue(f"{name}: non-finite value at {rows} {np.argmin(finite)}")
    return arr


def orthonormalize(matrix) -> np.ndarray:
    """Project a 3x3 matrix onto the nearest proper rotation (polar projection).

    The input must be finite and have positive determinant; a reflection is
    rejected rather than silently re-handed.
    """
    mat = _floats(matrix, "rotation", (3, 3))
    # within ROTATION_TOL of orthonormal, |det| is 1 to ~1e-9, so any determinant has its sign
    if np.linalg.det(mat) <= 0.0:
        raise ValueError(_REFLECTION)
    return _proper_rotations(mat[None])[0]


def _proper_rotations(mats: np.ndarray) -> np.ndarray:
    """orthonormalize's projection of each matrix of a float (N, 3, 3) stack, all of them
    finite with a positive determinant: the callers check that, this does not.

    A matrix within ROTATION_TOL of orthonormal is kept as it is, since
    reprojecting would churn its last ulp; only the others are projected, by
    _proper_product of their SVD factors, the repair registration uses too.
    Returns mats itself when no matrix needs projecting, else a copy.
    """
    gap = (mats.swapaxes(1, 2) @ mats - _EYE3).reshape(-1, 9)
    far = ~(_row_norms(gap) <= ROTATION_TOL)  # a NaN gap (overflow) counts as far
    if not far.any():
        return mats
    u, _, vt = np.linalg.svd(mats[far])
    out = mats.copy()
    out[far] = _proper_product(u, vt)
    return out


def _proper_product(u: np.ndarray, vt: np.ndarray) -> np.ndarray:
    """u @ vt of (N, 3, 3) SVD factors, u's last column negated in place where that is a
    reflection: the nearest proper rotation, the one repair of both SVD rotation fits."""
    rot = u @ vt
    flip = np.linalg.det(rot) < 0.0
    u[flip, :, 2] = -u[flip, :, 2]
    rot[flip] = u[flip] @ vt[flip]
    return rot


def _first_bad_motion(rotations: np.ndarray, translations: np.ndarray, frame_indices) -> int:
    """The first k, in order, whose motion RelativeMotion(rotations[k], translations[k],
    frame_indices[k]) would reject, or -1: one mask of its tests over the stacks."""
    finite = np.isfinite(rotations).all(axis=(1, 2))
    bad = ~finite | ~np.isfinite(translations).all(axis=1)
    bad[finite] |= np.linalg.det(rotations[finite]) <= 0.0  # numpy warns on a non-finite one
    for k, i in enumerate(frame_indices):
        if not (type(i) is int and i >= 0):  # an int at once, for speed; else _frame_index's rule
            try:
                _frame_index(i)
            except ValueError:
                bad[k] = True
    return int(bad.argmax()) if bad.any() else -1


def _motion_stack(rotations: np.ndarray, translations: np.ndarray, frame_indices) -> tuple:
    """RelativeMotion's checks over float (N, 3, 3) and (N, 3) stacks at once: the proper
    rotations, the translations and the frame indices as ints, or the error RelativeMotion
    raises for the first bad motion, which _first_bad_motion finds."""
    frame_indices = list(frame_indices)
    k = _first_bad_motion(rotations, translations, frame_indices)
    if k >= 0:
        RelativeMotion(rotations[k], translations[k], frame_indices[k])  # raises
    return _proper_rotations(rotations), translations, [int(i) for i in frame_indices]


def _blocks(stack: np.ndarray) -> list:
    """Slices of stack's frames in order, each of at most _BLOCK_BYTES but one frame at least."""
    step = max(1, _BLOCK_BYTES // max(1, stack[:1].nbytes))
    return [slice(k, k + step) for k in range(0, len(stack), step)]


def _per_frame(ufunc, block: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """block = ufunc(block, vectors[:, None]) in place, for an (n, m, 3) block and (n, 3)
    vectors: column by column, so numpy's inner loop runs along the m markers, not along 3."""
    for k in range(3):
        ufunc(block[..., k], vectors[:, k, None], out=block[..., k])
    return block


def _view(cls, **fields):
    """A cls instance holding fields that a stack check already passed, so
    __post_init__ does not run again; its arrays are views into the stack."""
    obj = object.__new__(cls)
    for name, value in fields.items():
        object.__setattr__(obj, name, value)  # as __init__ sets them: no per-object dict
    return obj


def rotation_about_axis(axis, angle: float) -> np.ndarray:
    """Rotation matrix for a right-handed rotation of `angle` radians about `axis`."""
    return _rotations_about_axes(_in_range(_floats(axis, "axis", (3,)), "axis")[None], [angle])[0]


def _rotations_about_axes(axes, angles) -> np.ndarray:
    """rotation_about_axis for each row of `axes` (N, 3), each in range, and angle, as (N, 3, 3)."""
    x, y, z = _unit_rows(axes, "axis").T
    # math's cos and sin, not numpy's, whose SIMD forms may round differently
    c = np.array([math.cos(a) for a in angles])
    s = np.array([math.sin(a) for a in angles])
    zero = np.zeros_like(x)
    k = np.stack([zero, -z, y, z, zero, -x, -y, x, zero], axis=1).reshape(-1, 3, 3)
    return _EYE3 + s[:, None, None] * k + (1.0 - c)[:, None, None] * (k @ k)


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a[k] @ b[k] for each row k of two (N, n) stacks.

    A stacked matmul runs the same dot product as `a[k] @ b[k]` alone, so the
    bits match; einsum or a sum over axis 1 rounds differently.
    """
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def _row_norms(a: np.ndarray) -> np.ndarray:
    """Each row's norm, sqrt(a[k] @ a[k]) bit for bit."""
    return np.sqrt(_row_dots(a, a))


def _unit_rows(rows, name: str) -> np.ndarray:
    """Each row of a finite (N, 3) stack over its norm; ValueError if zero."""
    norms = _row_norms(rows)
    if not norms.all():
        raise ValueError(f"{name} must be nonzero")
    return rows / norms[:, None]


def _norm(vec: np.ndarray) -> float:
    """A vector's norm: _row_norms of it as one row, bit for bit, at a single vector's cost."""
    return math.sqrt(vec @ vec)


def _unit(value, name: str) -> np.ndarray:
    """A 3-vector in range divided by its norm as _unit_rows divides a row, but kept as it is
    within 1e-12 of unit length; ValueError if it is zero. The one rule for a direction."""
    vec = _in_range(_floats(value, name, (3,)), name)
    if not (norm := _norm(vec)):
        raise ValueError(f"{name} must be nonzero")
    return vec if abs(norm - 1.0) <= 1e-12 else vec / norm


def _rms_errors(values, count: int) -> tuple | None:
    """values as a tuple of floats, one finite nonnegative per motion of a sequence of count, or
    ValueError. None, and the () of an empty sequence, which has no fit to report, give None,
    as its file reads back."""
    if values is None:
        return None
    values = tuple([_number(e, "rms_error") for e in values])
    if len(values) != count or not all(e >= 0.0 for e in values):
        raise ValueError("rms_errors must be one finite nonnegative value per motion")
    return values or None


def _stack(motions) -> tuple:
    """A MotionSequence's rotations (N, 3, 3) and translations (N, 3), none past TRANSLATION_TOP."""
    if not isinstance(motions, MotionSequence):
        raise TypeError(f"expected a MotionSequence, got {type(motions).__name__}")
    if not (top := np.abs(motions.translations).max(initial=0.0)) <= TRANSLATION_TOP:
        raise ValueError(f"translations: largest |entry| {top:.3g} is beyond 2**{L + 3}")
    return motions.rotations, motions.translations


def _moving_stack(motions) -> tuple:
    """_stack of the moving frames."""
    return tuple(stack[_first_moving(motions):] for stack in _stack(motions))


def _first_moving(motions) -> int:
    """The index of a sequence's first moving frame: 1 after a leading frame-0 entry, else 0."""
    return 1 if motions.frame_indices[:1] == (0,) else 0  # only the first can be frame 0


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
        trans = _floats(self.translation, "translation", (3,))
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
        pnt = _in_range(_floats(point, "point", (3,)), "point")
        return cls(rot, pnt - rot @ pnt, frame_index)

    def transform(self, points) -> np.ndarray:
        """Apply the motion to one point (3,) or a stack of points (..., 3)."""
        pts = np.asarray(points, dtype=float)
        return pts @ self.rotation.T + self.translation

    def is_identity(self, tol: float = ROTATION_TOL) -> bool:
        return _is_identity(self.rotation, self.translation, tol)


def _is_identity(rotation: np.ndarray, translation: np.ndarray, tol: float = ROTATION_TOL) -> bool:
    # hypot: a measured translation may have any finite size, and its square may not
    return np.linalg.norm(rotation - _EYE3) <= tol and math.hypot(*translation) <= tol


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
        pos = _in_range(_floats(self.positions, "positions", (None, 3), "marker"), "positions")
        if not len(pos):  # a file's [] has no rows of 3, and no motion registers from it
            raise ValueError("positions must hold at least one marker")
        object.__setattr__(self, "positions", _frozen(pos))
        object.__setattr__(self, "frame_index", _frame_index(self.frame_index))

    @property
    def marker_count(self) -> int:
        return self.positions.shape[0]


@dataclass(frozen=True, eq=False, init=False)
class MarkerLog:
    """A recording in units: marker frames 0..N-1 with a constant marker count.

    It is stored as one read-only (N, m, 3) positions stack; frames views its
    rows, built on first access unless the constructor got them.
    """

    positions: np.ndarray
    units: str

    def __init__(self, frames, units: str = "mm"):
        frames = _all_of(MarkerFrame, frames)
        if not frames:
            raise ValueError("marker log needs at least one frame")
        counts = {f.marker_count for f in frames}
        indices = [f.frame_index for f in frames]
        if indices != list(range(len(frames))):
            raise ValueError(f"frame indices must be dense from 0, got {_shown(indices)}")
        if len(counts) != 1:
            raise ValueError(f"marker count must be constant, got {sorted(counts)}")
        positions = _frozen(np.array([f.positions for f in frames]))
        # past the frozen __setattr__; frames fills the cached_property, so log[k] is frames[k]
        self.__dict__.update(positions=positions, units=_text(units, "units"), frames=frames)

    @classmethod
    def _of_stack(cls, positions: np.ndarray, units: str = "mm") -> "MarkerLog":
        """The log of frames 0..N-1 of a float (N, m, 3) stack (N >= 1), unchecked: generate and
        read_marker_log have checked each frame as they made the stack, naming the first bad one."""
        return _view(cls, positions=_frozen(positions), units=units)

    @cached_property
    def frames(self) -> tuple:
        return tuple(_view(MarkerFrame, positions=p, frame_index=k)
                     for k, p in enumerate(self.positions))

    def __len__(self) -> int:
        return len(self.positions)

    def __getitem__(self, i):
        return self.frames[i]


@dataclass(frozen=True, eq=False, init=False)
class MotionSequence:
    """Ordered motions of one object, all relative to frame 0.

    frame_indices is strictly increasing; if an entry carries index 0 it
    must be the identity motion. rms_errors, when the motions were measured
    by registration, holds each motion's marker fit RMS. units names the
    length unit of the translations and RMS values. The motions are stored
    as read-only stacks, rotations (N, 3, 3) and translations (N, 3); motions
    views their rows, built on first access unless the constructor got them.
    """

    rotations: np.ndarray
    translations: np.ndarray
    frame_indices: tuple
    units: str

    def __init__(self, motions, rms_errors=None, units: str = "mm"):
        motions = _all_of(RelativeMotion, motions)
        self._keep(np.array([m.rotation for m in motions]).reshape(-1, 3, 3),
                   np.array([m.translation for m in motions]).reshape(-1, 3),
                   [m.frame_index for m in motions], rms_errors, units)
        self.__dict__["motions"] = motions  # fills the cached_property: seq[k] is motions[k]

    @classmethod
    def _of_stacks(cls, rotations: np.ndarray, translations: np.ndarray, frame_indices,
                   rms_errors=None, units: str = "mm") -> "MotionSequence":
        """The sequence of motions (rotations[k], translations[k], frame_indices[k]) as they are:
        its makers hand it only finite proper rotations, finite translations and int indices.
        rms_errors may also be a function of no arguments that makes them, as registration
        hands it: the first read of rms_errors calls it, checks what it made and drops it."""
        seq = object.__new__(cls)
        if callable(rms_errors):
            seq.__dict__["_make_rms"], rms_errors = rms_errors, None
        return seq._keep(rotations, translations, frame_indices, rms_errors, units)

    def _keep(self, rotations, translations, indices, rms_errors, units: str) -> "MotionSequence":
        """Check the sequence as a whole, then store it, its stacks read-only."""
        if any(map(operator.ge, indices, indices[1:])):
            raise ValueError(f"frame_index must be strictly increasing, got {_shown(indices)}")
        if indices and indices[0] == 0 and not _is_identity(rotations[0], translations[0]):
            raise ValueError("the frame-0 motion must be the identity")
        if "_make_rms" not in self.__dict__:  # else rms_errors checks them on first read
            self.__dict__["rms_errors"] = _rms_errors(rms_errors, len(indices))
        self.__dict__.update(rotations=_frozen(rotations), translations=_frozen(translations),
                             frame_indices=tuple(indices), units=_text(units, "units"))
        return self

    @cached_property
    def rms_errors(self) -> tuple | None:
        """Each motion's marker fit RMS, or None; made on first read from _of_stacks' maker."""
        # each thread that reads first makes them, but all keep and return the first one kept;
        # the maker goes only after that, so a thread that finds no maker finds them kept
        if (make := self.__dict__.get("_make_rms")) is not None:
            self.__dict__.setdefault("rms_errors", _rms_errors(make(), len(self.frame_indices)))
            self.__dict__.pop("_make_rms", None)  # and with it the positions the maker holds
        return self.__dict__["rms_errors"]

    @cached_property
    def motions(self) -> tuple:
        return tuple(_view(RelativeMotion, rotation=r, translation=t, frame_index=i)
                     for r, t, i in zip(self.rotations, self.translations, self.frame_indices))

    def __iter__(self):
        return iter(self.motions)

    def __len__(self) -> int:
        return len(self.frame_indices)

    def __getitem__(self, i) -> RelativeMotion:
        return self.motions[i]

    def moving(self) -> tuple:
        """The motions excluding the frame-0 reference entry."""
        return tuple(m for m in self.motions if m.frame_index != 0)

    def max_rotation_angle(self) -> float:
        return _max_rotation_angle(self.rotations[_first_moving(self):])
