"""Synthetic tactile scenarios: ground-truth motions plus noisy marker frames.

A virtual sensor grid rides on the object while the object moves in contact
with the environment. Frame 0 is the noiseless reference grid; every later
frame applies the exact scheduled motion and then adds zero-mean Gaussian
noise to the marker positions. The truth motions themselves are never
noisy, and never depend on noise_sigma or seed.

Randomness comes from numpy's seeded PCG64 generator, so identical
configurations produce bitwise-identical frames.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .contact import ContactKind
from .errors import InvalidSchedule
from .estimators import (fixed_direction_residuals, fixed_point_residuals,
                         line_contact_residuals)
from .motion import (MarkerFrame, MotionSequence, RelativeMotion, _as_vector3,
                     _readonly, rotation_about_axis)

# Truth motions must satisfy their own contact constraint to this absolute
# tolerance (scaled by the scenario's geometry size).
TRUTH_RESIDUAL_TOL = 1e-12


def _unit(value, name: str) -> np.ndarray:
    vec = _as_vector3(value, name)
    norm = np.linalg.norm(vec)
    if norm == 0.0:
        raise ValueError(f"{name} must be nonzero")
    if abs(norm - 1.0) <= 1e-12:
        return vec  # already unit; dividing again would churn the last ulp
    return vec / norm


@dataclass(frozen=True, eq=False)
class FixedPointContact:
    """Ground truth: this world point stays in contact (a pivot)."""

    point: np.ndarray
    kind = ContactKind.FIXED_POINT

    def __post_init__(self):
        object.__setattr__(self, "point", _readonly(_as_vector3(self.point, "point")))

    def residuals(self, motions) -> np.ndarray:
        return fixed_point_residuals(motions, self.point)


@dataclass(frozen=True, eq=False)
class FixedDirectionContact:
    """Ground truth: this body direction stays fixed in the world (a hinge axis)."""

    direction: np.ndarray
    kind = ContactKind.FIXED_DIRECTION

    def __post_init__(self):
        object.__setattr__(self, "direction", _readonly(_unit(self.direction, "direction")))

    def residuals(self, motions) -> np.ndarray:
        return fixed_direction_residuals(motions, self.direction)


@dataclass(frozen=True, eq=False)
class EdgeContact:
    """Ground truth: the object's face (normal `surface_normal`) stays on a
    fixed environment edge through `point` along `direction`; the object may
    rotate about and slide along the edge."""

    direction: np.ndarray
    point: np.ndarray
    surface_normal: np.ndarray
    kind = ContactKind.LINE

    def __post_init__(self):
        direction = _unit(self.direction, "direction")
        normal = _unit(self.surface_normal, "surface_normal")
        if abs(direction @ normal) > 1e-9:
            raise ValueError(
                f"surface_normal must be perpendicular to the edge, got dot {direction @ normal:.3g}")
        object.__setattr__(self, "direction", _readonly(direction))
        object.__setattr__(self, "point", _readonly(_as_vector3(self.point, "point")))
        object.__setattr__(self, "surface_normal", _readonly(normal))

    def canonical_point(self) -> np.ndarray:
        """The point on the edge closest to the origin."""
        return self.point - (self.point @ self.direction) * self.direction

    def residuals(self, motions) -> np.ndarray:
        return line_contact_residuals(motions, self.surface_normal, self.point)


@dataclass(frozen=True, eq=False)
class MotionStep:
    """One scheduled frame of exploration.

    angle is in radians. axis is only meaningful for fixed-point scenarios
    (the rotation axis through the pivot); hinge and edge scenarios rotate
    about their own contact axis. slide translates along the edge (edge
    scenarios only). translation is a free translation for hinge scenarios
    and an extra offset otherwise — an extra offset that breaks the contact
    constraint is rejected by generate().
    """

    angle: float
    axis: np.ndarray | None = None
    slide: float = 0.0
    translation: np.ndarray | None = None

    def __post_init__(self):
        if not np.isfinite(self.angle):
            raise ValueError("angle must be finite")
        if self.axis is not None:
            object.__setattr__(self, "axis", _readonly(_unit(self.axis, "axis")))
        if self.translation is not None:
            object.__setattr__(self, "translation",
                               _readonly(_as_vector3(self.translation, "translation")))
        if not np.isfinite(self.slide):
            raise ValueError("slide must be finite")


@dataclass(frozen=True, eq=False)
class MarkerGrid:
    """The virtual sensor: a rows x cols marker grid riding on the object.

    Markers sit on a pitch-spaced grid with a shallow quadratic dome
    (default height 5% of the pitch) so the cloud has rank 3, mirroring a
    deformed gel surface; pose places the grid rigidly on the object.
    """

    rows: int = 11
    cols: int = 11
    pitch: float = 1.0
    pose: RelativeMotion = field(default_factory=RelativeMotion.identity)
    dome_height: float | None = None

    def __post_init__(self):
        if self.rows < 2 or self.cols < 2:
            raise ValueError("grid needs at least 2 rows and 2 cols")
        if self.pitch <= 0.0:
            raise ValueError("pitch must be positive")
        if self.dome_height is None:
            object.__setattr__(self, "dome_height", 0.05 * self.pitch)

    def reference_positions(self) -> np.ndarray:
        """Marker positions at frame 0, centered and posed, shape (rows*cols, 3)."""
        xs = (np.arange(self.cols) - (self.cols - 1) / 2.0) * self.pitch
        ys = (np.arange(self.rows) - (self.rows - 1) / 2.0) * self.pitch
        gx, gy = np.meshgrid(xs, ys)
        r2 = gx**2 + gy**2
        r2_max = r2.max() if r2.max() > 0.0 else 1.0
        gz = self.dome_height * (1.0 - r2 / r2_max)
        flat = np.column_stack([gx.ravel(), gy.ravel(), gz.ravel()])
        return self.pose.transform(flat)

    @property
    def extent(self) -> float:
        """Edge length of the grid's longer side, a natural object scale."""
        return self.pitch * (max(self.rows, self.cols) - 1)


@dataclass(frozen=True, eq=False)
class ScenarioConfig:
    """Everything needed to generate one synthetic scenario deterministically."""

    contact: FixedPointContact | FixedDirectionContact | EdgeContact
    grid: MarkerGrid = field(default_factory=MarkerGrid)
    schedule: tuple = ()
    noise_sigma: np.ndarray = (0.0, 0.0, 0.0)
    seed: int = 0
    name: str = ""
    units: str = "mm"
    tolerances: dict = field(default_factory=dict)

    def __post_init__(self):
        if not isinstance(self.contact, (FixedPointContact, FixedDirectionContact, EdgeContact)):
            raise TypeError(f"unknown contact type {type(self.contact).__name__}")
        schedule = tuple(self.schedule)
        if not schedule:
            raise ValueError("schedule must not be empty")
        for step in schedule:
            if not isinstance(step, MotionStep):
                raise TypeError(f"schedule entries must be MotionStep, got {type(step).__name__}")
        sigma = np.asarray(self.noise_sigma, dtype=float)
        sigma = np.full(3, float(sigma)) if sigma.ndim == 0 else sigma.reshape(-1)
        if sigma.shape != (3,) or np.any(sigma < 0.0) or not np.all(np.isfinite(sigma)):
            raise ValueError("noise_sigma must be a nonnegative scalar or 3-vector")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")
        object.__setattr__(self, "schedule", schedule)
        object.__setattr__(self, "noise_sigma", _readonly(sigma))
        object.__setattr__(self, "tolerances", dict(self.tolerances))


@dataclass(frozen=True, eq=False)
class ScenarioTruth:
    """Exact motions and the geometry that generated them."""

    motions: MotionSequence
    contact_geometry: FixedPointContact | FixedDirectionContact | EdgeContact


def _truth_motion(contact, step: MotionStep, frame_index: int) -> RelativeMotion:
    extra = step.translation if step.translation is not None else np.zeros(3)
    if isinstance(contact, FixedPointContact):
        if step.axis is None:
            raise InvalidSchedule(f"fixed-point schedule step {frame_index} needs a rotation axis")
        if step.slide != 0.0:
            raise InvalidSchedule(f"slide is only valid for edge contact (step {frame_index})")
        rot = rotation_about_axis(step.axis, step.angle)
        trans = contact.point - rot @ contact.point + extra
    elif isinstance(contact, FixedDirectionContact):
        if step.slide != 0.0:
            raise InvalidSchedule(f"slide is only valid for edge contact (step {frame_index})")
        axis = step.axis if step.axis is not None else contact.direction
        rot = rotation_about_axis(axis, step.angle)
        trans = extra  # translation is unconstrained for a fixed direction
    else:
        if step.axis is not None:
            raise InvalidSchedule(
                f"edge-contact rotations are always about the edge itself (step {frame_index})")
        rot = rotation_about_axis(contact.direction, step.angle)
        trans = (contact.point - rot @ contact.point
                 + step.slide * contact.direction + extra)
    return RelativeMotion(rot, trans, frame_index)


def constraint_residuals(truth: ScenarioTruth) -> np.ndarray:
    """Per-frame residual of the generating constraint, aligned with truth.motions.

    Valid truths satisfy their constraint to within TRUTH_RESIDUAL_TOL by
    construction; a corrupted motion shows up as a nonzero entry.
    """
    # the plain tuple keeps frame 0, which a MotionSequence's residuals skip
    return truth.contact_geometry.residuals(truth.motions.motions)


def generate(config: ScenarioConfig):
    """Generate (marker frames, exact truth) for one scenario.

    Deterministic given the seed. Raises InvalidSchedule when a scheduled
    motion violates the scenario's own contact constraint (for example a
    fixed-point step carrying a translation that is not through the pivot).
    """
    motions = [RelativeMotion.identity(0)]
    for k, step in enumerate(config.schedule, start=1):
        motions.append(_truth_motion(config.contact, step, k))
    truth = ScenarioTruth(motions=MotionSequence(tuple(motions)),
                          contact_geometry=config.contact)

    # a pivot or edge point sets the size of the geometry; a hinge has only a unit direction
    scale = max(1.0, float(np.linalg.norm(getattr(config.contact, "point", 0.0))),
                max(float(np.linalg.norm(m.translation)) for m in motions))
    residuals = constraint_residuals(truth)
    bad = np.nonzero(residuals > TRUTH_RESIDUAL_TOL * scale)[0]
    if bad.size:
        raise InvalidSchedule(
            f"scheduled motion at frame {truth.motions[bad[0]].frame_index} violates the "
            f"{type(config.contact).__name__} constraint (residual {residuals[bad[0]]:.3g})")

    reference = config.grid.reference_positions()
    rng = np.random.default_rng(config.seed)
    frames = [MarkerFrame(reference, 0)]
    for m in truth.motions[1:]:
        positions = m.transform(reference)
        if np.any(config.noise_sigma > 0.0):
            positions = positions + rng.normal(size=positions.shape) * config.noise_sigma
        frames.append(MarkerFrame(positions, m.frame_index))
    return frames, truth
