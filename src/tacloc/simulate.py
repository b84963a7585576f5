"""Synthetic tactile scenarios: ground-truth motions plus noisy marker frames.

A virtual sensor grid rides on the object while the object moves in contact
with the environment. Frame 0 is the noiseless reference grid; every later
frame applies the exact scheduled motion and then adds zero-mean Gaussian
noise to the marker positions. The truth motions themselves are never
noisy, and never depend on noise_sigma or seed.

Randomness comes from numpy's seeded PCG64 generator, so identical
configurations produce bitwise-identical frames.

generate builds the whole sequence as stacks: the truth rotations and
translations, then every frame's marker positions from them at once. Each
stack is checked once, and the truth motions and the marker frames are
read-only views into the checked stacks.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .contact import ContactKind
from .errors import InvalidSchedule
from .estimators import (fixed_direction_residuals, fixed_point_residuals,
                         line_contact_residuals)
from .motion import (_EYE3, MarkerFrame, MarkerLog, MotionSequence, RelativeMotion, _as_vector3,
                     _exponent, _marker_frames, _readonly, _rotations_about_axes, _row_norms, _unit)

# Truth motions must satisfy their own contact constraint to this absolute
# tolerance (scaled by the scenario's geometry size).
TRUTH_RESIDUAL_TOL = 1e-12


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
        # numpy refuses any array of more than intp.max bytes: here 3 float64s per marker
        if self.rows * self.cols * 3 * 8 > np.iinfo(np.intp).max:
            raise ValueError("grid has more markers than an array can hold")
        if self.pitch <= 0.0:
            raise ValueError("pitch must be positive")
        if not np.isfinite(self.extent * self.extent):  # reference_positions squares it
            raise ValueError(f"grid extent {self.extent:g} is too large: its square overflows")
        if self.dome_height is None:
            object.__setattr__(self, "dome_height", 0.05 * self.pitch)

    def reference_positions(self) -> np.ndarray:
        """Marker positions at frame 0, centered and posed, shape (rows*cols, 3)."""
        xs = (np.arange(self.cols) - (self.cols - 1) / 2.0) * self.pitch
        ys = (np.arange(self.rows) - (self.rows - 1) / 2.0) * self.pitch
        gx, gy = np.meshgrid(xs, ys)
        e = _exponent(np.stack([gx, gy]))
        r2 = np.ldexp(gx, -e)**2 + np.ldexp(gy, -e)**2  # r2 / r2_max does not depend on e
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


def _truth_stacks(contact, schedule) -> tuple:
    """The exact rotations (N + 1, 3, 3) and translations (N + 1, 3) of
    frames 0..N: the identity, then the motion of each scheduled step."""
    for k, step in enumerate(schedule, start=1):
        if isinstance(contact, EdgeContact):
            if step.axis is not None:
                raise InvalidSchedule(
                    f"edge-contact rotations are always about the edge itself (step {k})")
            continue
        if isinstance(contact, FixedPointContact) and step.axis is None:
            raise InvalidSchedule(f"fixed-point schedule step {k} needs a rotation axis")
        if step.slide != 0.0:
            raise InvalidSchedule(f"slide is only valid for edge contact (step {k})")

    # a step's own axis, else the hinge or edge direction (a pivot step always has one)
    rot = _rotations_about_axes([contact.direction if step.axis is None else step.axis
                                 for step in schedule], [step.angle for step in schedule])
    extra = np.array([step.translation if step.translation is not None else np.zeros(3)
                      for step in schedule])
    if isinstance(contact, FixedPointContact):
        trans = contact.point - rot @ contact.point + extra
    elif isinstance(contact, FixedDirectionContact):
        trans = extra  # translation is unconstrained for a fixed direction
    else:
        slide = np.array([step.slide for step in schedule])
        trans = (contact.point - rot @ contact.point
                 + slide[:, None] * contact.direction + extra)
    return np.concatenate([_EYE3[None], rot]), np.concatenate([np.zeros((1, 3)), trans])


def constraint_residuals(truth: ScenarioTruth) -> np.ndarray:
    """Per-frame residual of the generating constraint over truth.motions' moving frames.

    Valid truths satisfy their constraint to within TRUTH_RESIDUAL_TOL by
    construction; a corrupted motion shows up as a nonzero entry.
    """
    return truth.contact_geometry.residuals(truth.motions)


def generate(config: ScenarioConfig):
    """Generate (marker log in the scenario's units, exact truth) for one scenario.

    Deterministic given the seed. Raises InvalidSchedule when a scheduled
    motion violates the scenario's own contact constraint (for example a
    fixed-point step carrying a translation that is not through the pivot).
    """
    rotations, translations = _truth_stacks(config.contact, config.schedule)
    truth = ScenarioTruth(
        motions=MotionSequence._of_stacks(rotations, translations, range(len(rotations)),
                                          units=config.units),
        contact_geometry=config.contact)
    rotations, translations = truth.motions.rotations, truth.motions.translations

    # a pivot or edge point sets the size of the geometry; a hinge has only a unit direction
    point = getattr(config.contact, "point", np.zeros(3))
    scale = max(1.0, float(_row_norms(np.vstack([point, translations])).max()))
    # the residuals of the moving frames, 1..N; frame 0 is the exact identity
    residuals = config.contact.residuals(truth.motions)
    bad = np.nonzero(residuals > TRUTH_RESIDUAL_TOL * scale)[0]
    if bad.size:
        raise InvalidSchedule(
            f"scheduled motion at frame {bad[0] + 1} violates the "
            f"{type(config.contact).__name__} constraint (residual {residuals[bad[0]]:.3g})")

    # every frame at once; the noise fills frame after frame in the order per-frame draws would.
    # In place: the arithmetic of R p + t + noise * sigma without stack-sized temporaries,
    # since the frames keep this stack as their memory.
    reference = config.grid.reference_positions()
    positions = reference @ rotations[1:].swapaxes(1, 2)
    positions += translations[1:, None]
    if np.any(config.noise_sigma > 0.0):
        noise = np.random.default_rng(config.seed).normal(size=positions.shape)
        noise *= config.noise_sigma
        positions += noise
    frames = (MarkerFrame(reference, 0), *_marker_frames(positions, range(1, len(rotations))))
    return MarkerLog(frames, units=config.units), truth
