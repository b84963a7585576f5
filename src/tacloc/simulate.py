"""Synthetic tactile scenarios: ground-truth motions plus noisy marker frames.

A virtual sensor grid rides on the object while the object moves in contact
with the environment. Frame 0 is the noiseless reference grid; every later
frame applies the exact scheduled motion and then adds zero-mean Gaussian
noise to the marker positions. The truth motions themselves are never
noisy, and never depend on noise_sigma or seed.

Randomness comes from numpy's seeded PCG64 generator, so identical
configurations produce bitwise-identical frames.

generate builds the truth rotations and translations as stacks, then writes
and checks every frame's marker positions block by block in one (N, m, 3)
stack; the truth MotionSequence and the MarkerLog keep the stacks.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidSchedule
from .estimators import (ContactKind, fixed_direction_residuals, fixed_point_residuals,
                         line_contact_residuals)
from .motion import (_EYE3, MarkerLog, MotionSequence, RelativeMotion, _admitted, _blocks,
                     _floats, _in_range, _integer, _number, _per_frame, _readonly,
                     _rotations_about_axes, _row_norms, _shown, _text, _unit)

# Truth motions must satisfy their own contact constraint to this absolute
# tolerance (scaled by the scenario's geometry size).
TRUTH_RESIDUAL_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class FixedPointContact:
    """Ground truth: this world point stays in contact (a pivot)."""

    point: np.ndarray
    kind = ContactKind.FIXED_POINT

    def __post_init__(self):
        point = _in_range(_floats(self.point, "point", (3,)), "point")
        object.__setattr__(self, "point", _readonly(point))

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
        point = _in_range(_floats(self.point, "point", (3,)), "point")
        object.__setattr__(self, "point", _readonly(point))
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
        _number(self.angle, "angle")
        _in_range(_number(self.slide, "slide"), "slide")
        if self.axis is not None:
            object.__setattr__(self, "axis", _readonly(_unit(self.axis, "axis")))
        if self.translation is not None:
            translation = _in_range(_floats(self.translation, "translation", (3,)), "translation")
            object.__setattr__(self, "translation", _readonly(translation))


@dataclass(frozen=True, eq=False, kw_only=True)
class MarkerGrid:
    """The virtual sensor: a rows x cols marker grid riding on the object.

    Markers sit on a pitch-spaced grid with a shallow quadratic dome
    (default height 5% of the pitch) so the cloud has rank 3, mirroring a
    deformed gel surface; pose places the grid rigidly on the object. Fields
    are keyword-only, and their order is a scenario file's key order.
    """

    rows: int = 11
    cols: int = 11
    pitch: float = 1.0
    dome_height: float | None = None
    pose: RelativeMotion = field(default_factory=RelativeMotion.identity)

    def __post_init__(self):
        rows, cols = (_integer(getattr(self, name), name) for name in ("rows", "cols"))
        if rows < 2 or cols < 2:
            raise ValueError("grid needs at least 2 rows and 2 cols")
        # numpy refuses any array of more than intp.max bytes: here 3 float64s per marker
        if rows * cols * 3 * 8 > np.iinfo(np.intp).max:
            raise ValueError("grid has more markers than an array can hold")
        object.__setattr__(self, "pitch", _in_range(_number(self.pitch, "pitch"), "pitch"))
        if self.pitch <= 0.0:
            raise ValueError("pitch must be positive")
        if self.dome_height is None:
            object.__setattr__(self, "dome_height", 0.05 * self.pitch)
        _in_range(_number(self.dome_height, "dome_height"), "dome_height")
        _in_range(self.pose.translation, "pose translation")

    def reference_positions(self) -> np.ndarray:
        """Marker positions at frame 0, centered and posed, shape (rows*cols, 3)."""
        xs = (np.arange(self.cols) - (self.cols - 1) / 2.0) * self.pitch
        ys = (np.arange(self.rows) - (self.rows - 1) / 2.0) * self.pitch
        gx, gy = np.meshgrid(xs, ys)
        r2 = gx**2 + gy**2  # its corners' squares are normal: pitch is in range
        gz = self.dome_height * (1.0 - r2 / r2.max())
        flat = np.column_stack([gx.ravel(), gy.ravel(), gz.ravel()])
        return self.pose.transform(flat)

    @property
    def extent(self) -> float:
        """Edge length of the grid's longer side, a natural object scale."""
        return self.pitch * (max(self.rows, self.cols) - 1)


@dataclass(frozen=True, eq=False, kw_only=True)
class ScenarioConfig:
    """Everything needed to generate one synthetic scenario deterministically, given by keyword
    only: field order is a scenario file's key order. Only contact and schedule have no default."""

    name: str = ""
    units: str = "mm"
    seed: int = 0
    noise_sigma: np.ndarray = (0.0, 0.0, 0.0)
    grid: MarkerGrid = field(default_factory=MarkerGrid)
    contact: FixedPointContact | FixedDirectionContact | EdgeContact
    schedule: tuple
    tolerances: dict = field(default_factory=dict)

    def __post_init__(self):
        if not isinstance(self.contact, (FixedPointContact, FixedDirectionContact, EdgeContact)):
            raise TypeError(f"unknown contact type {type(self.contact).__name__}")
        if not isinstance(self.grid, MarkerGrid):
            raise TypeError(f"grid must be a MarkerGrid, got {type(self.grid).__name__}")
        schedule = tuple(self.schedule)
        if not schedule:
            raise ValueError("schedule must not be empty")
        for step in schedule:
            if not isinstance(step, MotionStep):
                raise TypeError(f"schedule entries must be MotionStep, got {type(step).__name__}")
        if isinstance(sigma := self.noise_sigma, (list, tuple)) or np.ndim(sigma):
            sigma = _floats(sigma, "noise_sigma", (3,))
        else:
            sigma = np.full(3, _number(sigma, "noise_sigma"))
        if (_in_range(sigma, "noise_sigma") < 0.0).any():
            raise ValueError(f"noise_sigma must be nonnegative, got {self.noise_sigma!r}")
        if (seed := _integer(self.seed, "seed")) < 0:
            raise ValueError(f"seed must be nonnegative, got {_shown(seed)}")
        _text(self.name, "name")
        _text(self.units, "units")
        if not isinstance(self.tolerances, dict):  # as read_scenario reads them back
            raise ValueError(f"tolerances must be a dict, got {_shown(self.tolerances)}")
        tolerances = dict(self.tolerances)
        for key, value in tolerances.items():
            if not isinstance(key, str):
                raise ValueError(f"tolerance names must be strings, got {_shown(key)}")
            _number(value, f"tolerance {key!r}")
        object.__setattr__(self, "schedule", schedule)
        object.__setattr__(self, "noise_sigma", _readonly(sigma))
        object.__setattr__(self, "tolerances", tolerances)


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
    rot = _rotations_about_axes(np.array([contact.direction if step.axis is None else step.axis
                                          for step in schedule]), [step.angle for step in schedule])
    extra = np.zeros((len(schedule), 3))
    for k, step in enumerate(schedule):
        if step.translation is not None:
            extra[k] = step.translation
    if isinstance(contact, FixedPointContact):
        trans = contact.point - rot @ contact.point + extra
    elif isinstance(contact, FixedDirectionContact):
        trans = extra  # translation is unconstrained for a fixed direction
    else:
        slide = np.array([step.slide for step in schedule])
        trans = contact.point - rot @ contact.point + slide[:, None] * contact.direction + extra
    return np.concatenate([_EYE3[None], rot]), np.concatenate([np.zeros((1, 3)), trans])


def constraint_residuals(truth: ScenarioTruth) -> np.ndarray:
    """Per-frame residual of the generating constraint over truth.motions' moving frames.

    Valid truths satisfy their constraint to within TRUTH_RESIDUAL_TOL by
    construction; a corrupted motion shows up as a nonzero entry.
    """
    return truth.contact_geometry.residuals(truth.motions)


def generate(config: ScenarioConfig):
    """Generate (marker log in the scenario's units, exact truth) for one scenario.

    Deterministic given the seed. Raises InvalidSchedule when a scheduled motion
    violates the scenario's own contact constraint (for example a fixed-point step
    carrying a translation that is not through the pivot), and when a frame's
    positions are out of the range every marker log's reader takes (motion.L).
    """
    rotations, translations = _truth_stacks(config.contact, config.schedule)
    truth = ScenarioTruth(
        motions=MotionSequence._of_stacks(rotations, translations, range(len(rotations)),
                                          units=config.units),
        contact_geometry=config.contact)

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

    # R p + t + noise * sigma into the stack the log keeps, by blocks with one noise buffer, drawn
    # in per-frame draw order; t is added column by column and sigma tiled along a frame's row
    reference = _in_range(config.grid.reference_positions(), "frame 0 positions", InvalidSchedule)
    positions = np.empty((len(rotations), *reference.shape))
    positions[0] = reference
    moving, blocks = positions[1:], _blocks(positions[1:])
    rotations_t = np.ascontiguousarray(rotations[1:].swapaxes(1, 2))  # the view's bits, but faster
    rng = np.random.default_rng(config.seed) if np.any(config.noise_sigma > 0.0) else None
    sigma = np.tile(config.noise_sigma, len(reference))
    noise = None if rng is None else np.empty((len(moving[blocks[0]]), sigma.size))
    for b in blocks:
        block = _per_frame(np.add, np.matmul(reference, rotations_t[b], out=moving[b]),
                           translations[1:][b])
        if rng is not None:
            drawn = rng.standard_normal(out=noise[:len(block)])
            block += np.multiply(drawn, sigma, out=drawn).reshape(block.shape)
        if (bad := np.flatnonzero(~_admitted(np.abs(block).max(axis=(1, 2))))).size:
            _in_range(block[bad[0]], f"frame {b.start + bad[0] + 1} positions", InvalidSchedule)
    return MarkerLog._of_stack(positions, units=config.units), truth
