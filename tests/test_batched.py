"""The batched numerics against the per-frame loops they replaced, bit for bit.

The references below are the per-frame code as it was before registration,
frame generation and the estimators' stacked systems were batched over
(N, 3, 3) stacks, and the per-object RelativeMotion, MarkerFrame and
MotionSequence checks as they were before whole stacks were checked at
once, kept verbatim. Every array must come out identical, not merely close:
the pinned file bytes and every estimate depend on it; every error must
keep its type and message and come from the first bad entry in frame order.
"""

import io
import json
import math
import re
import tracemalloc

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from tacloc import (DegenerateMarkers, EdgeContact, FixedDirectionContact,
                    FixedPointContact, MarkerFrame, MarkerGrid, MismatchedFrames,
                    MotionSequence, MotionStep, NonFiniteValue, ParseError, RelativeMotion,
                    ScenarioConfig, TaclocError, TooFewMarkers, estimate_fixed_direction,
                    estimate_fixed_point, estimate_line_contact, estimate_line_direction,
                    estimate_line_point, generate, propagate_plane, read_marker_log,
                    read_motion_sequence, read_scenario, register, register_sequence,
                    rotation_about_axis)
from tacloc.estimators import (_canonical_sign, fixed_direction_residuals,
                               fixed_point_residuals, line_contact_residuals)
from tacloc.io import MARKER_LOG_SCHEMA, MOTIONS_SCHEMA
from tacloc.motion import ROTATION_TOL, MarkerLog, orthonormalize, rotation_angle
from tacloc import motion
from tacloc.registration import RANK_TOLERANCE, _fit_rms, _register_all, _solve
from tacloc.simulate import InvalidSchedule, _truth_stacks

# ---------------------------------------------------------------------------
# References: the per-frame code, verbatim.


def _reference_register(reference, current, rank_tolerance=RANK_TOLERANCE):
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

    return RelativeMotion(rotation, translation, current.frame_index), rms, rank


def _reference_register_frames(frames):
    return [_reference_register(frames[0], frame) for frame in frames[1:]]


def _reference_orthonormalize(matrix):
    mat = np.array(matrix, dtype=float)
    if mat.shape != (3, 3):
        raise ValueError(f"rotation must be 3x3, got shape {mat.shape}")
    if not np.all(np.isfinite(mat)):
        raise ValueError("rotation has non-finite entries")
    if np.linalg.det(mat) <= 0.0:
        raise ValueError("matrix is a reflection or singular, not a rotation")
    if np.linalg.norm(mat.T @ mat - np.eye(3)) <= 1e-9:
        return mat
    u, _, vt = np.linalg.svd(mat)
    rot = u @ vt
    if np.linalg.det(rot) < 0.0:
        u[:, 2] = -u[:, 2]
        rot = u @ vt
    return rot


def _reference_rotation_about_axis(axis, angle):
    ax = np.array(axis, dtype=float).reshape(-1)
    norm = np.linalg.norm(ax)
    x, y, z = ax / norm
    c, s = math.cos(angle), math.sin(angle)
    k = np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])
    return np.eye(3) + s * k + (1.0 - c) * (k @ k)


def _reference_truth_motion(contact, step, frame_index):
    extra = step.translation if step.translation is not None else np.zeros(3)
    if isinstance(contact, FixedPointContact):
        if step.axis is None:
            raise InvalidSchedule(f"fixed-point schedule step {frame_index} needs a rotation axis")
        if step.slide != 0.0:
            raise InvalidSchedule(f"slide is only valid for edge contact (step {frame_index})")
        rot = _reference_rotation_about_axis(step.axis, step.angle)
        trans = contact.point - rot @ contact.point + extra
    elif isinstance(contact, FixedDirectionContact):
        if step.slide != 0.0:
            raise InvalidSchedule(f"slide is only valid for edge contact (step {frame_index})")
        axis = step.axis if step.axis is not None else contact.direction
        rot = _reference_rotation_about_axis(axis, step.angle)
        trans = extra
    else:
        if step.axis is not None:
            raise InvalidSchedule(
                f"edge-contact rotations are always about the edge itself (step {frame_index})")
        rot = _reference_rotation_about_axis(contact.direction, step.angle)
        trans = (contact.point - rot @ contact.point
                 + step.slide * contact.direction + extra)
    return RelativeMotion(rot, trans, frame_index)


def _reference_generate(config):
    """generate's truth motions and frame loop (its truth self-check left out)."""
    motions = [RelativeMotion.identity(0)]
    for k, step in enumerate(config.schedule, start=1):
        motions.append(_reference_truth_motion(config.contact, step, k))
    reference = config.grid.reference_positions()
    rng = np.random.default_rng(config.seed)
    frames = [MarkerFrame(reference, 0)]
    for m in motions[1:]:
        positions = m.transform(reference)
        if np.any(config.noise_sigma > 0.0):
            positions = positions + rng.normal(size=positions.shape) * config.noise_sigma
        frames.append(MarkerFrame(positions, m.frame_index))
    return frames, motions


def _reference_residuals(kind, moving, *geometry):
    if kind == "point":
        (point,) = geometry
        return np.array([np.linalg.norm(m.rotation @ point + m.translation - point)
                         for m in moving])
    if kind == "direction":
        (direction,) = geometry
        return np.array([np.linalg.norm((m.rotation - np.eye(3)) @ direction)
                         for m in moving])
    n0, point = geometry
    out = []
    for m in moving:
        nk = m.rotation @ n0
        nk = nk / np.linalg.norm(nk)
        out.append(abs(nk @ (m.rotation @ point + m.translation - point)))
    return np.array(out)


def _reference_plane_track(n0, motions):
    """propagate_plane's normals, then the line system's rows and rhs."""
    normals = []
    for m in motions:
        nk = m.rotation @ n0
        nk = nk / np.linalg.norm(nk)
        normals.append(nk)
    rows = np.array([(m.rotation - np.eye(3)).T @ nk for m, nk in zip(motions, normals)])
    rhs = np.array([-(nk @ m.translation) for m, nk in zip(motions, normals)])
    return np.array(normals), rows, rhs


# ---------------------------------------------------------------------------
# Inputs: the bundled scenarios and one ~300-frame sequence per contact kind,
# shaped like the benchmark's long sequences (11x11 upright grid, 1% noise).

BUNDLED = ["box_on_edge", "box_on_edge_noisy", "pivot_point", "pivot_point_noisy",
           "hinge_direction", "hinge_direction_noisy"]
GRID_POSE = RelativeMotion(rotation_about_axis((1.0, 0.0, 0.0), math.radians(90.0)),
                           (0.0, 2.0, -1.0))
EDGE = EdgeContact(direction=(1.0, 0.0, 0.0), point=(0.0, 2.0, -3.0),
                   surface_normal=(0.0, 0.0, 1.0))


def long_config(kind, steps=299, seed=5, noise_sigma=0.01):
    rng = np.random.default_rng([seed, 2])
    if kind == "point":
        schedule = [MotionStep(angle=math.radians(a), axis=ax) for a, ax in
                    zip(rng.uniform(5.0, 25.0, steps), rng.normal(size=(steps, 3)))]
        contact = FixedPointContact((1.5, -2.0, 4.0))
    elif kind == "direction":
        schedule = [MotionStep(angle=math.radians(a), translation=t) for a, t in
                    zip(rng.uniform(-25.0, 25.0, steps), rng.uniform(-0.3, 0.3, (steps, 3)))]
        contact = FixedDirectionContact((1.0, 2.0, 2.0))
    else:
        schedule = [MotionStep(angle=math.radians(a), slide=float(s)) for a, s in
                    zip(rng.uniform(-20.0, 20.0, steps), rng.uniform(-0.5, 0.5, steps))]
        contact = EDGE
    return ScenarioConfig(contact=contact, grid=MarkerGrid(pose=GRID_POSE), schedule=schedule,
                          noise_sigma=noise_sigma, seed=seed)


def bundled(name):
    from importlib import resources
    return read_scenario(resources.files("tacloc") / "scenarios" / f"{name}.json")


CONFIGS = {**{name: (lambda name=name: bundled(name)) for name in BUNDLED},
           **{f"long_{kind}": (lambda kind=kind: long_config(kind))
              for kind in ("point", "direction", "line")}}


def assert_same_motions(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.frame_index == w.frame_index
        assert np.array_equal(g.rotation, w.rotation)
        assert np.array_equal(g.translation, w.translation)


# frames per block of a stack pass at these marker counts (motion._blocks)
BLOCK_FRAMES = {markers: motion._BLOCK_BYTES // (markers * 3 * 8) for markers in (121, 1600)}
# one more moving frame than a block of the 11x11 grid: the noise buffer is reused, then cut;
# a different sigma per axis catches a noise scale applied along the wrong axis
GENERATE_CONFIGS = {**CONFIGS,
                    "long_line_block": lambda: long_config("line", steps=BLOCK_FRAMES[121] + 1),
                    "long_point_anisotropic": lambda: long_config(
                        "point", steps=BLOCK_FRAMES[121] + 1, noise_sigma=(0.004, 0.01, 0.025))}


@pytest.mark.parametrize("name", sorted(GENERATE_CONFIGS))
def test_generate_matches_the_frame_loop(name):
    config = GENERATE_CONFIGS[name]()
    frames, truth = generate(config)
    want_frames, want_motions = _reference_generate(config)
    assert_same_motions(truth.motions, want_motions)
    assert [f.frame_index for f in frames] == [f.frame_index for f in want_frames]
    for got, want in zip(frames, want_frames):
        assert np.array_equal(got.positions, want.positions)


@pytest.mark.parametrize("name", sorted(GENERATE_CONFIGS))
def test_generate_and_registration_make_stacks_that_pass_the_motion_check(name,
                                                                         assert_checks_pass):
    config = GENERATE_CONFIGS[name]()
    assert_checks_pass(lambda: generate(config))
    frames, _ = generate(config)
    assert_checks_pass(lambda: register_sequence(frames))
    assert_checks_pass(lambda: register_sequence(list(frames)))


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_register_frames_matches_the_register_loop(name):
    frames, _ = generate(CONFIGS[name]())
    motions = register_sequence(frames)
    want = _reference_register_frames(frames)
    assert_same_motions(motions[1:], [m for m, _, _ in want])
    assert motions.rms_errors == (0.0, *(rms for _, rms, _ in want))
    single = register(frames[0], frames[-1])
    assert_same_motions([single.motion], [want[-1][0]])
    assert (single.rms_error, single.marker_covariance_rank) == want[-1][1:]


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_estimator_stacks_match_the_per_frame_forms(name):
    config = CONFIGS[name]()
    motions = register_sequence(generate(config)[0])
    moving = motions.moving()
    point = np.array([1.5, -2.0, 4.0])
    direction = np.array([1.0, 2.0, 2.0]) / 3.0
    n0 = np.array([0.0, 0.6, 0.8])
    assert np.array_equal(fixed_point_residuals(motions, point),
                          _reference_residuals("point", moving, point))
    assert np.array_equal(fixed_direction_residuals(motions, direction),
                          _reference_residuals("direction", moving, direction))
    assert np.array_equal(line_contact_residuals(motions, n0, point),
                          _reference_residuals("line", moving, n0, point))
    assert motions.max_rotation_angle() == max(rotation_angle(m) for m in moving)

    normals, rows, rhs = _reference_plane_track(n0, motions)
    assert np.array_equal(propagate_plane(n0, motions), normals)
    # the line point is the minimum-norm solution of these rows, projected off the edge
    got = estimate_line_point(motions, n0, direction)
    want = np.linalg.lstsq(rows, rhs, rcond=1e-8)[0]
    assert np.array_equal(got, want - (want @ direction) * direction)


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_estimates_match_the_per_frame_systems(name):
    """Each estimate from its system built frame by frame, as the loops built it."""
    config = CONFIGS[name]()
    motions = register_sequence(generate(config)[0])
    moving = motions.moving()
    max_angle = max(rotation_angle(m) for m in moving)

    est = estimate_fixed_point(motions)
    stacked = np.vstack([np.eye(3) - m.rotation for m in moving])
    rhs = np.concatenate([m.translation for m in moving])
    point, _, _, sing = np.linalg.lstsq(stacked, rhs, rcond=1e-8)
    assert np.array_equal(est.point, point)
    assert est.conditioning.smallest_singular_value == float(sing[-1])
    assert est.conditioning.max_rotation_angle == max_angle
    assert np.array_equal(est.per_frame_residuals, _reference_residuals("point", moving, point))

    est = estimate_fixed_direction(motions)
    _, sing, vt = np.linalg.svd(np.vstack([m.rotation - np.eye(3) for m in moving]))
    assert np.array_equal(est.direction, _canonical_sign(vt[2]))
    assert est.conditioning.condition_number == float(sing[0] / sing[1])
    assert est.conditioning.max_rotation_angle == max_angle


@pytest.mark.parametrize("name", ["box_on_edge", "box_on_edge_noisy", "long_line"])
def test_line_estimate_matches_the_full_svd(name):
    config = CONFIGS[name]()
    motions = register_sequence(generate(config)[0])
    n0 = config.contact.surface_normal
    est = estimate_line_contact(motions, n0)

    normals, rows, _ = _reference_plane_track(n0, motions)
    assert len(normals) >= 3
    _, _, vt = np.linalg.svd(normals)  # full_matrices: the U is len x len
    direction = _canonical_sign(vt[2])
    sing = np.linalg.svd(rows, compute_uv=False)
    assert np.array_equal(est.direction, direction)
    assert np.array_equal(estimate_line_direction(motions, n0), direction)
    assert np.array_equal(est.point, estimate_line_point(motions, n0, direction))
    assert est.conditioning.condition_number == float(sing[0] / sing[1])
    assert est.conditioning.max_rotation_angle == max(rotation_angle(m)
                                                      for m in motions.moving())
    assert np.array_equal(est.per_frame_residuals,
                          _reference_residuals("line", motions.moving(), n0, est.point))


# ---------------------------------------------------------------------------
# Random marker clouds, and the order of registration errors.


def _outcome(fn, *args):
    """What fn returns, or the type, frame_index and message of the error it raises."""
    try:
        return "ok", fn(*args)
    except (TaclocError, ValueError) as err:
        return type(err), getattr(err, "frame_index", None), str(err)


def _per_frame(frames):
    return [(m.rotation, m.translation, rms) for m, rms, _ in _reference_register_frames(frames)]


def _batched(frames):
    seq = register_sequence(frames)
    return [(m.rotation, m.translation, rms) for m, rms in zip(seq[1:], seq.rms_errors[1:])]


@st.composite
def marker_clouds(draw):
    """Noisy moved copies of one random cloud; some flat, some collinear, some mirrored."""
    seed = draw(st.integers(0, 2**32 - 1))
    markers = draw(st.integers(3, 40))
    n = draw(st.integers(1, 8))
    shape = draw(st.sampled_from(["solid", "flat", "collinear"]))
    noise = draw(st.sampled_from([0.0, 1e-6, 1e-2, 1.0]))
    scale = draw(st.sampled_from([1e-3, 1.0, 1e3]))
    rng = np.random.default_rng(seed)
    cloud = rng.normal(size=(markers, 3)) * scale
    if shape == "flat":
        cloud[:, 2] = 0.0
    elif shape == "collinear":
        cloud = np.outer(rng.normal(size=markers), rng.normal(size=3)) * scale
    frames = [MarkerFrame(cloud, 0)]
    for k in range(1, n + 1):
        rot = rotation_about_axis(rng.normal(size=3), rng.uniform(-np.pi, np.pi))
        moved = cloud @ rot.T + rng.normal(size=3) * scale
        moved = moved + rng.normal(size=moved.shape) * noise * scale
        if draw(st.booleans()):
            moved = moved * np.array([-1.0, 1.0, 1.0])
        frames.append(MarkerFrame(moved, k))
    return frames


@settings(max_examples=150, deadline=None)
@given(marker_clouds())
def test_register_frames_matches_the_loop_on_random_clouds(frames):
    got, want = _outcome(_batched, frames), _outcome(_per_frame, frames)
    assert got[0] == want[0]
    if got[0] != "ok":
        assert got == want
        return
    for (r, t, rms), (wr, wt, wrms) in zip(got[1], want[1]):
        assert np.array_equal(r, wr) and np.array_equal(t, wt) and rms == wrms


def _error_case(case):
    grid = MarkerGrid().reference_positions()
    line = np.outer(np.linspace(0.0, 1.0, grid.shape[0]), [1.0, 2.0, 0.5])  # rank 1 against grid
    if case == "degenerate_before_mismatch":
        currents = [grid + 1.0, line, grid + 2.0, grid[:-1], line]
    elif case == "mismatch_before_degenerate":
        currents = [grid + 1.0, grid[:-1], line, grid + 2.0]
    else:
        grid = grid[:2]
        currents = [grid, grid[:-1], line]
    return [MarkerFrame(grid, 0), *(MarkerFrame(c, k) for k, c in enumerate(currents, start=1))]


@pytest.mark.parametrize("case, error, frame_index", [
    ("degenerate_before_mismatch", DegenerateMarkers, 2),
    ("mismatch_before_degenerate", MismatchedFrames, 2),
    ("too_few_reference_markers", TooFewMarkers, 0),
])
def test_errors_name_the_first_bad_frame_in_frame_order(case, error, frame_index):
    frames = _error_case(case)
    want = _outcome(_per_frame, frames)
    assert want[:2] == (error, frame_index)
    assert _outcome(register_sequence, frames) == want


def test_orthonormalize_matches_the_reference_outcomes():
    rng = np.random.default_rng(4)
    for _ in range(600):
        rot = rotation_about_axis(rng.normal(size=3), rng.uniform(-np.pi, np.pi))
        variants = [rot, rot + rng.normal(size=(3, 3)) * 1e-10,
                    rot + rng.normal(size=(3, 3)) * 1e-3, rot * np.array([-1.0, 1.0, 1.0]),
                    (rot + rng.normal(size=(3, 3)) * 1e-10) * np.array([1.0, -1.0, 1.0]),
                    rng.normal(size=(3, 3)), np.zeros((3, 3))]
        for mat in variants:
            got = _outcome(orthonormalize, mat)
            want = _outcome(_reference_orthonormalize, mat)
            assert got[0] == want[0]
            assert np.array_equal(got[1], want[1]) if got[0] == "ok" else got == want


def test_rotation_about_axis_matches_the_reference():
    rng = np.random.default_rng(9)
    axes = rng.normal(size=(500, 3)) * 10.0 ** rng.uniform(-3, 3, size=(500, 1))
    axes[::5, 1] = 0.0
    for axis, angle in zip(axes, rng.uniform(-7.0, 7.0, size=500)):
        assert np.array_equal(rotation_about_axis(axis, angle),
                              _reference_rotation_about_axis(axis, angle))


def test_schedule_errors_name_the_first_bad_step():
    step = MotionStep(angle=0.2, axis=(0.0, 0.0, 1.0))
    pivot = FixedPointContact((1.0, 0.0, 0.0))
    cases = [
        (pivot, [step, MotionStep(angle=0.1), step]),
        (pivot, [step, MotionStep(angle=0.1, axis=(1, 0, 0), slide=0.5), MotionStep(angle=0.1)]),
        (FixedDirectionContact((0.0, 0.0, 1.0)), [MotionStep(angle=0.1),
                                                  MotionStep(angle=0.1, slide=0.2)]),
        (EDGE, [MotionStep(angle=0.1, slide=0.2), step]),
    ]
    for contact, schedule in cases:
        config = ScenarioConfig(contact=contact, schedule=schedule)
        with pytest.raises(InvalidSchedule) as want:
            _reference_generate(config)
        with pytest.raises(InvalidSchedule, match=re.escape(str(want.value))):
            generate(config)


def test_a_one_frame_sequence_needs_no_registration():
    # no moving frame: nothing is registered, so even a 2-marker reference passes
    seq = register_sequence([MarkerFrame(np.zeros((2, 3)), 0)])
    assert isinstance(seq, MotionSequence) and len(seq) == 1 and seq.rms_errors == (0.0,)


# ---------------------------------------------------------------------------
# Stacks checked once, objects as views: the per-object constructors that
# checked and copied every motion and frame, verbatim.


def _reference_det3(rows):
    (a, b, c), (d, e, f), (g, h, i) = rows
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def _reference_orthonormalize_by_gap(matrix):
    """orthonormalize as it was just before the stacked check: the gap test first."""
    mat = np.array(matrix, dtype=float)
    if mat.shape != (3, 3):
        raise ValueError(f"rotation must be 3x3, got shape {mat.shape}")
    if not np.isfinite(mat).all():
        row = np.argmin(np.isfinite(mat).all(axis=1))
        raise NonFiniteValue(f"rotation: non-finite value at entry {row}")
    gap = (mat.T @ mat - np.eye(3)).ravel()
    if math.sqrt(gap @ gap) <= ROTATION_TOL:
        if _reference_det3(mat.tolist()) <= 0.0:
            raise ValueError("matrix is a reflection or singular, not a rotation")
        return mat
    if np.linalg.det(mat) <= 0.0:
        raise ValueError("matrix is a reflection or singular, not a rotation")
    u, _, vt = np.linalg.svd(mat)
    rot = u @ vt
    if np.linalg.det(rot) < 0.0:
        u[:, 2] = -u[:, 2]
        rot = u @ vt
    return rot


def _reference_vector3(value, name):
    vec = np.array(value, dtype=float).reshape(-1)
    if vec.shape != (3,):
        raise ValueError(f"{name} must be a 3-vector, got shape {np.shape(value)}")
    if not np.isfinite(vec).all():
        raise NonFiniteValue(f"{name}: non-finite value at entry {np.argmin(np.isfinite(vec))}")
    return vec


def _reference_motion(rotation, translation, frame_index):
    """RelativeMotion.__post_init__ as it was, returning (rotation, translation, index), with
    the index rule of today: a bool, NaN or an infinity is no index either."""
    rot = _reference_orthonormalize_by_gap(rotation)
    trans = _reference_vector3(translation, "translation")
    if (isinstance(frame_index, (bool, np.bool_)) or not math.isfinite(frame_index)
            or frame_index < 0 or int(frame_index) != frame_index):
        raise ValueError(f"frame_index must be a nonnegative integer, got {frame_index}")
    return rot, trans, int(frame_index)


def _reference_sequence(rotations, translations, frame_indices, rms_errors=None):
    """One RelativeMotion per row, then MotionSequence.__post_init__'s own checks, as they were."""
    motions = [_reference_motion(r, t, i)
               for r, t, i in zip(rotations, translations, frame_indices)]
    indices = [i for _, _, i in motions]
    if any(b <= a for a, b in zip(indices, indices[1:])):
        raise ValueError(f"frame_index must be strictly increasing, got {indices!r:.40}")
    if motions and motions[0][2] == 0 and not (
            np.linalg.norm(motions[0][0] - np.eye(3)) <= ROTATION_TOL
            and np.linalg.norm(motions[0][1]) <= ROTATION_TOL):
        raise ValueError("the frame-0 motion must be the identity")
    if rms_errors is not None:
        rms = tuple(float(e) for e in rms_errors)
        if len(rms) != len(motions) or not all(0.0 <= e < math.inf for e in rms):
            raise ValueError("rms_errors must be one finite nonnegative value per motion")
    return motions


def _reference_frames(positions, frame_indices):
    """MarkerFrame.__post_init__ as it was, per frame, returning (positions, index) pairs."""
    out = []
    for p, frame_index in zip(positions, frame_indices):
        pos = np.array(p, dtype=float)
        if pos.ndim != 2 or pos.shape[1] != 3:
            raise ValueError(f"positions must have shape (m, 3), got {pos.shape}")
        if not np.isfinite(pos).all():
            raise ValueError("marker positions must be finite")
        if frame_index < 0 or int(frame_index) != frame_index:
            raise ValueError(f"frame_index must be a nonnegative integer, got {frame_index}")
        out.append((pos, int(frame_index)))
    return out


def _motion_file(rotations, translations, frame_indices, rms_errors=None) -> io.BytesIO:
    """A motion file holding the motions as they are: json.dumps writes a NaN or an infinity as
    NaN or Infinity, which json.loads reads back."""
    entries = [{"frame_index": i, "rotation": r.tolist(), "translation": t.tolist()}
               for r, t, i in zip(rotations, translations, frame_indices)]
    for entry, rms in zip(entries, rms_errors or ()):
        entry["rms_error"] = rms
    doc = {"schema": MOTIONS_SCHEMA, "units": "mm", "motions": entries}
    return io.BytesIO(json.dumps(doc).encode())


def _read_sequence(rotations, translations, frame_indices, rms_errors=None):
    """The motions of a sequence read back from a motion file of the stacks."""
    seq = read_motion_sequence(_motion_file(rotations, translations, frame_indices, rms_errors))
    return [(m.rotation, m.translation, m.frame_index) for m in seq]


def _reference_read(check, motions):
    """[check(*entry) for entry in motions], its first error as a motion file's reader raises
    it for those motions. The reader reads every motion's arrays before it checks any
    determinant or index, so the first motion holding a non-finite entry fails first, naming
    the array ("motion k 'translation': ..."); only then does the first motion that check
    rejects, as "motion k: ..."."""
    for k, (rotation, translation, _) in enumerate(motions):
        for key, array, reference in (
                ("rotation", rotation, _reference_orthonormalize_by_gap),
                ("translation", translation, lambda t: _reference_vector3(t, "translation"))):
            if not np.isfinite(array).all():
                try:
                    reference(array)
                except NonFiniteValue as err:
                    raise NonFiniteValue(
                        f"motion {k} '{key}'{str(err).removeprefix(key)}") from err
    out = []
    for k, entry in enumerate(motions):
        try:
            out.append(check(*entry))
        except ValueError as err:
            raise ParseError(f"motion {k}: {err}") from err
    return out


def _reference_file(rotations, translations, frame_indices):
    """_reference_sequence as a motion file's reader reports it: each motion's error by
    _reference_read, then the sequence's own, after the file's context."""
    _reference_read(_reference_motion, list(zip(rotations, translations, frame_indices)))
    try:
        return _reference_sequence(rotations, translations, frame_indices)
    except ValueError as err:
        raise ParseError(f"motion file: {err}") from err


def _stacked_frames(positions):
    """The frames of a log kept as its (N, m, 3) stack, built on first access."""
    return [(f.positions, f.frame_index) for f in MarkerLog._of_stack(positions).frames]


def _raw_stacks(config):
    """The truth, frame and registration stacks of one config, as generate and
    register_sequence build them before any check."""
    frames, _ = generate(config)
    rotations, translations, _, positions, _ = _register_all(list(frames))
    rms = _fit_rms(positions, rotations, translations)
    return {
        "truth": (*_truth_stacks(config.contact, config.schedule), list(range(len(frames)))),
        "registered": (np.concatenate([np.eye(3)[None], rotations]),
                       np.concatenate([np.zeros((1, 3)), translations]),
                       [f.frame_index for f in frames], [0.0, *rms.tolist()]),
        "frames": np.stack([f.positions for f in frames]),
    }


def assert_same_rows(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert len(g) == len(w)
        for a, b in zip(g, w):
            assert np.array_equal(a, b) if isinstance(b, np.ndarray) else a == b


def _copies(stacks):
    return [s.copy() if isinstance(s, np.ndarray) else list(s) for s in stacks]


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_stacks_checked_once_match_the_per_object_constructors(name):
    config = CONFIGS[name]()
    raw = _raw_stacks(config)
    frames, truth = generate(config)
    registered = register_sequence(frames)

    want = _reference_sequence(*_copies(raw["truth"]))
    assert_same_rows(_read_sequence(*_copies(raw["truth"])), want)
    assert_same_rows([(m.rotation, m.translation, m.frame_index) for m in truth.motions], want)

    want = _reference_sequence(*_copies(raw["registered"]))
    assert_same_rows(_read_sequence(*_copies(raw["registered"])), want)
    assert_same_rows([(m.rotation, m.translation, m.frame_index) for m in registered], want)
    assert registered.rms_errors == tuple(raw["registered"][3])

    want = _reference_frames(raw["frames"].copy(), range(len(frames)))
    assert_same_rows(_stacked_frames(raw["frames"].copy()), want)
    assert_same_rows([(f.positions, f.frame_index) for f in frames], want)

    # the sequence keeps the stacks its motions view
    for seq in (truth.motions, registered):
        assert np.array_equal(seq.rotations, np.array([m.rotation for m in seq]))
        assert np.array_equal(seq.translations, np.array([m.translation for m in seq]))
        assert all(np.shares_memory(m.rotation, seq.rotations) for m in seq)


def _set_row(stack, k, value):
    stack[k] = value


# Faults for one motion k that a motion file can hold: each mutates the (rotations,
# translations, indices) copies. A file's index is a JSON integer, so no fraction, bool or NaN.
MOTION_FAULTS = {
    "rotation_nan": lambda r, t, i, k: r[k].__setitem__((0, 1), np.nan),
    "rotation_inf": lambda r, t, i, k: r[k].__setitem__((2, 2), -np.inf),
    "reflection": lambda r, t, i, k: r[k].__setitem__((slice(None), 0), -r[k][:, 0]),
    "singular": lambda r, t, i, k: _set_row(r, k, np.zeros((3, 3))),
    "translation_nan": lambda r, t, i, k: t[k].__setitem__(2, np.nan),
    "translation_inf": lambda r, t, i, k: t[k].__setitem__(0, np.inf),
    "index_negative": lambda r, t, i, k: i.__setitem__(k, -k),
    "index_repeated": lambda r, t, i, k: i.__setitem__(k, i[k - 1]),
}
# The faults the reader meets as it reads each motion, before any other fault of any motion.
NON_FINITE_FAULTS = {"rotation_nan", "rotation_inf", "translation_nan", "translation_inf"}
# Faults for one frame k of a positions copy; a log's frame indices are 0..N-1 by construction.
FRAME_FAULTS = {
    "positions_nan": lambda p, k: p[k].__setitem__((k % p.shape[1], 1), np.nan),
    "positions_inf": lambda p, k: p[k].__setitem__((0, 2), np.inf),
}


def _fault_pairs(faults):
    names = sorted(faults)
    return [(a, b) for a in names for b in names]


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_stack_errors_name_the_first_bad_motion_in_frame_order(name):
    raw = _raw_stacks(CONFIGS[name]())
    for key in ("truth", "registered"):
        rotations, translations, indices = raw[key][:3]
        n = len(indices)
        first, second = n // 3, 2 * n // 3
        for fault_a, fault_b in _fault_pairs(MOTION_FAULTS):
            outcomes = {}
            # one bad motion, then a second later on, then two faults in one motion
            for rows in ((first,), (first, second), (first, first))[:3 - (fault_a == fault_b)]:
                r, t, i = _copies((rotations, translations, indices))
                for k, fault in zip(rows, (fault_a, fault_b)):
                    MOTION_FAULTS[fault](r, t, i, k)
                got = _outcome(_read_sequence, *_copies((r, t, i)))
                want = _outcome(_reference_file, *_copies((r, t, i)))
                assert got[0] in (ParseError, NonFiniteValue), (key, fault_a, fault_b, rows)
                assert got == want, (key, fault_a, fault_b, rows)
                outcomes[rows] = got
            # a sequence check is made after every motion's, and a non-finite array is met first
            if fault_a != "index_repeated" and (fault_a in NON_FINITE_FAULTS
                                                or fault_b not in NON_FINITE_FAULTS):
                # the second fault changes nothing: the first bad motion names the error
                assert outcomes[(first,)] == outcomes[(first, second)], (key, fault_a, fault_b)

        # motion checks come before the sequence's, wherever the bad motion is
        r, t, i = _copies((rotations, translations, indices))
        t[0, 0] = 1e-3  # frame 0 no longer the identity
        MOTION_FAULTS["translation_nan"](r, t, i, n - 1)
        got = _outcome(_read_sequence, *_copies((r, t, i)))
        assert got == _outcome(_reference_file, r, t, i)
        assert got[2] == f"motion {n - 1} 'translation': non-finite value at entry 2"
        t[n - 1] = 0.0
        got = _outcome(_read_sequence, *_copies((r, t, i)))
        assert got == _outcome(_reference_file, r, t, i)
        assert got[2] == "motion file: the frame-0 motion must be the identity"


def _read_frames(path, positions):
    """read_marker_log of a log file holding the (N, m, ...) positions as they are: json.dumps
    writes a NaN or an infinity as NaN or Infinity, which json.loads reads back."""
    frames = [{"frame_index": k, "positions": p.tolist()} for k, p in enumerate(positions)]
    path.write_text(json.dumps({"schema": MARKER_LOG_SCHEMA, "units": "mm", "frames": frames}))
    return read_marker_log(path)


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_stack_errors_name_the_first_bad_frame_in_frame_order(name, tmp_path):
    # a marker stack is checked where it is made; for a read log, frame by frame as it is read
    path = tmp_path / "markers.json"
    positions = _raw_stacks(CONFIGS[name]())["frames"]
    first, second = len(positions) // 3, 2 * len(positions) // 3
    for fault_a, fault_b in _fault_pairs(FRAME_FAULTS):
        outcomes = {}
        for rows in ((first,), (first, second), (first, first))[:3 - (fault_a == fault_b)]:
            p = positions.copy()
            for k, fault in zip(rows, (fault_a, fault_b)):
                FRAME_FAULTS[fault](p, k)
            got = _outcome(_read_frames, path, p)
            assert got[0] is NonFiniteValue, (fault_a, fault_b, rows)
            assert got[2].startswith(f"frame {first} 'positions': non-finite value at marker ")
            outcomes[rows] = got
        # the second fault changes nothing: the first bad frame names the error
        assert outcomes[(first,)] == outcomes[(first, second)], (fault_a, fault_b)
    # a stack of the wrong shape fails on its first frame, as every frame would
    for bad in (positions[:, :, :2], positions[:, 0]):
        got = _outcome(_read_frames, path, bad)
        assert got[0] is ParseError
        assert got[2] == f"frame 0 'positions' must have shape (None, 3), got {bad.shape[1:]}"


def _gap(mat):
    gap = (mat.T @ mat - np.eye(3)).ravel()
    return math.sqrt(gap @ gap)


ROTATION_KINDS = ("orthonormal", "within_tol", "just_outside", "far_outside",
                  "reflection", "reflection_outside", "non_finite", "singular")


def _rotation_of_kind(kind, rng):
    """One 3x3 matrix of the kind: a rotation, a rotation nudged to a chosen
    distance from orthonormal (a fraction or a few multiples of
    ROTATION_TOL), a reflection, or a matrix orthonormalize must reject."""
    rot = rotation_about_axis(rng.normal(size=3), rng.uniform(-np.pi, np.pi))
    if kind.startswith("reflection"):
        rot = rot * np.array([1.0, -1.0, 1.0])
    if kind in ("within_tol", "just_outside", "reflection_outside"):
        nudge = rng.normal(size=(3, 3))
        target = ROTATION_TOL * (rng.uniform(0.0, 0.9) if kind == "within_tol"
                                 else rng.uniform(1.1, 20.0))
        # the distance grows linearly with a small nudge: scale it to land on target
        rot = rot + nudge * (1e-7 * target / _gap(rot + nudge * 1e-7))
    elif kind == "far_outside":
        rot = rot + rng.normal(size=(3, 3)) * 1e-2
    elif kind == "non_finite":
        rot[rng.integers(3), rng.integers(3)] = rng.choice([np.nan, np.inf, -np.inf])
    elif kind == "singular":
        rot[2] = 0.0
    return rot


def _row_by_row(orthonormalize_one, mats):
    """orthonormalize_one of each matrix, its error as a motion file's reader raises it."""
    motions = [(mat, np.zeros(3), k + 1) for k, mat in enumerate(mats)]
    return np.array(_reference_read(lambda r, t, i: orthonormalize_one(r), motions))


def _read_rotations(mats):
    """The rotations read back from a motion file of the matrices, with zero translations and
    indices 1..N."""
    n = len(mats)
    return read_motion_sequence(_motion_file(mats, np.zeros((n, 3)), range(1, n + 1))).rotations


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32 - 1),
       st.lists(st.sampled_from(ROTATION_KINDS), min_size=1, max_size=6))
def test_stack_check_matches_orthonormalize_row_by_row(seed, kinds):
    rng = np.random.default_rng(seed)
    mats = np.array([_rotation_of_kind(kind, rng) for kind in kinds])
    got = _outcome(_read_rotations, mats.copy())
    for reference in (orthonormalize, _reference_orthonormalize_by_gap):
        want = _outcome(_row_by_row, reference, mats)
        assert got[0] == want[0]
        assert np.array_equal(got[1], want[1]) if got[0] == "ok" else got == want
    if got[0] == "ok":
        # the draws landed where they were aimed: only the rows outside the tolerance moved
        for kind, mat, rot in zip(kinds, mats, got[1]):
            assert np.array_equal(mat, rot) == (kind in ("orthonormal", "within_tol")), kind


@pytest.mark.parametrize("kind", ROTATION_KINDS)
def test_each_rotation_kind_lands_on_its_side_of_the_check(kind):
    rng = np.random.default_rng(11)
    for _ in range(50):
        mat = _rotation_of_kind(kind, rng)
        outcome = _outcome(orthonormalize, mat)
        if kind in ("orthonormal", "within_tol"):
            assert _gap(mat) <= ROTATION_TOL and np.array_equal(outcome[1], mat)
        elif kind in ("just_outside", "far_outside"):
            assert _gap(mat) > ROTATION_TOL and outcome[0] == "ok"
            assert _gap(outcome[1]) <= ROTATION_TOL
        else:
            assert issubclass(outcome[0], ValueError)


def test_stack_views_stay_read_only():
    config = CONFIGS["pivot_point_noisy"]()
    frames, truth = generate(config)
    registered = register_sequence(frames)
    assert frames[0].positions.base is frames[-1].positions.base  # one stack, viewed
    arrays = [frames.positions, frames[0].positions, frames[1].positions, frames[-1].positions]
    for seq in (truth.motions, registered):
        arrays += [seq.rotations, seq.translations, seq[0].rotation, seq[0].translation,
                   seq[-1].rotation, seq[-1].translation]
    for arr in arrays:
        with pytest.raises(ValueError):
            arr.flags.writeable = True
        with pytest.raises(ValueError):
            arr[0] = 1.0
        with pytest.raises(ValueError):
            arr.view()[...] = 0.0


# ---------------------------------------------------------------------------
# A log's stack goes straight to the solve; no per-frame object on the way.


def _reference_solve(positions):
    """_solve with _fit_rms as it was, on the frames of a stack: re-stacked, mean(axis=1),
    sum(r**2, axis=2)."""
    ref, frames = positions[0], [MarkerFrame(p, k) for k, p in enumerate(positions[1:], 1)]
    cur = np.stack([f.positions for f in frames])
    ref_centroid = ref.mean(axis=0)
    cur_centroid = cur.mean(axis=1)
    cross_cov = (ref - ref_centroid).T @ (cur - cur_centroid[:, None])
    u, sing, vt = np.linalg.svd(cross_cov)
    rank = np.count_nonzero(sing > RANK_TOLERANCE * sing[:, :1], axis=1) * (sing[:, 0] > 0.0)
    v = vt.swapaxes(1, 2)
    ut = u.swapaxes(1, 2)
    flip = np.broadcast_to(np.eye(3), cross_cov.shape).copy()
    flip[:, 2, 2] = np.sign(np.linalg.det(v @ ut))
    rotation = v @ flip @ ut
    translation = cur_centroid - rotation @ ref_centroid
    residuals = ref @ rotation.swapaxes(1, 2) + translation[:, None] - cur
    rms = np.sqrt(np.mean(np.sum(residuals**2, axis=2), axis=1))
    return rotation, translation, rms, rank


@pytest.mark.parametrize("markers, moving", [
    *((markers, moving) for markers in (3, 4, 8, 9, 121, 1600) for moving in (1, 2, 2000)),
    # across the block boundaries of the solve's passes
    *((markers, moving) for markers, block in BLOCK_FRAMES.items()
      for moving in (block - 1, block, block + 1, 2 * block + 1))])
def test_the_solve_on_a_stack_matches_the_restacked_solve(markers, moving):
    rng = np.random.default_rng([markers, moving])
    cloud = rng.normal(size=(markers, 3))
    rotations = np.array([rotation_about_axis(a, t) for a, t in
                          zip(rng.normal(size=(moving, 3)), rng.uniform(-3.0, 3.0, moving))])
    positions = np.concatenate([cloud[None], cloud @ rotations.swapaxes(1, 2)])
    positions[1:] += rng.normal(size=(moving, 1, 3)) + rng.normal(size=positions[1:].shape) * 1e-3
    for k in (-150, 0, 150):  # scales that keep every frame in range
        scaled = np.ldexp(positions, k)
        rotation, translation, rank = _solve(scaled, range(moving + 1))
        got = rotation, translation, _fit_rms(scaled, rotation, translation), rank
        for a, b in zip(got, _reference_solve(scaled)):
            assert a.shape == b.shape and np.array_equal(a, b), (markers, moving, k)


def _peak_bytes(fn) -> int:
    """The most memory tracemalloc saw allocated, numpy's arrays included, while fn ran."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("kind", ["point", "direction", "line"])
def test_a_long_run_makes_no_stack_sized_temporary(kind):
    config = long_config(kind, steps=1999)
    log, _ = generate(config)
    stack = log.positions.nbytes
    assert _peak_bytes(lambda: register_sequence(log)) <= 0.35 * stack
    # the log generate returns is the stack itself
    assert _peak_bytes(lambda: generate(config)) <= 1.15 * stack


@pytest.mark.parametrize("kind", ["point", "direction", "line"])
def test_a_long_run_builds_no_per_frame_object(monkeypatch, kind):
    config = long_config(kind, steps=1999)
    built = []
    view = motion._view
    monkeypatch.setattr(motion, "_view", lambda cls, **fields: (built.append(cls),
                                                                  view(cls, **fields))[1])
    for cls in (MarkerFrame, RelativeMotion):
        init = cls.__post_init__
        monkeypatch.setattr(cls, "__post_init__",
                            lambda self, init=init: (built.append(type(self)), init(self))[1])

    log, truth = generate(config)
    motions = register_sequence(log)
    {"point": estimate_fixed_point, "direction": estimate_fixed_direction,
     "line": lambda m: estimate_line_contact(m, EDGE.surface_normal)}[kind](motions)
    assert MarkerLog in built and not {MarkerFrame, RelativeMotion} & set(built)
    assert len(log) == len(motions) == len(truth.motions) == 2000
    assert "frames" not in vars(log)
    assert "motions" not in vars(motions) and "motions" not in vars(truth.motions)

    # on first access, each object views its stack's row, read-only, and is kept
    assert log[0] is log[0] and motions[-1] is motions[-1]
    for k, frame in enumerate(log.frames):
        assert frame.frame_index == k and np.shares_memory(frame.positions, log.positions)
        assert np.array_equal(frame.positions, log.positions[k])
        assert not frame.positions.flags.writeable
    for seq in (motions, truth.motions):
        for k, m in enumerate(seq):
            assert m.frame_index == seq.frame_indices[k] == k
            assert np.array_equal(m.rotation, seq.rotations[k])
            assert np.array_equal(m.translation, seq.translations[k])
            assert not (m.rotation.flags.writeable or m.translation.flags.writeable)
