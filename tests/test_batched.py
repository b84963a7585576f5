"""The batched numerics against the per-frame loops they replaced, bit for bit.

The references below are the per-frame code as it was before registration,
frame generation and the estimators' stacked systems were batched over
(N, 3, 3) stacks, kept verbatim. Every array must come out identical, not
merely close: the pinned file bytes and every estimate depend on it.
"""

import math
import re

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from tacloc import (DegenerateMarkers, EdgeContact, FixedDirectionContact,
                    FixedPointContact, MarkerFrame, MarkerGrid, MismatchedFrames,
                    MotionSequence, MotionStep, RelativeMotion, ScenarioConfig,
                    TaclocError, TooFewMarkers, estimate_fixed_direction,
                    estimate_fixed_point, estimate_line_contact, estimate_line_point,
                    generate, propagate_plane, read_scenario, register,
                    register_frames, register_sequence, rotation_about_axis)
from tacloc.estimators import (_canonical_sign, fixed_direction_residuals,
                               fixed_point_residuals, line_contact_residuals)
from tacloc.motion import orthonormalize, rotation_angle
from tacloc.registration import RANK_TOLERANCE
from tacloc.simulate import InvalidSchedule

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
    """propagate_plane's normals and offsets through zero, then the line system's rows and rhs."""
    normals, offsets = [], []
    for m in motions:
        nk = m.rotation @ n0
        nk = nk / np.linalg.norm(nk)
        normals.append(nk)
        offsets.append(nk @ (m.rotation @ np.zeros(3) + m.translation))
    rows = np.array([(m.rotation - np.eye(3)).T @ nk for m, nk in zip(motions, normals)])
    rhs = np.array([-(nk @ m.translation) for m, nk in zip(motions, normals)])
    return np.array(normals), np.array(offsets), rows, rhs


# ---------------------------------------------------------------------------
# Inputs: the bundled scenarios and one ~300-frame sequence per contact kind,
# shaped like the benchmark's long sequences (11x11 upright grid, 1% noise).

BUNDLED = ["box_on_edge", "box_on_edge_noisy", "pivot_point", "pivot_point_noisy",
           "hinge_direction", "hinge_direction_noisy"]
GRID_POSE = RelativeMotion(rotation_about_axis((1.0, 0.0, 0.0), math.radians(90.0)),
                           (0.0, 2.0, -1.0))
EDGE = EdgeContact(direction=(1.0, 0.0, 0.0), point=(0.0, 2.0, -3.0),
                   surface_normal=(0.0, 0.0, 1.0))


def long_config(kind, steps=299, seed=5):
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
                          noise_sigma=0.01, seed=seed)


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


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_generate_matches_the_frame_loop(name):
    config = CONFIGS[name]()
    frames, truth = generate(config)
    want_frames, want_motions = _reference_generate(config)
    assert_same_motions(truth.motions, want_motions)
    assert [f.frame_index for f in frames] == [f.frame_index for f in want_frames]
    for got, want in zip(frames, want_frames):
        assert np.array_equal(got.positions, want.positions)


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_register_frames_matches_the_register_loop(name):
    frames, _ = generate(CONFIGS[name]())
    motions = register_frames(frames)
    want = _reference_register_frames(frames)
    assert_same_motions(motions[1:], [m for m, _, _ in want])
    assert motions.rms_errors == (0.0, *(rms for _, rms, _ in want))
    single = register(frames[0], frames[-1])
    assert_same_motions([single.motion], [want[-1][0]])
    assert (single.rms_error, single.marker_covariance_rank) == want[-1][1:]


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_estimator_stacks_match_the_per_frame_forms(name):
    config = CONFIGS[name]()
    motions = register_frames(generate(config)[0])
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

    normals, offsets, rows, rhs = _reference_plane_track(n0, motions)
    track = propagate_plane(n0, np.zeros(3), motions)
    assert np.array_equal(track.normals, normals)
    assert np.array_equal(track.offsets, offsets)
    # the line point is the minimum-norm solution of these rows, projected off the edge
    got = estimate_line_point(motions, track, direction)
    want = np.linalg.lstsq(rows, rhs, rcond=1e-8)[0]
    assert np.array_equal(got, want - (want @ direction) * direction)


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_estimates_match_the_per_frame_systems(name):
    """Each estimate from its system built frame by frame, as the loops built it."""
    config = CONFIGS[name]()
    motions = register_frames(generate(config)[0])
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
    motions = register_frames(generate(config)[0])
    n0 = config.contact.surface_normal
    est = estimate_line_contact(motions, n0)

    normals, _, rows, _ = _reference_plane_track(n0, motions)
    assert len(normals) >= 3
    _, _, vt = np.linalg.svd(normals)  # full_matrices: the U is len x len
    direction = _canonical_sign(vt[2])
    sing = np.linalg.svd(rows, compute_uv=False)
    track = propagate_plane(n0, np.zeros(3), motions)
    assert np.array_equal(est.direction, direction)
    assert np.array_equal(est.point, estimate_line_point(motions, track, direction))
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
    seq = register_frames(frames)
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
    for register_all in (register_frames, register_sequence):
        assert _outcome(register_all, frames) == want


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
    seq = register_frames([MarkerFrame(np.zeros((2, 3)), 0)])
    assert isinstance(seq, MotionSequence) and len(seq) == 1 and seq.rms_errors == (0.0,)
