"""Rigid-motion value types: construction, algebra, invariants."""

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import assume, given, settings

from tacloc import (EdgeContact, FixedDirectionContact, FixedPointContact, MarkerFrame,
                    MotionSequence, MotionStep, RelativeMotion, ScenarioTruth, TooFewFrames,
                    compose, constraint_residuals, estimate_fixed_direction,
                    estimate_fixed_point, estimate_line_contact, estimate_line_point,
                    fixed_direction_residuals, fixed_point_residuals, inverse,
                    line_contact_residuals, orthonormalize, propagate_plane,
                    rotation_about_axis, rotation_angle)


def random_rotation(rng):
    axis = rng.normal(size=3)
    return rotation_about_axis(axis, rng.uniform(-np.pi, np.pi))


def test_rotation_about_axis_matches_known_values():
    r = rotation_about_axis((0, 0, 1), np.pi / 2)
    np.testing.assert_allclose(r @ [1, 0, 0], [0, 1, 0], atol=1e-15)
    np.testing.assert_allclose(r @ [0, 1, 0], [-1, 0, 0], atol=1e-15)
    np.testing.assert_allclose(rotation_about_axis((1, 2, 3), 0.0), np.eye(3), atol=1e-15)


def test_rotation_about_axis_is_proper():
    rng = np.random.default_rng(0)
    for _ in range(50):
        r = random_rotation(rng)
        np.testing.assert_allclose(r.T @ r, np.eye(3), atol=1e-14)
        assert np.linalg.det(r) == pytest.approx(1.0, abs=1e-14)


def test_orthonormalize_projects_perturbed_rotations():
    rng = np.random.default_rng(1)
    for _ in range(50):
        r = random_rotation(rng)
        noisy = r + rng.normal(scale=1e-4, size=(3, 3))
        fixed = orthonormalize(noisy)
        assert np.linalg.norm(fixed.T @ fixed - np.eye(3)) <= 1e-9
        assert np.linalg.det(fixed) == pytest.approx(1.0, abs=1e-12)
        # the projection stays near the unperturbed rotation
        assert np.linalg.norm(fixed - r) < 1e-3


def test_orthonormalize_keeps_exact_rotations_bitwise():
    r = rotation_about_axis((1, 1, 0), 0.7)
    out = orthonormalize(r)
    assert np.array_equal(out, r)


def test_orthonormalize_rejects_reflections_and_singular():
    with pytest.raises(ValueError):
        orthonormalize(np.diag([1.0, 1.0, -1.0]))
    with pytest.raises(ValueError):
        orthonormalize(np.zeros((3, 3)))


def test_relative_motion_validates_inputs():
    with pytest.raises(ValueError):
        RelativeMotion(np.eye(3), (1.0, 2.0))
    with pytest.raises(ValueError):
        RelativeMotion(np.eye(3), (np.nan, 0.0, 0.0))
    with pytest.raises(ValueError):
        RelativeMotion(np.eye(3), np.zeros(3), frame_index=-1)


def test_relative_motion_is_immutable():
    m = RelativeMotion.identity()
    with pytest.raises(Exception):
        m.rotation[0, 0] = 2.0
    with pytest.raises(Exception):
        m.translation = np.ones(3)


def test_about_line_fixes_points_on_the_line():
    rng = np.random.default_rng(2)
    for _ in range(20):
        axis = rng.normal(size=3)
        point = rng.normal(size=3)
        m = RelativeMotion.about_line(axis, rng.uniform(0.1, 3.0), point, frame_index=1)
        for s in (-2.0, 0.0, 1.5):
            on_line = point + s * axis
            np.testing.assert_allclose(m.transform(on_line), on_line, atol=1e-12)


def test_compose_and_inverse_are_consistent():
    rng = np.random.default_rng(3)
    for _ in range(20):
        a = RelativeMotion(random_rotation(rng), rng.normal(size=3), 1)
        b = RelativeMotion(random_rotation(rng), rng.normal(size=3), 2)
        pts = rng.normal(size=(7, 3))
        np.testing.assert_allclose(compose(a, b).transform(pts),
                                   a.transform(b.transform(pts)), atol=1e-12)
        roundtrip = compose(inverse(a), a)
        assert roundtrip.is_identity(tol=1e-12)
        # arccos((trace-1)/2) flattens near the identity: a matrix within
        # 1e-16 of I can still read as ~3e-8 rad, so the angle bound is loose
        # even though the matrix-level check above is tight
        assert rotation_angle(roundtrip) <= 1e-7


def test_compose_closed_forms():
    identity = RelativeMotion.identity()
    assert compose(identity, identity).is_identity(tol=0.0)
    quarter = RelativeMotion(rotation_about_axis((0, 0, 1), np.pi / 2), np.zeros(3), 1)
    unquarter = RelativeMotion(rotation_about_axis((0, 0, 1), -np.pi / 2), np.zeros(3), 2)
    assert compose(quarter, unquarter).is_identity(tol=1e-12)
    shift_a = RelativeMotion(np.eye(3), (1.0, 0.0, 0.0), 1)
    shift_b = RelativeMotion(np.eye(3), (0.0, 2.0, 0.0), 2)
    np.testing.assert_allclose(compose(shift_a, shift_b).translation, [1.0, 2.0, 0.0],
                               atol=1e-15)


def test_compose_is_associative():
    rng = np.random.default_rng(17)
    for _ in range(20):
        a, b, c = (RelativeMotion(random_rotation(rng), rng.normal(size=3), i)
                   for i in (1, 2, 3))
        left = compose(compose(a, b), c)
        right = compose(a, compose(b, c))
        np.testing.assert_allclose(left.rotation, right.rotation, atol=1e-12)
        np.testing.assert_allclose(left.translation, right.translation, atol=1e-12)


def test_rotation_angle_recovers_generator_angle():
    rng = np.random.default_rng(4)
    for _ in range(30):
        angle = rng.uniform(0.0, np.pi)
        axis = rng.normal(size=3)
        m = RelativeMotion(rotation_about_axis(axis, angle), np.zeros(3), 1)
        assert rotation_angle(m) == pytest.approx(angle, abs=1e-9)
    assert rotation_angle(RelativeMotion.identity()) == 0.0


def test_transform_single_point_and_stack_agree():
    rng = np.random.default_rng(5)
    m = RelativeMotion(random_rotation(rng), rng.normal(size=3), 1)
    pts = rng.normal(size=(4, 3))
    stacked = m.transform(pts)
    for i in range(4):
        np.testing.assert_allclose(m.transform(pts[i]), stacked[i], atol=1e-15)


def test_marker_frame_validation():
    with pytest.raises(ValueError):
        MarkerFrame(np.zeros((3, 2)))
    with pytest.raises(ValueError):
        MarkerFrame(np.array([[0.0, 0.0, np.inf]]))
    frame = MarkerFrame(np.zeros((5, 3)), frame_index=2)
    assert frame.marker_count == 5


def test_motion_sequence_ordering_and_identity_rules():
    i0 = RelativeMotion.identity(0)
    m1 = RelativeMotion.about_line((0, 0, 1), 0.3, frame_index=1)
    m2 = RelativeMotion.about_line((0, 1, 0), 0.2, frame_index=2)
    seq = MotionSequence((i0, m1, m2))
    assert len(seq) == 3
    assert seq.moving() == (m1, m2)
    assert seq.max_rotation_angle() == pytest.approx(0.3)

    with pytest.raises(ValueError):
        MotionSequence((m2, m1))  # indices must increase
    bad0 = RelativeMotion.about_line((0, 0, 1), 0.3, frame_index=0)
    with pytest.raises(ValueError):
        MotionSequence((bad0, m1))  # frame 0 must be the identity
    assert MotionSequence(()).max_rotation_angle() == 0.0


# ---------------------------------------------------------------------------
# A MotionSequence is the only motion input of every motion consumer: a list
# or tuple of the same motions would count the frame-0 identity as moving.


def _pivot_sequence():
    """Frame 0 plus two moving frames about the pivot (1, 2, 3)."""
    return MotionSequence((RelativeMotion.identity(0),
                           RelativeMotion.about_line((1, 0, 0), 0.3, (1, 2, 3), frame_index=1),
                           RelativeMotion.about_line((0, 1, 0), 0.2, (1, 2, 3), frame_index=2)))


MOTION_CONSUMERS = {
    "estimate_fixed_point": estimate_fixed_point,
    "estimate_fixed_direction": estimate_fixed_direction,
    "estimate_line_contact": lambda m: estimate_line_contact(m, (0, 0, 1)),
    "fixed_point_residuals": lambda m: fixed_point_residuals(m, (1, 2, 3)),
    "fixed_direction_residuals": lambda m: fixed_direction_residuals(m, (0, 0, 1)),
    "line_contact_residuals": lambda m: line_contact_residuals(m, (0, 0, 1), (1, 2, 3)),
    "propagate_plane": lambda m: propagate_plane((0, 0, 1), (0, 0, 0), m),
    "estimate_line_point": lambda m: estimate_line_point(
        m, propagate_plane((0, 0, 1), (0, 0, 0), _pivot_sequence()), (1, 0, 0)),
    "constraint_residuals": lambda m: constraint_residuals(
        ScenarioTruth(motions=m, contact_geometry=FixedPointContact((1, 2, 3)))),
}


@pytest.mark.parametrize("container", [list, tuple])
@pytest.mark.parametrize("consumer", sorted(MOTION_CONSUMERS))
def test_motion_consumers_take_only_a_motion_sequence(consumer, container):
    with pytest.raises(TypeError, match="MotionSequence"):
        MOTION_CONSUMERS[consumer](container(_pivot_sequence()))


def test_motion_consumers_count_only_the_moving_frames():
    seq = _pivot_sequence()
    with pytest.raises(TooFewFrames):
        estimate_fixed_point(seq)  # two moving frames, min_frames 3
    assert len(fixed_point_residuals(seq, (1, 2, 3))) == 2
    assert len(constraint_residuals(
        ScenarioTruth(motions=seq, contact_geometry=FixedPointContact((1, 2, 3))))) == 2
    # without a frame-0 entry, every motion is a moving frame
    assert len(fixed_point_residuals(MotionSequence(seq.moving()), (1, 2, 3))) == 2


# Integer directions: each nonzero entry is at most 100, and each entry of
# the cross product of two of them at most 2 * 100**2 < 2**15.
_INTEGER_DIRECTIONS = st.lists(st.integers(-100, 100), min_size=3, max_size=3)


def _directions_read_from(direction, normal):
    """Every unit direction tacloc takes from a vector, for these two perpendicular vectors."""
    edge = EdgeContact(direction, np.zeros(3), normal)
    return [MotionStep(angle=0.3, axis=direction).axis,
            FixedDirectionContact(direction).direction,
            edge.direction, edge.surface_normal,
            rotation_about_axis(direction, 0.3)]


@settings(max_examples=300, deadline=None)
@given(_INTEGER_DIRECTIONS, _INTEGER_DIRECTIONS, st.integers(-1022, 1008))
def test_a_direction_does_not_depend_on_the_scale_of_its_vector(d, e, k):
    # 2**k keeps every nonzero entry of d and of the normal a normal double,
    # and scaling by it is exact, so the direction read must not move
    d = np.array(d, dtype=float)
    normal = np.cross(d, np.array(e, dtype=float))
    assume(normal.any())
    scale = 2.0**k
    scaled = _directions_read_from(d * scale, normal * scale)
    plain = _directions_read_from(d, normal)
    for a, b in zip(scaled, plain):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("read, scaled, plain", [
    (lambda v: rotation_about_axis(v, 0.5), [1e308, 1e308, 0], [1, 1, 0]),
    (lambda v: rotation_about_axis(v, 0.5), [1e-200, 1e-200, 0], [1, 1, 0]),
    (lambda v: RelativeMotion.about_line(v, 0.3).rotation, [0, 0, 1e300], [0, 0, 1]),
    (lambda v: FixedDirectionContact(v).direction, [0, 1e200, 0], [0, 1, 0]),
    (lambda v: MotionStep(angle=0.3, axis=v).axis, [5e-324, 0, 5e-324], [1, 0, 1]),
], ids=["huge_axis", "tiny_axis", "huge_line_axis", "huge_hinge", "subnormal_step_axis"])
def test_a_vector_at_an_extreme_scale_gives_its_direction(read, scaled, plain):
    np.testing.assert_allclose(read(scaled), read(plain), rtol=0.0,
                               atol=4 * np.finfo(float).eps)
