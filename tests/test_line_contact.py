"""Line-contact (edge) estimation: plane propagation, direction, point.

Direction oracle: 1-degree spherical grid minimizing the summed squared
normal projections. Point checks are geometric: the estimate must lie on
the true edge and carry the canonical (closest-to-origin) parameterization.
"""

import numpy as np
import pytest

from tacloc import (AmbiguousDirection, EstimatorConfig, MarkerFrame, MarkerGrid,
                    MotionSequence, RankDeficientBeyondLine, RelativeMotion, TooFewFrames,
                    compose, estimate_fixed_direction, estimate_fixed_point,
                    estimate_line_contact, estimate_line_direction,
                    estimate_line_point, line_contact_residuals,
                    propagate_plane, register_sequence, rotation_about_axis)
from tacloc import estimators
from tacloc.motion import _unit


def edge_sequence(direction, point, angles, slides):
    """Rotations about the edge line combined with slides along it."""
    direction = np.asarray(direction, float) / np.linalg.norm(direction)
    motions = [RelativeMotion.identity(0)]
    for k, (angle, slide) in enumerate(zip(angles, slides), start=1):
        about = RelativeMotion.about_line(direction, angle, point, frame_index=k)
        motions.append(RelativeMotion(about.rotation,
                                      about.translation + slide * direction, k))
    return MotionSequence(tuple(motions))


def perpendicular_unit(direction, rng):
    v = rng.normal(size=3)
    v -= (v @ direction) * direction
    return v / np.linalg.norm(v)


def closest_point_to_origin(point, direction):
    return point - (point @ direction) * direction


def angle_between(a, b):
    return np.arccos(min(1.0, abs(float(np.dot(a, b)))))


def direction_distance(a, b):
    """Sign-insensitive vector distance; unlike the angle it has no acos floor."""
    return min(np.linalg.norm(a - b), np.linalg.norm(a + b))


def test_propagate_plane_tracks_the_rigid_plane():
    rng = np.random.default_rng(40)
    direction = np.array([1.0, 0.0, 0.0])
    point = np.array([0.0, 2.0, -3.0])
    n0 = np.array([0.0, 0.0, 1.0])
    seq = edge_sequence(direction, point, [0.1, -0.2, 0.3], [0.5, -0.2, 0.1])
    normals = propagate_plane(n0, seq)
    assert normals.shape == (len(seq), 3)
    np.testing.assert_allclose(normals[0], n0, atol=1e-15)
    for m, nk in zip(seq, normals):
        np.testing.assert_allclose(nk, m.rotation @ n0, atol=1e-12)
        # any material point of the plane stays on the plane with the propagated normal
        for s in (-1.0, 0.5):
            q = point + s * perpendicular_unit(n0, rng)
            q -= (q - point) @ n0 * n0
            assert abs(nk @ (m.transform(q) - m.transform(point))) <= 1e-9


def test_propagate_plane_closed_forms():
    n0 = np.array([0.0, 0.0, 1.0])
    still = MotionSequence(tuple(RelativeMotion(np.eye(3), np.zeros(3), k)
                                 if k else RelativeMotion.identity(0) for k in range(3)))
    np.testing.assert_allclose(propagate_plane(n0, still), [n0] * 3, atol=1e-15)

    tilt = MotionSequence((RelativeMotion.identity(0),
                           RelativeMotion(rotation_about_axis((1, 0, 0), np.pi / 6),
                                          np.zeros(3), 1)))
    tilted = propagate_plane(n0, tilt)
    np.testing.assert_allclose(tilted[1], [0.0, -0.5, np.sqrt(3) / 2], atol=1e-9)


def test_exact_edge_recovery_with_slip():
    rng = np.random.default_rng(41)
    for _ in range(25):
        direction = rng.normal(size=3)
        direction /= np.linalg.norm(direction)
        n0 = perpendicular_unit(direction, rng)
        point = rng.normal(scale=3.0, size=3)
        angles = rng.uniform(0.08, 0.4, size=4) * rng.choice([-1.0, 1.0], size=4)
        slides = rng.uniform(-0.5, 0.5, size=4)
        seq = edge_sequence(direction, point, angles, slides)
        est = estimate_line_contact(seq, n0)
        assert direction_distance(est.direction, direction) <= 1e-9
        np.testing.assert_allclose(est.point,
                                   closest_point_to_origin(point, direction), atol=1e-8)
        assert abs(est.point @ est.direction) <= 1e-9  # canonical parameterization
        assert est.residual_rms <= 1e-10


def test_point_estimate_is_slip_invariant():
    direction = np.array([0.0, 1.0, 0.0])
    point = np.array([1.0, 0.0, 2.0])
    n0 = np.array([1.0, 0.0, 0.0])
    angles = [0.15, -0.25, 0.35]
    est_still = estimate_line_contact(edge_sequence(direction, point, angles, [0, 0, 0]), n0)
    est_slip = estimate_line_contact(edge_sequence(direction, point, angles, [0.4, -0.6, 0.9]), n0)
    np.testing.assert_allclose(est_still.point, est_slip.point, atol=1e-9)
    np.testing.assert_allclose(est_still.direction, est_slip.direction, atol=1e-12)


def test_no_nudge_lowers_the_out_of_plane_cost():
    # bumped translations leave no common intersection line, so the optimum
    # cost is positive; 1e-3 nudges of the point must never beat it (moves
    # along the edge leave the cost level, everything else climbs)
    rng = np.random.default_rng(43)
    direction = np.array([2.0, -1.0, 2.0]) / 3.0
    point = np.array([0.5, 1.5, -0.5])
    n0 = perpendicular_unit(direction, rng)
    seq = edge_sequence(direction, point, [0.3, -0.22, 0.35, 0.18], [0.2, -0.3, 0.1, 0.4])
    bumped = [seq[0]] + [RelativeMotion(m.rotation,
                                        m.translation + rng.normal(scale=0.01, size=3),
                                        m.frame_index)
                         for m in seq.moving()]
    noisy = MotionSequence(tuple(bumped))
    est = estimate_line_contact(noisy, n0)
    best = float(np.sum(line_contact_residuals(noisy, n0, est.point) ** 2))
    assert best > 0.0
    for _ in range(120):
        nudge = rng.normal(size=3)
        nudge *= 1e-3 / np.linalg.norm(nudge)
        cost = float(np.sum(line_contact_residuals(noisy, n0, est.point + nudge) ** 2))
        assert cost >= best - 1e-15


def test_direction_matches_spherical_grid_oracle():
    rng = np.random.default_rng(42)
    thetas = np.deg2rad(np.arange(0.0, 90.0 + 1.0, 1.0))
    phis = np.deg2rad(np.arange(0.0, 360.0, 1.0))
    t, p = np.meshgrid(thetas, phis, indexing="ij")
    grid = np.column_stack([(np.sin(t) * np.cos(p)).ravel(),
                            (np.sin(t) * np.sin(p)).ravel(),
                            np.cos(t).ravel()])
    for _ in range(5):
        direction = rng.normal(size=3)
        direction /= np.linalg.norm(direction)
        n0 = perpendicular_unit(direction, rng)
        seq = edge_sequence(direction, rng.normal(size=3),
                            rng.uniform(0.1, 0.4, size=4), rng.uniform(-0.4, 0.4, size=4))
        est_dir = estimate_line_direction(seq, n0)
        cost = np.sum((grid @ propagate_plane(n0, seq).T) ** 2, axis=1)
        oracle = grid[np.argmin(cost)]
        assert angle_between(est_dir, oracle) <= np.deg2rad(1.0)


def test_no_rotation_makes_direction_ambiguous():
    # pure slide: normals never change, so every direction in the plane
    # perpendicular to n0 minimizes the cost
    direction = np.array([1.0, 0.0, 0.0])
    point = np.zeros(3)
    seq = edge_sequence(direction, point, [0.0, 0.0, 0.0], [0.2, 0.4, 0.6])
    with pytest.raises(AmbiguousDirection):
        estimate_line_contact(seq, np.array([0.0, 0.0, 1.0]))


def test_repeated_rotation_leaves_point_rank_deficient():
    # three identical rotations (distinct slides) give one distinct plane
    # constraint: direction is fine, the point is not pinned down
    direction = np.array([1.0, 0.0, 0.0])
    point = np.array([0.0, 1.0, 1.0])
    n0 = np.array([0.0, 0.0, 1.0])
    seq = edge_sequence(direction, point, [0.3, 0.3, 0.3], [0.1, 0.5, -0.3])
    est_dir = estimate_line_direction(seq, n0)
    assert direction_distance(est_dir, direction) <= 1e-9
    with pytest.raises(RankDeficientBeyondLine):
        estimate_line_point(seq, n0, est_dir)

    # identity motions are the extreme case: every row of the system vanishes
    still = MotionSequence(tuple(RelativeMotion(np.eye(3), np.zeros(3), k)
                                 if k else RelativeMotion.identity(0) for k in range(4)))
    with pytest.raises(RankDeficientBeyondLine):
        estimate_line_point(still, n0, direction)


def test_one_plane_leaves_the_direction_ambiguous():
    # one motion without frame 0 gives one normal, spanning one dimension:
    # every direction in its plane is an edge
    seq = MotionSequence((RelativeMotion.about_line((1, 0, 0), 0.3, frame_index=1),))
    with pytest.raises(AmbiguousDirection):
        estimate_line_direction(seq, (0.0, 0.0, 1.0), EstimatorConfig(min_frames=1))


def test_min_frames_counts_moving_frames_like_the_other_estimators():
    # identity frame 0 plus two moving frames: below the default min_frames of 3
    direction = np.array([1.0, 0.0, 0.0])
    seq = edge_sequence(direction, [0.0, 2.0, -3.0], [0.3, -0.2], [0.1, 0.2])
    n0 = np.array([0.0, 0.0, 1.0])
    for estimate in (lambda c: estimate_line_contact(seq, n0, c),
                     lambda c: estimate_line_direction(seq, n0, c),
                     lambda c: estimate_fixed_point(seq, c),
                     lambda c: estimate_fixed_direction(seq, c)):
        with pytest.raises(TooFewFrames):
            estimate(EstimatorConfig())
    est = estimate_line_contact(seq, n0, EstimatorConfig(min_frames=2))
    assert direction_distance(est.direction, direction) <= 1e-9
    assert np.array_equal(estimate_line_direction(seq, n0, EstimatorConfig(min_frames=2)),
                          est.direction)


def test_residual_helper_vanishes_on_the_true_edge():
    direction = np.array([1.0, 0.0, 0.0])
    point = np.array([0.0, 2.0, -3.0])
    n0 = np.array([0.0, 0.0, 1.0])
    seq = edge_sequence(direction, point, [0.1, -0.2, 0.3], [0.5, -0.2, 0.1])
    assert np.max(line_contact_residuals(seq, n0, point)) <= 1e-12
    # points off the edge but on the initial plane violate later frames
    assert np.max(line_contact_residuals(seq, n0, point + [0.0, 1.0, 0.0])) > 1e-3


def test_estimate_carries_both_fields_and_diagnostics():
    direction = np.array([0.0, 1.0, 0.0])
    point = np.array([2.0, 0.0, 1.0])
    n0 = np.array([0.0, 0.0, 1.0])
    seq = edge_sequence(direction, point, [0.2, -0.3, 0.15], [0.1, 0.2, -0.1])
    est = estimate_line_contact(seq, n0)
    assert est.kind.value == "line"
    assert est.point is not None and est.direction is not None
    assert est.conditioning.well_posed
    assert est.conditioning.max_rotation_angle == pytest.approx(0.3, abs=1e-12)


@pytest.mark.parametrize("frame_0", [True, False])
def test_the_estimate_rotates_the_face_normal_once(monkeypatch, frame_0):
    # the residuals reuse the normals the direction and point came from
    direction = np.array([1.0, 0.0, 0.0])
    n0 = np.array([0.0, 0.6, 0.8]) * (1.0 + 1e-9)  # within the unit tolerance, not within 1e-12
    seq = edge_sequence(direction, [0.0, 2.0, -3.0], [0.1, -0.2, 0.3], [0.5, -0.2, 0.1])
    seq = seq if frame_0 else MotionSequence(tuple(seq)[1:])
    calls = []
    unit_rows = estimators._unit_rows
    monkeypatch.setattr(estimators, "_unit_rows",
                        lambda rows, name: (calls.append(name), unit_rows(rows, name))[1])
    est = estimate_line_contact(seq, n0)
    assert calls == ["n0"]
    # the residual function's form for the normalized n0 the estimate used
    assert np.array_equal(est.per_frame_residuals,
                          line_contact_residuals(seq, _unit(n0, "n0"), est.point))


def test_no_slip_data_agrees_with_fixed_point_and_direction_estimators():
    # without slip the whole edge is a fixed line: the pivot estimator's
    # minimum-norm answer and the hinge estimator's axis rebuild it
    rng = np.random.default_rng(43)
    for _ in range(10):
        direction = rng.normal(size=3)
        direction /= np.linalg.norm(direction)
        n0 = perpendicular_unit(direction, rng)
        point = rng.normal(scale=2.0, size=3)
        angles = rng.uniform(0.1, 0.4, size=4) * rng.choice([-1.0, 1.0], size=4)
        seq = edge_sequence(direction, point, angles, np.zeros(4))

        line_est = estimate_line_contact(seq, n0)
        pivot_est = estimate_fixed_point(seq)
        hinge_est = estimate_fixed_direction(seq)

        assert angle_between(hinge_est.direction, line_est.direction) <= 1e-6
        np.testing.assert_allclose(pivot_est.point, line_est.point, atol=1e-6)


def test_the_edge_is_found_under_spins_the_fixed_direction_misses():
    # the edge need only stay in the face plane: besides turning about the edge and sliding
    # along it, the object may spin about the face normal and slide across the edge in the face
    direction, point = np.array([1.0, 0.0, 0.0]), np.array([0.0, 2.0, -3.0])
    n0 = np.array([0.0, 0.0, 1.0])
    motions = [RelativeMotion.identity(0)]
    for k, (turn, spin, slide) in enumerate(zip([0.2, -0.25, 0.3, -0.15, 0.1],
                                                [0.3, -0.2, 0.1, -0.3, 0.25],
                                                [0.4, -0.3, 0.2, 0.5, -0.1]), start=1):
        turned = RelativeMotion.about_line(direction, turn, point, frame_index=k)
        normal = turned.rotation @ n0
        spun = compose(RelativeMotion.about_line(normal, spin, point, frame_index=k), turned)
        shift = slide * direction + (0.3 * np.cross(normal, direction) if k == 3 else 0.0)
        motions.append(RelativeMotion(spun.rotation, spun.translation + shift, k))
    seq = MotionSequence(tuple(motions))
    assert np.all(line_contact_residuals(seq, n0, point) <= 1e-12)  # the motions keep the edge

    grid = MarkerGrid().reference_positions()
    registered = register_sequence([MarkerFrame(m.transform(grid), m.frame_index) for m in seq])
    for motions in (seq, registered):
        est = estimate_line_contact(motions, n0)
        assert direction_distance(est.direction, direction) <= 1e-12
        np.testing.assert_allclose(est.point, point, rtol=0.0, atol=1e-12)
        assert est.residual_rms <= 1e-12
    # no body direction stays fixed, so the hinge estimator cannot stand in for the line one
    assert estimate_fixed_direction(seq).residual_rms > 1e-2
