"""Fixed-direction (hinge) estimation.

Oracle: a 1-degree spherical grid search over candidate unit directions
minimizing the stacked constraint cost. The closed-form answer must agree
with the grid argmin to within the grid's own resolution.
"""

import numpy as np
import pytest

from tacloc import (AmbiguousDirection, EstimatorConfig, MotionSequence,
                    RelativeMotion, TooFewFrames, estimate_fixed_direction,
                    fixed_direction_residuals, rotation_about_axis)


def hinge_sequence(direction, angles, rng=None):
    """Rotations about `direction` with arbitrary translations."""
    motions = [RelativeMotion.identity(0)]
    for k, angle in enumerate(angles, start=1):
        trans = np.zeros(3) if rng is None else rng.normal(size=3)
        motions.append(RelativeMotion(rotation_about_axis(direction, angle), trans, k))
    return MotionSequence(tuple(motions))


def spherical_grid(step_deg=1.0):
    """Unit directions covering the hemisphere (sign is irrelevant to the cost)."""
    thetas = np.deg2rad(np.arange(0.0, 90.0 + step_deg, step_deg))
    phis = np.deg2rad(np.arange(0.0, 360.0, step_deg))
    t, p = np.meshgrid(thetas, phis, indexing="ij")
    return np.column_stack([(np.sin(t) * np.cos(p)).ravel(),
                            (np.sin(t) * np.sin(p)).ravel(),
                            np.cos(t).ravel()])


def grid_argmin(motions, grid):
    cost = np.zeros(len(grid))
    for m in motions.moving():
        cost += np.sum((grid @ (m.rotation - np.eye(3)).T) ** 2, axis=1)
    return grid[np.argmin(cost)]


def angle_between(a, b):
    return np.arccos(min(1.0, abs(float(np.dot(a, b)))))


def direction_distance(a, b):
    """Sign-insensitive vector distance; unlike the angle it has no acos floor."""
    return min(np.linalg.norm(a - b), np.linalg.norm(a + b))


def test_estimate_matches_spherical_grid_oracle():
    rng = np.random.default_rng(30)
    grid = spherical_grid()
    for _ in range(5):
        direction = rng.normal(size=3)
        direction /= np.linalg.norm(direction)
        seq = hinge_sequence(direction, rng.uniform(0.15, 0.4, size=4), rng)
        est = estimate_fixed_direction(seq)
        oracle = grid_argmin(seq, grid)
        assert angle_between(est.direction, oracle) <= np.deg2rad(1.0)
        assert angle_between(oracle, direction) <= np.deg2rad(1.0)


def test_exact_recovery_with_free_translations():
    rng = np.random.default_rng(31)
    for _ in range(50):
        direction = rng.normal(size=3)
        direction /= np.linalg.norm(direction)
        seq = hinge_sequence(direction, rng.uniform(0.1, 0.5, size=4), rng)
        est = estimate_fixed_direction(seq)
        assert direction_distance(est.direction, direction) <= 1e-9
        assert est.residual_rms <= 1e-12
        assert est.point is None


def test_direction_sign_is_canonical():
    seq = hinge_sequence(np.array([-1.0, 2.0, -2.0]) / 3.0, [0.2, 0.3, 0.25])
    est = estimate_fixed_direction(seq)
    nonzero = np.nonzero(est.direction)[0]
    assert est.direction[nonzero[0]] > 0.0
    # flipping the generator direction cannot change the reported one
    seq_flipped = hinge_sequence(np.array([1.0, -2.0, 2.0]) / 3.0, [-0.2, -0.3, -0.25])
    np.testing.assert_allclose(estimate_fixed_direction(seq_flipped).direction,
                               est.direction, atol=1e-9)


def test_round_off_components_do_not_choose_the_sign():
    from tacloc.estimators import _canonical_sign
    for vec, want in (([-1e-17, 1.0, 0.0], [-1e-17, 1.0, 0.0]),
                      ([1e-17, -1.0, 0.0], [-1e-17, 1.0, 0.0]),
                      ([-0.6, 0.8, 0.0], [0.6, -0.8, 0.0]),
                      ([0.0, 1e-300, -1e-300], [0.0, 1e-300, -1e-300])):
        assert np.array_equal(_canonical_sign(np.array(vec)), want), vec


def test_no_unit_nudge_lowers_the_constraint_cost():
    # wobble each rotation a little so no direction is exactly preserved;
    # the reported direction must still minimize the cost over the sphere
    rng = np.random.default_rng(33)
    axis = np.array([1.0, 2.0, 2.0]) / 3.0
    motions = [RelativeMotion.identity(0)]
    for k in range(1, 6):
        wobble = rotation_about_axis(rng.normal(size=3), rng.normal(scale=0.01))
        rot = wobble @ rotation_about_axis(axis, rng.uniform(0.2, 0.45))
        motions.append(RelativeMotion(rot, rng.normal(size=3), k))
    seq = MotionSequence(tuple(motions))
    est = estimate_fixed_direction(seq)
    best = float(np.sum(fixed_direction_residuals(seq, est.direction) ** 2))
    assert best > 0.0
    for _ in range(120):
        cand = est.direction + 1e-3 * rng.normal(size=3)
        cand /= np.linalg.norm(cand)
        cost = float(np.sum(fixed_direction_residuals(seq, cand) ** 2))
        assert cost >= best - 1e-15


def test_identity_rotations_are_ambiguous():
    motions = [RelativeMotion.identity(0)] + \
        [RelativeMotion(np.eye(3), [0.1 * k, 0.0, 0.0], k) for k in range(1, 4)]
    with pytest.raises(AmbiguousDirection):
        estimate_fixed_direction(MotionSequence(tuple(motions)))


def test_residual_helper_vanishes_on_the_hinge_axis():
    direction = np.array([0.0, 0.6, 0.8])
    seq = hinge_sequence(direction, [0.2, -0.3, 0.4])
    assert np.max(fixed_direction_residuals(seq, direction)) <= 1e-12
    assert np.min(fixed_direction_residuals(seq, [1.0, 0.0, 0.0])) > 1e-2


def test_too_few_frames_and_min_frames_override():
    direction = np.array([1.0, 0.0, 0.0])
    seq = hinge_sequence(direction, [0.3])
    with pytest.raises(TooFewFrames):
        estimate_fixed_direction(seq)
    est = estimate_fixed_direction(seq, EstimatorConfig(min_frames=1))
    assert direction_distance(est.direction, direction) <= 1e-9


def test_conditioning_margin_tracks_the_second_singular_value():
    # rotations about one axis keep the null space 1-D however the angles
    # vary: the margin stays positive and the condition number near 1
    direction = np.array([0.0, 0.0, 1.0])
    seq = hinge_sequence(direction, [0.4, 1e-4, 1e-4])
    est = estimate_fixed_direction(seq)
    assert est.conditioning.smallest_singular_value > 0.0
    assert est.conditioning.condition_number < 10.0
    assert direction_distance(est.direction, direction) <= 1e-9
