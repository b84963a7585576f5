"""Scenario generation: determinism, truth invariance, noise, schedule checks."""

import numpy as np
import pytest

from tacloc import (EdgeContact, FixedDirectionContact, FixedPointContact,
                    InvalidSchedule, MarkerGrid, MarkerLog, MotionStep,
                    RelativeMotion, ScenarioConfig, constraint_residuals,
                    generate, rotation_about_axis)

PIVOT_STEPS = [MotionStep(angle=0.3, axis=(1, 0, 0)),
               MotionStep(angle=0.25, axis=(0, 1, 0)),
               MotionStep(angle=-0.2, axis=(0, 0, 1))]


def pivot_config(**overrides):
    kwargs = dict(contact=FixedPointContact((1.0, -2.0, 3.0)),
                  schedule=PIVOT_STEPS, seed=7)
    kwargs.update(overrides)
    return ScenarioConfig(**kwargs)


def test_grid_geometry():
    grid = MarkerGrid(rows=11, cols=11, pitch=1.0)
    pts = grid.reference_positions()
    assert pts.shape == (121, 3)
    # centered, pitch-spaced
    np.testing.assert_allclose(pts[:, :2].mean(axis=0), [0.0, 0.0], atol=1e-12)
    assert pts[:, 0].max() == pytest.approx(5.0)
    # the dome gives the cloud full rank (a flat grid would be rank 2)
    centered = pts - pts.mean(axis=0)
    assert np.linalg.matrix_rank(centered, tol=1e-9) == 3
    assert pts[:, 2].max() == pytest.approx(grid.dome_height)
    assert grid.extent == pytest.approx(10.0)


def test_grid_pose_is_applied():
    pose = RelativeMotion(rotation_about_axis((1, 0, 0), np.pi / 2), (0.0, 2.0, -1.0))
    posed = MarkerGrid(pose=pose).reference_positions()
    flat = MarkerGrid().reference_positions()
    np.testing.assert_allclose(posed, pose.transform(flat), atol=1e-12)


def test_grid_must_fit_in_an_array():
    # constructing a grid allocates nothing, so the bound is tested at its edge
    largest = np.iinfo(np.intp).max // (2 * 3 * 8)
    assert MarkerGrid(rows=largest, cols=2).rows == largest
    for rows in (largest + 1, 2**62, 10**400):
        with pytest.raises(ValueError, match="more markers than an array can hold"):
            MarkerGrid(rows=rows, cols=2)


@pytest.mark.parametrize("units", ["mm", "m"])
def test_generate_returns_the_scenarios_marker_log(units):
    log, truth = generate(pivot_config(units=units))
    assert isinstance(log, MarkerLog)
    assert log.units == truth.motions.units == units
    # the log is the sequence of its frames
    first, *rest = log
    assert first is log[0] is log.frames[0] and len(rest) == len(log) - 1 == 3
    assert log[1:] == log.frames[1:] and list(log) == list(log.frames)
    assert [f.frame_index for f in log] == [0, 1, 2, 3]


def test_identical_seeds_give_identical_frames():
    a, _ = generate(pivot_config(noise_sigma=0.02, seed=5))
    b, _ = generate(pivot_config(noise_sigma=0.02, seed=5))
    for fa, fb in zip(a, b):
        assert np.array_equal(fa.positions, fb.positions)
    c, _ = generate(pivot_config(noise_sigma=0.02, seed=6))
    assert not np.array_equal(a[1].positions, c[1].positions)


def test_truth_is_independent_of_noise_and_seed():
    _, t1 = generate(pivot_config(noise_sigma=0.0, seed=1))
    _, t2 = generate(pivot_config(noise_sigma=0.5, seed=99))
    for m1, m2 in zip(t1.motions, t2.motions):
        assert np.array_equal(m1.rotation, m2.rotation)
        assert np.array_equal(m1.translation, m2.translation)


def test_frame_zero_is_never_noisy():
    config = pivot_config(noise_sigma=0.1)
    frames, _ = generate(config)
    np.testing.assert_array_equal(frames[0].positions, config.grid.reference_positions())
    assert [f.frame_index for f in frames] == [0, 1, 2, 3]


def test_noiseless_frames_follow_truth_exactly():
    config = pivot_config()
    frames, truth = generate(config)
    reference = config.grid.reference_positions()
    for frame, motion in zip(frames, truth.motions):
        np.testing.assert_allclose(frame.positions, motion.transform(reference), atol=1e-12)


def test_noise_grows_with_sigma():
    # same seed: bigger sigma scales the same standard-normal draws, so the
    # per-frame deviation must grow strictly for every seed tried
    devs = {}
    for sigma in (0.01, 0.05):
        per_seed = []
        for seed in range(50):
            config = pivot_config(noise_sigma=sigma, seed=seed)
            frames, truth = generate(config)
            clean = truth.motions[1].transform(config.grid.reference_positions())
            per_seed.append(np.linalg.norm(frames[1].positions - clean))
        devs[sigma] = np.array(per_seed)
    assert np.all(devs[0.05] > devs[0.01])
    ratio = np.median(devs[0.05] / devs[0.01])
    assert ratio == pytest.approx(5.0, rel=1e-9)


def test_estimator_error_grows_with_noise_level():
    # end to end: generate -> register -> pivot estimate, sweeping sigma over
    # 0..5% of pitch with the same 50 seeds per level; the median pivot error
    # must climb with the noise (common draws keep the curve strictly ordered)
    from tacloc import estimate_fixed_point, register_sequence

    pivot = np.array([1.0, -2.0, 3.0])
    medians = []
    for sigma in (0.0, 0.005, 0.01, 0.02, 0.05):
        errs = []
        for seed in range(50):
            frames, _ = generate(pivot_config(noise_sigma=sigma, seed=seed))
            est = estimate_fixed_point(register_sequence(frames))
            errs.append(np.linalg.norm(est.point - pivot))
        medians.append(np.median(errs))
    assert all(lo < hi for lo, hi in zip(medians, medians[1:]))


def test_per_axis_sigma_shapes_the_noise():
    config = pivot_config(noise_sigma=(0.0, 0.0, 0.2), seed=3)
    frames, truth = generate(config)
    clean = truth.motions[1].transform(config.grid.reference_positions())
    delta = frames[1].positions - clean
    assert np.allclose(delta[:, :2], 0.0)
    assert np.std(delta[:, 2]) > 0.05


def test_constraint_residuals_are_tiny_for_valid_truth():
    for contact, steps in [
        (FixedPointContact((1.0, 2.0, 3.0)), PIVOT_STEPS),
        (FixedDirectionContact((1, 2, 2)),
         [MotionStep(angle=0.2, translation=(0.1, 0.0, 0.3)), MotionStep(angle=-0.3)]),
        (EdgeContact(direction=(1, 0, 0), point=(0, 2, -3), surface_normal=(0, 0, 1)),
         [MotionStep(angle=0.2, slide=0.4), MotionStep(angle=-0.1, slide=-0.2)]),
    ]:
        _, truth = generate(ScenarioConfig(contact=contact, schedule=steps, seed=0))
        residuals = constraint_residuals(truth)
        assert len(residuals) == len(truth.motions) - 1  # the moving frames only
        assert np.max(residuals) <= 1e-12


def test_constraint_violations_raise_invalid_schedule():
    # a pivot step carrying a translation that moves the pivot
    bad = [MotionStep(angle=0.3, axis=(1, 0, 0), translation=(0.5, 0.0, 0.0))] + PIVOT_STEPS[1:]
    with pytest.raises(InvalidSchedule):
        generate(pivot_config(schedule=bad))

    # slide is meaningless without an edge
    with pytest.raises(InvalidSchedule):
        generate(pivot_config(schedule=[MotionStep(angle=0.3, axis=(1, 0, 0), slide=0.1)]))

    # an edge-contact step may not pick its own rotation axis
    edge = EdgeContact(direction=(1, 0, 0), point=(0, 2, -3), surface_normal=(0, 0, 1))
    with pytest.raises(InvalidSchedule):
        generate(ScenarioConfig(contact=edge,
                                schedule=[MotionStep(angle=0.2, axis=(0, 1, 0))], seed=0))

    # a hinge step whose explicit axis breaks the fixed direction
    hinge = FixedDirectionContact((0, 0, 1))
    with pytest.raises(InvalidSchedule):
        generate(ScenarioConfig(contact=hinge,
                                schedule=[MotionStep(angle=0.2, axis=(1, 0, 0))], seed=0))


def test_schedule_validation():
    with pytest.raises(ValueError):
        pivot_config(schedule=())
    with pytest.raises(TypeError):
        pivot_config(schedule=[0.3])
    with pytest.raises(ValueError):
        pivot_config(noise_sigma=(-0.1, 0.0, 0.0))
    with pytest.raises(InvalidSchedule):
        # fixed-point steps need an axis
        generate(pivot_config(schedule=[MotionStep(angle=0.3)]))


def test_edge_contact_requires_perpendicular_normal():
    with pytest.raises(ValueError):
        EdgeContact(direction=(1, 0, 0), point=(0, 0, 0), surface_normal=(1, 0, 1))
    contact = EdgeContact(direction=(2, 0, 0), point=(1, 2, 3), surface_normal=(0, 0, 1))
    np.testing.assert_allclose(contact.direction, [1, 0, 0])  # normalized
    np.testing.assert_allclose(contact.canonical_point(), [0, 2, 3])
