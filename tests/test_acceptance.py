"""Acceptance suite: one test per release criterion.

Each test prints its own PASS line on success; the conftest summary hook
repeats one line per criterion at the end of the run either way. Criteria
and tolerances:

1. registration_exactness     — 100 random noiseless motions: R within 1e-9
                                (Frobenius), t within 1e-9 * (1 + |t|).
2. fixed_point_recovery       — 50 pivot scenarios, 5 frames, 10-25 deg:
                                noiseless error <= 1e-9; at 1%-of-pitch noise
                                median error <= 2% of the grid extent.
3. singularity_behavior       — identity-only sequences flag well_posed=False
                                and raise in strict mode; on the two-axis
                                reference family (theta about x, theta/2 about
                                y, -theta/2 about x) the condition number
                                decreases monotonically for theta = 1..30 deg.
4. line_contact_recovery      — bundled box-on-edge scenario: noiseless
                                direction and point-to-edge within 1e-9; at 1%
                                noise direction within 2 deg, point within 5%
                                of the grid extent.
5. direction_eigen_vs_grid    — closed-form edge direction equals a 1-deg
                                spherical grid search within the grid
                                resolution on 20 random instances.
6. cross_estimator_consistency — no-slip edge data: pivot + hinge estimators
                                rebuild the same edge as the line estimator
                                within 1e-6.
7. frame_covariance           — conjugating data by a rigid G maps every
                                estimate by exactly G within 1e-9.
8. cli_round_trip             — roundtrip exits 0 on all bundled scenarios;
                                marker-log write/read/write is byte-identical;
                                equal seeds give bitwise-equal logs.

Noise tolerances were frozen after 200-seed calibration sweeps; the sweep
maxima sit 2.5x or more below every threshold used here.
"""

from importlib import resources

import numpy as np
import pytest

from tacloc import (EstimatorConfig, IllConditioned, MarkerFrame, MarkerLog,
                    MotionSequence, MotionStep, RelativeMotion,
                    ScenarioConfig, FixedPointContact, MarkerGrid,
                    estimate_fixed_direction, estimate_fixed_point,
                    estimate_line_contact, generate, read_marker_log,
                    read_scenario, register, register_sequence,
                    rotation_about_axis, write_marker_log)
from tacloc.cli import main
from tacloc.motion import compose, inverse

GRID = MarkerGrid()  # the reference 11x11, pitch-1 sensor everywhere below
BUNDLED = ["box_on_edge", "box_on_edge_noisy", "pivot_point",
           "pivot_point_noisy", "hinge_direction", "hinge_direction_noisy"]


def scenario_path(name):
    return resources.files("tacloc") / "scenarios" / f"{name}.json"


def direction_distance(a, b):
    return min(np.linalg.norm(a - b), np.linalg.norm(a + b))


def point_to_line_distance(point, line_point, line_direction):
    offset = np.asarray(point) - line_point
    return np.linalg.norm(offset - (offset @ line_direction) * line_direction)


def random_unit(rng):
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


def test_1_registration_exactness():
    rng = np.random.default_rng(101)
    reference = MarkerFrame(GRID.reference_positions(), 0)
    for _ in range(100):
        rot = rotation_about_axis(rng.normal(size=3), rng.uniform(-np.pi, np.pi))
        truth = RelativeMotion(rot, rng.normal(scale=5.0, size=3), 1)
        moved = MarkerFrame(truth.transform(reference.positions), 1)
        got = register(reference, moved).motion
        assert np.linalg.norm(got.rotation - truth.rotation, "fro") <= 1e-9
        scale = 1.0 + np.linalg.norm(truth.translation)
        assert np.linalg.norm(got.translation - truth.translation) <= 1e-9 * scale
    print("acceptance 1 registration_exactness: PASS")


def _pivot_scenarios(rng, noise_sigma):
    for _ in range(50):
        pivot = rng.uniform(-5.0, 5.0, size=3)
        steps = tuple(MotionStep(angle=np.deg2rad(rng.uniform(10.0, 25.0)),
                                 axis=random_unit(rng)) for _ in range(5))
        yield pivot, ScenarioConfig(contact=FixedPointContact(pivot), grid=GRID,
                                    schedule=steps, noise_sigma=noise_sigma,
                                    seed=int(rng.integers(0, 2**31)))


def test_2_fixed_point_recovery():
    rng = np.random.default_rng(102)
    for pivot, config in _pivot_scenarios(rng, noise_sigma=0.0):
        frames, _ = generate(config)
        est = estimate_fixed_point(register_sequence(frames))
        assert np.linalg.norm(est.point - pivot) <= 1e-9

    noisy_errors = []
    for pivot, config in _pivot_scenarios(rng, noise_sigma=0.01 * GRID.pitch):
        frames, _ = generate(config)
        est = estimate_fixed_point(register_sequence(frames))
        noisy_errors.append(np.linalg.norm(est.point - pivot))
    assert np.median(noisy_errors) <= 0.02 * GRID.extent
    print("acceptance 2 fixed_point_recovery: PASS")


def test_3_singularity_behavior():
    # identity-only sequences: flagged, and strict mode refuses
    identity_seq = MotionSequence(tuple(RelativeMotion.identity(k) for k in range(4)))
    est = estimate_fixed_point(identity_seq)
    assert est.conditioning.well_posed is False
    with pytest.raises(IllConditioned):
        estimate_fixed_point(identity_seq, strict=True)

    # reference family: rotations about two axes with a 2:1 angle split keep
    # the system full rank while the condition number falls as theta grows
    pivot = np.array([1.5, -2.0, 4.0])
    conds = []
    for deg in range(1, 31):
        theta = np.deg2rad(deg)
        steps = (MotionStep(angle=theta, axis=(1, 0, 0)),
                 MotionStep(angle=theta / 2, axis=(0, 1, 0)),
                 MotionStep(angle=-theta / 2, axis=(1, 0, 0)))
        config = ScenarioConfig(contact=FixedPointContact(pivot), grid=GRID,
                                schedule=steps, seed=0)
        frames, _ = generate(config)
        est = estimate_fixed_point(register_sequence(frames))
        assert est.conditioning.max_rotation_angle == pytest.approx(theta, abs=1e-9)
        conds.append(est.conditioning.condition_number)
    diffs = np.diff(conds)
    assert np.all(diffs < 0.0), f"condition number not monotonically decreasing: {conds}"
    print("acceptance 3 singularity_behavior: PASS")


def test_4_line_contact_recovery():
    clean = read_scenario(scenario_path("box_on_edge"))
    frames, _ = generate(clean)
    est = estimate_line_contact(register_sequence(frames), clean.contact.surface_normal)
    assert direction_distance(est.direction, clean.contact.direction) <= 1e-9
    assert point_to_line_distance(est.point, clean.contact.point,
                                  clean.contact.direction) <= 1e-9

    noisy = read_scenario(scenario_path("box_on_edge_noisy"))
    assert np.all(noisy.noise_sigma == 0.01 * noisy.grid.pitch)
    frames, _ = generate(noisy)
    est = estimate_line_contact(register_sequence(frames), noisy.contact.surface_normal)
    angle = np.arccos(min(1.0, abs(float(est.direction @ noisy.contact.direction))))
    assert angle <= np.deg2rad(2.0)
    assert point_to_line_distance(est.point, noisy.contact.point,
                                  noisy.contact.direction) <= 0.05 * noisy.grid.extent
    print("acceptance 4 line_contact_recovery: PASS")


def test_5_direction_eigen_vs_grid():
    from tacloc import estimate_line_direction, propagate_plane

    thetas = np.deg2rad(np.arange(0.0, 91.0, 1.0))
    phis = np.deg2rad(np.arange(0.0, 360.0, 1.0))
    t, p = np.meshgrid(thetas, phis, indexing="ij")
    grid = np.column_stack([(np.sin(t) * np.cos(p)).ravel(),
                            (np.sin(t) * np.sin(p)).ravel(),
                            np.cos(t).ravel()])

    rng = np.random.default_rng(105)
    for _ in range(20):
        edge_dir = random_unit(rng)
        n0 = rng.normal(size=3)
        n0 -= (n0 @ edge_dir) * edge_dir
        n0 /= np.linalg.norm(n0)
        point = rng.normal(scale=3.0, size=3)
        motions = [RelativeMotion.identity(0)]
        for k in range(1, 5):
            # exploration-scale rotations: small ones leave a cost valley so
            # flat that a 1-degree grid cannot localize its own minimum
            angle = rng.uniform(0.35, 1.2) * rng.choice([-1.0, 1.0])
            about = RelativeMotion.about_line(edge_dir, angle, point, frame_index=k)
            motions.append(RelativeMotion(
                about.rotation, about.translation + rng.uniform(-0.5, 0.5) * edge_dir, k))
        seq = MotionSequence(tuple(motions))
        normals = propagate_plane(n0, seq)
        closed_form = estimate_line_direction(seq, n0)
        costs = np.sum((grid @ normals.T) ** 2, axis=1)
        brute = grid[np.argmin(costs)]
        agreement = np.arccos(min(1.0, abs(float(closed_form @ brute))))
        assert agreement <= np.deg2rad(1.0)
        # the closed form must never lose to any of the 32760 grid nodes
        assert float(np.sum((normals @ closed_form) ** 2)) <= costs.min() + 1e-12
    print("acceptance 5 direction_eigen_vs_grid: PASS")


def test_6_cross_estimator_consistency():
    rng = np.random.default_rng(106)
    for _ in range(10):
        edge_dir = random_unit(rng)
        n0 = rng.normal(size=3)
        n0 -= (n0 @ edge_dir) * edge_dir
        n0 /= np.linalg.norm(n0)
        point = rng.normal(scale=2.0, size=3)
        motions = [RelativeMotion.identity(0)]
        for k in range(1, 5):
            motions.append(RelativeMotion.about_line(
                edge_dir, rng.uniform(0.1, 0.4) * rng.choice([-1.0, 1.0]), point,
                frame_index=k))
        seq = MotionSequence(tuple(motions))

        line_est = estimate_line_contact(seq, n0)
        pivot_est = estimate_fixed_point(seq)    # minimum-norm point on the fixed line
        hinge_est = estimate_fixed_direction(seq)

        assert direction_distance(hinge_est.direction, line_est.direction) <= 1e-6
        assert np.linalg.norm(pivot_est.point - line_est.point) <= 1e-6
        assert point_to_line_distance(pivot_est.point, line_est.point,
                                      line_est.direction) <= 1e-6
    print("acceptance 6 cross_estimator_consistency: PASS")


def test_7_frame_covariance():
    rng = np.random.default_rng(107)
    g = RelativeMotion(rotation_about_axis(rng.normal(size=3), rng.uniform(0.2, 2.0)),
                       rng.normal(scale=4.0, size=3))

    def conjugate_frames(frames):
        return [MarkerFrame(g.transform(f.positions), f.frame_index) for f in frames]

    # pivot: estimate maps to g(pivot)
    pivot_cfg = read_scenario(scenario_path("pivot_point"))
    frames, _ = generate(pivot_cfg)
    base = estimate_fixed_point(register_sequence(frames))
    moved = estimate_fixed_point(register_sequence(conjugate_frames(frames)))
    assert np.linalg.norm(moved.point - g.transform(base.point)) <= 1e-9

    # hinge: direction maps through the rotation part (up to canonical sign)
    hinge_cfg = read_scenario(scenario_path("hinge_direction"))
    frames, _ = generate(hinge_cfg)
    base = estimate_fixed_direction(register_sequence(frames))
    moved = estimate_fixed_direction(register_sequence(conjugate_frames(frames)))
    assert direction_distance(moved.direction, g.rotation @ base.direction) <= 1e-9

    # edge: the estimated line maps as a set; compare canonical forms
    edge_cfg = read_scenario(scenario_path("box_on_edge"))
    frames, _ = generate(edge_cfg)
    n0 = edge_cfg.contact.surface_normal
    base = estimate_line_contact(register_sequence(frames), n0)
    moved = estimate_line_contact(register_sequence(conjugate_frames(frames)),
                                  g.rotation @ n0)
    mapped_dir = g.rotation @ base.direction
    mapped_point = g.transform(base.point)
    assert direction_distance(moved.direction, mapped_dir) <= 1e-9
    assert point_to_line_distance(moved.point, mapped_point, mapped_dir) <= 1e-9
    # and the canonical representative of the mapped line is the estimate
    canonical = mapped_point - (mapped_point @ moved.direction) * moved.direction
    assert np.linalg.norm(moved.point - canonical) <= 1e-9
    print("acceptance 7 frame_covariance: PASS")


def test_8_cli_round_trip(tmp_path):
    for name in BUNDLED:
        assert main(["roundtrip", "--scenario", str(scenario_path(name))]) == 0, name

    # write -> read -> write is byte-identical
    config = read_scenario(scenario_path("box_on_edge_noisy"))
    frames, _ = generate(config)
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    write_marker_log(p1, MarkerLog(tuple(frames), units=config.units))
    write_marker_log(p2, read_marker_log(p1))
    assert p1.read_bytes() == p2.read_bytes()

    # identical seeds, identical bytes
    out1, out2 = tmp_path / "s1.json", tmp_path / "s2.json"
    assert main(["simulate", "--scenario", str(scenario_path("pivot_point_noisy")),
                 "--out", str(out1)]) == 0
    assert main(["simulate", "--scenario", str(scenario_path("pivot_point_noisy")),
                 "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    print("acceptance 8 cli_round_trip: PASS")
