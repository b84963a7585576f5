"""Marker registration against the generating motion (the oracle is the generator)."""

import copy
import gc
import pickle
import sys
import threading
import weakref
from importlib import resources

import numpy as np
import pytest

from tacloc import (DegenerateMarkers, MarkerFrame, MarkerLog, MismatchedFrames,
                    MotionSequence, RelativeMotion, TooFewMarkers, generate, read_marker_log,
                    read_scenario, register, register_sequence, registration,
                    rotation_about_axis, write_marker_log)
from tacloc.simulate import MarkerGrid

BUNDLED = sorted(p.name.removesuffix(".json")
                 for p in (resources.files("tacloc") / "scenarios").iterdir()
                 if p.name.endswith(".json"))


def bundled_log(name):
    return generate(read_scenario(resources.files("tacloc") / "scenarios" / f"{name}.json"))[0]


def random_motion(rng, frame_index=1):
    rot = rotation_about_axis(rng.normal(size=3), rng.uniform(-np.pi, np.pi))
    return RelativeMotion(rot, rng.normal(scale=5.0, size=3), frame_index)


def grid_markers():
    return MarkerGrid().reference_positions()


def test_exact_recovery_of_random_motions():
    rng = np.random.default_rng(10)
    ref = MarkerFrame(grid_markers(), 0)
    for _ in range(50):
        truth = random_motion(rng)
        cur = MarkerFrame(truth.transform(ref.positions), 1)
        result = register(ref, cur)
        assert np.linalg.norm(result.motion.rotation - truth.rotation) <= 1e-9
        scale = 1.0 + np.linalg.norm(truth.translation)
        assert np.linalg.norm(result.motion.translation - truth.translation) <= 1e-9 * scale
        assert result.rms_error <= 1e-9
        assert result.marker_covariance_rank == 3


def test_identity_and_pure_translation_closed_forms():
    pts = grid_markers()
    same = register(MarkerFrame(pts, 0), MarkerFrame(pts, 1))
    assert same.motion.is_identity(tol=1e-12)
    assert same.rms_error <= 1e-12

    d = np.array([0.5, -1.0, 2.0])
    shifted = register(MarkerFrame(pts, 0), MarkerFrame(pts + d, 1))
    np.testing.assert_allclose(shifted.motion.rotation, np.eye(3), atol=1e-12)
    np.testing.assert_allclose(shifted.motion.translation, d, atol=1e-12)


def test_planar_markers_still_register():
    # dome height 0 squashes the grid flat: covariance rank 2, rotation still unique
    flat = MarkerGrid(dome_height=0.0).reference_positions()
    assert np.allclose(flat[:, 2], 0.0)
    rng = np.random.default_rng(11)
    ref = MarkerFrame(flat, 0)
    for _ in range(20):
        truth = random_motion(rng)
        result = register(ref, MarkerFrame(truth.transform(flat), 1))
        assert result.marker_covariance_rank == 2
        assert np.linalg.norm(result.motion.rotation - truth.rotation) <= 1e-9
        # a proper rotation must come back even though the best orthogonal
        # fit of a plane could be a reflection
        assert np.linalg.det(result.motion.rotation) == pytest.approx(1.0, abs=1e-12)


def test_noise_robustness_at_one_percent_of_pitch():
    rng = np.random.default_rng(12)
    ref_positions = grid_markers()
    ref = MarkerFrame(ref_positions, 0)
    rot_errs, trans_errs = [], []
    for _ in range(100):
        truth = random_motion(rng)
        noisy = truth.transform(ref_positions) + rng.normal(scale=0.01, size=ref_positions.shape)
        result = register(ref, MarkerFrame(noisy, 1))
        cos = (np.trace(result.motion.rotation @ truth.rotation.T) - 1.0) / 2.0
        rot_errs.append(np.arccos(np.clip(cos, -1.0, 1.0)))
        trans_errs.append(np.linalg.norm(result.motion.translation - truth.translation))
    # a 200-seed sweep at this noise level gave medians 0.024 deg / 0.0014
    # (maxima 0.062 deg / 0.0034); thresholds sit ~4x above the maxima
    assert np.median(rot_errs) <= np.deg2rad(0.25)
    assert np.median(trans_errs) <= 0.02


def test_left_invariance_under_rigid_change_of_world_frame():
    # moving the whole scene by G turns the recovered motion M into G.M.G^-1
    from tacloc import compose, inverse

    rng = np.random.default_rng(15)
    ref_positions = grid_markers()
    for _ in range(20):
        truth = random_motion(rng)
        g = random_motion(rng)
        moved_ref = MarkerFrame(g.transform(ref_positions), 0)
        moved_cur = MarkerFrame(g.transform(truth.transform(ref_positions)), 1)
        got = register(moved_ref, moved_cur).motion
        want = compose(compose(g, truth), inverse(g))
        assert np.linalg.norm(got.rotation - want.rotation) <= 1e-9
        scale = 1.0 + np.linalg.norm(want.translation)
        assert np.linalg.norm(got.translation - want.translation) <= 1e-9 * scale


def test_mirrored_frame_still_yields_a_proper_rotation():
    # index-wise mirroring has a reflection as its best orthogonal fit; the
    # registration must refuse it, return det +1, and eat the misfit as rms
    rng = np.random.default_rng(18)
    cloud = rng.normal(size=(15, 3))  # strongly 3-D, unlike the near-flat grid
    mirrored = cloud * np.array([-1.0, 1.0, 1.0])
    result = register(MarkerFrame(cloud, 0), MarkerFrame(mirrored, 1))
    assert np.linalg.det(result.motion.rotation) == pytest.approx(1.0, abs=1e-12)
    assert result.rms_error > 0.1

    # the near-planar grid version: the misfit is small (the dome is shallow)
    # but must remain strictly positive, and the rotation proper
    pts = grid_markers()
    flat_result = register(MarkerFrame(pts, 0), MarkerFrame(pts * [-1.0, 1.0, 1.0], 1))
    assert np.linalg.det(flat_result.motion.rotation) == pytest.approx(1.0, abs=1e-12)
    assert flat_result.rms_error > 0.01


def test_rms_error_grows_with_noise_amplitude():
    # common random numbers across levels so the mean curve is strictly ordered
    rng = np.random.default_rng(16)
    ref_positions = grid_markers()
    ref = MarkerFrame(ref_positions, 0)
    levels = [0.0, 0.005, 0.01, 0.02, 0.05]
    trials = [(random_motion(rng), rng.normal(size=ref_positions.shape))
              for _ in range(100)]
    means = []
    for sigma in levels:
        errs = [register(ref, MarkerFrame(truth.transform(ref_positions) + sigma * unit, 1)).rms_error
                for truth, unit in trials]
        means.append(np.mean(errs))
    assert all(lo < hi for lo, hi in zip(means, means[1:]))


def test_minimum_three_markers():
    rng = np.random.default_rng(13)
    pts = rng.normal(size=(3, 3))
    truth = random_motion(rng)
    result = register(MarkerFrame(pts, 0), MarkerFrame(truth.transform(pts), 1))
    assert np.linalg.norm(result.motion.rotation - truth.rotation) <= 1e-9

    with pytest.raises(TooFewMarkers):
        register(MarkerFrame(pts[:2], 0), MarkerFrame(pts[:2], 1))


def test_mismatched_marker_counts():
    pts = grid_markers()
    with pytest.raises(MismatchedFrames) as excinfo:
        register(MarkerFrame(pts, 0), MarkerFrame(pts[:-1], 4))
    assert excinfo.value.frame_index == 4


def test_collinear_markers_are_degenerate():
    line = np.outer(np.linspace(0.0, 1.0, 12), np.array([1.0, 2.0, 0.5]))
    with pytest.raises(DegenerateMarkers) as excinfo:
        register(MarkerFrame(line, 0), MarkerFrame(line + [0.0, 0.0, 1.0], 3))
    assert excinfo.value.frame_index == 3


def test_register_sequence_of_identical_frames_is_all_identities():
    pts = grid_markers()
    motions = register_sequence([MarkerFrame(pts, 0), MarkerFrame(pts, 1)])
    assert all(m.is_identity(tol=1e-12) for m in motions)


def test_register_sequence_recovers_every_frame():
    rng = np.random.default_rng(14)
    ref_positions = grid_markers()
    truths = [RelativeMotion.identity(0)] + [random_motion(rng, k) for k in range(1, 6)]
    frames = [MarkerFrame(m.transform(ref_positions), m.frame_index) for m in truths]
    motions = register_sequence(frames)
    assert isinstance(motions, MotionSequence)
    assert [m.frame_index for m in motions] == [0, 1, 2, 3, 4, 5]
    assert motions[0].is_identity()
    for got, want in zip(motions, truths):
        assert np.linalg.norm(got.rotation - want.rotation) <= 1e-9

    with pytest.raises(ValueError):
        register_sequence([])


@pytest.mark.parametrize("positions", [grid_markers(), np.zeros((2, 3))])
def test_register_sequence_of_one_frame_is_the_identity_only(positions):
    # no moving frame: nothing is registered, so even a 2-marker frame passes
    motions = register_sequence([MarkerFrame(positions, 0)])
    assert len(motions) == 1 and motions.rms_errors == (0.0,)
    assert motions[0].frame_index == 0 and motions[0].is_identity(tol=0.0)


def test_register_sequence_takes_any_iterable_of_frames():
    rng = np.random.default_rng(15)
    truths = [RelativeMotion.identity(0)] + [random_motion(rng, k) for k in range(1, 4)]
    frames = [MarkerFrame(m.transform(grid_markers()), m.frame_index) for m in truths]
    from_list = register_sequence(frames)
    from_generator = register_sequence(f for f in frames)
    assert from_generator.rms_errors == from_list.rms_errors
    assert np.array_equal(from_generator.rotations, from_list.rotations)
    assert np.array_equal(from_generator.translations, from_list.translations)
    with pytest.raises(ValueError):
        register_sequence(iter([]))


def test_register_sequence_of_a_marker_log_keeps_its_units(tmp_path):
    rng = np.random.default_rng(16)
    truths = [RelativeMotion.identity(0)] + [random_motion(rng, k) for k in range(1, 4)]
    frames = [MarkerFrame(m.transform(grid_markers()), m.frame_index) for m in truths]
    path = tmp_path / "log.json"
    write_marker_log(path, MarkerLog(frames, units="m"))
    log = read_marker_log(path)
    in_metres = register_sequence(log)
    assert in_metres.units == "m"
    # any other iterable of frames has no units of its own
    in_default = register_sequence(list(log))
    assert in_default.units == register_sequence(log.frames).units == "mm"
    assert in_default.rms_errors == in_metres.rms_errors
    assert np.array_equal(in_default.rotations, in_metres.rotations)
    assert np.array_equal(in_default.translations, in_metres.translations)


# ---------------------------------------------------------------------------
# A registered sequence's rms_errors are made on first read, from the positions it keeps.


@pytest.mark.parametrize("name", BUNDLED)
@pytest.mark.parametrize("as_list", [False, True], ids=["log", "frames"])
def test_each_rms_error_read_later_is_its_single_fits_bit_for_bit(name, as_list):
    log = bundled_log(name)
    want = (0.0, *(register(log[0], frame).rms_error for frame in log[1:]))
    motions = register_sequence(list(log) if as_list else log)
    assert "rms_errors" not in vars(motions)
    gone = weakref.ref(log)
    del log
    gc.collect()
    assert gone() is None
    # a list of frames is stacked into a copy that only the sequence holds, until first read
    stack = weakref.ref(vars(motions)["_make_rms"].args[0])
    assert motions.rms_errors == want and all(type(e) is float for e in want)
    assert motions.rms_errors is motions.rms_errors
    assert "_make_rms" not in vars(motions)
    if as_list:
        assert stack() is None


@pytest.mark.parametrize("read_first", [False, True], ids=["unread", "read"])
def test_a_registered_sequence_pickles_and_copies(read_first):
    log = bundled_log("box_on_edge_noisy")
    want = register_sequence(log).rms_errors
    motions = register_sequence(log)
    if read_first:
        motions.rms_errors
    for copied in (pickle.loads(pickle.dumps(motions)), copy.deepcopy(motions)):
        assert copied.rms_errors == want
        assert np.array_equal(copied.rotations, motions.rotations)
        assert np.array_equal(copied.translations, motions.translations)
        assert copied.frame_indices == motions.frame_indices and copied.units == motions.units
    assert motions.rms_errors == want


def _read_at_once(motions) -> list:
    """motions.rms_errors as each of 8 threads read it, all let go at once: more threads than
    the cores, with a short switch interval, so first reads overlap."""
    read, start = [], threading.Barrier(8)
    workers = [threading.Thread(target=lambda: (start.wait(timeout=10),
                                                read.append(motions.rms_errors)))
               for _ in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=10)
            assert not worker.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert len(read) == 8
    return read


def test_threads_reading_a_fresh_sequence_get_one_tuple():
    log = bundled_log("pivot_point_noisy")
    want = register_sequence(log).rms_errors
    for _ in range(20):
        read = _read_at_once(register_sequence(log))
        assert read[0] == want and all(got is read[0] for got in read)
    # a read that began before another thread kept the errors returns the kept tuple
    motions = register_sequence(log)
    first = MotionSequence.rms_errors.func(motions)
    assert MotionSequence.rms_errors.func(motions) is first is motions.rms_errors


def test_threads_reading_a_fresh_sequence_make_its_errors_once(monkeypatch):
    # cached_property holds no lock since Python 3.12: without tacloc's, each thread made them
    calls, fit_rms = [], registration._fit_rms
    monkeypatch.setattr(registration, "_fit_rms", lambda *args: calls.append(1) or fit_rms(*args))
    log = bundled_log("pivot_point_noisy")
    log = MarkerLog._of_stack(np.tile(log.positions, (300, 1, 1)), log.units)  # 2100 frames
    for _ in range(5):
        calls.clear()
        read = _read_at_once(register_sequence(log))
        assert len(calls) == 1 and all(got is read[0] for got in read)
