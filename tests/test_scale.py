"""Results commute with power-of-two scaling of every length.

Scaling a marker log or a scenario by 2**k is exact, and so is every length
computation in tacloc (motion._exponent), so generation, registration and
the estimators return the same bits for a unitless quantity and exactly
2**k times the scale-1 bits for a length, for every k that keeps the
coordinates normal doubles.
"""

import functools
import json
import warnings
from importlib import resources

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from tacloc import (ContactKind, MarkerFrame, MarkerLog, MotionSequence, MotionStep,
                    RelativeMotion, estimate_fixed_direction, estimate_fixed_point,
                    estimate_line_contact, generate, propagate_plane, read_scenario,
                    register_sequence)
from tacloc.cli import main
from tacloc.motion import _norm, _row_norms

BUNDLED = ["box_on_edge", "box_on_edge_noisy", "hinge_direction", "hinge_direction_noisy",
           "pivot_point", "pivot_point_noisy"]
NOISY = [name for name in BUNDLED if name.endswith("_noisy")]


def _scenario_path(name):
    return resources.files("tacloc") / "scenarios" / f"{name}.json"


@functools.lru_cache(maxsize=None)
def _bundled(name):
    """The scenario's marker log and the estimator of its contact kind."""
    config = read_scenario(_scenario_path(name))
    estimator = {ContactKind.FIXED_POINT: estimate_fixed_point,
                 ContactKind.FIXED_DIRECTION: estimate_fixed_direction,
                 ContactKind.LINE: functools.partial(estimate_line_contact,
                                                     n0=getattr(config.contact,
                                                                "surface_normal", None))}
    return generate(config)[0], estimator[config.contact.kind]


def _run(name, k):
    log, estimator = _bundled(name)
    scaled = MarkerLog([MarkerFrame(np.ldexp(f.positions, k), f.frame_index) for f in log],
                       units=log.units)
    motions = register_sequence(scaled)
    return motions, estimator(motions)


@functools.lru_cache(maxsize=None)
def _at_scale_one(name):
    return _run(name, 0)


def _equal(got, want, k=0):
    """got equals want * 2**k bit for bit (None equals None)."""
    if want is None:
        return got is None
    return np.array_equal(got, np.ldexp(want, k))


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(BUNDLED), st.integers(-900, 900))
def test_results_commute_with_power_of_two_scaling(name, k):
    motions, estimate = _run(name, k)
    plain_motions, plain = _at_scale_one(name)
    assert _equal(motions.rotations, plain_motions.rotations)
    assert _equal(motions.translations, plain_motions.translations, k)
    assert _equal(motions.rms_errors, plain_motions.rms_errors, k)
    # a fixed direction's residuals are unitless; a point's and a line's are lengths
    length = 0 if estimate.kind is ContactKind.FIXED_DIRECTION else k
    assert estimate.conditioning == plain.conditioning
    assert _equal(estimate.direction, plain.direction)
    assert _equal(estimate.point, plain.point, k)
    assert _equal(estimate.per_frame_residuals, plain.per_frame_residuals, length)
    assert _equal(estimate.residual_rms, plain.residual_rms, length)


@pytest.mark.parametrize("k", [-900, -600, 400, 600, 900])
@pytest.mark.parametrize("name", NOISY)
def test_registration_commutes_at_the_scales_that_used_to_break_it(name, k):
    motions, _ = _run(name, k)
    plain, _ = _at_scale_one(name)
    assert _equal(motions.rotations, plain.rotations)
    assert _equal(motions.translations, plain.translations, k)


def _scaled_scenario(tmp_path, name, k):
    """The bundled scenario with every length multiplied by 2**k."""
    doc = json.loads(_scenario_path(name).read_text())
    grid, contact = doc["grid"], doc["contact"]
    grid["pitch"] = np.ldexp(grid["pitch"], k)
    grid["dome_height"] = np.ldexp(grid["dome_height"], k)
    grid["pose"]["translation"] = np.ldexp(grid["pose"]["translation"], k).tolist()
    if "point" in contact:
        contact["point"] = np.ldexp(contact["point"], k).tolist()
    for step in doc["schedule"]:
        step["slide"] = np.ldexp(step["slide"], k)
        if step["translation"] is not None:
            step["translation"] = np.ldexp(step["translation"], k).tolist()
    doc["noise_sigma"] = np.ldexp(doc["noise_sigma"], k).tolist()
    if "point_distance" in doc["tolerances"]:
        doc["tolerances"]["point_distance"] = np.ldexp(doc["tolerances"]["point_distance"], k)
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(doc))
    return scenario


@pytest.mark.parametrize("k", [-1000, -560, 505])
@pytest.mark.parametrize("name", NOISY)
def test_a_scenario_scaled_by_a_power_of_two_generates_the_scaled_log(tmp_path, name, k):
    log, truth = generate(read_scenario(_scaled_scenario(tmp_path, name, k)))
    plain_log, plain_truth = generate(read_scenario(_scenario_path(name)))
    for frame, plain in zip(log, plain_log, strict=True):
        assert _equal(frame.positions, plain.positions, k)
    assert _equal(truth.motions.rotations, plain_truth.motions.rotations)
    assert _equal(truth.motions.translations, plain_truth.motions.translations, k)


@pytest.mark.parametrize("k", [-900, -560, 500, 515])
@pytest.mark.parametrize("name", NOISY)
def test_roundtrip_passes_at_any_power_of_two_scale_of_every_length(tmp_path, capsys, name, k):
    scenario = _scaled_scenario(tmp_path, name, k)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["roundtrip", "--scenario", str(scenario)])
    out = capsys.readouterr()
    if k == 515:  # the grid's extent squared overflows
        assert code == 3 and "grid extent" in out.err
    else:
        assert code == 0 and out.out.endswith(f"roundtrip {name}: PASS\n")


def test_a_vector_whose_norm_is_above_every_double_still_gives_its_direction():
    vector = [1.7e308] * 3
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        np.testing.assert_allclose(MotionStep(angle=0.3, axis=vector).axis,
                                   np.full(3, 3**-0.5), rtol=0.0, atol=4 * np.finfo(float).eps)
        with pytest.raises(ValueError, match="n0 must be a unit vector, got norm inf"):
            propagate_plane(vector, MotionSequence((RelativeMotion.identity(),)))


def _norm_cases():
    tiny, huge = 2.0**-1074, np.finfo(float).max
    extremes = [[0.0, 0.0, 0.0], [tiny, 0.0, 0.0], [tiny, -tiny, tiny], [2.0**-1022, 0.0, -tiny],
                [2.0**1023, 0.0, 0.0], [2.0**1023, -2.0**1023, 2.0**1023], [huge, 0.0, tiny],
                [huge, huge, huge], [1.7e308, 1.7e308, 0.0], [1.0, 2.0, 2.0]]
    rng = np.random.default_rng(12)
    rows = rng.uniform(-1.0, 1.0, (400, 3)) * 2.0 ** rng.integers(-20, 20, (400, 3))
    return [np.array(v) for v in extremes] + list(np.ldexp(rows, rng.integers(-1050, 1000, 400)[:, None]))


def test_a_single_norm_is_its_row_norm_bit_for_bit():
    for vector in _norm_cases():
        got, want = _norm(vector), _row_norms(vector[None])[0]
        assert type(got) is float and got == want, vector
