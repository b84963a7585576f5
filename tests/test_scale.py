"""Results commute with power-of-two scaling of every length inside the magnitude range.

The largest |entry| of every length and direction that enters tacloc is 0 or
lies in [2**-L, 2**L] (motion.L). Scaling a marker log or a scenario by 2**k
is exact, and inside that range so is every length computation in tacloc, so
generation, registration and the estimators return the same bits for a
unitless quantity and exactly 2**k times the scale-1 bits for a length. Each
bundled log and scenario has its own range of k, found here from its values
alone; one step past either end, a scenario is an invalid input file that
names the value.
"""

import functools
import json
from importlib import resources

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import example, given, settings

from tacloc import (ContactKind, MarkerFrame, MarkerLog, MotionSequence, MotionStep, ParseError,
                    RelativeMotion, estimate_fixed_direction, estimate_fixed_point,
                    estimate_line_contact, generate, propagate_plane, read_marker_log,
                    read_motion_sequence, read_report, read_scenario, read_truth,
                    register_sequence, rotation_about_axis, write_marker_log)
from tacloc.cli import main
from tacloc.estimators import fixed_point_residuals, line_contact_residuals
from tacloc.motion import TRANSLATION_TOP, L, _norm, _row_norms

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


def _admitted_ks(tops):
    """(lowest, highest) k for which every nonzero largest |entry| in tops, times 2**k, lies in
    [2**-L, 2**L]: worked out from the range's definition, not from tacloc's check."""
    tops = np.array([top for top in tops if top])
    ks = [k for k in range(-2 * L, 2 * L)
          if 2.0**-L <= np.ldexp(tops, k).min() and np.ldexp(tops, k).max() <= 2.0**L]
    assert ks == list(range(ks[0], ks[-1] + 1))
    return ks[0], ks[-1]


def _log_ks(name):
    """The ks that keep every frame of the bundled log in range."""
    return _admitted_ks(np.abs(_bundled(name)[0].positions).max(axis=(1, 2)))


# each length of a scenario file, by its path, and the label its error names it by
def _lengths(doc):
    yield ["grid", "pitch"], "grid: pitch"
    yield ["grid", "dome_height"], "grid: dome_height"
    yield ["grid", "pose", "translation"], "grid: pose translation"
    if "point" in doc["contact"]:
        yield ["contact", "point"], "contact: point"
    for k, step in enumerate(doc["schedule"]):
        yield ["schedule", k, "slide"], f"schedule step {k}: slide"
        if step["translation"] is not None:
            yield ["schedule", k, "translation"], f"schedule step {k}: translation"
    yield ["noise_sigma"], "scenario: noise_sigma"


def _get(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _scenario_ks(name):
    """The ks that keep every length of the bundled scenario and every frame of its log in
    range, and the labels of the values that leave the range first below and above."""
    doc = json.loads(_scenario_path(name).read_text())
    tops = {label: np.abs(_get(doc, path)).max() for path, label in _lengths(doc)}
    tops.update((f"frame {k} positions", top) for k, top in
                enumerate(np.abs(_bundled(name)[0].positions).max(axis=(1, 2))))
    ranges = {label: _admitted_ks([top]) for label, top in tops.items() if top}
    low, high = max(lo for lo, _ in ranges.values()), min(hi for _, hi in ranges.values())
    return (low, high, {label for label, (lo, _) in ranges.items() if lo == low},
            {label for label, (_, hi) in ranges.items() if hi == high})


LOG_KS = {name: _log_ks(name) for name in BUNDLED}
SCENARIO_KS = {name: _scenario_ks(name) for name in BUNDLED}


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


def _at_both_ends(test):
    """test with an example at each end of every bundled log's range of k."""
    for name, ends in LOG_KS.items():
        for k in ends:
            test = example((name, k))(test)
    return test


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(BUNDLED).flatmap(
    lambda name: st.tuples(st.just(name), st.integers(*LOG_KS[name]))))
@_at_both_ends
def test_results_commute_with_power_of_two_scaling(case):
    name, k = case
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


@pytest.mark.parametrize("end", ["low", "high"])
@pytest.mark.parametrize("name", BUNDLED)
def test_a_log_one_step_past_its_range_is_not_read(tmp_path, name, end):
    log, _ = _bundled(name)
    low, high = LOG_KS[name]
    k = low - 1 if end == "low" else high + 1
    tops = np.ldexp(np.abs(log.positions).max(axis=(1, 2)), k)
    frame = int(np.flatnonzero((tops < 2.0**-L) | (tops > 2.0**L))[0])
    scaled = MarkerLog._of_stack(np.ldexp(log.positions, k))  # unchecked, as a file may hold
    with pytest.raises(ValueError, match=r"^positions: largest \|entry\| "):
        MarkerFrame(scaled.positions[frame])
    path = tmp_path / "log.json"
    write_marker_log(path, scaled)
    with pytest.raises(ParseError, match=rf"^frame {frame} 'positions': largest \|entry\| "):
        read_marker_log(path)


def _scaled_scenario(tmp_path, name, k):
    """The bundled scenario with every length multiplied by 2**k."""
    doc = json.loads(_scenario_path(name).read_text())
    for path, _ in list(_lengths(doc)):
        container = _get(doc, path[:-1])
        container[path[-1]] = np.ldexp(container[path[-1]], k).tolist()
    if "point_distance" in doc["tolerances"]:
        doc["tolerances"]["point_distance"] = np.ldexp(doc["tolerances"]["point_distance"], k)
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(doc))
    return scenario


def _end(name, end):
    low, high, _, _ = SCENARIO_KS[name]
    return low if end == "low" else high


@pytest.mark.parametrize("end", ["low", "high"])
@pytest.mark.parametrize("name", NOISY)
def test_a_scenario_scaled_by_a_power_of_two_generates_the_scaled_log(tmp_path, name, end):
    k = _end(name, end)
    log, truth = generate(read_scenario(_scaled_scenario(tmp_path, name, k)))
    plain_log, plain_truth = generate(read_scenario(_scenario_path(name)))
    for frame, plain in zip(log, plain_log, strict=True):
        assert _equal(frame.positions, plain.positions, k)
    assert _equal(truth.motions.rotations, plain_truth.motions.rotations)
    assert _equal(truth.motions.translations, plain_truth.motions.translations, k)


@pytest.mark.parametrize("end", ["low", "high"])
@pytest.mark.parametrize("name", NOISY)
def test_roundtrip_passes_and_its_files_read_back_at_both_ends_of_the_range(tmp_path, capsys,
                                                                             name, end):
    scenario = _scaled_scenario(tmp_path, name, _end(name, end))
    work = tmp_path / "work"
    assert main(["roundtrip", "--scenario", str(scenario), "--workdir", str(work)]) == 0
    assert capsys.readouterr().out.endswith(f"roundtrip {name}: PASS\n")
    # the measured files may hold values out of the range: their readers take any finite one
    read_marker_log(work / "markers.json")
    read_motion_sequence(work / "motions.json")
    read_truth(work / "truth.json")
    read_report(work / "report.json")


@pytest.mark.parametrize("end", ["low", "high"])
@pytest.mark.parametrize("name", BUNDLED)
def test_stacks_made_at_both_ends_of_the_range_pass_the_motion_check(tmp_path, name, end,
                                                                     assert_checks_pass):
    config = read_scenario(_scaled_scenario(tmp_path, name, _end(name, end)))
    assert_checks_pass(lambda: generate(config))
    log, _ = generate(config)
    assert_checks_pass(lambda: register_sequence(log))


def _motions_up_to(top):
    """Five moving frames about different axes, whose translations' largest |entry| is top."""
    axes = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (0, 1, 1)]
    rotations = np.array([np.eye(3)] + [rotation_about_axis(a, 0.3 * k)
                                        for k, a in enumerate(axes, start=1)])
    translations = np.array([[0.0, 0.0, 0.0]] + [[k, -2.0 * k, 0.5] for k in range(1, 6)])
    translations *= top / 10.0
    translations[5, 1] = -top  # exactly, past any rounding of the product
    return MotionSequence._of_stacks(rotations, translations, range(6))


ESTIMATORS = [estimate_fixed_point, estimate_fixed_direction,
              lambda motions: estimate_line_contact(motions, (0, 0, 1)),
              lambda motions: fixed_point_residuals(motions, (1, 2, 3))]


@pytest.mark.parametrize("estimator", ESTIMATORS, ids=["point", "direction", "line", "residuals"])
def test_translations_up_to_their_bound_are_estimated_without_overflow(estimator):
    # warnings are errors here: an overflowing sum of squares would fail the estimate
    motions = _motions_up_to(TRANSLATION_TOP)
    assert np.abs(motions.translations).max() == TRANSLATION_TOP == 2.0 ** (L + 3)
    estimator(motions)
    for top in (4e200, np.nextafter(TRANSLATION_TOP, np.inf)):
        with pytest.raises(ValueError, match=r"^translations: largest \|entry\| [0-9.e+]+ is "
                                             rf"beyond 2\*\*{L + 3}$"):
            estimator(_motions_up_to(top))


def test_a_sequence_beyond_the_bound_still_reports_its_rotation_angle():
    assert _motions_up_to(4e200).max_rotation_angle() == _motions_up_to(1.0).max_rotation_angle()


@pytest.mark.parametrize("residuals", [
    fixed_point_residuals, lambda motions, point: line_contact_residuals(motions, (0, 0, 1), point)],
    ids=["point", "line"])
def test_a_residual_point_out_of_range_is_named(residuals):
    motions = _motions_up_to(1.0)
    for point in ((0.0, 2.0**L, 0.0), (0.0, -(2.0**-L), 0.0), (0.0, 0.0, 0.0)):
        assert np.isfinite(residuals(motions, point)).all()
    for point in ((0.0, 1e300, 0.0), (0.0, 1e-300, 0.0)):
        with pytest.raises(ValueError, match=r"^point: largest \|entry\| 1e[+-]300 is neither 0 "):
            residuals(motions, point)


def test_a_point_estimate_below_the_range_still_gets_its_residuals():
    # at the small end of pivot_point's log range, the measured pivot lies just below 2**-L:
    # it is no length that enters, so the estimator's own residuals take it
    low, _ = LOG_KS["pivot_point"]
    motions, estimate = _run("pivot_point", low)
    assert 0.0 < np.abs(estimate.point).max() < 2.0**-L
    assert _equal(estimate.per_frame_residuals, _at_scale_one("pivot_point")[1].per_frame_residuals,
                  low)
    with pytest.raises(ValueError, match=r"^point: largest \|entry\| "):
        fixed_point_residuals(motions, estimate.point)


@pytest.mark.parametrize("end", ["low", "high"])
@pytest.mark.parametrize("name", BUNDLED)
def test_roundtrip_one_step_past_the_range_exits_3_and_names_the_value(tmp_path, capsys,
                                                                      name, end):
    low, high, first_below, first_above = SCENARIO_KS[name]
    k, labels = (low - 1, first_below) if end == "low" else (high + 1, first_above)
    scenario = _scaled_scenario(tmp_path, name, k)
    assert main(["roundtrip", "--scenario", str(scenario),
                 "--workdir", str(tmp_path / "work")]) == 3
    err = capsys.readouterr().err
    named = err.removeprefix("tacloc: invalid input: ").split(": largest |entry| ")[0]
    assert named in labels, err


def test_a_vector_at_either_end_of_the_range_gives_its_direction():
    for vector in ([2.0**L] * 3, [2.0**-L] * 3):
        np.testing.assert_allclose(MotionStep(angle=0.3, axis=vector).axis,
                                   np.full(3, 3**-0.5), rtol=0.0, atol=4 * np.finfo(float).eps)
    with pytest.raises(ValueError, match=r"^n0: largest \|entry\| 1.7e\+308 is neither 0"):
        propagate_plane([1.7e308] * 3, MotionSequence((RelativeMotion.identity(),)))


def _norm_cases():
    top, bottom = 2.0**L, 2.0**-L
    extremes = [[0.0, 0.0, 0.0], [bottom, 0.0, 0.0], [bottom, -bottom, bottom],
                [bottom, 0.0, -5e-324], [top, 0.0, 0.0], [top, -top, top], [top, 0.0, 5e-324],
                [top, 1e-17, 0.0], [1.0, 2.0, 2.0]]
    # rows whose largest |entry| is at most 2**L, so no square overflows
    rng = np.random.default_rng(12)
    rows = rng.uniform(-1.0, 1.0, (400, 3)) * 2.0 ** rng.integers(-20, 1, (400, 3))
    return [np.array(v) for v in extremes] + list(np.ldexp(rows, rng.integers(-L, L, 400)[:, None]))


def test_a_single_norm_is_its_row_norm_bit_for_bit():
    for vector in _norm_cases():
        got, want = _norm(vector), _row_norms(vector[None])[0]
        assert type(got) is float and got == want, vector
