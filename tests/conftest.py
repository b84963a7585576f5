"""Print one PASS/FAIL line per acceptance criterion after every run.

The lines go through the terminal-summary hook, so they show up even when
pytest captures test output.
"""

import numpy as np
import pytest

from tacloc import MotionSequence
from tacloc.motion import _first_bad_motion, _motion_stack

_ACCEPTANCE_RESULTS = {}


@pytest.fixture
def assert_checks_pass(monkeypatch):
    """check(make) runs make and asserts that every motion stack it hands to
    MotionSequence._of_stacks, which keeps them unchecked, passes _motion_stack,
    the check a motion file's stacks get: no bad motion, and the same
    rotations, translations and int frame indices back, bit for bit."""
    handed = []
    of_stacks = MotionSequence._of_stacks.__func__

    def spy(cls, rotations, translations, frame_indices, *args, **kwargs):
        handed.append((rotations, translations, frame_indices))
        return of_stacks(cls, rotations, translations, frame_indices, *args, **kwargs)

    def check(make):
        handed.clear()
        make()
        assert handed
        for rotations, translations, indices in handed:
            assert _first_bad_motion(rotations, translations, list(indices)) == -1
            checked_rotations, checked_translations, checked_indices = _motion_stack(
                rotations, translations, indices)
            assert np.array_equal(checked_rotations, rotations)
            assert np.array_equal(checked_translations, translations)
            assert list(indices) == checked_indices
            assert all(type(i) is int for i in indices)

    monkeypatch.setattr(MotionSequence, "_of_stacks", classmethod(spy))
    return check


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    if report.when != "call" or "test_acceptance" not in item.nodeid:
        return
    label = item.name.removeprefix("test_")
    _ACCEPTANCE_RESULTS[label] = report.outcome == "passed"


def pytest_terminal_summary(terminalreporter):
    if not _ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for label in sorted(_ACCEPTANCE_RESULTS):
        status = "PASS" if _ACCEPTANCE_RESULTS[label] else "FAIL"
        terminalreporter.write_line(f"acceptance {label}: {status}")
