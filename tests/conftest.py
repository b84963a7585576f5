"""Print one PASS/FAIL line per acceptance criterion after every run.

The lines go through the terminal-summary hook, so they show up even when
pytest captures test output.
"""

import numpy as np
import pytest

from tacloc import MotionSequence, RelativeMotion

_ACCEPTANCE_RESULTS = {}


@pytest.fixture
def assert_checks_pass(monkeypatch):
    """check(make) runs make and asserts that every motion stack it hands to
    MotionSequence._of_stacks, which keeps them unchecked, holds int frame
    indices and motions that RelativeMotion takes as they are: each motion's
    own RelativeMotion raises nothing and keeps its rotation and translation
    bit for bit."""
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
            assert all(type(i) is int for i in indices)
            for rotation, translation, index in zip(rotations, translations, indices):
                checked = RelativeMotion(rotation, translation, index)
                assert np.array_equal(checked.rotation, rotation)
                assert np.array_equal(checked.translation, translation)
                assert checked.frame_index == index

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
