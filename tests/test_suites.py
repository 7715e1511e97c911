"""The verification suites behind ``pk verify``."""

import pytest

from periodkit.suites import SUITES, PropertyResult, run_suites


def test_a_property_without_instances_does_not_hold():
    assert PropertyResult("p", 1, 0).ok
    assert not PropertyResult("p", 1, 1).ok
    assert not PropertyResult("p", 0, 0).ok
    assert not PropertyResult("p", -1, 0).ok


@pytest.mark.parametrize("trials", [0, -1])
@pytest.mark.parametrize("suite", SUITES)
def test_a_suite_without_trials_fails(suite, trials):
    summary = run_suites(suite, seed=1, trials=trials)
    assert summary["ok"] is False
    assert any(p["instances"] == trials for p in summary["properties"])
