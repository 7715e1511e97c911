"""The verification suites behind ``pk verify``."""

import pytest

from periodkit.suites import SUITES, PropertyResult, _run_property, run_suites


def test_a_property_without_instances_does_not_hold():
    assert PropertyResult("p", 1, 0).ok
    assert not PropertyResult("p", 1, 1).ok
    assert not PropertyResult("p", 0, 0).ok
    assert not PropertyResult("p", -1, 0).ok


def test_a_check_that_raises_is_an_error_not_a_failure():
    def check(rng, t):
        if t == 1:
            raise KeyError("sampler fault")
        return t != 2

    result = _run_property(1, "p", 3, check)
    assert (result.errors, result.failures, result.ok) == (1, 1, False)
    assert result.to_json()["errors"] == 1
    assert result.detail == "trial 1: KeyError: 'sampler fault'"

    raised = _run_property(1, "p", 1, lambda rng, t: {}["x"])
    assert (raised.errors, raised.failures, raised.ok) == (1, 0, False)

    failed = _run_property(1, "p", 3, lambda rng, t: t != 0)
    assert (failed.errors, failed.failures, failed.ok) == (0, 1, False)
    assert "errors" not in failed.to_json()
    assert failed.detail == "first failing trial: 0"


@pytest.mark.parametrize("trials", [0, -1])
@pytest.mark.parametrize("suite", SUITES)
def test_a_suite_without_trials_fails(suite, trials):
    summary = run_suites(suite, seed=1, trials=trials)
    assert summary["ok"] is False
    assert any(p["instances"] == trials for p in summary["properties"])
