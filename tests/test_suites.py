"""The verification suites behind ``pk verify``."""

from math import comb

import pytest

import periodkit.oracle as orc
from periodkit import suites
from periodkit.errors import SizeLimitError
from periodkit.sampling import random_pp_free_pair
from periodkit.suites import SUITES, PropertyResult, _run_property, _trial_rng, run_suites


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


@pytest.fixture
def run_calls(monkeypatch):
    """The (seed, name, trials) of every ``_run_property`` call; no check runs."""
    calls = []

    def spy(seed, name, trials, check):
        calls.append((seed, name, trials))
        return PropertyResult(name, trials, 0)

    monkeypatch.setattr(suites, "_run_property", spy)
    return calls


@pytest.mark.parametrize(
    "suite, max_rank, error",
    [("all", 4, SizeLimitError), ("all", 18, ValueError), ("bogus", None, ValueError)],
)
def test_a_configuration_error_runs_no_trial(run_calls, suite, max_rank, error):
    with pytest.raises(error):
        run_suites(suite, max_rank=max_rank)
    assert run_calls == []


def test_every_row_runs_once_through_run_property(run_calls):
    summary = run_suites("all", seed=5, trials=2, max_rank=2)
    assert [(5, p["name"], p["instances"]) for p in summary["properties"]] == run_calls


def test_identity_trial_t_checks_its_shape_from_the_trial_seed(monkeypatch):
    name = "deligne_period_determinant_identity"
    shapes = [(n, np_) for n in range(1, 4) for np_ in range(1, 4)]
    checked = []
    verify_proposition = orc.verify_proposition

    def spy(ctx):
        checked.append(ctx)
        return verify_proposition(ctx)

    monkeypatch.setattr(orc, "verify_proposition", spy)
    summary = run_suites("oracle", seed=42)
    assert summary["properties"][-1] == {"name": name, "instances": 900, "failures": 0}
    assert len(checked) == 900
    for t, ctx in enumerate(checked):
        pair = random_pp_free_pair(_trial_rng(42, name, t), 3, ranks=shapes[t // 100])
        assert (ctx.M, ctx.Mp) == pair, t
    tableaux = {(ctx.M.rank, ctx.Mp.rank, ctx.A.members, ctx.T.members) for ctx in checked}
    assert len(tableaux) == sum(comb(n + np_, n) for n, np_ in shapes) == 62
