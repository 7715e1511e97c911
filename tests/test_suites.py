"""The verification suites behind ``pk verify``."""

from math import comb
from types import SimpleNamespace

import pytest

import periodkit.oracle as orc
from periodkit import suites
from periodkit.deligne import PairContext
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
    # Trial t draws its pair from its own sub-seed, and each (ranks, A, T)
    # is checked once, on the first trial that reaches it; all 900 count.
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
    first = {}
    for t in range(900):
        ranks = shapes[t // 100]
        pair = random_pp_free_pair(_trial_rng(42, name, t), 3, ranks=ranks)
        ctx = PairContext.build(*pair)
        first.setdefault((ranks, ctx.A.members, ctx.T.members), pair)
    assert [(ctx.M, ctx.Mp) for ctx in checked] == list(first.values())
    assert len(checked) == sum(comb(n + np_, n) for n, np_ in shapes) == 62


def test_identity_counts_every_trial_on_a_checked_tableau(monkeypatch):
    # A failing tableau fails each of its trials; a check that raises is not
    # remembered, so each of its trials raises and counts as an error.
    calls = []

    def stub(ctx):
        calls.append((ctx.M.rank, ctx.Mp.rank))
        if (ctx.M.rank, ctx.Mp.rank) == (1, 2):
            raise RuntimeError("stub")
        return SimpleNamespace(ok=(ctx.M.rank, ctx.Mp.rank) != (2, 2))

    monkeypatch.setattr(orc, "verify_proposition", stub)
    summary = run_suites("oracle", seed=42, trials=10, max_rank=2)
    identity = summary["properties"][-1]
    assert identity["instances"] == 40
    assert (identity["failures"], identity["errors"]) == (10, 10)
    assert calls.count((1, 2)) == 10
    # An n x n' shape has comb(n + n', n) tableaux, each checked at most once.
    for n, np_ in ((1, 1), (2, 1), (2, 2)):
        assert 1 <= calls.count((n, np_)) <= comb(n + np_, n)
