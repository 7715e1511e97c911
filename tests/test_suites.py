"""The verification suites behind ``pk verify``."""

from math import comb
from types import SimpleNamespace

import pytest

import periodkit.oracle as orc
import periodkit.periods as pd
from periodkit import suites
from periodkit.errors import SizeLimitError
from periodkit.sampling import pair_of_shape
from periodkit.suites import SUITES, _run_property, holds, run_suites
from shapes import every_shape


def test_a_property_without_instances_does_not_hold():
    assert holds({"name": "p", "instances": 1, "failures": 0})
    assert holds({"name": "p", "instances": 1, "failures": 0, "errors": 0})
    assert not holds({"name": "p", "instances": 0, "failures": 0})
    assert not holds({"name": "p", "instances": -1, "failures": 0})
    # A failure alone, or an error alone, stops it holding too.
    assert not holds({"name": "p", "instances": 1, "failures": 1})
    assert not holds({"name": "p", "instances": 1, "failures": 0, "errors": 1})


def test_a_check_that_raises_is_an_error_not_a_failure():
    def check(rng, t):
        if t == 1:
            raise KeyError("sampler fault")
        return t != 2

    # The row is the one pk verify prints, its keys in that order.
    result = _run_property(1, "p", 3, check)
    assert list(result.items()) == [
        ("name", "p"),
        ("instances", 3),
        ("failures", 1),
        ("errors", 1),
        ("detail", "trial 1: KeyError: 'sampler fault'"),
    ]
    assert not holds(result)

    raised = _run_property(1, "p", 1, lambda rng, t: {}["x"])
    assert (raised["errors"], raised["failures"], holds(raised)) == (1, 0, False)

    failed = _run_property(1, "p", 3, lambda rng, t: t != 0)
    assert failed == {"name": "p", "instances": 3, "failures": 1, "detail": "first failing trial: 0"}
    assert not holds(failed)

    passed = _run_property(1, "p", 3, lambda rng, t: True)
    assert passed == {"name": "p", "instances": 3, "failures": 0}
    assert holds(passed)


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
        return {"name": name, "instances": trials, "failures": 0}

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


def test_identity_checks_every_tableau_once_in_schedule_order(monkeypatch):
    # Trial t of rank pair shapes[t // trials] checks tableau (t % trials)
    # mod C(n + n', n) of that pair, whatever the seed.  The 3x3 pair has
    # the most tableaux, C(6, 3) = 20, so from 20 trials on each of the 62
    # is checked, once, in the order every_shape lists them.
    checked = []
    verify_proposition = orc.verify_proposition

    def spy(ctx):
        checked.append((ctx.M, ctx.Mp))
        return verify_proposition(ctx)

    monkeypatch.setattr(orc, "verify_proposition", spy)
    tableaux = [pair_of_shape(*shape) for shape in every_shape(3)]
    assert len(tableaux) == sum(comb(n + np_, n) for n in range(1, 4) for np_ in range(1, 4)) == 62
    for seed, trials, instances in ((42, None, 900), (7, None, 900), (42, 20, 180)):
        checked.clear()
        summary = run_suites("oracle", seed=seed, trials=trials)
        assert summary["properties"][-1] == {
            "name": "deligne_period_determinant_identity",
            "instances": instances,
            "failures": 0,
        }
        assert checked == tableaux, (seed, trials)


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
    # An n x n' shape has comb(n + n', n) tableaux, each checked once.
    for n, np_ in ((1, 1), (2, 1), (2, 2)):
        assert calls.count((n, np_)) == comb(n + np_, n)


def test_each_rank_delta_square_lemma_is_derived_once_per_rewrite_run(monkeypatch):
    # The 8 lemma trials and the 44 comparison trials read one lemma per
    # rank; a second run derives its own, so no lemma carries across runs.
    ranks = []
    derive = pd.derive_delta_square_identity

    def spy(n):
        ranks.append(n)
        return derive(n)

    monkeypatch.setattr(pd, "derive_delta_square_identity", spy)
    for run in (1, 2):
        summary = run_suites("rewrite", seed=42)
        assert summary["ok"] is True
        rows = {p["name"]: p for p in summary["properties"]}
        assert rows["csd_delta_square_identity"]["instances"] == 8
        assert rows["grouped_period_comparison"]["instances"] == 44
        assert ranks == list(range(1, 9)) * run
