"""Reproducible verification suites behind ``pk verify``.

A suite is a list of rows ``(property name, trial count, check)``; each
check is a predicate run on sampled or enumerated instances.  Only
``run_suites`` runs the rows, each through ``_run_property``, and every
trial's sub-seed is derived from (seed, property name, trial index), so
that triple alone rebuilds a trial, the summary is independent of
execution order, and the trials could run concurrently without changing it.
``_run_property`` returns the JSON object that ``pk verify`` prints for
the property, and ``holds`` alone decides from it whether the property
holds.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations

from . import automorphic as am
from . import combinatorics as cb
from . import deligne as dl
from . import hodge as hg
from . import lfactor as lf
from . import oracle as orc
from . import periods as pd
from . import sampling as smp


def holds(row: dict) -> bool:
    """Whether a property holds: it ran at least one trial, and none failed or raised."""
    return row["instances"] > 0 and row["failures"] == 0 and row.get("errors", 0) == 0


def _trial_rng(seed: int, name: str, trial: int) -> random.Random:
    return random.Random(f"{seed}/{name}/{trial}")


def _run_property(seed: int, name: str, trials: int, check) -> dict:
    """Run ``check(rng, trial_index)`` for every trial; return the row ``pk verify`` prints.

    A check that returns false is a failure; one that raises (a sampler
    or configuration fault, not a counterexample) is an error.  The row
    gives ``name``, ``instances`` and ``failures``, then ``errors`` when
    any check raised and ``detail`` when some trial did not pass: the
    first exception, or else the first failing trial.
    """
    failures = errors = 0
    first_failure = first_error = ""
    for t in range(trials):
        rng = _trial_rng(seed, name, t)
        try:
            ok = check(rng, t)
        except Exception as exc:
            errors += 1
            first_error = first_error or f"trial {t}: {type(exc).__name__}: {exc}"
            continue
        if not ok:
            failures += 1
            first_failure = first_failure or f"first failing trial: {t}"
    row = {"name": name, "instances": trials, "failures": failures}
    if errors:
        row["errors"] = errors
    if detail := first_error or first_failure:
        row["detail"] = detail
    return row


# ---------------------------------------------------------------------------
# combinatorics suite


def _suite_combinatorics(trials: int, max_rank: int) -> list[tuple]:
    def pair(rng):
        return smp.random_pp_free_pair(rng, max_rank)

    def functor_involutions(rng, _):
        m = smp.random_motive(rng, rng.randint(1, max_rank))
        k = rng.randint(-3, 3)
        return (
            m.conjugate().conjugate() == m
            and m.dual().dual() == m
            and m.dual().conjugate() == m.conjugate().dual()
            and m.tate_twist(k).tate_twist(-k) == m
        )

    def tensor_shape(rng, _):
        # The constructor refuses a multiset that is not swap-closed.
        m, mp = pair(rng)
        h = hg.restriction_tensor(m, mp)
        return sum(mult for _, _, mult in h.pairs) == 2 * m.rank * mp.rank

    def tableau(rng, _):
        m, mp = pair(rng)
        return cb.set_A(m, mp).is_tableau()

    def at_duality(rng, _):
        m, mp = pair(rng)
        a, t = cb.set_A(m, mp), cb.set_T(m, mp)
        n, np_ = m.rank, mp.rank
        return all(
            ((t_, u_) in t.members) == ((n + 1 - t_, np_ + 1 - u_) not in a.members)
            for t_ in range(1, n + 1)
            for u_ in range(1, np_ + 1)
        )

    def split_sum(rng, _):
        m, mp = pair(rng)
        return (
            sum(cb.split_indices(m, mp)) == mp.rank
            and sum(cb.split_indices(mp, m)) == m.rank
        )

    def split_conjugation(rng, _):
        m, mp = pair(rng)
        sp = cb.split_indices(m, mp)
        spc = cb.split_indices(m.conjugate(), mp.conjugate())
        return all(sp[i] == spc[m.rank - i] for i in range(m.rank + 1))

    def cardinality(rng, _):
        m, mp = pair(rng)
        return cb.verify_cardinality_lemma(m, mp)

    def critical_cross_oracle(rng, _):
        h = smp.random_swap_closed_multiset(rng)
        iv = lf.critical_interval(h)
        ivp = lf.critical_interval_via_poles(h)
        return iv == ivp and iv.lo + iv.hi == h.weight + 1

    def pair_criticality_matches_hodge(rng, _):
        pi = smp.random_infinity_type(rng, rng.randint(1, max_rank), "Pi")
        pip = smp.random_infinity_type(rng, rng.randint(1, max_rank), "Pi'")
        motive_side = hg.has_no_pp_class(
            hg.restriction_tensor(am.dict_to_motive(pi), am.dict_to_motive(pip))
        )
        return am.pair_is_critical(pi, pip) == motive_side

    def auto_split_matches_motive(rng, _):
        pi, pip = smp.random_critical_rep_pair(rng, max_rank)
        return (
            am.split_indices_auto(pi, pip)
            == cb.split_indices(am.dict_to_motive(pi), am.dict_to_motive(pip))
        ) and (
            am.split_indices_auto(pip, pi)
            == cb.split_indices(am.dict_to_motive(pip), am.dict_to_motive(pi))
        )

    def pair_points_match_shifted_interval(rng, _):
        pi, pip = smp.random_critical_rep_pair(rng, max_rank)
        auto = lf.pair_critical_points(pi, pip)
        h = hg.restriction_tensor(am.dict_to_motive(pi), am.dict_to_motive(pip))
        iv = lf.critical_interval(h)
        shift = Fraction(pi.n + pip.n - 2, 2)
        return auto.lo == iv.lo - shift and auto.hi == iv.hi - shift

    return [
        ("functor_involutions", trials, functor_involutions),
        ("tensor_swap_closure_and_size", trials, tensor_shape),
        ("set_A_is_tableau", trials, tableau),
        ("A_T_index_duality", trials, at_duality),
        ("split_indices_sum_to_rank", trials, split_sum),
        ("split_conjugation_symmetry", trials, split_conjugation),
        ("cardinality_lemma", trials, cardinality),
        ("critical_interval_cross_oracle", trials, critical_cross_oracle),
        ("pair_criticality_matches_hodge_side", trials, pair_criticality_matches_hodge),
        ("auto_split_matches_motive_split", trials, auto_split_matches_motive),
        ("pair_points_match_shifted_interval", trials, pair_points_match_shifted_interval),
    ]


# ---------------------------------------------------------------------------
# rewrite suite


def _random_monomial(rng: random.Random) -> pd.PeriodMonomial:
    tag = pd.MotiveTag(rng.choice(["M", "M'"]), rank=rng.randint(1, 4))
    factors = []
    for _ in range(rng.randint(0, 4)):
        kind = rng.choice(["2pi", "Q", "d", "D", "Qp", "Qs"])
        e = rng.choice([-2, -1, 1, 2])
        if kind == "2pi":
            factors.append((pd.TWO_PI, rng.randint(-3, 3)))
        elif kind in ("d", "D"):
            factors.append((pd.PeriodSymbol(kind, None, tag), e))
        else:
            index = rng.randint(1 if kind == "Q" else 0, tag.rank)
            factors.append((pd.PeriodSymbol(kind, index, tag), e))
    return pd.PeriodMonomial(factors)


_DELTA_SQUARE_RANKS = tuple(range(1, 9))
_COMPARISON_CASES = tuple((n, s) for n in range(1, 9) for s in range(n + 1))


def _suite_rewrite(trials: int, max_rank: int) -> list[tuple]:
    def group_laws(rng, _):
        x, y, z = (_random_monomial(rng) for _ in range(3))
        return (
            (x * y) * z == x * (y * z)
            and x * y == y * x
            and x * x.inv() == pd.PeriodMonomial.one()
            and x * pd.PeriodMonomial.one() == x
        )

    def expand_homomorphism(rng, _):
        x, y = _random_monomial(rng), _random_monomial(rng)
        return pd.expand(x * y) == pd.expand(x) * pd.expand(y) and pd.expand(
            pd.expand(x)
        ) == pd.expand(x)

    def q_conj_involution(rng, _):
        tag = pd.MotiveTag("M", rank=rng.randint(1, 6))
        if rng.random() < 0.5:
            tag = tag.conj()
        x = pd.q(rng.randint(1, tag.rank_value), tag)
        return pd.apply_rule(pd.apply_rule(x, "q_conj"), "q_conj") == x

    def tate_closed_forms(rng, _):
        k = rng.randint(-4, 4)
        if pd.delta_tate(k) != pd.two_pi_i(k):
            return False
        r = rng.randint(1, 5)
        tag = pd.MotiveTag("M", rank=r)
        if k == 0:
            return True
        rewritten = pd.apply_rule(pd.delta(tag.twist(k)), "delta_twist")
        return rewritten == pd.two_pi_i(k * r) * pd.delta(tag)

    def delta_square_chain(_, t):
        return pd.derive_delta_square_identity(_DELTA_SQUARE_RANKS[t]).ok

    def comparison_chain(_, t):
        n, s = _COMPARISON_CASES[t]
        return pd.derive_grouped_period_identity(n, s).ok

    def simplified_equals_raw(rng, _):
        ctx = dl.PairContext.build(*smp.random_pp_free_pair(rng, max_rank))
        return pd.expand(dl.deligne_period_simplified(ctx)) == pd.expand(
            dl.deligne_period_raw(ctx)
        )

    def conjecture_p_to_q(rng, _):
        pi, pip = smp.random_critical_rep_pair(rng, max_rank)
        m = rng.choice(list(lf.pair_critical_points(pi, pip).points()))
        return am.crosscheck_conjecture(pi, pip, m)

    return [
        ("monomial_group_laws", trials, group_laws),
        ("expand_is_homomorphism", trials, expand_homomorphism),
        ("q_conjugation_involution", trials, q_conj_involution),
        ("tate_delta_closed_forms", trials, tate_closed_forms),
        ("csd_delta_square_identity", len(_DELTA_SQUARE_RANKS), delta_square_chain),
        ("grouped_period_comparison", len(_COMPARISON_CASES), comparison_chain),
        ("simplified_matches_raw_expansion", trials, simplified_equals_raw),
        ("automorphic_matches_motivic_rhs", trials, conjecture_p_to_q),
    ]


# ---------------------------------------------------------------------------
# oracle suite


def _suite_oracle(trials: int, max_rank: int) -> list[tuple]:
    # A shape the oracle cannot check is a usage error, not a property failure:
    # it raises while run_suites builds the rows, before any trial runs.
    orc.require_shape(max_rank, max_rank)
    shapes = [(n, np_) for n in range(1, max_rank + 1) for np_ in range(1, max_rank + 1)]
    # The tableaux of each rank pair, as the slots M takes among the n + n' doubled values.
    tableaux = {(n, np_): list(combinations(range(n + np_), n)) for n, np_ in shapes}
    every = [(n, np_, slots) for (n, np_), tabs in tableaux.items() for slots in tabs]

    # sym_det is the plain row-by-row run of the DP that summed ring products
    # and the check's column-class blocks run too; naive_det is an
    # independent permutation sum.
    def det_vs_naive(rng, _):
        vars_ = tuple(f"x{i}" for i in range(4))
        k = rng.randint(1, 4)
        rows = []
        for _ in range(k):
            row = []
            for _ in range(k):
                poly = orc.LaurentPoly.zero(vars_)
                for _ in range(rng.randint(0, 2)):
                    exps = {rng.randrange(4): rng.randint(-2, 2) for _ in range(2)}
                    poly = poly + orc.LaurentPoly.monomial(vars_, exps, rng.randint(-3, 3))
                row.append(poly)
            rows.append(tuple(row))
        return orc.sym_det(rows) == orc.naive_det(rows)

    def cleared_matches_raw_q(_, t):
        ctx = dl.PairContext.build(*smp.pair_of_shape(*every[t % len(every)]))
        pv = orc.PairVariables.build(ctx.M.rank, ctx.Mp.rank)
        ((key, coeff),) = orc.cleared_period_product(ctx).terms.items()
        if coeff != 1:
            return False
        raw = dl.deligne_period_raw(ctx)
        return all(
            key[idx(a)] == raw.exponent(pd.PeriodSymbol("Q", a, pd.motive_tag(m)))
            for m, idx in ((ctx.M, pv.q_idx), (ctx.Mp, pv.qp_idx))
            for a in range(1, m.rank + 1)
        )

    # The check reads a pair only through n, n', A and T, which its shape
    # fixes, so one pair per tableau covers every pair.  Each is checked
    # once per run, and every trial on it counts.
    checked: dict[tuple, bool] = {}

    def determinant_identity(_, t):
        # `trials` trials for each rank pair (n, n') up to max_rank, stepping through its tableaux.
        n, np_ = shapes[t // trials]
        key = (n, np_, tableaux[n, np_][t % trials % len(tableaux[n, np_])])
        if key not in checked:
            ctx = dl.PairContext.build(*smp.pair_of_shape(*key))
            checked[key] = orc.verify_proposition(ctx).ok
        return checked[key]

    return [
        ("determinant_vs_permutation_sum", min(trials, 40), det_vs_naive),
        ("cleared_periods_match_raw_q_part", min(trials, 200), cleared_matches_raw_q),
        ("deligne_period_determinant_identity", trials * len(shapes), determinant_identity),
    ]


# name -> (suite function, default trials, default max rank), in the order ``all`` runs them.
_SUITES = {
    "combinatorics": (_suite_combinatorics, 1000, 4),
    "oracle": (_suite_oracle, 100, 3),
    "rewrite": (_suite_rewrite, 500, 4),
}
SUITES = tuple(_SUITES)


def run_suites(
    suite: str,
    seed: int = 42,
    trials: int | None = None,
    max_rank: int | None = None,
) -> dict:
    """Build the rows of one suite (or ``all``), then run them; return a JSON-ready summary."""
    rows = []
    for name in list(SUITES) if suite == "all" else [suite]:
        if name not in _SUITES:
            raise ValueError(f"unknown suite {name!r}; choose from {('all',) + SUITES}")
        fn, default_trials, default_rank = _SUITES[name]
        r = default_rank if max_rank is None else max_rank
        if not 1 <= r <= smp.MAX_RANK:
            raise ValueError(
                f"max_rank must lie in 1..{smp.MAX_RANK}, the ranks the samplers draw; got {r}"
            )
        rows.extend(fn(default_trials if trials is None else trials, r))
    results = [_run_property(seed, name, count, check) for name, count, check in rows]
    return {"suite": suite, "seed": seed, "ok": all(map(holds, results)), "properties": results}
