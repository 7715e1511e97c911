"""Acceptance suite: one test per criterion, one printed line per criterion.

Every tolerance here is exact (zero tolerance): all checks are equalities
of integers, rationals, monomials or polynomials.  The two timed criteria
carry their stated wall-clock budgets.
"""

import json
import random
import sys
import time
from contextlib import contextmanager
from fractions import Fraction

from periodkit.automorphic import (
    InfinityTypeData,
    crosscheck_conjecture,
    dict_to_motive,
    split_indices_auto,
)
from periodkit.cli import main
from periodkit.combinatorics import set_A, set_T, split_indices, verify_cardinality_lemma
from periodkit.deligne import PairContext, deligne_period_raw, deligne_period_simplified
from periodkit.fileio import dump_motive, dump_rep, parse_motive, parse_rep
from periodkit.hodge import restriction_tensor
from periodkit.lfactor import critical_interval, critical_interval_via_poles, pair_critical_points
from periodkit.oracle import verify_proposition
from periodkit.periods import (
    MotiveTag,
    PeriodSymbol,
    apply_rule,
    delta,
    delta_tate,
    derive_delta_square_identity,
    derive_grouped_period_identity,
    expand,
)
from periodkit.sampling import (
    random_critical_rep_pair,
    random_pp_free_pair,
    random_swap_closed_multiset,
)
from shapes import random_pair_of_ranks

SEED = 42


@contextmanager
def criterion(number: int, name: str):
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {number} ({name}): FAIL", file=sys.__stdout__)
        raise
    print(f"[acceptance] criterion {number} ({name}): PASS", file=sys.__stdout__)


def test_criterion_1_oracle_equivalence():
    with criterion(1, "oracle determinant equivalence, n,n' <= 3, 100 per shape"):
        start = time.monotonic()
        for n in range(1, 4):
            for np_ in range(1, 4):
                for trial in range(100):
                    rng = random.Random(f"{SEED}/oracle/{n}x{np_}/{trial}")
                    ctx = PairContext.build(*random_pair_of_ranks(rng, n, np_))
                    report = verify_proposition(ctx)
                    assert report.ok, (n, np_, trial)
                    assert report.sign in (1, -1)
        elapsed = time.monotonic() - start
        assert elapsed < 60.0, f"oracle sweep took {elapsed:.1f}s"


def test_criterion_2_simplification_identity():
    with criterion(2, "simplified period expands to raw period, 500 pairs"):
        for trial in range(500):
            rng = random.Random(f"{SEED}/simplify/{trial}")
            ctx = PairContext.build(*random_pp_free_pair(rng, 4))
            assert expand(deligne_period_simplified(ctx)) == expand(
                deligne_period_raw(ctx)
            ), trial


def test_criterion_3_combinatorial_lemmas():
    with criterion(3, "split/tableau/duality/cardinality lemmas, 1000 instances"):
        for trial in range(1000):
            rng = random.Random(f"{SEED}/combinatorics/{trial}")
            m, mp = random_pp_free_pair(rng, 4)
            n, np_ = m.rank, mp.rank
            sp = split_indices(m, mp)
            assert sum(sp) == np_
            spc = split_indices(m.conjugate(), mp.conjugate())
            assert all(sp[i] == spc[n - i] for i in range(n + 1))
            assert verify_cardinality_lemma(m, mp)
            a, t = set_A(m, mp), set_T(m, mp)
            assert a.is_tableau()
            assert all(
                ((tt, uu) in t.members) == ((n + 1 - tt, np_ + 1 - uu) not in a.members)
                for tt in range(1, n + 1)
                for uu in range(1, np_ + 1)
            )


def test_criterion_4_critical_cross_oracle():
    with criterion(4, "closed-form vs pole-scan critical set, 500 multisets"):
        for trial in range(500):
            rng = random.Random(f"{SEED}/critical/{trial}")
            h = random_swap_closed_multiset(rng)
            iv = critical_interval(h)
            assert iv == critical_interval_via_poles(h), trial
            assert iv.lo <= iv.hi
            assert iv.lo + iv.hi == h.weight + 1


def test_criterion_5_closed_forms():
    with criterion(5, "Tate delta, twist exponent, derivations n <= 8"):
        assert delta_tate(1).text() == "(2πi)^1"
        for rank in range(1, 6):
            for k in range(-4, 5):
                if k == 0:
                    continue
                tag = MotiveTag("M", rank=rank)
                got = apply_rule(delta(tag.twist(k)), "delta_twist")
                assert got.exponent(PeriodSymbol("2pi")) == k * rank
        for n in range(1, 9):
            lemma = derive_delta_square_identity(n)
            assert lemma.ok, n
            for s in range(n + 1):
                assert derive_grouped_period_identity(n, s, lemma).ok, (n, s)


def test_criterion_6_dictionary_checks():
    with criterion(6, "infinity-type dictionary and P/Q substitution"):
        pi = InfinityTypeData("Pi", 0, (Fraction(1, 2), Fraction(-1, 2)))
        m = dict_to_motive(pi)
        assert (m.rank, m.weight, m.hodge_p) == (2, 1, (1, 0))
        for trial in range(300):
            rng = random.Random(f"{SEED}/dictionary/{trial}")
            pi, pip = random_critical_rep_pair(rng, 4)
            assert split_indices_auto(pi, pip) == split_indices(
                dict_to_motive(pi), dict_to_motive(pip)
            ), trial
            m_point = rng.choice(list(pair_critical_points(pi, pip).points()))
            assert crosscheck_conjecture(pi, pip, m_point), (trial, m_point)


def test_criterion_7_cli_contract(tmp_path, verify_all_seed42):
    with criterion(7, "CLI round trip, exit codes, verify --suite all"):
        # parse -> print -> parse identity
        motive = {"label": "M", "rank": 2, "weight": 1, "hodge_p": [1, 0]}
        rep = {"label": "Pi", "n": 2, "w": 0, "a": ["1/2", "-1/2"]}
        assert parse_motive(dump_motive(parse_motive(motive))) == parse_motive(motive)
        assert parse_rep(dump_rep(parse_rep(rep))) == parse_rep(rep)

        # exit code 2: malformed input
        bad = tmp_path / "bad.json"
        bad.write_text("{broken")
        assert main(["critical", str(bad)]) == 2

        # exit code 3: (p,p)-class
        mfile = tmp_path / "m.json"
        mfile.write_text(json.dumps(motive))
        assert main(["critical", str(mfile), str(mfile)]) == 3

        # exit code 4: non-critical m
        mpfile = tmp_path / "mp.json"
        mpfile.write_text(json.dumps({"label": "M'", "rank": 1, "weight": 0, "hodge_p": [1]}))
        assert main(["conjecture", str(mfile), str(mpfile), "--m", "10"]) == 4

        assert SEED == 42  # the seed of the shared run
        rc, out, elapsed = verify_all_seed42
        summary = json.loads(out)
        assert rc == 0 and summary["ok"] is True
        assert elapsed < 300.0, f"verify --suite all took {elapsed:.1f}s"
