"""Infinity types: dictionary, criticality, split indices, case classifier."""

import random
from fractions import Fraction

import pytest

from periodkit.automorphic import (
    InfinityTypeData,
    classify_known_case,
    conjecture_rhs_automorphic,
    crosscheck_conjecture,
    dict_to_motive,
    pair_is_critical,
    split_indices_auto,
)
from periodkit.combinatorics import split_indices
from periodkit.errors import AlgebraicityError, NotCriticalError
from periodkit.hodge import has_no_pp_class, restriction_tensor
from periodkit.lfactor import pair_critical_points
from periodkit.periods import PeriodSymbol
from periodkit.sampling import random_critical_rep_pair, random_infinity_type


def rep(label, w, a, csd=False, ds_split=False):
    return InfinityTypeData(
        label,
        w,
        tuple(Fraction(x) for x in a),
        conjugate_self_dual=csd,
        discrete_series_split_place=ds_split,
    )


class TestDictionary:
    def test_elliptic_shape(self):
        m = dict_to_motive(rep("Pi", 0, [Fraction(1, 2), Fraction(-1, 2)]))
        assert (m.rank, m.weight, m.hodge_p) == (2, 1, (1, 0))

    def test_rank_one(self):
        m = dict_to_motive(rep("Pi", 0, [0]))
        assert (m.rank, m.weight, m.hodge_p) == (1, 0, (0,))

    def test_rank_three(self):
        m = dict_to_motive(rep("Pi", 0, [2, 0, -2]))
        assert (m.rank, m.weight, m.hodge_p) == (3, 2, (3, 1, -1))

    def test_always_regular_integral(self):
        rng = random.Random(51)
        for _ in range(200):
            pi = random_infinity_type(rng, rng.randint(1, 5))
            m = dict_to_motive(pi)
            assert m.rank == pi.n and m.weight == pi.w + pi.n - 1
            assert all(isinstance(p, int) for p in m.hodge_p)

    def test_algebraicity_enforced(self):
        with pytest.raises(AlgebraicityError):
            rep("Pi", 0, [1, 0])  # n=2 needs Z+1/2
        with pytest.raises(AlgebraicityError):
            rep("Pi", 0, [Fraction(1, 2)])  # n=1 needs Z


class TestPairCriticality:
    def test_non_colliding_example(self):
        pi = rep("Pi", 0, [Fraction(1, 2), Fraction(-1, 2)])
        pip = rep("Pi'", 0, [1])
        assert pair_is_critical(pi, pip)

    def test_forced_collision(self):
        pi = rep("Pi", 0, [0])
        assert not pair_is_critical(pi, pi)

    def test_matches_hodge_side(self):
        rng = random.Random(52)
        for _ in range(300):
            pi = random_infinity_type(rng, rng.randint(1, 4), "Pi")
            pip = random_infinity_type(rng, rng.randint(1, 4), "Pi'")
            motive_side = has_no_pp_class(
                restriction_tensor(dict_to_motive(pi), dict_to_motive(pip))
            )
            assert pair_is_critical(pi, pip) == motive_side


class TestAutoSplitIndices:
    def test_matches_motive_side_worked(self):
        pi = rep("Pi", 0, [Fraction(1, 2), Fraction(-1, 2)])
        pip = rep("Pi'", 0, [1])
        assert split_indices_auto(pi, pip) == split_indices(
            dict_to_motive(pi), dict_to_motive(pip)
        )

    def test_single_value_above_all_cuts(self):
        # b_1 = 5 sits above every cut -a_i - w/2, so sp = (1, 0, 0, 0)
        pi = rep("Pi", 0, [4, 0, -4])
        pip = rep("Pi'", 0, [5])
        assert split_indices_auto(pi, pip) == (1, 0, 0, 0)

    def test_matches_motive_side_random(self):
        rng = random.Random(53)
        for _ in range(300):
            pi, pip = random_critical_rep_pair(rng, 4)
            assert split_indices_auto(pi, pip) == split_indices(
                dict_to_motive(pi), dict_to_motive(pip)
            )
            assert split_indices_auto(pip, pi) == split_indices(
                dict_to_motive(pip), dict_to_motive(pi)
            )


class TestConjectureRhs:
    def test_substitution_matches_motivic(self):
        pi = rep("Pi", 0, [Fraction(1, 2), Fraction(-1, 2)], csd=True)
        pip = rep("Pi'", 0, [0], csd=True)
        assert crosscheck_conjecture(pi, pip, Fraction(1, 2))

    def test_two_pi_exponent_integral(self):
        rng = random.Random(54)
        for _ in range(100):
            pi, pip = random_critical_rep_pair(rng, 4)
            for m in pair_critical_points(pi, pip).points():
                mono = conjecture_rhs_automorphic(pi, pip, m)
                assert isinstance(mono.exponent(PeriodSymbol("2pi")), int)

    def test_illegal_m(self):
        pi = rep("Pi", 0, [Fraction(1, 2), Fraction(-1, 2)], csd=True)
        pip = rep("Pi'", 0, [0], csd=True)
        with pytest.raises(NotCriticalError) as err:
            conjecture_rhs_automorphic(pi, pip, Fraction(9, 2))
        assert "[1/2, 1/2]" in str(err.value)

    def test_substitution_matches_random(self):
        rng = random.Random(55)
        for _ in range(100):
            pi, pip = random_critical_rep_pair(rng, 3)
            m = rng.choice(list(pair_critical_points(pi, pip).points()))
            assert crosscheck_conjecture(pi, pip, m)


class TestClassifier:
    def test_case1(self):
        pi = rep("Pi", 0, [Fraction(3, 2), Fraction(-3, 2)], csd=True, ds_split=True)
        pip = rep("Pi'", 0, [0])  # rank one, not conjugate self-dual
        report = classify_known_case(pi, pip, Fraction(1, 2))
        assert report.case == "case1"
        assert report.very_regular_pi and report.very_regular_pip

    def test_case2(self):
        pi = rep("Pi", 0, [3, 0, -3], csd=True)
        pip = rep("Pi'", 0, [Fraction(5, 2), Fraction(-5, 2)], csd=True, ds_split=True)
        assert split_indices_auto(pi, pip) == (0, 1, 1, 0)
        report = classify_known_case(pi, pip, Fraction(1, 2))
        assert report.case == "case2"

    def test_case2_with_rank_gap_three(self):
        pi = rep("Pi", 0, [6, 3, 0, -3, -6], csd=True)
        pip = rep("Pi'", 0, [Fraction(3, 2), Fraction(-3, 2)], csd=True, ds_split=True)
        assert split_indices_auto(pi, pip) == (0, 0, 1, 1, 0, 0)
        assert classify_known_case(pi, pip, Fraction(1, 2)).case == "case2"
        assert classify_known_case(pip, pi, Fraction(1, 2)).case == "case2"

    def test_equal_ranks_keep_pi_as_first_factor(self):
        pi = rep("Pi", 0, [Fraction(3, 2), Fraction(-3, 2)])
        pip = rep("Pi'", 0, [Fraction(5, 2), Fraction(-1, 2)], csd=True, ds_split=True)
        report = classify_known_case(pi, pip, 1)
        assert report.failed_conditions == (
            "case3: first factor Pi is not flagged conjugate self-dual",
            "case3: first factor Pi has even rank but lacks the "
            "discrete-series-at-a-split-place flag",
        )

    def test_case3(self):
        pi = rep("Pi", 0, [Fraction(3, 2), Fraction(-3, 2)], csd=True, ds_split=True)
        pip = rep("Pi'", 0, [Fraction(5, 2), Fraction(-1, 2)], csd=True, ds_split=True)
        report = classify_known_case(pi, pip, 1)
        assert report.case == "case3"

    def test_case3_gap_violation_reported(self):
        pi = rep("Pi", 0, [Fraction(1, 2), Fraction(-1, 2)], csd=True, ds_split=True)
        pip = rep("Pi'", 0, [Fraction(5, 2), Fraction(-1, 2)], csd=True, ds_split=True)
        report = classify_known_case(pi, pip, 1)
        assert report.case == "unknown"
        assert not report.very_regular_pi
        assert any("gap" in f for f in report.failed_conditions)

    def test_even_rank_needs_descent_flag(self):
        pi = rep("Pi", 0, [Fraction(3, 2), Fraction(-3, 2)], csd=True)  # descent flag missing
        pip = rep("Pi'", 0, [0])
        report = classify_known_case(pi, pip, Fraction(1, 2))
        assert report.case == "unknown"
        assert any("discrete-series" in f for f in report.failed_conditions)

    def test_order_normalized(self):
        # arguments swapped: classification must not depend on the order
        pi = rep("Pi", 0, [Fraction(3, 2), Fraction(-3, 2)], csd=True, ds_split=True)
        pip = rep("Pi'", 0, [0])
        report = classify_known_case(pip, pi, Fraction(1, 2))
        assert report.case == "case1"

    def test_no_matching_shape(self):
        pi = rep("Pi", 0, [3, 0, -3], csd=True)
        pip = rep("Pi'", 0, [4, 0, -4], csd=True)
        report = classify_known_case(pi, pip, 2)  # same parity, m != 1
        assert report.case == "unknown"
        assert any("no case shape" in f for f in report.failed_conditions)


def test_classifier_failures_of_two_triggered_cases_in_order():
    # Rank 2 against rank 1 triggers case 1 and case 2; gap 1 and no flags fail both.
    pi = rep("Pi", 0, [Fraction(1, 2), Fraction(-1, 2)])
    pip = rep("Pi'", 0, [0])
    report = classify_known_case(pi, pip, Fraction(3, 2))
    assert report.case == "unknown"
    assert (report.very_regular_pi, report.very_regular_pip) == (False, True)
    assert report.failed_conditions == (
        "case1: Pi: some gap a_i - a_(i+1) is below 3",
        "case1: m = 3/2 is not critical for the pair",
        "case1: first factor Pi is not flagged conjugate self-dual",
        "case1: first factor Pi has even rank but lacks the discrete-series-at-a-split-place flag",
        "case2: Pi: some gap a_i - a_(i+1) is below 3",
        "case2: m = 3/2 is not critical for the pair",
        "case2: first factor Pi is not flagged conjugate self-dual",
        "case2: first factor Pi has even rank but lacks the discrete-series-at-a-split-place flag",
        "case2: second factor Pi' is not flagged conjugate self-dual",
    )


def test_classifier_case2_names_a_shared_gap_last():
    pi = rep("Pi", 0, [3, 0, -3], csd=True)
    pip = rep("Pi'", 0, [Fraction(5, 2), Fraction(1, 2)], csd=True)
    report = classify_known_case(pip, pi, Fraction(1, 2))
    assert report.failed_conditions == (
        "case2: Pi': some gap a_i - a_(i+1) is below 3",
        "case2: second factor Pi' has even rank but lacks the discrete-series-at-a-split-place flag",
        "case2: two exponents of the smaller factor fall in the same gap (split indices [0, 2, 0, 0])",
    )
