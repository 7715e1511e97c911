"""Infinity types: dictionary, criticality, split indices, case classifier."""

import random
from dataclasses import dataclass
from fractions import Fraction

import pytest

from periodkit.automorphic import (
    VERY_REGULAR_GAP,
    InfinityTypeData,
    classify_known_case,
    conjecture_rhs_automorphic,
    crosscheck_conjecture,
    dict_to_motive,
    pair_is_critical,
    split_indices_auto,
)
from periodkit.combinatorics import split_indices, split_lengths
from periodkit.errors import AlgebraicityError, NotCriticalError, NotCriticalPairError
from periodkit.hodge import RegularMotiveData, has_no_pp_class, restriction_tensor
from periodkit.lfactor import CriticalInterval, pair_critical_points
from periodkit.periods import PeriodSymbol
from periodkit.sampling import _A_SPAN, random_critical_rep_pair, random_infinity_type


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


# The Fraction formulas the doubled-integer code replaced, kept as the
# reference it must agree with.

def _fraction_dict_to_motive(pi):
    n = pi.n
    half = Fraction(n - 1, 2)
    ps = []
    for a in reversed(pi.a):
        p = -a + half
        if p.denominator != 1:
            raise AlgebraicityError(f"-({a}) + (n-1)/2 = {p} is not an integer")
        ps.append(int(p))
    return RegularMotiveData(f"M({pi.label})", pi.w + n - 1, tuple(ps))


def _fraction_is_very_regular(pi):
    return all(x - y >= VERY_REGULAR_GAP for x, y in zip(pi.a, pi.a[1:]))


def _fraction_pair_is_critical(pi, pip):
    forbidden = Fraction(-(pi.w + pip.w), 2)
    return all(a + b != forbidden for a in pi.a for b in pip.a)


def _fraction_split_indices_auto(pi, pip):
    w2 = Fraction(pi.w + pip.w, 2)
    cuts = [-a - w2 for a in reversed(pi.a)]
    try:
        return split_lengths(list(pip.a), cuts)
    except ValueError:
        raise NotCriticalPairError(
            "an exponent sum hits -(w+w')/2; the pair has no critical values"
        ) from None


def _fraction_pair_critical_points(pi, pip):
    w_sum = pi.w + pip.w
    forbidden = Fraction(-w_sum, 2)
    lows, highs = [], []
    for i, a in enumerate(pi.a, start=1):
        for j, b in enumerate(pip.a, start=1):
            s = a + b
            if s == forbidden:
                raise NotCriticalPairError(
                    f"exponent sum a_{i} + b_{j} = {s} hits -(w+w')/2; "
                    "the pair has no critical values"
                )
            if s > forbidden:
                lows.append(-s)
                highs.append(s + w_sum + 1)
            else:
                lows.append(s + w_sum)
                highs.append(-s + 1)
    return CriticalInterval(max(lows) + 1, min(highs) - 1)


@dataclass(frozen=True)
class _FractionInfinityType:
    """The constructor checks in Fraction arithmetic, as the doubled form replaced them.

    Only the decrease message differs: it prints the rationals as a rep
    file writes them, not their reprs.
    """

    label: str
    w: int
    a: tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(self, "a", tuple(Fraction(x) for x in self.a))
        if not self.a:
            raise ValueError("an infinity type has positive rank")
        if not isinstance(self.w, int):
            raise ValueError(f"purity weight must be an integer, got {self.w!r}")
        for x, y in zip(self.a, self.a[1:]):
            if x <= y:
                got = ", ".join(map(str, self.a))
                raise ValueError(f"exponents must be strictly decreasing, got [{got}]")
        n = len(self.a)
        half = Fraction(n - 1, 2)
        for x in self.a:
            if (x - half).denominator != 1:
                raise AlgebraicityError(f"exponent {x} is not in Z + (n-1)/2 for n = {n}")


def _random_constructor_input(rng):
    """Ints and Fractions of denominators 1-4, sorted or not, with repeats and bad weights."""
    n = rng.randint(0, 5)
    if rng.random() < 0.5:  # on the Z + (n-1)/2 grid, mostly algebraic
        xs = [o + Fraction(n - 1, 2) for o in rng.sample(range(-4, 5), n)]
    else:
        xs = [Fraction(rng.randint(-8, 8), rng.randint(1, 4)) for _ in range(n)]
    if xs and rng.random() < 0.2:
        xs.insert(rng.randrange(len(xs)), rng.choice(xs))
    if rng.random() < 0.7:
        xs.sort(reverse=True)
    a = [int(x) if x.denominator == 1 and rng.random() < 0.5 else x for x in xs]
    w = rng.choice([0, 1, -2]) if rng.random() < 0.8 else rng.choice([Fraction(1, 2), 1.0, "0"])
    return rng.choice(["Pi", "Pi'"]), w, a


def _construct(cls, label, w, a):
    """The object or None, then its fields and exponent types, or the error's type and text."""
    try:
        pi = cls(label, w, a)
    except (ValueError, AlgebraicityError) as err:
        return None, (type(err), str(err))
    return pi, (pi.label, pi.w, pi.a, [type(x) for x in pi.a])


def _outcome(f, *args):
    """The value with the types of its parts, or the error's type and text."""
    try:
        value = f(*args)
    except (AlgebraicityError, NotCriticalPairError) as err:
        return type(err), str(err)
    if isinstance(value, CriticalInterval):
        return value, type(value.lo), type(value.hi)
    if isinstance(value, RegularMotiveData):
        return value, [type(p) for p in value.hodge_p]
    return value, type(value)


class TestRandomInfinityType:
    def test_draws_match_the_fraction_sum_and_leave_the_rng_alike(self):
        # The exponents were o + Fraction(n - 1, 2); the same calls must give the same value.
        for seed in range(3):
            for n in range(1, 18):
                rng, ref = random.Random(seed), random.Random(seed)
                got = random_infinity_type(rng, n, "Pi", csd=True, ds_split=seed == 1)
                offsets = sorted(ref.sample(range(-_A_SPAN, _A_SPAN + 1), n), reverse=True)
                w = ref.randint(-3, 3)
                a = tuple(o + Fraction(n - 1, 2) for o in offsets)
                assert got == InfinityTypeData("Pi", w, a, True, seed == 1)
                assert got.a == a and rng.getstate() == ref.getstate()


class TestDoubledAgainstFraction:
    PAIR_PATHS = (
        (pair_is_critical, _fraction_pair_is_critical),
        (split_indices_auto, _fraction_split_indices_auto),
        (pair_critical_points, _fraction_pair_critical_points),
    )

    def test_every_path_matches_the_fraction_formula(self):
        rng = random.Random(56)
        seen = set()
        for _ in range(600):
            pi = random_infinity_type(rng, rng.randint(1, 6), "Pi")
            pip = random_infinity_type(rng, rng.randint(1, 6), "Pi'")
            for x in (pi, pip):
                assert _outcome(dict_to_motive, x) == _outcome(_fraction_dict_to_motive, x)
                assert x.is_very_regular() == _fraction_is_very_regular(x)
                seen.add(("very regular", x.is_very_regular()))
            for x, y in ((pi, pip), (pip, pi)):
                for fast, ref in self.PAIR_PATHS:
                    assert _outcome(fast, x, y) == _outcome(ref, x, y)
            seen.add(("critical", pair_is_critical(pi, pip)))
        # Both branches of each test were drawn.
        assert seen == {(k, v) for k in ("very regular", "critical") for v in (True, False)}

    def test_doubled_exponents_are_ints(self):
        pi = rep("Pi", 3, [Fraction(5, 2), Fraction(-1, 2)])
        assert pi.a2 == (5, -1) and all(type(x) is int for x in pi.a2)
        assert pi.a == (Fraction(5, 2), Fraction(-1, 2))
        assert pi == rep("Pi", 3, [Fraction(5, 2), Fraction(-1, 2)])
        # The doubles are the one stored form of the exponents.
        assert InfinityTypeData.__slots__ == (
            "label", "w", "a2", "conjugate_self_dual", "discrete_series_split_place"
        )

    def test_constructor_rejects_integer_exponents_at_rank_two(self):
        with pytest.raises(AlgebraicityError) as err:
            rep("Pi", 0, [1, 0])
        assert str(err.value) == "exponent 1 is not in Z + (n-1)/2 for n = 2"

    def test_constructor_matches_the_fraction_constructor(self):
        rng = random.Random(57)
        built, seen = [], set()
        for _ in range(3000):
            label, w, a = _random_constructor_input(rng)
            pi, outcome = _construct(InfinityTypeData, label, w, a)
            ref, ref_outcome = _construct(_FractionInfinityType, label, w, a)
            assert outcome == ref_outcome
            seen.add(outcome[1].split()[0] if pi is None else "accepted")
            if pi is not None:
                built.append((pi, ref))
        # Every check rejected some input: rank, weight, decrease, algebraicity.
        assert seen == {"accepted", "an", "purity", "exponents", "exponent"}
        built.sort(key=lambda b: (b[1].label, b[1].w, b[1].a))  # equal ones adjacent
        for (x, ref_x), (y, ref_y) in zip(built, built[1:]):
            assert (x == y) == (ref_x == ref_y)
            assert x != y or hash(x) == hash(y)
        assert sum(x == y for (x, _), (y, _) in zip(built, built[1:])) > 100

    def test_constructor_error_text(self):
        with pytest.raises(AlgebraicityError) as err:
            rep("Pi", 0, [Fraction(1, 2), 0, -1])
        assert str(err.value) == "exponent 1/2 is not in Z + (n-1)/2 for n = 3"
        with pytest.raises(ValueError) as err:
            rep("Pi", 0, [Fraction(1, 2), 2, Fraction(-3, 4)])
        assert str(err.value) == "exponents must be strictly decreasing, got [1/2, 2, -3/4]"


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

    def test_equal_ranks_try_the_swapped_order_when_the_given_one_matches_no_case(self):
        # Both factors have rank one, so either can play the character of
        # case 1; only Pi2 is flagged, so only the order (Pi2, Pi) matches.
        pi = rep("Pi", 0, [0])
        pi2 = rep("Pi2", 0, [3], csd=True)
        for first, second in ((pi, pi2), (pi2, pi)):
            report = classify_known_case(first, second, -2)
            assert (report.case, report.failed_conditions) == ("case1", ())
            assert (report.very_regular_pi, report.very_regular_pip) == (True, True)
        # A pair that matches in neither order keeps the given order's report.
        report = classify_known_case(pi, rep("Pi3", 0, [3]), -2)
        assert report.case == "unknown"
        assert report.failed_conditions == (
            "case1: first factor Pi is not flagged conjugate self-dual",
        )

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


def test_classifier_case2_on_a_pair_without_critical_points_reports_it_once():
    # 2·0 + 2·(-1/2) = -(w + w'): the split indices do not exist, so no gap line.
    pi = rep("Pi", 0, [4, 0, -4], csd=True)
    pip = rep("Pi'", 1, [Fraction(7, 2), Fraction(-1, 2)], csd=True, ds_split=True)
    assert not pair_is_critical(pi, pip)
    report = classify_known_case(pi, pip, Fraction(1, 2))
    assert report.failed_conditions == ("case2: the pair has no critical points at all",)


class TestConstructorTypes:
    """Exponents are ints or Fractions and the weight an int; bools are refused."""

    @pytest.mark.parametrize(
        "a, shown",
        [
            ([0.5, -0.5], "0.5"),
            (["1/2", "-1/2"], "'1/2'"),
            ([True], "True"),
            ([Fraction(1, 2), -0.5], "-0.5"),
        ],
        ids=["floats", "strings", "bool", "a-float-after-a-fraction"],
    )
    def test_exponents(self, a, shown):
        with pytest.raises(ValueError) as err:
            InfinityTypeData("Pi", 0, a)
        assert str(err.value) == f"exponents must be ints or Fractions, got {shown}"

    @pytest.mark.parametrize("w", [True, False, 0.0, Fraction(0), "0"])
    def test_weight(self, w):
        with pytest.raises(ValueError) as err:
            InfinityTypeData("Pi", w, [0])
        assert str(err.value) == f"purity weight must be an integer, got {w!r}"
