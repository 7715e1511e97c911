"""Gamma factors and the two independent critical-point computations."""

import random
from fractions import Fraction

import pytest

from periodkit import lfactor
from periodkit.automorphic import InfinityTypeData, dict_to_motive
from periodkit.errors import NotCriticalPairError, PpClassError
from periodkit.hodge import HodgeMultiset, RegularMotiveData, restriction, restriction_tensor
from periodkit.lfactor import (
    CriticalInterval,
    _has_pole,
    critical_interval,
    critical_interval_via_poles,
    gamma_factor,
    pair_critical_points,
)
from periodkit.sampling import random_swap_closed_multiset

ELLIPTIC = HodgeMultiset(1, [(1, 0), (0, 1)])
FOUR_PAIR = restriction_tensor(
    RegularMotiveData("M", 1, (1, 0)), RegularMotiveData("M'", 0, (1,))
)


class TestGammaFactor:
    def test_single_pair(self):
        assert gamma_factor(ELLIPTIC) == ((0, 1),)

    def test_four_pair_example(self):
        assert gamma_factor(FOUR_PAIR) == ((-1, 1), (0, 1))

    def test_wide_pair(self):
        h = HodgeMultiset(1, [(2, -1), (-1, 2)])
        assert gamma_factor(h) == ((-1, 1),)

    def test_the_factor_is_a_frozen_value(self):
        # A tuple of (p, mult) int pairs: equal multisets give equal,
        # hash-equal factors, and no caller can change one in place.
        first = gamma_factor(HodgeMultiset(1, [(1, 0), (0, 1)]))
        second = gamma_factor(HodgeMultiset(1, [(0, 1), (1, 0)]))
        assert type(first) is tuple and all(type(pair) is tuple for pair in first)
        assert all(type(x) is int for pair in first for x in pair)
        assert first == second and hash(first) == hash(second)
        with pytest.raises(TypeError):
            first[0] = (1, 1)

    def test_pole_needs_an_integral_distance(self):
        # The pole scan passes integers only, so s - p is integral, and
        # Gamma_C(s - p) has a pole exactly where it is at most 0.
        shifts = ((1, 1),)  # Gamma_C(s - 1)
        assert _has_pole(shifts, 1) and _has_pole(shifts, 0) and _has_pole(shifts, -3)
        assert not _has_pole(shifts, 2)
        assert _has_pole(((-1, 2), (4, 1)), 3) and not _has_pole(((-1, 2), (4, 1)), 5)

    def test_pp_class_rejected(self):
        h = HodgeMultiset(0, [(0, 0)])
        with pytest.raises(PpClassError):
            gamma_factor(h)


class TestCriticalInterval:
    def test_elliptic_shape(self):
        iv = critical_interval(ELLIPTIC)
        assert (iv.lo, iv.hi) == (1, 1) and iv.lo <= iv.hi

    def test_four_pair(self):
        assert critical_interval(FOUR_PAIR) == critical_interval_via_poles(FOUR_PAIR)
        assert (critical_interval(FOUR_PAIR).lo, critical_interval(FOUR_PAIR).hi) == (1, 1)

    def test_wide(self):
        iv = critical_interval(HodgeMultiset(1, [(3, -2), (-2, 3)]))
        assert (iv.lo, iv.hi) == (-1, 3)
        assert list(iv.points()) == [-1, 0, 1, 2, 3]

    def test_pole_scan_matches_closed_form(self):
        rng = random.Random(11)
        for _ in range(300):
            h = random_swap_closed_multiset(rng)
            iv = critical_interval(h)
            assert iv == critical_interval_via_poles(h)
            assert iv.lo <= iv.hi
            assert iv.lo + iv.hi == h.weight + 1

    def test_pole_scan_tests_each_stretch_once(self, monkeypatch):
        calls = []
        monkeypatch.setattr(
            lfactor, "_has_pole", lambda shifts, s: calls.append(s) or _has_pole(shifts, s)
        )
        h = restriction(RegularMotiveData("M", 0, (10**4, -(10**4))))
        assert critical_interval_via_poles(h) == CriticalInterval(1 - 10**4, 10**4)
        # five stretches, the first two stopped by the factor's own pole
        assert len(calls) == 8

    @pytest.mark.parametrize(
        "pole_at, kept",
        [(lambda s: s == 2, "[(-3, -3), (-2, -2), (3, 3)]"), (lambda s: True, "[]")],
        ids=["a hole", "nothing kept"],
    )
    def test_pole_scan_refuses_stretches_that_are_no_interval(self, monkeypatch, pole_at, kept):
        # A real factor has its poles on a half-line, so only a stub leaves a hole.
        monkeypatch.setattr(lfactor, "_has_pole", lambda shifts, s: pole_at(s))
        with pytest.raises(AssertionError) as err:
            critical_interval_via_poles(HodgeMultiset(1, [(3, -2), (-2, 3)]))
        assert str(err.value) == f"pole scan produced a non-interval: stretches {kept}"

    def test_lo_above_hi_raises(self):
        with pytest.raises(ValueError, match="lo = 2, hi = 1"):
            CriticalInterval(2, 1)
        assert list(CriticalInterval(1, 1).points()) == [1]

    def test_membership_respects_grid(self):
        iv = critical_interval(HodgeMultiset(1, [(3, -2), (-2, 3)]))
        assert 0 in iv and 3 in iv and 4 not in iv
        assert Fraction(1, 2) not in iv


class TestPairCriticalPoints:
    def test_worked_pair(self):
        pi = InfinityTypeData("Pi", 0, (Fraction(1, 2), Fraction(-1, 2)))
        pip = InfinityTypeData("Pi'", 0, (Fraction(0),))
        iv = pair_critical_points(pi, pip)
        assert (iv.lo, iv.hi) == (Fraction(1, 2), Fraction(1, 2))
        # motive-side cross check, shifted by (n + n' - 2)/2
        h = restriction_tensor(dict_to_motive(pi), dict_to_motive(pip))
        mv = critical_interval(h)
        shift = Fraction(pi.n + pip.n - 2, 2)
        assert (iv.lo, iv.hi) == (mv.lo - shift, mv.hi - shift)

    def test_half_shift_of_unit_interval(self):
        # dictionary motives give [1, 1] and n + n' = 3, so the set is {1/2}
        pi = InfinityTypeData("Pi", 0, (Fraction(1, 2), Fraction(-1, 2)))
        pip = InfinityTypeData("Pi'", 0, (Fraction(0),))
        assert list(pair_critical_points(pi, pip).points()) == [Fraction(1, 2)]

    def test_non_critical_pair_raises(self):
        pi = InfinityTypeData("Pi", 0, (Fraction(0),))
        with pytest.raises(NotCriticalPairError):
            pair_critical_points(pi, pi)

    def test_matches_motive_side_at_random(self):
        from periodkit.sampling import random_critical_rep_pair

        rng = random.Random(12)
        for _ in range(100):
            pi, pip = random_critical_rep_pair(rng, 4)
            iv = pair_critical_points(pi, pip)
            h = restriction_tensor(dict_to_motive(pi), dict_to_motive(pip))
            mv = critical_interval(h)
            shift = Fraction(pi.n + pip.n - 2, 2)
            assert iv.lo == mv.lo - shift and iv.hi == mv.hi - shift
