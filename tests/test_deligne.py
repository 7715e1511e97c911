"""Deligne period builders and the conjectural L-value right-hand side."""

import random
from fractions import Fraction

import pytest

from periodkit.deligne import (
    PairContext,
    conjecture_rhs_motivic,
    deligne_period_raw,
    deligne_period_simplified,
)
from periodkit.errors import NotCriticalError, PpClassError
from periodkit.hodge import RegularMotiveData, restriction_tensor
from periodkit.lfactor import critical_interval
from periodkit.periods import PeriodSymbol, delta, expand, motive_tag, q, q_sup, two_pi_i
from periodkit.sampling import random_pp_free_pair

M = RegularMotiveData("M", 1, (1, 0))
MP = RegularMotiveData("M'", 0, (1,))
CTX = PairContext.build(M, MP)


class TestRawPeriod:
    def test_worked_example(self):
        tm, tmp = motive_tag(M), motive_tag(MP)
        want = q(1, tm) * q(2, tm) * q(1, tmp) ** 2 * delta(tm) * delta(tmp) ** 2
        assert deligne_period_raw(CTX) == want

    def test_rank_one_pair(self):
        m = RegularMotiveData("M", 0, (1,))
        mp = RegularMotiveData("M'", 0, (0,))
        ctx = PairContext.build(m, mp)
        want = q(1, motive_tag(m)) * q(1, motive_tag(mp)) * delta(motive_tag(m)) * delta(
            motive_tag(mp)
        )
        assert deligne_period_raw(ctx) == want

    def test_empty_A(self):
        m = RegularMotiveData("M", 2, (0,))
        mp = RegularMotiveData("M'", 0, (0,))
        ctx = PairContext.build(m, mp)
        assert ctx.A.members == frozenset()
        assert deligne_period_raw(ctx) == delta(motive_tag(m)) * delta(motive_tag(mp))
        assert deligne_period_raw(ctx).text() == "d[M] * d[M']"

    def test_symmetry_under_swap(self):
        rng = random.Random(41)
        for _ in range(100):
            m, mp = random_pp_free_pair(rng, 4)
            a = deligne_period_raw(PairContext.build(m, mp))
            b = deligne_period_raw(PairContext.build(mp, m))
            assert a == b

    def test_pp_class_rejected(self):
        m = RegularMotiveData("M", 0, (0,))
        with pytest.raises(PpClassError):
            PairContext.build(m, m)


class TestSimplifiedPeriod:
    def test_worked_example(self):
        got = deligne_period_simplified(CTX)
        want = two_pi_i(-1) * q_sup(2, motive_tag(M)) * q_sup(1, motive_tag(MP)) ** 2
        assert got == want
        assert got.text() == "(2πi)^-1 * Qs[2;M] * Qs[1;M']^2"

    def test_expansion_matches_raw(self):
        assert expand(deligne_period_simplified(CTX)) == expand(deligne_period_raw(CTX))

    def test_expansion_matches_raw_random(self):
        rng = random.Random(42)
        for _ in range(250):
            ctx = PairContext.build(*random_pp_free_pair(rng, 4))
            assert expand(deligne_period_simplified(ctx)) == expand(
                deligne_period_raw(ctx)
            )


class TestConjectureRhs:
    def test_worked_example(self):
        got = conjecture_rhs_motivic(CTX, Fraction(1, 2))
        want = two_pi_i(1) * q_sup(2, motive_tag(M)) * q_sup(1, motive_tag(MP)) ** 2
        assert got == want

    def test_outside_interval(self):
        with pytest.raises(NotCriticalError, match=r"critical m lie in \["):
            conjecture_rhs_motivic(CTX, Fraction(7, 2))

    def test_off_grid_m(self):
        with pytest.raises(NotCriticalError):
            conjecture_rhs_motivic(CTX, 1)  # grid is Z + 1/2 here

    def test_ratio_to_simplified_period(self):
        rng = random.Random(44)
        for _ in range(100):
            ctx = PairContext.build(*random_pp_free_pair(rng, 4))
            n, np_ = ctx.M.rank, ctx.Mp.rank
            iv = critical_interval(restriction_tensor(ctx.M, ctx.Mp))
            shift = Fraction(n + np_ - 2, 2)
            m = iv.lo - shift
            got = conjecture_rhs_motivic(ctx, m) / deligne_period_simplified(ctx)
            exponent = n * np_ * m + Fraction(n * np_ * (n + np_ - 2), 2)
            assert exponent.denominator == 1
            assert got == two_pi_i(int(exponent))

    def test_two_pi_exponent_is_integer(self):
        rng = random.Random(45)
        for _ in range(100):
            ctx = PairContext.build(*random_pp_free_pair(rng, 4))
            iv = critical_interval(restriction_tensor(ctx.M, ctx.Mp))
            shift = Fraction(ctx.M.rank + ctx.Mp.rank - 2, 2)
            for mm in iv.points():
                mono = conjecture_rhs_motivic(ctx, mm - shift)
                assert isinstance(mono.exponent(PeriodSymbol("2pi")), int)
