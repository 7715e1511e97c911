"""The pair's order is no input: L(s, M ⊗ M') = L(s, M' ⊗ M).

Every function of a pair must give the same answer both ways, up to the
obvious relabelling.  Checked on every shape up to rank 4.
"""

from fractions import Fraction
from math import comb

from periodkit.combinatorics import split_indices
from periodkit.deligne import (
    PairContext,
    conjecture_rhs_motivic,
    deligne_period_raw,
    deligne_period_simplified,
)
from periodkit.hodge import restriction_tensor
from periodkit.lfactor import critical_interval
from periodkit.periods import expand
from periodkit.sampling import pair_of_shape
from shapes import every_shape

SHAPES = list(every_shape(4))


def _transposed(index_set):
    return {(b, a) for a, b in index_set.members}


def test_every_shape_up_to_rank_4_is_drawn_once():
    assert len(SHAPES) == 242
    assert len(SHAPES) == sum(comb(n + np_, n) for n in range(1, 5) for np_ in range(1, 5))


def test_index_sets_and_split_indices_swap_with_the_pair():
    # Row t of A(M, M') has sp(t) + ... + sp(n) members (the cardinality
    # lemma), so column u has sp'(u) + ... + sp'(n') with sp' the split
    # indices of the swapped pair.
    for n, np_, slots in SHAPES:
        ctx = PairContext.build(*pair_of_shape(n, np_, slots))
        swapped = PairContext.build(ctx.Mp, ctx.M)
        assert swapped.A.members == _transposed(ctx.A), (n, np_, slots)
        assert swapped.T.members == _transposed(ctx.T), (n, np_, slots)
        sp_of_swap = split_indices(ctx.Mp, ctx.M)
        for u in range(1, np_ + 1):
            in_column = sum(1 for _, b in ctx.A.members if b == u)
            assert in_column == sum(sp_of_swap[u:]), (n, np_, slots, u)


def test_deligne_periods_expand_equal_both_ways():
    for n, np_, slots in SHAPES:
        ctx = PairContext.build(*pair_of_shape(n, np_, slots))
        swapped = PairContext.build(ctx.Mp, ctx.M)
        for form in (deligne_period_raw, deligne_period_simplified):
            assert expand(form(swapped)) == expand(form(ctx)), (form.__name__, n, np_, slots)


def test_critical_points_and_motivic_rhs_agree_both_ways():
    # Every shape has a critical point; 548 in all.
    points = 0
    for n, np_, slots in SHAPES:
        ctx = PairContext.build(*pair_of_shape(n, np_, slots))
        swapped = PairContext.build(ctx.Mp, ctx.M)
        interval = critical_interval(restriction_tensor(ctx.M, ctx.Mp))
        assert critical_interval(restriction_tensor(ctx.Mp, ctx.M)) == interval
        shift = Fraction(n + np_ - 2, 2)
        for s in interval.points():
            m = s - shift
            assert conjecture_rhs_motivic(swapped, m) == conjecture_rhs_motivic(ctx, m), (
                n, np_, slots, m)
            points += 1
    assert points == 548
