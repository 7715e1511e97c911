"""Deligne period of a restricted tensor product, as a period monomial.

Three closed forms are assembled over the formal period alphabet:

* the raw form  prod_{(a,b) in A} Q[a;M] Q[b;M'] * d[M]^n' * d[M']^n,
  where the tensor determinant period is eagerly rewritten as
  d(M x M') = d(M)^n' d(M')^n;
* the simplified form
  (2πi)^(-nn'(n+n'-2)/2) * prod_j Qs[j;M]^sp(j) * prod_k Qs[k;M']^sp'(k)
  whose expansion agrees exactly with the raw form;
* the conjectural right-hand side for a critical point m, which replaces
  the leading power by (2πi)^(nn'm).

The simplified form, the motivic right-hand side and the automorphic one
(P[j;Π] in place of Qs[j;M]) are one product, built by
:func:`grouped_period_product`; each caller supplies its own leading
exponent after its own criticality checks.

Signs are dropped throughout: for motives restricted from a quadratic
imaginary field the two Deligne periods agree up to the coefficient
field.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .combinatorics import IndexPairSet, SplitIndices, set_A, set_T, split_indices
from .errors import NonIntegerExponentError, NotCriticalError
from .hodge import RegularMotiveData, restriction_tensor
from .lfactor import critical_interval
from .periods import PeriodMonomial, PeriodSymbol, motive_tag


@dataclass(frozen=True)
class PairContext:
    """A tensor pair with its index sets and split indices precomputed.

    ``sp`` is sp(., M; M') and ``sp_sym`` is sp(., M'; M).
    """

    M: RegularMotiveData
    Mp: RegularMotiveData
    A: IndexPairSet
    T: IndexPairSet
    sp: SplitIndices
    sp_sym: SplitIndices

    @classmethod
    def build(cls, m: RegularMotiveData, mp: RegularMotiveData) -> "PairContext":
        return cls(
            M=m,
            Mp=mp,
            A=set_A(m, mp),
            T=set_T(m, mp),
            sp=split_indices(m, mp),
            sp_sym=split_indices(mp, m),
        )

    def consistent(self) -> bool:
        """Recompute the cached sets and indices and compare."""
        fresh = PairContext.build(self.M, self.Mp)
        return (
            self.A == fresh.A
            and self.T == fresh.T
            and self.sp == fresh.sp
            and self.sp_sym == fresh.sp_sym
        )


def grouped_period_product(kind: str, lead: int, groups, field_label: str) -> PeriodMonomial:
    """(2πi)^lead * prod over (T, sp) in groups of prod_j kind[j;T]^sp(j).

    ``groups`` holds (MotiveTag, SplitIndices) pairs; ``kind`` is ``"Qs"``
    on the motivic side and ``"P"`` on the automorphic one.
    """
    factors = [(PeriodSymbol("2pi"), lead)]
    for tag, sp in groups:
        factors += [(PeriodSymbol(kind, j, tag), e) for j, e in enumerate(sp.values)]
    return PeriodMonomial(factors, field_label)


def deligne_period_raw(ctx: PairContext) -> PeriodMonomial:
    """The Deligne period as a product over the index set A."""
    tm = motive_tag(ctx.M)
    tmp = motive_tag(ctx.Mp)
    factors = []
    for a, b in ctx.A.sorted_members():
        factors += [(PeriodSymbol("Q", a, tm), 1), (PeriodSymbol("Q", b, tmp), 1)]
    factors += [
        (PeriodSymbol("d", None, tm), ctx.Mp.rank),
        (PeriodSymbol("d", None, tmp), ctx.M.rank),
    ]
    return PeriodMonomial(factors, "EE'")


def deligne_period_simplified(ctx: PairContext) -> PeriodMonomial:
    """The Deligne period grouped through the Qs periods and split indices."""
    n, np_ = ctx.M.rank, ctx.Mp.rank
    lead = -n * np_ * (n + np_ - 2)
    assert lead % 2 == 0
    groups = ((motive_tag(ctx.M), ctx.sp), (motive_tag(ctx.Mp), ctx.sp_sym))
    return grouped_period_product("Qs", lead // 2, groups, "EE'")


def conjecture_rhs_motivic(ctx: PairContext, m: Fraction | int) -> PeriodMonomial:
    """Predicted period of the L-value at m, for m + (n+n'-2)/2 critical."""
    n, np_ = ctx.M.rank, ctx.Mp.rank
    m = Fraction(m)
    shift = Fraction(n + np_ - 2, 2)
    interval = critical_interval(restriction_tensor(ctx.M, ctx.Mp))
    if (m + shift).denominator != 1 or (m + shift) not in interval:
        legal = f"[{interval.lo - shift}, {interval.hi - shift}]"
        raise NotCriticalError(
            f"m = {m} is not critical for the pair; critical m lie in {legal}",
            interval=interval,
        )
    lead = m * n * np_
    if lead.denominator != 1:  # unreachable for m on the critical grid
        raise NonIntegerExponentError(f"(2πi) exponent {lead} is not an integer")
    groups = ((motive_tag(ctx.M), ctx.sp), (motive_tag(ctx.Mp), ctx.sp_sym))
    return grouped_period_product("Qs", int(lead), groups, "EE'")
