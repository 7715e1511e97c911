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
(P[j;Π] in place of Qs[j;M]) are one product with leading exponent nn'm,
built by :func:`grouped_period_product` from the evaluation point m; the
simplified form is the case m = -(n+n'-2)/2.  Each caller checks its own
m for criticality.

Signs are dropped throughout: for motives restricted from a quadratic
imaginary field the two Deligne periods agree up to the coefficient
field.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .combinatorics import IndexPairSet, set_A, set_T, split_indices
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
    sp: tuple[int, ...]
    sp_sym: tuple[int, ...]

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


def grouped_period_product(kind: str, m: Fraction, groups, field_label: str) -> PeriodMonomial:
    """(2πi)^(m n n') * prod over (T, sp) in groups of prod_j kind[j;T]^sp(j).

    ``groups`` holds the two (MotiveTag, split-index tuple) pairs, whose tags
    carry the ranks n and n'; ``kind`` is ``"Qs"`` on the motivic side and
    ``"P"`` on the automorphic one.
    """
    n, np_ = (tag.rank for tag, _ in groups)
    lead = m * n * np_
    if lead.denominator != 1:  # unreachable for m on the critical grid
        raise NonIntegerExponentError(f"(2πi) exponent {lead} is not an integer")
    factors = [(PeriodSymbol("2pi"), int(lead))]
    for tag, sp in groups:
        factors += [(PeriodSymbol(kind, j, tag), e) for j, e in enumerate(sp)]
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
    m = -Fraction(ctx.M.rank + ctx.Mp.rank - 2, 2)
    groups = ((motive_tag(ctx.M), ctx.sp), (motive_tag(ctx.Mp), ctx.sp_sym))
    return grouped_period_product("Qs", m, groups, "EE'")


def conjecture_rhs_motivic(ctx: PairContext, m: Fraction | int) -> PeriodMonomial:
    """Predicted period of the L-value at m, for m + (n+n'-2)/2 critical."""
    n, np_ = ctx.M.rank, ctx.Mp.rank
    m = Fraction(m)
    shift = Fraction(n + np_ - 2, 2)
    interval = critical_interval(restriction_tensor(ctx.M, ctx.Mp))
    if m + shift not in interval:
        legal = f"[{interval.lo - shift}, {interval.hi - shift}]"
        raise NotCriticalError(f"m = {m} is not critical for the pair; critical m lie in {legal}")
    groups = ((motive_tag(ctx.M), ctx.sp), (motive_tag(ctx.Mp), ctx.sp_sym))
    return grouped_period_product("Qs", m, groups, "EE'")
