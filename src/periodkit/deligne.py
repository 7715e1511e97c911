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
m for criticality.  Every form reads the pair's two motive tags from its
:class:`PairContext`, which builds them once.

Signs are dropped throughout: for motives restricted from a quadratic
imaginary field the two Deligne periods agree up to the coefficient
field.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction

from .combinatorics import set_A, set_T, split_indices
from .errors import NonIntegerExponentError
from .hodge import RegularMotiveData, restriction_tensor
from .lfactor import CriticalInterval, critical_interval, require_critical
from .periods import TWO_PI, PeriodMonomial, PeriodSymbol, motive_tag
from .value import Frozen


class PairContext(Frozen):
    """A tensor pair with its index sets, split indices and tags precomputed.

    ``M`` and ``Mp`` are the motives, ``A`` and ``T`` their index-pair sets,
    ``sp`` is sp(., M; M') and ``sp_sym`` is sp(., M'; M).  ``tag`` and
    ``tag_p`` are ``motive_tag(M)`` and ``motive_tag(Mp)``, built once here
    for every period form of the pair.
    """

    __slots__ = ("M", "Mp", "A", "T", "sp", "sp_sym", "tag", "tag_p")

    @classmethod
    def build(cls, m: RegularMotiveData, mp: RegularMotiveData) -> "PairContext":
        return cls(
            m, mp, set_A(m, mp), set_T(m, mp), split_indices(m, mp), split_indices(mp, m),
            motive_tag(m), motive_tag(mp),
        )


def grouped_period_product(kind: str, m: Fraction, groups) -> PeriodMonomial:
    """(2πi)^(m n n') * prod over (T, sp) in groups of prod_j kind[j;T]^sp(j).

    ``groups`` holds the two (MotiveTag, split-index tuple) pairs, whose tags
    carry the ranks n and n'; ``kind`` is ``"Qs"`` on the motivic side, over
    the field EE', and ``"P"`` on the automorphic one, over EE';K.
    """
    n, np_ = (tag.rank for tag, _ in groups)
    lead, rest = divmod(m.numerator * n * np_, m.denominator)
    if rest:  # unreachable for m on the critical grid
        raise NonIntegerExponentError(f"(2πi) exponent {m * n * np_} is not an integer")
    factors = [(TWO_PI, lead)]
    for tag, sp in groups:
        factors += [(PeriodSymbol(kind, j, tag), e) for j, e in enumerate(sp) if e]
    return PeriodMonomial(factors, {"Qs": "EE'", "P": "EE';K"}[kind])


def deligne_period_raw(ctx: PairContext) -> PeriodMonomial:
    """The Deligne period as a product over the index set A.

    Q[a;M] occurs once for each member (a, b) of A, so A's rows and
    columns are counted first and each Q symbol is built once.
    """
    tm, tmp = ctx.tag, ctx.tag_p
    rows = Counter(a for a, _ in ctx.A.members)
    cols = Counter(b for _, b in ctx.A.members)
    factors = [(PeriodSymbol("Q", a, tm), e) for a, e in rows.items()]
    factors += [(PeriodSymbol("Q", b, tmp), e) for b, e in cols.items()]
    factors += [
        (PeriodSymbol("d", None, tm), ctx.Mp.rank),
        (PeriodSymbol("d", None, tmp), ctx.M.rank),
    ]
    return PeriodMonomial(factors, "EE'")


def deligne_period_simplified(ctx: PairContext) -> PeriodMonomial:
    """The Deligne period grouped through the Qs periods and split indices."""
    m = -Fraction(ctx.M.rank + ctx.Mp.rank - 2, 2)
    return grouped_period_product("Qs", m, ((ctx.tag, ctx.sp), (ctx.tag_p, ctx.sp_sym)))


def conjecture_rhs_motivic(ctx: PairContext, m: Fraction | int) -> PeriodMonomial:
    """Predicted period of the L-value at m, for m + (n+n'-2)/2 critical."""
    n, np_ = ctx.M.rank, ctx.Mp.rank
    m = Fraction(m)
    shift = Fraction(n + np_ - 2, 2)
    interval = critical_interval(restriction_tensor(ctx.M, ctx.Mp))
    require_critical(m, CriticalInterval(interval.lo - shift, interval.hi - shift))
    return grouped_period_product("Qs", m, ((ctx.tag, ctx.sp), (ctx.tag_p, ctx.sp_sym)))
