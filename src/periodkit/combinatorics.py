"""Index-pair sets and split indices for a tensor product of two motives.

For Hodge p-indices p_1 > ... > p_n and r_1 > ... > r_{n'} of total
weight w = w(M) + w(M'), the two index sets are

    A = {(a, b) : p_a + r_b > w/2}
    T = {(t, u) : p^c_t + r^c_u > w/2}

A is a tableau (downward closed in both coordinates) and T is the
complement of A under index reversal.  The split indices sp(i, M; M')
are the part lengths when the decreasing sequence -r_{n'} > ... > -r_1
is cut by p_1 - w/2 > ... > p_n - w/2; part 0 sits above the largest
cut.  They are the exponents of the grouped periods in the Deligne
period formula.

All comparisons against w/2 are done on doubled integers so arithmetic
stays in the integers; a tie is exactly a (p,p)-class and raises
:class:`~periodkit.errors.PpClassError`.
"""

from __future__ import annotations

from typing import Sequence

from .errors import PpClassError
from .hodge import RegularMotiveData
from .value import Frozen


class IndexPairSet(Frozen):
    """A set of 1-based index pairs (a, b), held as the frozenset ``members``."""

    __slots__ = ("members",)

    def is_tableau(self) -> bool:
        """Downward closure: (t, u) in the set forces all (t', u') below it.

        Checking each member's two neighbours (t-1, u) and (t, u-1) suffices:
        they are members too, so by induction so is everything below.
        """
        return all(
            (t < 2 or (t - 1, u) in self.members) and (u < 2 or (t, u - 1) in self.members)
            for t, u in self.members
        )

    def sorted_members(self) -> list[tuple[int, int]]:
        return sorted(self.members)


def set_A(m: RegularMotiveData, mp: RegularMotiveData) -> IndexPairSet:
    """Pairs (a, b) with p_a + r_b > w/2; ties violate the no-(p,p) hypothesis."""
    w = m.weight + mp.weight
    members = set()
    for a, p in enumerate(m.hodge_p, 1):
        for b, r in enumerate(mp.hodge_p, 1):
            d = 2 * (p + r) - w
            if d == 0:
                raise PpClassError(
                    f"p_{a} + r_{b} equals w/2: the tensor product has a "
                    "(p,p)-class at indices "
                    f"({a},{b})"
                )
            if d > 0:
                members.add((a, b))
    return IndexPairSet(frozenset(members))


def set_T(m: RegularMotiveData, mp: RegularMotiveData) -> IndexPairSet:
    """Pairs (t, u) with p^c_t + r^c_u > w/2 (conjugate-side analogue of A)."""
    return set_A(m.conjugate(), mp.conjugate())


def split_lengths(values_desc: Sequence, cuts_desc: Sequence) -> tuple[int, ...]:
    """Part lengths of a strictly decreasing sequence split by decreasing cuts.

    Returns len(cuts)+1 counts; part 0 counts values above the first cut,
    part j the values strictly between cuts j and j+1, the last part the
    values below the final cut.  A value equal to a cut raises ValueError.
    """
    for v in values_desc:
        if v in cuts_desc:
            raise ValueError(f"value {v} ties a cut")
    lengths = []
    rest = list(values_desc)
    for cut in cuts_desc:
        above = [v for v in rest if v > cut]
        lengths.append(len(above))
        rest = rest[len(above):]
    lengths.append(len(rest))
    return tuple(lengths)


def split_indices(m: RegularMotiveData, mp: RegularMotiveData) -> tuple[int, ...]:
    """sp(i, M; M') for 0 <= i <= rank(M); the parts partition rank(M')."""
    w = m.weight + mp.weight
    values = [-2 * r for r in reversed(mp.hodge_p)]  # doubled -r_{n'} > ... > -r_1
    cuts = [2 * p - w for p in m.hodge_p]  # doubled p_i - w/2
    try:
        lengths = split_lengths(values, cuts)
    except ValueError:
        raise PpClassError(
            "some p_i + r_j equals w/2: the tensor product has a (p,p)-class"
        ) from None
    return lengths


def verify_cardinality_lemma(m: RegularMotiveData, mp: RegularMotiveData) -> bool:
    """Check #{u : (t,u) in A} = sp(t) + ... + sp(n) for every row t.

    Returns False on mismatch, which would indicate an implementation bug
    in either set_A or split_indices.
    """
    a_set = set_A(m, mp)
    sp = split_indices(m, mp)
    for t in range(1, m.rank + 1):
        row_count = sum(1 for (tt, _) in a_set.members if tt == t)
        if row_count != sum(sp[j] for j in range(t, m.rank + 1)):
            return False
    return True
