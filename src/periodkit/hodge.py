"""Exact data model for regular pure Hodge data over a quadratic imaginary field.

A regular motive is reduced here to its combinatorial shadow: a rank, a
purity weight and a strictly decreasing list of Hodge p-indices
(regularity means every Hodge number is at most one, so the list of
p-indices determines the Hodge type).  The functors that matter
downstream act on this shadow through closed-form index arithmetic:

* complex conjugation:  p_i  ->  w - p_{n+1-i}
* dual:                 p_i  ->  -p_{n+1-i},  weight -> -w
* Tate twist by k:      p_i  ->  p_i - k,     weight -> w - 2k
* determinant:          rank-one with p = sum of the p_i
* tensor + restriction to the rationals: a Hodge multiset of 2nn' classes

Everything is exact integer arithmetic.  Half-integers appear only on
the automorphic side, where exponents are read as
:class:`fractions.Fraction` values but stored, checked and used as
their doubles, which are integers (:mod:`periodkit.automorphic`).  All
values are immutable and equal by their fields, through the base
:class:`periodkit.value.Value`.  Every operation is a pure function.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable, Mapping

from .value import Frozen, Value


class RegularMotiveData(Value):
    """Rank, purity weight and strictly decreasing Hodge p-indices.

    The implied q-indices are q_i = weight - p_i.  Construction rejects
    a repeated p-index: regularity is a running assumption and merging
    silently would corrupt every downstream index computation.  It also
    rejects a weight or p-index whose type is not int, a bool included.
    """

    __slots__ = ("label", "weight", "hodge_p")

    def __init__(self, label: str, weight: int, hodge_p: Iterable[int]):
        hodge_p = tuple(hodge_p)
        if not hodge_p:
            raise ValueError("a motive has positive rank: hodge_p is empty")
        for p in hodge_p:
            if type(p) is not int:
                raise ValueError(f"Hodge p-indices must be integers, got {p!r}")
        if type(weight) is not int:
            raise ValueError(f"weight must be an integer, got {weight!r}")
        for a, b in zip(hodge_p, hodge_p[1:]):
            if a <= b:
                raise ValueError(
                    f"hodge_p must be strictly decreasing (regularity), got {hodge_p}"
                )
        object.__setattr__(self, "label", label)
        object.__setattr__(self, "weight", weight)
        object.__setattr__(self, "hodge_p", hodge_p)

    @property
    def rank(self) -> int:
        return len(self.hodge_p)

    def conjugate(self) -> "RegularMotiveData":
        """Hodge data of the conjugate realization: p_i -> w - p_{n+1-i}."""
        ps = tuple(self.weight - p for p in reversed(self.hodge_p))
        return RegularMotiveData(self.label, self.weight, ps)

    def dual(self) -> "RegularMotiveData":
        """Hodge data of the dual: weight -w, p_i -> -p_{n+1-i}."""
        ps = tuple(-p for p in reversed(self.hodge_p))
        return RegularMotiveData(self.label, -self.weight, ps)

    def tate_twist(self, k: int) -> "RegularMotiveData":
        """Twist by k: weight drops by 2k, every p-index by k."""
        if k == 0:
            return self
        ps = tuple(p - k for p in self.hodge_p)
        return RegularMotiveData(self.label, self.weight - 2 * k, ps)

    def determinant(self) -> "RegularMotiveData":
        """Rank-one data of the determinant: weight n*w, p = sum(p_i)."""
        return RegularMotiveData(
            self.label, self.rank * self.weight, (sum(self.hodge_p),)
        )


def _checked_pairs(weight: int, counts: Mapping[tuple[int, int], int]) -> tuple:
    """The sorted (p, q, multiplicity) triples of a (p, q) -> multiplicity mapping.

    Raises ``ValueError`` unless the mapping is non-empty, the weight is an
    int, and every class is pure of ``weight`` and as frequent as its swap.
    Each distinct class is checked once.  The class entries are ints, which
    the callers guarantee: :class:`HodgeMultiset` checks every entry before
    it counts, and :func:`restriction_tensor` adds the int p-indices of two
    :class:`RegularMotiveData`.
    """
    if not counts:
        raise ValueError("a Hodge multiset is non-empty")
    if type(weight) is not int:
        raise ValueError(f"weight must be an integer, got {weight!r}")
    for (p, q), mult in counts.items():
        if p + q != weight:
            raise ValueError(f"class ({p},{q}) is not pure of weight {weight}")
        if counts.get((q, p), 0) != mult:
            raise ValueError(
                f"not closed under swap: ({p},{q}) has multiplicity {mult}, "
                f"({q},{p}) has {counts.get((q, p), 0)}"
            )
    return tuple(sorted([(p, q, mult) for (p, q), mult in counts.items()]))


class HodgeMultiset(Value):
    """Multiset of (p, q) classes with multiplicities, pure of one weight.

    This is the Hodge type of a (generally non-regular) motive over the
    rationals, e.g. the restriction of a tensor product.  It is built
    from an iterable of (p, q) classes, repeats allowed, which must be
    non-empty, of int entries and an int weight (no bool, float or
    Fraction), pure of ``weight`` (p + q equals the weight) and closed
    under the swap (p, q) -> (q, p); nothing downstream checks these
    again.  The read API is ``weight``, ``pairs``, :meth:`pp_class` and
    :meth:`dual`.  ``pairs`` is the canonical sorted tuple of (p, q,
    multiplicity): as q = weight - p, each p occurs once, in increasing order.
    """

    __slots__ = ("weight", "pairs")

    def __init__(self, weight: int, classes: Iterable[tuple[int, int]]):
        classes = tuple(classes)
        # Every entry, not only each distinct class: 1.0 and True equal 1,
        # and a Counter would count them as it.
        for p, q in classes:
            if type(p) is not int or type(q) is not int:
                bad = p if type(p) is not int else q
                raise ValueError(f"class ({p},{q}) is not integral: {bad!r} is not an int")
        object.__setattr__(self, "weight", weight)
        object.__setattr__(self, "pairs", _checked_pairs(weight, Counter(classes)))

    def pp_class(self) -> int | None:
        """Return p if the fixed class (p, p) occurs, else None."""
        for p, q, _ in self.pairs:
            if p == q:
                return p
        return None

    def dual(self) -> "HodgeMultiset":
        """Multiset of the dual: classes (-p, -q), weight negated."""
        return HodgeMultiset(
            -self.weight,
            (pq for p, q, m in self.pairs for pq in [(-p, -q)] * m),
        )


def restriction_tensor(m: RegularMotiveData, mp: RegularMotiveData) -> HodgeMultiset:
    """Hodge multiset of the tensor product restricted to the rationals.

    The Betti realization is (M x M') + (M^c x M'^c).  Conjugation sends
    each sum s = p_a + r_b to w - s, so the second summand's classes are
    the swaps (w - s, s) of the first summand's classes (s, w - s).  Both
    are counted straight into one mapping, which is checked once per
    distinct class.
    """
    weight = m.weight + mp.weight
    counts: dict[tuple[int, int], int] = {}
    for p in m.hodge_p:
        for r in mp.hodge_p:
            s = p + r
            counts[s, weight - s] = counts.get((s, weight - s), 0) + 1
            counts[weight - s, s] = counts.get((weight - s, s), 0) + 1
    h = HodgeMultiset.__new__(HodgeMultiset)
    Frozen.__init__(h, weight, _checked_pairs(weight, counts))
    return h


def restriction(m: RegularMotiveData) -> HodgeMultiset:
    """Hodge multiset of a single motive over the rationals: R(M) = R(M x Z(0)), Z(0) the unit."""
    return restriction_tensor(m, RegularMotiveData("Z", 0, (0,)))


def has_no_pp_class(h: HodgeMultiset) -> bool:
    """True when no (p, p) class occurs (the critical-point hypothesis)."""
    return h.pp_class() is None
