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

Everything is exact integer arithmetic; half-integers appear only on the
automorphic side and are handled by :class:`HalfInt`.  All values are
immutable and every operation is a pure function.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator


class HalfInt(Fraction):
    """An exact rational whose double is an integer.

    Arithmetic is inherited from :class:`fractions.Fraction` (results are
    plain fractions, still exact); construction checks that the
    denominator divides 2.
    """

    def __new__(cls, numerator=0, denominator=None):
        if denominator is None:
            self = super().__new__(cls, numerator)
        else:
            self = super().__new__(cls, numerator, denominator)
        if self.denominator not in (1, 2):
            raise ValueError(f"not a half-integer: {self}")
        return self

    @property
    def twice(self) -> int:
        """The doubled value as an exact integer."""
        return self.numerator * (2 // self.denominator)


@dataclass(frozen=True)
class RegularMotiveData:
    """Rank, purity weight and strictly decreasing Hodge p-indices.

    The implied q-indices are q_i = weight - p_i.  Construction rejects
    a repeated p-index: regularity is a running assumption and merging
    silently would corrupt every downstream index computation.
    """

    label: str
    weight: int
    hodge_p: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "hodge_p", tuple(self.hodge_p))
        if not self.hodge_p:
            raise ValueError("a motive has positive rank: hodge_p is empty")
        for p in self.hodge_p:
            if not isinstance(p, int):
                raise ValueError(f"Hodge p-indices must be integers, got {p!r}")
        if not isinstance(self.weight, int):
            raise ValueError(f"weight must be an integer, got {self.weight!r}")
        for a, b in zip(self.hodge_p, self.hodge_p[1:]):
            if a <= b:
                raise ValueError(
                    f"hodge_p must be strictly decreasing (regularity), got {self.hodge_p}"
                )

    @property
    def rank(self) -> int:
        return len(self.hodge_p)

    def hodge_pairs(self) -> tuple[tuple[int, int], ...]:
        return tuple((p, self.weight - p) for p in self.hodge_p)

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


@dataclass(frozen=True)
class HodgeMultiset:
    """Multiset of (p, q) classes with multiplicities, pure of one weight.

    This is the Hodge type of a (generally non-regular) motive over the
    rationals, e.g. the restriction of a tensor product.  Invariants:
    p + q equals the weight for every class, and the multiset is closed
    under the swap (p, q) -> (q, p).

    ``pairs`` is the canonical sorted tuple of (p, q, multiplicity).
    """

    weight: int
    pairs: tuple[tuple[int, int, int], ...]

    def __post_init__(self):
        object.__setattr__(self, "pairs", tuple(tuple(t) for t in self.pairs))
        if not self.pairs:
            raise ValueError("a Hodge multiset is non-empty")
        counts = {}
        for p, q, mult in self.pairs:
            if not (isinstance(p, int) and isinstance(q, int) and isinstance(mult, int)):
                raise ValueError(
                    f"class ({p!r},{q!r}) with multiplicity {mult!r}: entries must be integers"
                )
            if mult <= 0:
                raise ValueError(f"multiplicities are positive, got {mult} at ({p},{q})")
            if p + q != self.weight:
                raise ValueError(
                    f"class ({p},{q}) is not pure of weight {self.weight}"
                )
            if (p, q) in counts:
                raise ValueError(f"class ({p},{q}) listed twice")
            counts[(p, q)] = mult
        for (p, q), mult in counts.items():
            if counts.get((q, p)) != mult:
                raise ValueError(
                    f"not closed under swap: ({p},{q}) has multiplicity {mult}, "
                    f"({q},{p}) has {counts.get((q, p), 0)}"
                )
        if self.pairs != tuple(sorted(self.pairs)):
            raise ValueError("pairs must be in canonical sorted order; use .of()")

    @classmethod
    def of(cls, weight: int, pq_iterable: Iterable[tuple[int, int]]) -> "HodgeMultiset":
        """Build from an iterable of (p, q) classes, repeats allowed."""
        pairs = []
        for (p, q), m in Counter(pq_iterable).items():
            if p != int(p) or q != int(q):
                raise ValueError(f"class ({p},{q}) is not integral")
            pairs.append((int(p), int(q), m))
        return cls(weight, tuple(sorted(pairs)))

    def items(self) -> Iterator[tuple[int, int, int]]:
        return iter(self.pairs)

    def multiplicity(self, p: int, q: int) -> int:
        for pp, qq, m in self.pairs:
            if (pp, qq) == (p, q):
                return m
        return 0

    def total_multiplicity(self) -> int:
        return sum(m for _, _, m in self.pairs)

    def pp_class(self) -> int | None:
        """Return p if the fixed class (p, p) occurs, else None."""
        for p, q, _ in self.pairs:
            if p == q:
                return p
        return None

    def dual(self) -> "HodgeMultiset":
        """Multiset of the dual: classes (-p, -q), weight negated."""
        return HodgeMultiset.of(
            -self.weight,
            (pq for p, q, m in self.pairs for pq in [(-p, -q)] * m),
        )


def restriction_tensor(m: RegularMotiveData, mp: RegularMotiveData) -> HodgeMultiset:
    """Hodge multiset of the tensor product restricted to the rationals.

    The Betti realization is (M x M') + (M^c x M'^c), so the classes are
    the 2nn' sums p_a + r_b and p^c_t + r^c_u with their complements.
    The result is swap-closed by construction.
    """
    weight = m.weight + mp.weight
    classes = []
    for p in m.hodge_p:
        for r in mp.hodge_p:
            classes.append((p + r, weight - p - r))
    for pc in m.conjugate().hodge_p:
        for rc in mp.conjugate().hodge_p:
            classes.append((pc + rc, weight - pc - rc))
    return HodgeMultiset.of(weight, classes)


def restriction(m: RegularMotiveData) -> HodgeMultiset:
    """Hodge multiset of a single motive restricted to the rationals."""
    return HodgeMultiset.of(
        m.weight, m.hodge_pairs() + m.conjugate().hodge_pairs()
    )


def has_no_pp_class(h: HodgeMultiset) -> bool:
    """True when no (p, p) class occurs (the critical-point hypothesis)."""
    return h.pp_class() is None
