"""Infinity types, their Hodge-theoretic counterparts, and known cases.

A regular algebraic infinity type of rank n is a strictly decreasing
list of exponents a_1 > ... > a_n in Z + (n-1)/2 together with a purity
weight w (the conjugate exponents are b_i = -w - a_i).  The dictionary
to Hodge data sends it to a regular motive of weight w + n - 1 with
p-indices -a_i + (n-1)/2.

For a pair of infinity types the critical points, the split indices and
the conjectural right-hand side are defined directly on the exponents;
each construction agrees with its Hodge-side counterpart through the
dictionary, and those agreements are exercised by the verification
suite.  Conjugate self-duality and the discrete-series-at-a-split-place
hypothesis are input flags: they concern finite-place data outside this
model.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from .combinatorics import split_lengths
from .deligne import PairContext, conjecture_rhs_motivic, grouped_period_product
from .errors import AlgebraicityError, NotCriticalError, NotCriticalPairError
from .hodge import RegularMotiveData
from .lfactor import pair_critical_points
from .periods import MotiveTag, PeriodMonomial, PeriodSymbol, motive_tag

#: Gap size from which an infinity type counts as very regular.
VERY_REGULAR_GAP = 3


@dataclass(frozen=True)
class InfinityTypeData:
    """Archimedean parameters of a cuspidal representation.

    ``a`` holds the z-exponents in strictly decreasing order; regularity
    is the strict decrease, algebraicity the membership in Z + (n-1)/2.
    """

    label: str
    w: int
    a: tuple[Fraction, ...]
    conjugate_self_dual: bool = False
    discrete_series_split_place: bool = False

    def __post_init__(self):
        object.__setattr__(self, "a", tuple(Fraction(x) for x in self.a))
        if not self.a:
            raise ValueError("an infinity type has positive rank")
        if not isinstance(self.w, int):
            raise ValueError(f"purity weight must be an integer, got {self.w!r}")
        for x, y in zip(self.a, self.a[1:]):
            if x <= y:
                raise ValueError(f"exponents must be strictly decreasing, got {self.a}")
        n = len(self.a)
        for x in self.a:
            if (x - Fraction(n - 1, 2)).denominator != 1:
                raise AlgebraicityError(
                    f"exponent {x} is not in Z + (n-1)/2 for n = {n}"
                )

    @property
    def n(self) -> int:
        return len(self.a)

    def is_very_regular(self) -> bool:
        return all(x - y >= VERY_REGULAR_GAP for x, y in zip(self.a, self.a[1:]))


def rep_tag(pi: InfinityTypeData) -> MotiveTag:
    return MotiveTag(pi.label, rank=pi.n, csd=pi.conjugate_self_dual)


def dict_to_motive(pi: InfinityTypeData) -> RegularMotiveData:
    """Hodge data of the motive conjecturally attached to an infinity type."""
    n = pi.n
    half = Fraction(n - 1, 2)
    ps = []
    for a in reversed(pi.a):  # p_i = -a_{n+1-i} + (n-1)/2, decreasing
        p = -a + half
        if p.denominator != 1:
            raise AlgebraicityError(f"-({a}) + (n-1)/2 = {p} is not an integer")
        ps.append(int(p))
    return RegularMotiveData(f"M({pi.label})", pi.w + n - 1, tuple(ps))


def pair_is_critical(pi: InfinityTypeData, pip: InfinityTypeData) -> bool:
    """No exponent sum a_i + b_j hits -(w + w')/2.

    Equivalent to the restricted tensor product of the dictionary motives
    having no (p,p)-class.
    """
    forbidden = Fraction(-(pi.w + pip.w), 2)
    return all(a + b != forbidden for a in pi.a for b in pip.a)


def split_indices_auto(pi: InfinityTypeData, pip: InfinityTypeData) -> tuple[int, ...]:
    """sp(j, pi; pip): the b-exponents split by the cuts -a_i - (w+w')/2.

    Matches the motive-side split indices of the dictionary images.
    """
    w2 = Fraction(pi.w + pip.w, 2)
    cuts = [-a - w2 for a in reversed(pi.a)]  # decreasing
    try:
        return split_lengths(list(pip.a), cuts)
    except ValueError:
        raise NotCriticalPairError(
            "an exponent sum hits -(w+w')/2; the pair has no critical values"
        ) from None


def conjecture_rhs_automorphic(
    pi: InfinityTypeData, pip: InfinityTypeData, m: Fraction | int
) -> PeriodMonomial:
    """Predicted period of the pair L-value at a critical m, in P-symbols.

    Substituting P[j;pi] by Qs[j;M(pi)] recovers the Hodge-side formula
    on the dictionary images.
    """
    m = Fraction(m)
    interval = pair_critical_points(pi, pip)
    if m not in interval:
        raise NotCriticalError(
            f"m = {m} is not critical for the pair; critical m lie in {interval}"
        )
    groups = (
        (rep_tag(pi), split_indices_auto(pi, pip)),
        (rep_tag(pip), split_indices_auto(pip, pi)),
    )
    return grouped_period_product("P", m, groups, "EE';K")


def substitute_p_periods(
    mono: PeriodMonomial, mapping: dict[MotiveTag, MotiveTag]
) -> PeriodMonomial:
    """Replace automorphic period symbols P[j;T] by Qs[j;mapping[T]]."""
    factors = []
    for sym, exp in mono.factors:
        if sym.kind == "P" and sym.tag in mapping:
            sym = PeriodSymbol("Qs", sym.index, mapping[sym.tag])
        factors.append((sym, exp))
    return PeriodMonomial(factors, mono.field_label)


def crosscheck_conjecture(
    pi: InfinityTypeData, pip: InfinityTypeData, m: Fraction | int
) -> bool:
    """Identify P with Qs on the dictionary images and compare both sides."""
    auto = conjecture_rhs_automorphic(pi, pip, m)
    mm, mmp = dict_to_motive(pi), dict_to_motive(pip)
    mapping = {rep_tag(pi): motive_tag(mm), rep_tag(pip): motive_tag(mmp)}
    motivic = conjecture_rhs_motivic(PairContext.build(mm, mmp), Fraction(m))
    return substitute_p_periods(auto, mapping) == motivic


@dataclass(frozen=True)
class CaseReport:
    """Outcome of matching a pair against the proven cases."""

    very_regular_pi: bool
    very_regular_pip: bool
    case: str  # "case1" | "case2" | "case3" | "unknown"
    failed_conditions: tuple[str, ...]

    def to_json(self) -> dict:
        return {
            "very_regular_pi": self.very_regular_pi,
            "very_regular_pip": self.very_regular_pip,
            "case": self.case,
            "failed_conditions": list(self.failed_conditions),
        }


def _csd_and_descent(pi: InfinityTypeData, role: str) -> list[str]:
    fails = []
    if not pi.conjugate_self_dual:
        fails.append(f"{role} {pi.label} is not flagged conjugate self-dual")
    if pi.n % 2 == 0 and not pi.discrete_series_split_place:
        fails.append(
            f"{role} {pi.label} has even rank but lacks the "
            "discrete-series-at-a-split-place flag"
        )
    return fails


def _both_factors(big: InfinityTypeData, small: InfinityTypeData) -> list[str]:
    return _csd_and_descent(big, "first factor") + _csd_and_descent(small, "second factor")


def _shared_gap(big: InfinityTypeData, small: InfinityTypeData) -> list[str]:
    try:
        sp = list(split_indices_auto(big, small))
    except NotCriticalPairError:
        return []  # already reported by _base_failures
    if max(sp) <= 1:
        return []
    return [f"two exponents of the smaller factor fall in the same gap (split indices {sp})"]


def _base_failures(big: InfinityTypeData, small: InfinityTypeData, m: Fraction) -> list[str]:
    fails = []
    if not big.is_very_regular():
        fails.append(f"{big.label}: some gap a_i - a_(i+1) is below {VERY_REGULAR_GAP}")
    if not small.is_very_regular():
        fails.append(f"{small.label}: some gap a_i - a_(i+1) is below {VERY_REGULAR_GAP}")
    try:
        if m not in pair_critical_points(big, small):
            fails.append(f"m = {m} is not critical for the pair")
    except NotCriticalPairError:
        fails.append("the pair has no critical points at all")
    return fails


# (case, shape predicate on (big, small, m), case-specific failures), in order.
_CASES = (
    ("case1", lambda big, small, m: small.n == 1,
     lambda big, small: _csd_and_descent(big, "first factor")),
    ("case2", lambda big, small, m: big.n > small.n and (big.n - small.n) % 2 == 1,
     lambda big, small: _both_factors(big, small) + _shared_gap(big, small)),
    ("case3", lambda big, small, m: m == 1 and (big.n - small.n) % 2 == 0,
     _both_factors),
)


def classify_known_case(
    pi: InfinityTypeData, pip: InfinityTypeData, m: Fraction | int
) -> CaseReport:
    """Match (pi, pip, m) against the three proven case shapes.

    Case 1: rank-one second factor (which then need not be conjugate
    self-dual).  Case 2: strictly bigger first rank, opposite parity, and
    every split index sp(j, pi; pip) at most one (the weighted reading of
    the exponents falling in distinct gaps).  Case 3: m = 1 with equal
    parity.  Very-regularity (all gaps >= 3) and a critical m are
    required throughout.
    """
    m = Fraction(m)
    vr_pi, vr_pip = pi.is_very_regular(), pip.is_very_regular()
    big, small = (pi, pip) if pi.n >= pip.n else (pip, pi)
    failures: list[str] = []
    for case, shape, case_failures in _CASES:
        if not shape(big, small, m):
            continue
        fails = _base_failures(big, small, m) + case_failures(big, small)
        if not fails:
            return CaseReport(vr_pi, vr_pip, case, ())
        failures += [f"{case}: {f}" for f in fails]
    if not failures:  # a matched shape either returns or adds failures
        failures.append(
            "no case shape matches: need rank-one second factor, opposite "
            "parity with bigger first rank, or m = 1 with equal parity"
        )
    return CaseReport(vr_pi, vr_pip, "unknown", tuple(failures))
