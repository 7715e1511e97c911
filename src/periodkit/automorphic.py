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
suite.  A type stores only its doubled exponents 2a_i, which are
integers: its constructor reads the exponents as Fractions once and
checks them in integers, and each construction compares doubled sums
against -(w + w') as :mod:`periodkit.combinatorics` compares doubled
Hodge indices.  :class:`fractions.Fraction` is left in the input
exponents, critical-interval endpoints and error messages.  Conjugate
self-duality and discrete series at a split place are input flags:
they concern finite-place data outside this model.
"""

from __future__ import annotations

from fractions import Fraction
from .combinatorics import split_lengths
from .deligne import PairContext, conjecture_rhs_motivic, grouped_period_product
from .errors import AlgebraicityError, NotCriticalPairError
from .hodge import RegularMotiveData
from .lfactor import pair_critical_points, require_critical
from .periods import MotiveTag, PeriodMonomial, PeriodSymbol, motive_tag
from .value import Frozen, Value

#: Gap size from which an infinity type counts as very regular.
VERY_REGULAR_GAP = 3


class InfinityTypeData(Value):
    """Archimedean parameters of a cuspidal representation.

    Built from z-exponents a_1 > ... > a_n (regular) in Z + (n-1)/2
    (algebraic), it stores only the ints 2a_i, as ``a2``; ``a`` is a_i.
    Each a_i must be an int or a Fraction and w an int: no bool, float or str.
    """

    __slots__ = ("label", "w", "a2", "conjugate_self_dual", "discrete_series_split_place")

    def __init__(
        self, label: str, w: int, a, conjugate_self_dual=False, discrete_series_split_place=False
    ):
        a = tuple(a)
        for x in a:
            if type(x) not in (int, Fraction):
                raise ValueError(f"exponents must be ints or Fractions, got {x!r}")
        if not a:
            raise ValueError("an infinity type has positive rank")
        if type(w) is not int:
            raise ValueError(f"purity weight must be an integer, got {w!r}")
        ratios = [x.as_integer_ratio() for x in a]
        if any(p * s <= r * q for (p, q), (r, s) in zip(ratios, ratios[1:])):
            got = ", ".join(map(str, a))
            raise ValueError(f"exponents must be strictly decreasing, got [{got}]")
        n = len(a)
        den = 2 - n % 2  # the denominator of every number in Z + (n-1)/2
        for x in a:
            if x.denominator != den:
                raise AlgebraicityError(f"exponent {x} is not in Z + (n-1)/2 for n = {n}")
        object.__setattr__(self, "label", label)
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "a2", tuple(p * 2 // den for p, _ in ratios))
        object.__setattr__(self, "conjugate_self_dual", conjugate_self_dual)
        object.__setattr__(self, "discrete_series_split_place", discrete_series_split_place)

    @property
    def a(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(x, 2) for x in self.a2)

    @property
    def n(self) -> int:
        return len(self.a2)

    def is_very_regular(self) -> bool:
        return all(x - y >= 2 * VERY_REGULAR_GAP for x, y in zip(self.a2, self.a2[1:]))


def rep_tag(pi: InfinityTypeData) -> MotiveTag:
    return MotiveTag(pi.label, rank=pi.n, csd=pi.conjugate_self_dual)


def dict_to_motive(pi: InfinityTypeData) -> RegularMotiveData:
    """Hodge data of the motive conjecturally attached to an infinity type."""
    n = pi.n
    # p_i = (n - 1 - 2a_{n+1-i})/2, decreasing; the constructor made it an integer.
    ps = tuple((n - 1 - a2) // 2 for a2 in reversed(pi.a2))
    return RegularMotiveData(f"M({pi.label})", pi.w + n - 1, ps)


def pair_is_critical(pi: InfinityTypeData, pip: InfinityTypeData) -> bool:
    """No exponent sum a_i + b_j hits -(w + w')/2.

    Equivalent to the restricted tensor product of the dictionary motives
    having no (p,p)-class.
    """
    forbidden = -(pi.w + pip.w)  # doubled
    return all(a + b != forbidden for a in pi.a2 for b in pip.a2)


def split_indices_auto(pi: InfinityTypeData, pip: InfinityTypeData) -> tuple[int, ...]:
    """sp(j, pi; pip): the b-exponents split by the cuts -a_i - (w+w')/2.

    Matches the motive-side split indices of the dictionary images.
    """
    w = pi.w + pip.w
    cuts = [-a - w for a in reversed(pi.a2)]  # doubled, decreasing
    try:
        return split_lengths(pip.a2, cuts)
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
    require_critical(m, pair_critical_points(pi, pip))
    groups = (
        (rep_tag(pi), split_indices_auto(pi, pip)),
        (rep_tag(pip), split_indices_auto(pip, pi)),
    )
    return grouped_period_product("P", m, groups)


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


class CaseReport(Frozen):
    """Outcome of matching a pair against the proven cases.

    ``case`` is "case1", "case2", "case3" or "unknown"; ``failed_conditions``
    is a tuple of strings.
    """

    __slots__ = ("very_regular_pi", "very_regular_pip", "case", "failed_conditions")

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


def _match(
    big: InfinityTypeData, small: InfinityTypeData, m: Fraction
) -> tuple[str, tuple[str, ...]]:
    """(case, failed conditions) for the order (big, small)."""
    failures: list[str] = []
    for case, shape, case_failures in _CASES:
        if not shape(big, small, m):
            continue
        fails = _base_failures(big, small, m) + case_failures(big, small)
        if not fails:
            return case, ()
        failures += [f"{case}: {f}" for f in fails]
    if not failures:  # a matched shape either returns or adds failures
        failures.append(
            "no case shape matches: need rank-one second factor, opposite "
            "parity with bigger first rank, or m = 1 with equal parity"
        )
    return "unknown", tuple(failures)


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

    The factor of bigger rank is the first.  At equal ranks the given
    order is tried first; if it matches no case, the swapped order is
    tried, since L(s, Π × Π') = L(s, Π' × Π), and its case is returned if
    it matches one.  Otherwise the report is the given order's.  The
    very-regular flags are always in argument order.
    """
    m = Fraction(m)
    big, small = (pi, pip) if pi.n >= pip.n else (pip, pi)
    case, failures = _match(big, small, m)
    if case == "unknown" and pi.n == pip.n:
        swapped = _match(pip, pi, m)
        if swapped[0] != "unknown":
            case, failures = swapped
    return CaseReport(pi.is_very_regular(), pip.is_very_regular(), case, failures)
