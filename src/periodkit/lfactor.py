"""Archimedean Gamma-factor bookkeeping and critical points.

The archimedean factor of the L-function of a weight-w Hodge multiset H
without (p,p)-class is the product over classes (p,q) with p < q of
Gamma_C(s - p)^mult, where Gamma_C(s) = 2 (2 pi)^(-s) Gamma(s).  An
integer m is critical when neither this factor nor the one of the dual
evaluated at 1 - s has a pole at m.

Two independent computations of the critical set are provided:

* :func:`critical_interval` uses the closed form p < m < q + 1;
* :func:`critical_interval_via_poles` scans the integers stretch by
  stretch, cut next to each class index, and tests the two pole
  conditions directly at each stretch (Gamma has poles at the
  non-positive integers).

Their agreement is a cross-check exercised by the verification suite.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterator

from .errors import NotCriticalError, NotCriticalPairError, PpClassError
from .hodge import HodgeMultiset
from .value import Value


class CriticalInterval(Value):
    """Inclusive interval of critical points, stepping by 1 from lo.

    Endpoints are integers on the motivic side and may be half-integers
    on the automorphic side; in both cases the points form lo, lo+1, ...

    An interval is never empty: ``lo <= hi`` is checked on construction.
    For a swap-closed Hodge multiset without (p,p)-class every class with
    p < q has p < w/2 < q, so 1 + max p <= min q.
    """

    __slots__ = ("lo", "hi")

    def __init__(self, lo: int | Fraction, hi: int | Fraction):
        if lo > hi:
            raise ValueError(f"critical interval needs lo <= hi, got lo = {lo}, hi = {hi}")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    def __contains__(self, m) -> bool:
        return self.lo <= m <= self.hi and Fraction(m - self.lo).denominator == 1

    def points(self) -> Iterator[int | Fraction]:
        m = self.lo
        while m <= self.hi:
            yield m
            m = m + 1

    def __str__(self) -> str:
        return f"[{self.lo}, {self.hi}]"


def require_critical(m: int | Fraction, interval: CriticalInterval) -> None:
    """Raise ``NotCriticalError`` unless m is a point of the pair's ``interval``.

    An m between the ends is off the grid, which the message then names.
    """
    if m not in interval:
        grid = f" and step by 1 from {interval.lo}" if interval.lo <= m <= interval.hi else ""
        raise NotCriticalError(
            f"m = {m} is not critical for the pair; critical m lie in {interval}{grid}"
        )


def _require_no_pp(h: HodgeMultiset) -> None:
    p = h.pp_class()
    if p is not None:
        raise PpClassError(f"Hodge multiset has a ({p},{p})-class; no critical points exist")


def gamma_factor(h: HodgeMultiset) -> tuple[tuple[int, int], ...]:
    """The factor prod Gamma_C(s - p)^mult as its shifts: (p, mult) for every class with p < q."""
    _require_no_pp(h)
    return tuple((p, m) for p, q, m in h.pairs if p < q)


def _has_pole(shifts: tuple[tuple[int, int], ...], s: int) -> bool:
    """Whether the factor of ``shifts`` has a pole at the integer s: some s - p <= 0."""
    return any(s <= p for p, _ in shifts)


def critical_interval(h: HodgeMultiset) -> CriticalInterval:
    """Closed-form critical set: 1 + max p <= m <= min q over classes p < q."""
    _require_no_pp(h)
    ps = [p for p, q, _ in h.pairs if p < q]
    qs = [q for p, q, _ in h.pairs if p < q]
    return CriticalInterval(1 + max(ps), min(qs))


def critical_interval_via_poles(h: HodgeMultiset) -> CriticalInterval:
    """Critical set by direct pole scan, independent of the closed form.

    m survives when the factor of h has no pole at m and the factor of
    the dual has no pole at 1 - m.  A pole condition can change only next
    to a class index, so the integers from min(p,q)-1 to max(p,q)+1 are
    cut at v-1, v and v+1 for every class index v, and each stretch
    between consecutive cuts is tested once, at its start.  Below the
    first cut and from the last one on, one of the two conditions always
    fires.
    """
    g = gamma_factor(h)
    g_dual = gamma_factor(h.dual())
    cuts = sorted({v + d for p, q, _ in h.pairs for v in (p, q) for d in (-1, 0, 1)})
    kept = [
        (lo, hi - 1)
        for lo, hi in zip(cuts, cuts[1:])
        if not _has_pole(g, lo) and not _has_pole(g_dual, 1 - lo)
    ]
    if not kept or any(b[0] != a[1] + 1 for a, b in zip(kept, kept[1:])):
        raise AssertionError(f"pole scan produced a non-interval: stretches {kept}")
    return CriticalInterval(kept[0][0], kept[-1][1])


def pair_critical_points(pi: InfinityTypeData, pip: InfinityTypeData) -> CriticalInterval:
    """Critical points of a pair of infinity types, in Z + (n+n')/2.

    For every pair of exponents a_i (from pi) and b_j (from pip), with
    W the sum of the two purity weights: if a_i + b_j > -W/2 the point
    must satisfy -a_i - b_j < m < a_i + b_j + W + 1, otherwise
    a_i + b_j + W < m < -a_i - b_j + 1.  All bounds lie on the same
    half-integer grid as m, so the strict inequalities tighten by 1.

    In the doubled exponents, with t = 2(a_i + b_j) + W, both cases read
    (W - |t|)/2 < m < (W + |t|)/2 + 1, so the points run from
    (W - d)/2 + 1 to (W + d)/2 for d the smallest |t|: d points in all.
    Both endpoints lie on Z + (n+n')/2: the constructors fix 2a_i = n-1 and
    2b_j = n'-1 mod 2, so d, t and W+n+n' share a parity, as do W+d and n+n'.
    """
    w_sum = pi.w + pip.w
    dists = [abs(a + b + w_sum) for a in pi.a2 for b in pip.a2]
    d = min(dists)
    if d == 0:
        i, j = divmod(dists.index(0), pip.n)
        raise NotCriticalPairError(
            f"exponent sum a_{i + 1} + b_{j + 1} = {pi.a[i] + pip.a[j]} hits -(w+w')/2; "
            "the pair has no critical values"
        )
    return CriticalInterval(Fraction(w_sum - d + 2, 2), Fraction(w_sum + d, 2))
