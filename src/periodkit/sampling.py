"""Seeded random instance generators shared by the tests and the CLI suites.

Every generator takes an explicit :class:`random.Random` so whole runs
are reproducible from a single seed.  Rejection loops (for the
no-(p,p)-class hypothesis and for pair criticality) terminate fast: a
random pair fails only on exact integer ties.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .automorphic import InfinityTypeData, pair_is_critical
from .hodge import HodgeMultiset, RegularMotiveData, has_no_pp_class, restriction_tensor

_P_SPAN = 9
_W_SPAN = 4
_A_SPAN = 8

#: The largest rank both generators can draw: each samples n distinct values from its span.
MAX_RANK = min(2 * _P_SPAN + 1, 2 * _A_SPAN + 1)


def random_motive(rng: random.Random, n: int, label: str = "M") -> RegularMotiveData:
    ps = sorted(rng.sample(range(-_P_SPAN, _P_SPAN + 1), n), reverse=True)
    return RegularMotiveData(label, rng.randint(-_W_SPAN, _W_SPAN), tuple(ps))


def random_pp_free_pair(
    rng: random.Random, max_rank: int, ranks: tuple[int, int] | None = None
) -> tuple[RegularMotiveData, RegularMotiveData]:
    """A pair whose restricted tensor product has no (p,p)-class."""
    while True:
        n = ranks[0] if ranks else rng.randint(1, max_rank)
        np_ = ranks[1] if ranks else rng.randint(1, max_rank)
        m = random_motive(rng, n, "M")
        mp = random_motive(rng, np_, "M'")
        if has_no_pp_class(restriction_tensor(m, mp)):
            return m, mp


def random_swap_closed_multiset(rng: random.Random) -> HodgeMultiset:
    """A swap-closed Hodge multiset without (p,p)-class, repeats allowed."""
    while True:
        weight = rng.randint(-_W_SPAN, _W_SPAN)
        classes = []
        for _ in range(rng.randint(1, 4)):
            p = rng.randint(-6, 6)
            if 2 * p == weight:
                continue
            classes.append((p, weight - p))
            classes.append((weight - p, p))
        if classes:
            return HodgeMultiset(weight, classes)


def random_infinity_type(
    rng: random.Random,
    n: int,
    label: str = "Pi",
    csd: bool = False,
    ds_split: bool = False,
) -> InfinityTypeData:
    offsets = sorted(rng.sample(range(-_A_SPAN, _A_SPAN + 1), n), reverse=True)
    # o + (n-1)/2, an int for odd n: built directly, with no Fraction sum.
    if n % 2:
        a = tuple(o + n // 2 for o in offsets)
    else:
        a = tuple(Fraction(2 * o + n - 1, 2) for o in offsets)
    return InfinityTypeData(
        label,
        rng.randint(-3, 3),
        a,
        conjugate_self_dual=csd,
        discrete_series_split_place=ds_split,
    )


def random_critical_rep_pair(
    rng: random.Random, max_rank: int
) -> tuple[InfinityTypeData, InfinityTypeData]:
    while True:
        pi = random_infinity_type(rng, rng.randint(1, max_rank), "Pi", csd=True, ds_split=True)
        pip = random_infinity_type(rng, rng.randint(1, max_rank), "Pi'", csd=True, ds_split=True)
        if pair_is_critical(pi, pip):
            return pi, pip
