"""Seeded instance generators for the tests and the CLI suites, and the pair of a shape.

Every generator takes an explicit :class:`random.Random` so whole runs
are reproducible from a single seed.  ``random_pp_free_pair`` and
``random_critical_rep_pair`` redraw a pair with a (p,p)-class or not
critical; both end fast, as a random pair fails only on exact ties.
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
    rng: random.Random, max_rank: int
) -> tuple[RegularMotiveData, RegularMotiveData]:
    """A pair whose restricted tensor product has no (p,p)-class."""
    while True:
        n, np_ = rng.randint(1, max_rank), rng.randint(1, max_rank)
        m, mp = random_motive(rng, n, "M"), random_motive(rng, np_, "M'")
        if has_no_pp_class(restriction_tensor(m, mp)):
            return m, mp


def pair_of_shape(
    n: int, np_: int, slots: tuple[int, ...]
) -> tuple[RegularMotiveData, RegularMotiveData]:
    """The n x n' pair whose doubled values interleave as ``slots`` says.

    Of the n + n' positions, M takes ``slots`` and M' the others: M has
    p = 2x+1 at each slot x, M' has r = -2x at each other x, and both
    weights are 0.  Every p_a + r_b is odd, so there is no (p,p)-class.
    """
    others = [x for x in range(n + np_) if x not in slots]
    m = RegularMotiveData("M", 0, tuple(sorted((2 * x + 1 for x in slots), reverse=True)))
    mp = RegularMotiveData("M'", 0, tuple(sorted((-2 * x for x in others), reverse=True)))
    return m, mp


def random_swap_closed_multiset(rng: random.Random) -> HodgeMultiset:
    """A swap-closed Hodge multiset without (p,p)-class, repeats allowed."""
    weight = rng.randint(-_W_SPAN, _W_SPAN)
    ps = [p for p in range(-6, 7) if 2 * p != weight]
    classes = []
    for _ in range(rng.randint(1, 4)):
        p = rng.choice(ps)
        classes.append((p, weight - p))
        classes.append((weight - p, p))
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
