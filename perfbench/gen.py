"""Seeded benchmark inputs, generated and predicted without periodkit.

Keeping the generator here (and not in ``periodkit.sampling``) keeps the
inputs of a given seed fixed when the program's own sampler changes.

A motive is ``(weight, hodge_p)`` with strictly decreasing p-indices in
[-9, 9] and weight in [-4, 4].  The restricted tensor product of a pair
has a (p,p)-class exactly when some ``p_a + r_b`` equals ``(w + w')/2``;
that tie is tested in integers as ``2 (p_a + r_b) == w + w'``.  The
prediction helpers below recompute, from the same few formulas, what the
``pk`` tool must answer, so the benchmark can check its outputs.
"""

from __future__ import annotations

import random
from fractions import Fraction

P_SPAN = 9
W_SPAN = 4
REP_SPAN = 8
REP_W_SPAN = 3


def motive(rng: random.Random, n: int) -> tuple[int, tuple[int, ...]]:
    ps = sorted(rng.sample(range(-P_SPAN, P_SPAN + 1), n), reverse=True)
    return rng.randint(-W_SPAN, W_SPAN), tuple(ps)


def has_tie(m, mp) -> bool:
    """True when the restricted tensor product of ``m`` and ``mp`` has a (p,p)-class."""
    w = m[0] + mp[0]
    return any(2 * (p + r) == w for p in m[1] for r in mp[1])


def single_has_tie(m) -> bool:
    """True when the restriction of ``m`` alone has a (p,p)-class."""
    return any(2 * p == m[0] for p in m[1])


def pp_free_pair(rng: random.Random, n: int, np_: int):
    while True:
        m, mp = motive(rng, n), motive(rng, np_)
        if not has_tie(m, mp):
            return m, mp


def pp_pair(rng: random.Random, n: int, np_: int):
    while True:
        m, mp = motive(rng, n), motive(rng, np_)
        if has_tie(m, mp):
            return m, mp


def _interval(lower: list[int], weight: int) -> tuple[int, int]:
    """Critical set [1 + max p, min q] over the classes p < q of a swap-closed set."""
    top = max(lower)
    return 1 + top, weight - top


def pair_interval(m, mp) -> tuple[int, int]:
    """Critical interval of R(M x M'), for a tie-free pair."""
    w = m[0] + mp[0]
    sums = [p + r for p in m[1] for r in mp[1]]
    return _interval([s for s in sums + [w - s for s in sums] if 2 * s < w], w)


def single_interval(m) -> tuple[int, int]:
    """Critical interval of R(M), for a tie-free motive."""
    w, ps = m
    return _interval([p for p in list(ps) + [w - p for p in ps] if 2 * p < w], w)


def set_a(m, mp) -> list[list[int]]:
    """The index set A: pairs (a, b) with 2 (p_a + r_b) > w + w', sorted."""
    w = m[0] + mp[0]
    return [
        [a, b]
        for a, p in enumerate(m[1], start=1)
        for b, r in enumerate(mp[1], start=1)
        if 2 * (p + r) > w
    ]


def rep(rng: random.Random, n: int) -> tuple[int, tuple[Fraction, ...]]:
    """An infinity type ``(w, a)``: decreasing exponents in Z + (n-1)/2."""
    half = Fraction(n - 1, 2)
    offsets = sorted(rng.sample(range(-REP_SPAN, REP_SPAN + 1), n), reverse=True)
    return rng.randint(-REP_W_SPAN, REP_W_SPAN), tuple(o + half for o in offsets)


def critical_rep_pair(rng: random.Random, n: int, np_: int):
    """A pair with no exponent sum a_i + b_j equal to -(w + w')/2."""
    while True:
        pi, pip = rep(rng, n), rep(rng, np_)
        w = pi[0] + pip[0]
        if all(2 * (a + b) != -w for a in pi[1] for b in pip[1]):
            return pi, pip


def rep_pair_points(pi, pip) -> tuple[Fraction, Fraction]:
    """First and last critical point of a rep pair, on the grid Z + (n+n')/2."""
    w = pi[0] + pip[0]
    lows, highs = [], []
    for a in pi[1]:
        for b in pip[1]:
            s = a + b
            if 2 * s > -w:
                lows.append(-s)
                highs.append(s + w + 1)
            else:
                lows.append(s + w)
                highs.append(-s + 1)
    return max(lows) + 1, min(highs) - 1


def rational_text(x) -> str:
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def motive_json(label: str, m) -> dict:
    return {"label": label, "rank": len(m[1]), "weight": m[0], "hodge_p": list(m[1])}


def rep_json(label: str, pi) -> dict:
    return {
        "label": label,
        "n": len(pi[1]),
        "w": pi[0],
        "a": [rational_text(x) for x in pi[1]],
        "conjugate_self_dual": True,
        "discrete_series_split_place": True,
    }
