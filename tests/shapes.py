"""Pairs built from their shape, shared by the test modules.

An n x n' shape is the order in which the doubled values of M and M'
interleave: one of C(n + n', n) choices of the slots M takes.
"""

from itertools import combinations

from periodkit.hodge import RegularMotiveData


def interleaved_pair(n, np_, slots):
    """The pair whose Hodge indices interleave as ``slots`` says.

    M takes 2x+1 at each slot x in ``slots``, M' takes -2x at the others;
    every p_a + r_b is odd, so no pair of classes is a (p,p)-class.
    """
    others = [x for x in range(n + np_) if x not in slots]
    m = RegularMotiveData("M", 0, tuple(sorted((2 * x + 1 for x in slots), reverse=True)))
    mp = RegularMotiveData("M'", 0, tuple(sorted((-2 * x for x in others), reverse=True)))
    return m, mp


def every_shape(max_rank):
    """(n, n', slots) for every shape with n, n' <= ``max_rank``."""
    for n in range(1, max_rank + 1):
        for np_ in range(1, max_rank + 1):
            for slots in combinations(range(n + np_), n):
                yield n, np_, slots
