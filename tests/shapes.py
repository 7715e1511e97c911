"""Shapes and pairs of given ranks, shared by the test modules.

An n x n' shape is the order in which the doubled values of M and M'
interleave: one of C(n + n', n) choices of the slots M takes.
``periodkit.sampling.pair_of_shape`` builds the pair of a shape.
"""

from itertools import combinations

from periodkit.hodge import has_no_pp_class, restriction_tensor
from periodkit.sampling import random_motive


def random_pair_of_ranks(rng, n, np_):
    """A random n x n' pair without (p,p)-class.

    ``tests/data/oracle_layout.json`` pins pairs drawn here, so the calls
    on ``rng`` stay as they are: M, then M', until the pair is (p,p)-free.
    """
    while True:
        m, mp = random_motive(rng, n, "M"), random_motive(rng, np_, "M'")
        if has_no_pp_class(restriction_tensor(m, mp)):
            return m, mp


def every_shape(max_rank):
    """(n, n', slots) for every shape with n, n' <= ``max_rank``."""
    for n in range(1, max_rank + 1):
        for np_ in range(1, max_rank + 1):
            for slots in combinations(range(n + np_), n):
                yield n, np_, slots
