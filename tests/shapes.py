"""Shapes and pairs of given ranks, shared by the test modules.

An n x n' shape is the order in which the doubled values of M and M'
interleave: one of C(n + n', n) choices of the slots M takes.
``periodkit.sampling.pair_of_shape`` builds the pair of a shape,
``rep_pair_of_shape`` the pair of infinity types of a shape, and
``word_spec`` reads A, T and both split indices off the slots alone.
"""

from fractions import Fraction
from itertools import combinations

from periodkit.automorphic import InfinityTypeData
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


def rep_pair_of_shape(n, np_, slots):
    """The n x n' pair of infinity types whose a and -a' interleave as ``slots`` says.

    Of the n + n' positions, Pi takes ``slots`` and Pi' the others: Pi has
    2a = 4x + ((n - 1) mod 2) at each slot x, Pi' has 2a' = -(4y + ((n' - 1)
    mod 2)) at each other y, and both weights are 0.  Then 2a + 2a' =
    4(x - y) + c with |c| <= 1 and x != y, so no exponent sum is 0 and the
    pair is critical.  The dictionary reverses the order of the
    exponents, so its images have the shape of the mirrored slots
    n + n' - 1 - x.
    """
    others = [y for y in range(n + np_) if y not in slots]
    pi = [Fraction(4 * x + (n - 1) % 2, 2) for x in slots]
    pip = [Fraction(-(4 * y + (np_ - 1) % 2), 2) for y in others]
    return (
        InfinityTypeData("Pi", 0, sorted(pi, reverse=True)),
        InfinityTypeData("Pi'", 0, sorted(pip, reverse=True)),
    )


def word_spec(n, np_, slots):
    """(A, T, sp(.; M, M'), sp(.; M', M)) of a shape, from its slots alone.

    With M's slots x_1 > ... > x_n and the others y_1 < ... < y_n': (a, b)
    is in A exactly when x_a > y_b, and sp(i) counts the y strictly
    between x_{i+1} and x_i, with x_0 above and x_{n+1} below every slot.
    T is A of the reversed word, where slot x becomes n + n' - 1 - x, and
    sp(.; M', M) is sp with the mirrored slots of M' in the role of the x.
    """
    size = n + np_
    others = [y for y in range(size) if y not in slots]

    def read(xs, ys):
        xs, ys = sorted(xs, reverse=True), sorted(ys)
        pairs = {(a, b) for a, x in enumerate(xs, 1) for b, y in enumerate(ys, 1) if x > y}
        cuts = [size, *xs, -1]
        return pairs, tuple(sum(lo < y < hi for y in ys) for hi, lo in zip(cuts, cuts[1:]))

    def mirror(zs):
        return [size - 1 - z for z in zs]

    a, sp = read(slots, others)
    t, _ = read(mirror(slots), mirror(others))
    _, sp_sym = read(mirror(others), mirror(slots))
    return a, t, sp, sp_sym
