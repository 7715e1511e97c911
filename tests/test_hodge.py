"""Hodge data model: functors, restriction, and the no-(p,p) predicate."""

import random
import re
from fractions import Fraction

import pytest

from periodkit.hodge import (
    HodgeMultiset,
    RegularMotiveData,
    has_no_pp_class,
    restriction,
    restriction_tensor,
)
from periodkit.sampling import pair_of_shape
from shapes import every_shape


def mot(weight, ps, label="M"):
    return RegularMotiveData(label, weight, tuple(ps))


class TestConjugate:
    def test_self_conjugate_elliptic_shape(self):
        m = mot(1, [1, 0])
        assert m.conjugate().hodge_p == (1, 0)

    def test_rank_one(self):
        assert mot(0, [2]).conjugate().hodge_p == (-2,)

    def test_rank_three(self):
        c = mot(2, [3, 1, 0]).conjugate()
        assert c.weight == 2 and c.hodge_p == (2, 1, -1)

    def test_involution(self):
        rng = random.Random(1)
        for _ in range(100):
            ps = sorted(rng.sample(range(-9, 10), rng.randint(1, 5)), reverse=True)
            m = mot(rng.randint(-4, 4), ps)
            assert m.conjugate().conjugate() == m


class TestDual:
    def test_examples(self):
        d = mot(1, [1, 0]).dual()
        assert d.weight == -1 and d.hodge_p == (0, -1)
        assert mot(0, [0]).dual() == mot(0, [0])
        d = mot(2, [3, 1, 0]).dual()
        assert d.weight == -2 and d.hodge_p == (0, -1, -3)

    def test_involution_and_commutation(self):
        rng = random.Random(2)
        for _ in range(100):
            ps = sorted(rng.sample(range(-9, 10), rng.randint(1, 5)), reverse=True)
            m = mot(rng.randint(-4, 4), ps)
            assert m.dual().dual() == m
            assert m.dual().conjugate() == m.conjugate().dual()


class TestTateTwist:
    def test_tate_motive_convention(self):
        t = mot(0, [0]).tate_twist(1)
        assert t.weight == -2 and t.hodge_p == (-1,)

    def test_negative_twist(self):
        t = mot(1, [1, 0]).tate_twist(-1)
        assert t.weight == 3 and t.hodge_p == (2, 1)

    def test_identity_and_composition(self):
        m = mot(1, [1, 0])
        assert m.tate_twist(0) is m
        assert m.tate_twist(2).tate_twist(3) == m.tate_twist(5)


class TestDeterminant:
    def test_examples(self):
        d = mot(1, [1, 0]).determinant()
        assert (d.rank, d.weight, d.hodge_p) == (1, 2, (1,))
        m = mot(5, [3])
        assert m.determinant() == m
        d = mot(0, [1, 0, -1]).determinant()
        assert (d.rank, d.weight, d.hodge_p) == (1, 0, (0,))


class TestRestrictionTensor:
    def test_worked_example(self):
        h = restriction_tensor(mot(1, [1, 0]), mot(0, [1], "M'"))
        assert h.weight == 1
        assert h.pairs == ((-1, 2, 1), (0, 1, 1), (1, 0, 1), (2, -1, 1))

    def test_all_zero_case(self):
        h = restriction_tensor(mot(0, [0]), mot(0, [0], "M'"))
        assert h.pairs == ((0, 0, 2),)
        assert not has_no_pp_class(h)

    def test_symmetry(self):
        rng = random.Random(3)
        for _ in range(50):
            m = mot(rng.randint(-3, 3), sorted(rng.sample(range(-6, 7), rng.randint(1, 4)), reverse=True))
            mp = mot(rng.randint(-3, 3), sorted(rng.sample(range(-6, 7), rng.randint(1, 4)), reverse=True), "M'")
            assert restriction_tensor(m, mp).pairs == restriction_tensor(mp, m).pairs

    def test_swap_closure_and_count(self):
        rng = random.Random(4)
        for _ in range(50):
            m = mot(rng.randint(-3, 3), sorted(rng.sample(range(-6, 7), rng.randint(1, 4)), reverse=True))
            mp = mot(rng.randint(-3, 3), sorted(rng.sample(range(-6, 7), rng.randint(1, 4)), reverse=True), "M'")
            h = restriction_tensor(m, mp)
            assert sum(mult for _, _, mult in h.pairs) == 2 * m.rank * mp.rank
            counts = {(p, q): mult for p, q, mult in h.pairs}
            assert all(counts[(q, p)] == mult for (p, q), mult in counts.items())
            # Sorted by p, each p once: the order gamma_factor relies on.
            assert [p for p, _, _ in h.pairs] == sorted({p for p, _, _ in h.pairs})


def _listed(m, mp):
    """The multiset the public constructor builds from the 2nn' classes, listed one by one."""
    w = m.weight + mp.weight
    sums = [p + r for p in m.hodge_p for r in mp.hodge_p]
    return HodgeMultiset(w, [(s, w - s) for s in sums] + [(w - s, s) for s in sums])


class TestRestrictionTensorCounts:
    """restriction_tensor counts its classes into one mapping; the public
    constructor counts the same classes listed one by one."""

    def test_every_shape_up_to_rank_4(self):
        shapes = list(every_shape(4))
        assert len(shapes) == 242
        for shape in shapes:
            m, mp = pair_of_shape(*shape)
            assert restriction_tensor(m, mp) == _listed(m, mp), shape
            assert restriction_tensor(mp, m) == _listed(mp, m), shape

    @pytest.mark.parametrize(
        "m, mp",
        [
            (mot(0, [0]), mot(0, [0], "M'")),
            (mot(0, [1, -1]), mot(0, [1, -1], "M'")),
            (mot(2, [3, 1, -2]), mot(0, [0, -1], "M'")),
            (mot(-1, [4, 0]), mot(3, [2, -3, -5], "M'")),
        ],
    )
    def test_pairs_with_a_pp_class(self, m, mp):
        h = restriction_tensor(m, mp)
        assert not has_no_pp_class(h)
        assert h == _listed(m, mp)
        assert sum(mult for _, _, mult in h.pairs) == 2 * m.rank * mp.rank


def _random_motive(rng, label):
    rank = rng.randint(1, 6)
    return mot(rng.randint(-4, 4), sorted(rng.sample(range(-8, 9), rank), reverse=True), label)


class TestRestrictionWithoutConjugates:
    """The restrictions list the classes and their swaps; the reference
    builds the conjugate motives, as the Betti realization reads."""

    def test_tensor_matches_the_conjugate_built_form(self):
        rng = random.Random(8)
        pp_pairs = 0
        for _ in range(2000):
            m, mp = _random_motive(rng, "M"), _random_motive(rng, "M'")
            w = m.weight + mp.weight
            classes = [
                (p + r, w - p - r)
                for a, b in ((m, mp), (m.conjugate(), mp.conjugate()))
                for p in a.hodge_p
                for r in b.hodge_p
            ]
            h = restriction_tensor(m, mp)
            assert h == HodgeMultiset(w, classes), (m, mp)
            pp_pairs += not has_no_pp_class(h)
        assert 100 < pp_pairs < 1900

    def test_single_matches_the_conjugate_built_form(self):
        rng = random.Random(9)
        pp_motives = 0
        for _ in range(2000):
            m = _random_motive(rng, "M")
            h = restriction(m)
            classes = [(p, m.weight - p) for a in (m, m.conjugate()) for p in a.hodge_p]
            assert h == HodgeMultiset(m.weight, classes), m
            pp_motives += not has_no_pp_class(h)
        assert 100 < pp_motives < 1900


class TestPpClass:
    def test_odd_weight_never_has_pp(self):
        h = HodgeMultiset(1, [(1, 0), (0, 1)])
        assert has_no_pp_class(h)

    def test_zero_weight_pp(self):
        assert not has_no_pp_class(HodgeMultiset(0, [(0, 0), (0, 0)]))

    def test_four_pair_example(self):
        h = restriction_tensor(mot(1, [1, 0]), mot(0, [1], "M'"))
        assert has_no_pp_class(h)

    def test_odd_weight_property(self):
        rng = random.Random(5)
        for _ in range(100):
            w = 2 * rng.randint(-3, 3) + 1
            p = rng.randint(-5, 5)
            h = HodgeMultiset(w, [(p, w - p), (w - p, p)])
            assert has_no_pp_class(h)


class TestConstruction:
    def test_rejects_repeated_index(self):
        with pytest.raises(ValueError):
            mot(0, [1, 1])

    def test_rejects_increasing(self):
        with pytest.raises(ValueError):
            mot(0, [0, 1])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            mot(0, [])

    @pytest.mark.parametrize("p", [True, 1.0, Fraction(1), "1"])
    def test_rejects_an_index_that_is_not_an_int(self, p):
        with pytest.raises(ValueError) as err:
            mot(0, [p, -1])
        assert str(err.value) == f"Hodge p-indices must be integers, got {p!r}"

    @pytest.mark.parametrize("w", [True, 0.0, Fraction(0)])
    def test_rejects_a_weight_that_is_not_an_int(self, w):
        with pytest.raises(ValueError) as err:
            mot(w, [0])
        assert str(err.value) == f"weight must be an integer, got {w!r}"

    def test_multiset_rejects_empty(self):
        with pytest.raises(ValueError, match="^a Hodge multiset is non-empty$"):
            HodgeMultiset(0, [])

    def test_multiset_rejects_impure(self):
        with pytest.raises(ValueError):
            HodgeMultiset(0, [(1, 0), (0, 1)])

    def test_multiset_rejects_unswapped(self):
        with pytest.raises(ValueError):
            HodgeMultiset(1, [(1, 0)])

    def test_multiset_rejects_non_integral_classes(self):
        half = [(Fraction(3, 2), Fraction(-1, 2)), (Fraction(-1, 2), Fraction(3, 2))]
        with pytest.raises(ValueError, match=r"class \(3/2,-1/2\) is not integral"):
            HodgeMultiset(1, half)

    @pytest.mark.parametrize("one", [Fraction(1), 1.0, True])
    def test_multiset_rejects_an_entry_that_is_not_an_int(self, one):
        with pytest.raises(ValueError) as err:
            HodgeMultiset(1, [(one, 0), (0, one)])
        assert str(err.value) == f"class ({one},0) is not integral: {one!r} is not an int"
        # An entry equal to an int class already given is refused too.
        with pytest.raises(ValueError, match=re.escape(f"{one!r} is not an int")):
            HodgeMultiset(1, [(1, 0), (0, 1), (0, one), (one, 0)])

    @pytest.mark.parametrize("w", [True, 1.0, Fraction(1)])
    def test_multiset_rejects_a_weight_that_is_not_an_int(self, w):
        with pytest.raises(ValueError) as err:
            HodgeMultiset(w, [(1, 0), (0, 1)])
        assert str(err.value) == f"weight must be an integer, got {w!r}"

    def test_restriction_single(self):
        h = restriction(mot(0, [2]))
        assert h.pairs == ((-2, 2, 1), (2, -2, 1))

    def test_multiset_dual(self):
        h = restriction_tensor(mot(1, [1, 0]), mot(0, [1], "M'"))
        assert h.dual().weight == -1
        assert h.dual().pairs == ((-2, 1, 1), (-1, 0, 1), (0, -1, 1), (1, -2, 1))
