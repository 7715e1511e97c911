"""Hodge data model: functors, restriction, and the no-(p,p) predicate."""

import random
from fractions import Fraction

import pytest

from periodkit import (
    HalfInt,
    HodgeMultiset,
    RegularMotiveData,
    has_no_pp_class,
    restriction,
    restriction_tensor,
)


def mot(weight, ps, label="M"):
    return RegularMotiveData(label, weight, tuple(ps))


class TestHalfInt:
    def test_construction_and_twice(self):
        assert HalfInt(3, 2).twice == 3
        assert HalfInt(2).twice == 4
        assert HalfInt(-1, 2) + HalfInt(1, 2) == 0

    def test_rejects_other_denominators(self):
        with pytest.raises(ValueError):
            HalfInt(1, 3)

    def test_arithmetic_is_exact(self):
        x = HalfInt(1, 2)
        total = sum([x] * 10001)
        assert total * 2 == 10001


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
            assert h.total_multiplicity() == 2 * m.rank * mp.rank
            assert all(h.multiplicity(q, p) == mult for p, q, mult in h.items())


class TestPpClass:
    def test_odd_weight_never_has_pp(self):
        h = HodgeMultiset.of(1, [(1, 0), (0, 1)])
        assert has_no_pp_class(h)

    def test_zero_weight_pp(self):
        assert not has_no_pp_class(HodgeMultiset.of(0, [(0, 0), (0, 0)]))

    def test_four_pair_example(self):
        h = restriction_tensor(mot(1, [1, 0]), mot(0, [1], "M'"))
        assert has_no_pp_class(h)

    def test_odd_weight_property(self):
        rng = random.Random(5)
        for _ in range(100):
            w = 2 * rng.randint(-3, 3) + 1
            p = rng.randint(-5, 5)
            h = HodgeMultiset.of(w, [(p, w - p), (w - p, p)])
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

    def test_multiset_rejects_impure(self):
        with pytest.raises(ValueError):
            HodgeMultiset.of(0, [(1, 0), (0, 1)])

    def test_multiset_rejects_unswapped(self):
        with pytest.raises(ValueError):
            HodgeMultiset.of(1, [(1, 0)])

    def test_multiset_rejects_non_integral_classes(self):
        half = [(Fraction(3, 2), Fraction(-1, 2)), (Fraction(-1, 2), Fraction(3, 2))]
        with pytest.raises(ValueError, match=r"class \(3/2,-1/2\) is not integral"):
            HodgeMultiset.of(1, half)
        with pytest.raises(ValueError, match="entries must be integers"):
            HodgeMultiset(1, tuple(sorted((p, q, 1) for p, q in half)))
        assert HodgeMultiset.of(1, [(Fraction(1), 0), (0, Fraction(1))]).pairs == (
            (0, 1, 1),
            (1, 0, 1),
        )

    def test_restriction_single(self):
        h = restriction(mot(0, [2]))
        assert h.pairs == ((-2, 2, 1), (2, -2, 1))

    def test_multiset_dual(self):
        h = restriction_tensor(mot(1, [1, 0]), mot(0, [1], "M'"))
        assert h.dual().weight == -1
        assert h.dual().pairs == ((-2, 1, 1), (-1, 0, 1), (0, -1, 1), (1, -2, 1))
