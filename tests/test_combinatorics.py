"""Index sets A and T, split indices, and their exact lemmas."""

import random
from itertools import combinations
from math import comb

import pytest

from periodkit import combinatorics
from periodkit.automorphic import crosscheck_conjecture, dict_to_motive, split_indices_auto
from periodkit.combinatorics import (
    IndexPairSet,
    set_A,
    set_T,
    split_indices,
    verify_cardinality_lemma,
)
from periodkit.deligne import PairContext, deligne_period_raw, deligne_period_simplified
from periodkit.errors import PpClassError
from periodkit.hodge import RegularMotiveData, has_no_pp_class, restriction_tensor
from periodkit.lfactor import pair_critical_points
from periodkit.periods import expand
from periodkit.sampling import pair_of_shape, random_pp_free_pair
from shapes import every_shape, rep_pair_of_shape, word_spec

M = RegularMotiveData("M", 1, (1, 0))
MP = RegularMotiveData("M'", 0, (1,))


class TestSets:
    def test_worked_example(self):
        assert set_A(M, MP).members == frozenset({(1, 1), (2, 1)})
        assert set_T(M, MP).members == frozenset()

    def test_rank_one_pair(self):
        m = RegularMotiveData("M", 0, (1,))
        mp = RegularMotiveData("M'", 0, (0,))
        assert set_A(m, mp).members == frozenset({(1, 1)})
        assert set_T(m, mp).members == frozenset()

    def test_tie_raises_with_indices(self):
        m = RegularMotiveData("M", 0, (0,))
        with pytest.raises(PpClassError) as err:
            set_A(m, m)
        assert "(1,1)" in str(err.value)

    def test_duality_on_random_pairs(self):
        rng = random.Random(21)
        for _ in range(200):
            m, mp = random_pp_free_pair(rng, 4)
            a, t = set_A(m, mp), set_T(m, mp)
            for tt in range(1, m.rank + 1):
                for uu in range(1, mp.rank + 1):
                    assert ((tt, uu) in t.members) == (
                        (m.rank + 1 - tt, mp.rank + 1 - uu) not in a.members
                    )

    @pytest.mark.parametrize(
        "members", [{(1, 1), (1, 2), (2, 2)}, {(1, 2)}, {(2, 1)}, {(1, 1), (2, 2)}]
    )
    def test_a_set_with_a_hole_is_not_a_tableau(self, members):
        assert not IndexPairSet(frozenset(members)).is_tableau()
        assert IndexPairSet(frozenset(members | {(1, 1), (1, 2), (2, 1)})).is_tableau()

    def test_neighbour_rule_matches_the_definition_on_the_3x3_grid(self):
        grid = [(t, u) for t in range(1, 4) for u in range(1, 4)]
        for bits in range(1 << len(grid)):
            members = frozenset(c for k, c in enumerate(grid) if bits >> k & 1)
            closed = all(
                (tp, up) in members
                for t, u in members
                for tp in range(1, t + 1)
                for up in range(1, u + 1)
            )
            assert IndexPairSet(members).is_tableau() == closed, sorted(members)

    def test_tableau_on_random_pairs(self):
        rng = random.Random(22)
        for _ in range(200):
            m, mp = random_pp_free_pair(rng, 4)
            assert set_A(m, mp).is_tableau()


class TestSplitIndices:
    def test_worked_example(self):
        assert split_indices(M, MP) == (0, 0, 1)
        assert split_indices(MP, M) == (0, 2)

    def test_sum_and_conjugation_on_random_pairs(self):
        rng = random.Random(23)
        for _ in range(200):
            m, mp = random_pp_free_pair(rng, 4)
            sp = split_indices(m, mp)
            assert sum(sp) == mp.rank
            spc = split_indices(m.conjugate(), mp.conjugate())
            assert all(sp[i] == spc[m.rank - i] for i in range(m.rank + 1))

    def test_tie_raises(self):
        m = RegularMotiveData("M", 0, (1, -1))
        mp = RegularMotiveData("M'", 0, (1,))
        # p_2 + r_1 = 0 = w/2
        with pytest.raises(PpClassError):
            split_indices(m, mp)


class TestCardinalityLemma:
    def test_worked_example(self):
        assert verify_cardinality_lemma(M, MP)

    def test_empty_rows(self):
        # A empty: every p_a + r_b below w/2
        m = RegularMotiveData("M", 2, (0,))
        mp = RegularMotiveData("M'", 0, (0,))
        assert set_A(m, mp).members == frozenset()
        assert verify_cardinality_lemma(m, mp)

    def test_wrong_split_in_row_one_only_is_caught(self, monkeypatch):
        m = RegularMotiveData("M", 2, (2, 1, 0))
        mp = RegularMotiveData("M'", 1, (1, 0))
        assert split_indices(m, mp) == (0, 1, 1, 0)
        assert verify_cardinality_lemma(m, mp)
        # Moving one unit from sp(1) to sp(0) changes the sum for row 1 only: 1, not 2.
        wrong = (1, 0, 1, 0)
        monkeypatch.setattr(combinatorics, "split_indices", lambda *_: wrong)
        assert not verify_cardinality_lemma(m, mp)

    def test_random_instances(self):
        rng = random.Random(24)
        for _ in range(200):
            m, mp = random_pp_free_pair(rng, 4)
            assert verify_cardinality_lemma(m, mp)


class TestEveryShape:
    """The lemmas on the pair of every shape up to rank 6, built by ``pair_of_shape``.

    The pair of infinity types of a shape, built by ``rep_pair_of_shape``,
    is checked against the same word spec.
    """

    def test_the_pair_realizes_its_shape_and_the_lemmas_hold(self):
        shapes = 0
        for n, np_, slots in every_shape(6):
            m, mp = pair_of_shape(n, np_, slots)
            assert (m.rank, mp.rank) == (n, np_)
            assert has_no_pp_class(restriction_tensor(m, mp)), (n, np_, slots)
            # M's doubled values 2p_a - w(M) sit at ``slots`` among all n + n'.
            doubled = sorted(
                [(2 * p - m.weight, "M") for p in m.hodge_p]
                + [(mp.weight - 2 * r, "M'") for r in mp.hodge_p]
            )
            assert tuple(x for x, (_, side) in enumerate(doubled) if side == "M") == slots
            a, t = set_A(m, mp), set_T(m, mp)
            assert a.is_tableau(), (n, np_, slots)
            assert all(
                ((tt, uu) in t.members) == ((n + 1 - tt, np_ + 1 - uu) not in a.members)
                for tt in range(1, n + 1)
                for uu in range(1, np_ + 1)
            ), (n, np_, slots)
            sp = split_indices(m, mp)
            assert sum(sp) == np_ and sum(split_indices(mp, m)) == n, (n, np_, slots)
            spc = split_indices(m.conjugate(), mp.conjugate())
            assert all(sp[i] == spc[n - i] for i in range(n + 1)), (n, np_, slots)
            assert verify_cardinality_lemma(m, mp), (n, np_, slots)
            shapes += 1
        assert shapes == 3418

    def test_A_T_and_both_split_indices_match_the_word_spec(self):
        # A second spec that reads only the slots, so a fault shared by
        # set_A and split_indices, which both compare doubled values, shows.
        shapes = 0
        for n, np_, slots in every_shape(6):
            m, mp = pair_of_shape(n, np_, slots)
            a, t, sp, sp_sym = word_spec(n, np_, slots)
            assert set_A(m, mp).members == a, (n, np_, slots)
            assert set_T(m, mp).members == t, (n, np_, slots)
            assert split_indices(m, mp) == sp, (n, np_, slots)
            assert split_indices(mp, m) == sp_sym, (n, np_, slots)
            shapes += 1
        assert shapes == 3418

    def test_the_rep_pair_and_its_dictionary_images_match_the_mirrored_word_spec(self):
        # The automorphic side of a shape: split_indices_auto both ways, and
        # A and T of the dictionary images, read off the mirrored slots.
        shapes = 0
        for n, np_, slots in every_shape(6):
            pi, pip = rep_pair_of_shape(n, np_, slots)
            a, t, sp, sp_sym = word_spec(n, np_, [n + np_ - 1 - x for x in slots])
            assert split_indices_auto(pi, pip) == sp, (n, np_, slots)
            assert split_indices_auto(pip, pi) == sp_sym, (n, np_, slots)
            m, mp = dict_to_motive(pi), dict_to_motive(pip)
            assert set_A(m, mp).members == a, (n, np_, slots)
            assert set_T(m, mp).members == t, (n, np_, slots)
            shapes += 1
        assert shapes == 3418

    def test_the_conjecture_crosschecks_at_every_critical_point_of_each_rep_pair(self):
        # Every shape up to rank 4, each at all its critical points.
        points = 0
        for n, np_, slots in every_shape(4):
            pi, pip = rep_pair_of_shape(n, np_, slots)
            for m in pair_critical_points(pi, pip).points():
                assert crosscheck_conjecture(pi, pip, m), (n, np_, slots, m)
                points += 1
        assert points == 878

    def test_the_shapes_of_each_rank_pair_give_distinct_sets_A(self):
        # Shape and tableau determine each other, so one pair per tableau
        # covers every pair the oracle reads only through n, n', A and T.
        for n in range(1, 7):
            for np_ in range(1, 7):
                sets = {
                    set_A(*pair_of_shape(n, np_, slots)).members
                    for slots in combinations(range(n + np_), n)
                }
                assert len(sets) == comb(n + np_, n), (n, np_)

    def test_simplified_period_expands_to_the_raw_one_up_to_rank_5(self):
        shapes = list(every_shape(5))
        assert len(shapes) == 912
        for n, np_, slots in shapes:
            ctx = PairContext.build(*pair_of_shape(n, np_, slots))
            assert expand(deligne_period_simplified(ctx)) == expand(deligne_period_raw(ctx)), (
                n, np_, slots)
