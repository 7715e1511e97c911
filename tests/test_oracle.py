"""Laurent-polynomial ring, symbolic determinant, and the period identity."""

import random
import time
from itertools import combinations, permutations
from math import comb, factorial

import pytest

from periodkit.deligne import PairContext
from periodkit.errors import SizeLimitError
from periodkit.hodge import RegularMotiveData
from periodkit.oracle import (
    LaurentPoly,
    PairVariables,
    SymMatrix,
    _coefficient_block,
    _factor_out,
    build_mat1,
    cleared_period_product,
    naive_det,
    require_shape,
    sym_det,
    verify_proposition,
)
from periodkit.sampling import random_pp_free_pair

XV = ("x", "y", "z", "w")


@pytest.fixture
def factor_splits(monkeypatch):
    """Every result of ``oracle._factor_out`` in the test, in call order."""
    import periodkit.oracle as orc

    splits = []

    def spy(minors):
        splits.append(_factor_out(minors))
        return splits[-1]

    monkeypatch.setattr(orc, "_factor_out", spy)
    return splits


def poly_of(pairs):
    out = LaurentPoly.zero(XV)
    for exps, coeff in pairs:
        out = out + LaurentPoly.monomial(XV, dict(enumerate(exps)), coeff)
    return out


class TestLaurentPoly:
    def test_ring_axioms_small(self):
        x = LaurentPoly.var(XV, 0)
        y = LaurentPoly.var(XV, 1)
        assert (x + y) * (x - y) == x * x - y * y
        assert x * y == y * x
        assert (x + y) + x == x + (y + x)
        assert (x - x).is_zero

    def test_negative_exponents(self):
        xinv = LaurentPoly.var(XV, 0, -1)
        x = LaurentPoly.var(XV, 0)
        assert x * xinv == LaurentPoly.one(XV)

    def test_monomial_index_must_name_a_variable(self):
        assert LaurentPoly.monomial(XV, {3: 1}) == LaurentPoly.var(XV, 3)
        for idx in (4, -1):
            with pytest.raises(IndexError, match=f"variable index {idx} out of range"):
                LaurentPoly.monomial(XV, {idx: 1})

    def test_str_is_canonical(self):
        p = poly_of([((1, 0, 0, 0), 2), ((0, -1, 0, 0), -1)])
        q = poly_of([((0, -1, 0, 0), -1), ((1, 0, 0, 0), 2)])
        assert str(p) == str(q) == "-1*y^-1 + 2*x"

    def test_str_of_a_constant_is_its_coefficient(self):
        assert str(LaurentPoly.one(XV)) == str(sym_det(SymMatrix(("x",), ()))) == "1"
        assert str(poly_of([((0, 0, 0, 0), 3)])) == "3"
        assert str(poly_of([((0, 0, 0, 0), -2)])) == "-2"
        assert str(poly_of([((0, 0, 0, 0), -2), ((0, 1, 0, 0), 1)])) == "-2 + y"


class TestSymDet:
    def test_one_by_one(self):
        mx = SymMatrix(XV, ((LaurentPoly.var(XV, 0),),))
        assert sym_det(mx) == LaurentPoly.var(XV, 0)

    def test_two_by_two(self):
        x, y, z, w = (LaurentPoly.var(XV, i) for i in range(4))
        mx = SymMatrix(XV, ((x, y), (z, w)))
        assert sym_det(mx) == x * w - y * z

    def test_permutation_matrix_signs(self):
        one = LaurentPoly.one(XV)
        zero = LaurentPoly.zero(XV)
        for perm in permutations(range(4)):
            rows = tuple(
                tuple(one if perm[r] == c else zero for c in range(4)) for r in range(4)
            )
            det = sym_det(SymMatrix(XV, rows))
            inversions = sum(
                1 for i in range(4) for j in range(i + 1, 4) if perm[i] > perm[j]
            )
            want = one if inversions % 2 == 0 else -one
            assert det == want

    def test_matches_permutation_sum(self):
        rng = random.Random(61)
        for _ in range(40):
            k = rng.randint(1, 4)
            rows = []
            for _ in range(k):
                row = []
                for _ in range(k):
                    p = LaurentPoly.zero(XV)
                    for _ in range(rng.randint(0, 2)):
                        exps = {rng.randrange(4): rng.randint(-2, 2)}
                        p = p + LaurentPoly.monomial(XV, exps, rng.randint(-3, 3))
                    row.append(p)
                rows.append(tuple(row))
            mx = SymMatrix(XV, tuple(rows))
            want = naive_det(mx)
            for group in (*range(1, k + 1), None):
                assert sym_det(mx, group) == want, group

    def test_block_whose_minors_differ_by_a_non_integer_ratio(self):
        # The minors of row 0 are 2P, 3P and 0 with P = x + y: 3P is not an
        # integer multiple of the first, so the block keeps its minors.
        p = poly_of([((1, 0, 0, 0), 1), ((0, 1, 0, 0), 1)])
        z, w = LaurentPoly.var(XV, 2), LaurentPoly.var(XV, 3)
        two, three = p + p, p + p + p
        assert _factor_out({0b001: two._keys, 0b010: three._keys}) is None
        mx = SymMatrix(XV, ((two, three, LaurentPoly.zero(XV)), (z, w, z * w), (w, z, z)))
        for group in (1, 2):
            assert sym_det(mx, group) == naive_det(mx), group

    def test_block_whose_minors_share_no_factor(self):
        x, y, z, w = (LaurentPoly.var(XV, i) for i in range(4))
        assert _factor_out({0b01: (x + y)._keys, 0b10: (x + z)._keys}) is None
        mx = SymMatrix(XV, ((x + y, x + z, w), (z, w * w, x), (y, z - w, y * z)))
        for group in (1, 2):
            assert sym_det(mx, group) == naive_det(mx), group

    def test_rows_whose_bounds_sum_past_half_the_field(self, factor_splits):
        # A⊗B with exponents 20: both i-blocks factor, and their shifts may
        # reach twice the bound 80 and leave the 8-bit field, yet the packed
        # result decodes to the determinant.
        a = (((20, 0, 0, 0), (0, 20, 0, 0)), ((0, 0, 20, 0), (1, 0, 0, 1)))
        b = (((0, 1, 0, 0), (0, 0, 0, -20)), ((-20, 0, 0, 0), (0, 0, 1, 0)))
        rows = tuple(
            tuple(
                poly_of([(tuple(map(sum, zip(a[i][c // 2], b[j][c % 2]))), 1)])
                for c in range(4)
            )
            for i in range(2)
            for j in range(2)
        )
        mx = SymMatrix(XV, rows)
        want = naive_det(mx)
        assert not want.is_zero
        assert sym_det(mx, 2) == want
        assert len(factor_splits) == 2 and None not in factor_splits

    @pytest.mark.parametrize("group", [0, -1])
    def test_group_below_one_raises(self, group):
        entries = [[poly_of([((i + j, 0, 0, 0), 1)]) for j in range(3)] for i in range(3)]
        mx = SymMatrix(XV, tuple(map(tuple, entries)))
        with pytest.raises(ValueError, match=f"at least 1 row, got {group}"):
            sym_det(mx, group)


class TestMat1:
    def test_one_by_one_entry(self):
        ctx = PairContext.build(
            RegularMotiveData("M", 0, (1,)), RegularMotiveData("M'", 0, (0,))
        )
        mx = build_mat1(ctx)
        pv = PairVariables.build(1, 1)
        want = LaurentPoly.monomial(
            pv.names,
            {pv.a_idx(1, 1): 1, pv.b_idx(1, 1): 1, pv.q_idx(1): -1, pv.qp_idx(1): -1},
        )
        assert mx.rows[0][0] == want
        assert mx.col_desc == (("T-complement", 1, 1),)

    def test_column_count_is_nn(self):
        rng = random.Random(62)
        for _ in range(50):
            ctx = PairContext.build(*random_pp_free_pair(rng, 3))
            mx = build_mat1(ctx)
            assert mx.size == ctx.M.rank * ctx.Mp.rank
            assert all(len(row) == mx.size for row in mx.rows)

    def test_worked_two_by_two(self):
        ctx = PairContext.build(
            RegularMotiveData("M", 1, (1, 0)), RegularMotiveData("M'", 0, (1,))
        )
        mx = build_mat1(ctx)
        assert mx.col_desc == (("T-complement", 1, 1), ("T-complement", 2, 1))


class TestVerifyProposition:
    def test_one_by_one(self):
        ctx = PairContext.build(
            RegularMotiveData("M", 0, (1,)), RegularMotiveData("M'", 0, (0,))
        )
        rep = verify_proposition(ctx)
        assert rep.ok and rep.sign == 1
        pv = PairVariables.build(1, 1)
        want = LaurentPoly.monomial(pv.names, {pv.a_idx(1, 1): 1, pv.b_idx(1, 1): 1})
        assert rep.lhs == want == rep.rhs

    def test_worked_two_by_two(self):
        ctx = PairContext.build(
            RegularMotiveData("M", 1, (1, 0)), RegularMotiveData("M'", 0, (1,))
        )
        assert verify_proposition(ctx).ok

    def test_lhs_matches_det_times_cleared(self):
        rng = random.Random(63)
        for _ in range(20):
            ctx = PairContext.build(*random_pp_free_pair(rng, 2))
            rep = verify_proposition(ctx)
            assert rep.lhs == sym_det(build_mat1(ctx)) * cleared_period_product(ctx)

    def test_random_small_shapes(self):
        rng = random.Random(64)
        for _ in range(60):
            ctx = PairContext.build(*random_pp_free_pair(rng, 3))
            assert verify_proposition(ctx).ok

    def test_cleared_periods_match_raw_q_part(self):
        from periodkit.deligne import deligne_period_raw
        from periodkit.periods import PeriodSymbol, motive_tag

        rng = random.Random(67)
        for _ in range(50):
            ctx = PairContext.build(*random_pp_free_pair(rng, 3))
            pv = PairVariables.build(ctx.M.rank, ctx.Mp.rank)
            ((key, coeff),) = cleared_period_product(ctx).terms.items()
            assert coeff == 1
            raw = deligne_period_raw(ctx)
            for a in range(1, ctx.M.rank + 1):
                want = raw.exponent(PeriodSymbol("Q", a, motive_tag(ctx.M)))
                assert key[pv.q_idx(a)] == want
            for b in range(1, ctx.Mp.rank + 1):
                want = raw.exponent(PeriodSymbol("Q", b, motive_tag(ctx.Mp)))
                assert key[pv.qp_idx(b)] == want

    def test_size_limit(self):
        rng = random.Random(65)
        ctx = PairContext.build(*random_pp_free_pair(rng, 4, ranks=(4, 4)))
        with pytest.raises(SizeLimitError):
            verify_proposition(ctx)


class TestShapeGate:
    def test_admitted_shapes(self):
        admitted = {
            (n, np_) for n in range(1, 13) for np_ in range(1, 13) if _admits(n, np_)
        }
        assert admitted == {
            (n, np_) for n in range(1, 5) for np_ in range(1, 5) if n * np_ <= 12
        }
        assert len(admitted) == 15

    @pytest.mark.parametrize("n, np_", [(1, 5), (5, 1), (2, 6), (1, 11)])
    def test_refused_shape_raises_before_any_work(self, n, np_):
        ctx = PairContext.build(*_interleaved_pair(n, np_, range(n)))
        start = time.perf_counter()
        with pytest.raises(SizeLimitError, match=f"shape {n}x{np_} is outside"):
            verify_proposition(ctx)
        assert time.perf_counter() - start < 0.1

    @pytest.mark.parametrize("n, np_", [(1, 4), (4, 1), (3, 4), (4, 3)])
    def test_admitted_rank_four_shape_passes(self, n, np_):
        ctx = PairContext.build(*_interleaved_pair(n, np_, range(n)))
        assert verify_proposition(ctx).ok


def _admits(n, np_):
    try:
        require_shape(n, np_)
    except SizeLimitError:
        return False
    return True


class TestPackedRing:
    def test_an_exponent_outside_the_field_raises(self):
        x = LaurentPoly.var(XV, 0)
        assert x ** 63 * LaurentPoly.var(XV, 0, -1) ** 62 == x
        assert LaurentPoly.var(XV, 0, 127).terms[(127, 0, 0, 0)] == 1
        with pytest.raises(OverflowError, match="bound 128"):
            LaurentPoly.var(XV, 0, 128)
        with pytest.raises(OverflowError, match="bound 128"):
            x ** 128
        with pytest.raises(OverflowError, match="bound 128"):
            LaurentPoly.var(XV, 0, 64) * LaurentPoly.var(XV, 0, 64)
        with pytest.raises(OverflowError, match="bound 128"):
            LaurentPoly(XV, {(128, 0, 0, 0): 1})
        rows = ((LaurentPoly.var(XV, 1, -100), x), (x, LaurentPoly.var(XV, 2, 28)))
        with pytest.raises(OverflowError, match="bound 128"):
            sym_det(SymMatrix(XV, rows))

    def test_sym_det_with_large_exponents_matches_permutation_sum(self):
        rng = random.Random(68)
        for _ in range(10):
            k = rng.randint(2, 4)
            rows = tuple(
                tuple(
                    poly_of(
                        [(tuple(rng.choice((-40, -1, 0, 1, 40)) for _ in XV), rng.randint(-3, 3))
                         for _ in range(rng.randint(1, 2))]
                    )
                    for _ in range(k)
                )
                for _ in range(k)
            )
            mx = SymMatrix(XV, rows)
            # A determinant term takes one entry per row, so its exponents
            # are bounded by the sum of the rows' largest exponents.
            bound = sum(
                max((abs(e) for p in row for key in p.terms for e in key), default=0)
                for row in rows
            )
            if bound < 128:
                assert sym_det(mx) == naive_det(mx)
            else:
                with pytest.raises(OverflowError):
                    sym_det(mx)

    def test_power_matches_repeated_multiplication(self):
        p = poly_of([((1, 0, 0, 0), 2), ((0, -1, 1, 0), -1), ((0, 0, 0, 3), 1)])
        want = LaurentPoly.one(XV)
        for k in range(8):
            assert p ** k == want
            want = want * p

    def test_terms_view(self):
        old = {(1, 0, 0, 0): 2, (0, -1, 0, 0): -1, (0, 0, 5, -7): 3}
        p = LaurentPoly(XV, old)
        terms = p.terms
        assert len(terms) == 3
        assert sorted(terms) == sorted(old)
        assert terms[(0, 0, 5, -7)] == 3
        assert (2, 0, 0, 0) not in terms
        assert (0, 0, 0, 1000) not in terms
        assert dict(terms) == old
        assert dict(terms.items()) == old
        with pytest.raises(TypeError):
            terms[(1, 0, 0, 0)] = 5


class TestPredictedSign:
    def test_predicted_sign_is_the_observed_sign_on_every_shape(self):
        for n in range(1, 4):
            for np_ in range(1, 4):
                rng = random.Random(f"predicted-sign/{n}x{np_}")
                for _ in range(5):
                    ctx = PairContext.build(*random_pp_free_pair(rng, 3, ranks=(n, np_)))
                    rep = verify_proposition(ctx)
                    pv = PairVariables.build(n, np_)
                    det_a = sym_det(_coefficient_block(pv, "A"))
                    det_b = sym_det(_coefficient_block(pv, "B"))
                    unsigned = det_a ** np_ * det_b ** n
                    observed = 1 if rep.lhs == unsigned else -1 if rep.lhs == -unsigned else None
                    assert rep.ok
                    assert observed == rep.sign == rep.predicted_sign
                    assert (rep.size, rep.ok, rep.sign) == (n * np_, True, observed)

    def test_wrong_prediction_fails_the_check(self, monkeypatch):
        import periodkit.oracle as orc

        ctx = PairContext.build(
            RegularMotiveData("M", 1, (1, 0)), RegularMotiveData("M'", 0, (1,))
        )
        right = verify_proposition(ctx)
        monkeypatch.setattr(orc, "_kronecker_column_sign", lambda _: -right.predicted_sign)
        wrong = verify_proposition(ctx)
        assert right.ok and not wrong.ok
        assert wrong.sign == right.sign == -wrong.predicted_sign


def _interleaved_pair(n, np_, slots):
    """The pair whose Hodge indices interleave as ``slots`` says.

    M takes 2x+1 at each slot x in ``slots``, M' takes -2x at the others;
    every p_a + r_b is odd, so no pair of classes is a (p,p)-class.
    """
    others = [x for x in range(n + np_) if x not in slots]
    m = RegularMotiveData("M", 0, tuple(sorted((2 * x + 1 for x in slots), reverse=True)))
    mp = RegularMotiveData("M'", 0, tuple(sorted((-2 * x for x in others), reverse=True)))
    return m, mp


@pytest.mark.parametrize(
    "n, np_",
    [(n, np_) for n in range(1, 4) for np_ in range(1, 4)] + [(1, 4), (4, 1), (2, 4), (4, 2)],
)
def test_identity_holds_on_every_tableau_of_the_shape(n, np_):
    seen = set()
    for slots in combinations(range(n + np_), n):
        ctx = PairContext.build(*_interleaved_pair(n, np_, slots))
        seen.add((ctx.A.members, ctx.T.members))
        assert verify_proposition(ctx).ok, (n, np_, slots)
    assert len(seen) == comb(n + np_, n)


@pytest.mark.parametrize(
    "n, np_", [(n, np_) for n in range(1, 5) for np_ in range(1, 5) if n * np_ <= 12]
)
def test_every_row_block_of_mat1_factors(n, np_, factor_splits):
    # sym_det's fast route: in verify_proposition, each i-block of Mat1
    # factors into one ±monomial·det(B) and monomials, one per choice of
    # n' distinct b-indices; det(A) and det(B) are one block each.
    ctx = PairContext.build(*_interleaved_pair(n, np_, range(n)))
    assert verify_proposition(ctx).ok
    assert len(factor_splits) == n + 2 and None not in factor_splits
    for common, monomials in factor_splits[:n]:
        assert len(common) == factorial(np_)
        assert len(monomials) == n ** np_
        assert all(len(m) == 1 for m in monomials.values())
