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
    _kronecker_column_sign,
    _mat1_columns,
    _product,
    build_mat1,
    cleared_period_product,
    naive_det,
    require_shape,
    sym_det,
    verify_proposition,
)
from periodkit.sampling import random_pp_free_pair

XV = ("x", "y", "z", "w")
ADMITTED_SHAPES = [(n, np_) for n in range(1, 5) for np_ in range(1, 5) if n * np_ <= 12]


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


@pytest.fixture
def fallbacks(monkeypatch):
    """The predicted sign of every full comparison ``verify_proposition`` falls back to."""
    import periodkit.oracle as orc

    calls = []
    expanded_sign = orc._expanded_sign

    def spy(lhs, rhs, predicted):
        calls.append(predicted)
        return expanded_sign(lhs, rhs, predicted)

    monkeypatch.setattr(orc, "_expanded_sign", spy)
    return calls


def _forced_fallback(patch):
    """Make every determinant split report one factor too many, a unit.

    The product is unchanged, but Mat1 no longer splits into n factors, so
    ``verify_proposition`` must fall back to the full comparison.
    """
    import periodkit.oracle as orc

    det_factors = orc._det_factors

    def split_with_a_spare_unit(mx, group):
        bound, out, factors = det_factors(mx, group)
        return bound, out, [*factors, {0: 1}]

    patch.setattr(orc, "_det_factors", split_with_a_spare_unit)


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
        assert (x - x) == LaurentPoly.zero(XV)

    def test_negative_exponents(self):
        xinv = LaurentPoly.monomial(XV, {0: -1})
        x = LaurentPoly.var(XV, 0)
        assert x * xinv == LaurentPoly.one(XV)

    def test_monomial_index_must_name_a_variable(self):
        assert LaurentPoly.monomial(XV, {3: 1}) == LaurentPoly.var(XV, 3)
        for idx in (4, -1):
            with pytest.raises(IndexError, match=f"variable index {idx} out of range"):
                LaurentPoly.monomial(XV, {idx: 1})

    def test_operands_over_different_tables_raise(self):
        x, y = LaurentPoly.var(XV, 0), LaurentPoly.var(("x", "y"), 0)
        for op in (lambda: x + y, lambda: x * y, lambda: y - x):
            with pytest.raises(ValueError, match="different variable tables"):
                op()

    def test_negative_power_raises(self):
        with pytest.raises(ValueError, match="only non-negative powers"):
            LaurentPoly.var(XV, 0) ** -1

    def test_a_polynomial_equals_no_other_type_and_no_other_table(self):
        one = LaurentPoly.one(XV)
        for other in (1, "1", None, LaurentPoly.one(("x",))):
            assert not one == other and one != other
        assert one == LaurentPoly.one(tuple(list(XV)))

    def test_str_and_repr(self):
        assert str(LaurentPoly.zero(XV)) == "0"
        assert repr(LaurentPoly.zero(XV)) == "LaurentPoly(0)"
        p = poly_of([((1, 0, 0, 0), 2), ((0, -1, 0, 0), -1)])
        assert repr(p) == "LaurentPoly(-1*y^-1 + 2*x)"
        assert repr(p.terms) == "Terms({(1, 0, 0, 0): 2, (0, -1, 0, 0): -1})"

    def test_str_is_canonical(self):
        p = poly_of([((1, 0, 0, 0), 2), ((0, -1, 0, 0), -1)])
        q = poly_of([((0, -1, 0, 0), -1), ((1, 0, 0, 0), 2)])
        assert str(p) == str(q) == "-1*y^-1 + 2*x"

    def test_str_of_a_constant_is_its_coefficient(self):
        assert str(LaurentPoly.one(XV)) == str(sym_det(SymMatrix(("x",), ()))) == "1"
        assert str(poly_of([((0, 0, 0, 0), 3)])) == "3"
        assert str(poly_of([((0, 0, 0, 0), -2)])) == "-2"
        assert str(poly_of([((0, 0, 0, 0), -2), ((0, 1, 0, 0), 1)])) == "-2 + y"


def _accumulated(a, b):
    """a·b on packed keys by a plain accumulating loop, zero terms dropped."""
    out = {}
    for ka, ca in a.items():
        for kb, cb in b.items():
            out[ka + kb] = out.get(ka + kb, 0) + ca * cb
    return {k: c for k, c in out.items() if c}


class TestProduct:
    @pytest.fixture
    def mul_adds(self, monkeypatch):
        """How often ``_product`` falls back to the accumulating loop."""
        import periodkit.oracle as orc

        calls = []
        mul_add = orc._mul_add

        def spy(*args):
            calls.append(len(args[1]) * len(args[2]))
            return mul_add(*args)

        monkeypatch.setattr(orc, "_mul_add", spy)
        return calls

    def test_pairs_that_meet_are_summed_and_zeros_dropped(self, mul_adds):
        x, y = LaurentPoly.var(XV, 0), LaurentPoly.var(XV, 1)
        cancels = (x + y) * (x - y)
        assert cancels == x * x - y * y
        assert dict(cancels.terms) == {(2, 0, 0, 0): 1, (0, 2, 0, 0): -1}
        sums = (x + y) * (x + y)
        assert dict(sums.terms) == {(2, 0, 0, 0): 1, (1, 1, 0, 0): 2, (0, 2, 0, 0): 1}
        assert mul_adds == [4, 4]

    def test_matches_an_accumulating_loop(self):
        rng = random.Random(69)
        for _ in range(50):
            p, q = (
                poly_of(
                    [(tuple(rng.randint(-1, 1) for _ in XV), rng.randint(-2, 2))
                     for _ in range(rng.randint(0, 6))]
                )
                for _ in range(2)
            )
            got = _product(p._keys, q._keys)
            assert got == _accumulated(p._keys, q._keys)
            assert 0 not in got.values()

    def test_factors_in_disjoint_variables_take_one_comprehension(self, mul_adds):
        x, y, z, w = (LaurentPoly.var(XV, i) for i in range(4))
        p = x * x - x * y + y - LaurentPoly.one(XV)
        q = z + z * w * w - LaurentPoly.monomial(XV, {3: -1})
        got = p * q
        assert len(got.terms) == len(p.terms) * len(q.terms) == 12
        assert got._keys == _accumulated(p._keys, q._keys)
        assert mul_adds == []


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

    def test_rows_whose_two_by_two_minors_vanish(self, monkeypatch):
        # The minor on columns {0, 1} of rows 0-1 and of rows 2-3 is zero,
        # and in the second matrix rows 0 and 1 are proportional, so every
        # minor of theirs is zero.  A zero partial determinant is not
        # extended: no _mul_add call gets one.
        import periodkit.oracle as orc

        partials = []
        mul_add = orc._mul_add

        def spy(*args):
            partials.append(len(args[1]))
            return mul_add(*args)

        monkeypatch.setattr(orc, "_mul_add", spy)
        one = LaurentPoly.one(XV)
        x, y, z, w = (LaurentPoly.var(XV, i) for i in range(4))
        top = (x, y, z, w)
        bottom = ((z, w, one, x), (z * x, w * x, y, one))
        for second, singular in (((x * y, y * y, w, z), False), (tuple(x * e for e in top), True)):
            mx = SymMatrix(XV, (top, second, *bottom))
            want = naive_det(mx)
            assert (want == LaurentPoly.zero(XV)) is singular
            for group in (1, 2, 3, 4, None):
                partials.clear()
                assert sym_det(mx, group) == want, group
                assert partials and 0 not in partials, group

    def test_block_whose_minors_differ_by_a_non_integer_ratio(self):
        # The minors of row 0 are 2P, 3P and 0 with P = x + y: 3P is not an
        # integer multiple of the first, so the block keeps its minors.
        p = poly_of([((1, 0, 0, 0), 1), ((0, 1, 0, 0), 1)])
        z, w = LaurentPoly.var(XV, 2), LaurentPoly.var(XV, 3)
        two, three = p + p, p + p + p
        minors = {0b001: two._keys, 0b010: three._keys}
        assert _factor_out(minors) == ({0: 1}, minors)
        mx = SymMatrix(XV, ((two, three, LaurentPoly.zero(XV)), (z, w, z * w), (w, z, z)))
        for group in (1, 2):
            assert sym_det(mx, group) == naive_det(mx), group

    def test_block_whose_minors_share_no_factor(self):
        x, y, z, w = (LaurentPoly.var(XV, i) for i in range(4))
        minors = {0b01: (x + y)._keys, 0b10: (x + z)._keys}
        assert _factor_out(minors) == ({0: 1}, minors)
        assert _factor_out({0b01: {}, 0b10: {}}) == ({0: 1}, {0b01: {}, 0b10: {}})
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
        assert want != LaurentPoly.zero(XV)
        assert sym_det(mx, 2) == want
        assert len(factor_splits) == 2
        for _, quotients in factor_splits:
            assert all(len(q) == 1 for q in quotients.values())

    def test_non_square_matrix_raises(self):
        x = LaurentPoly.var(XV, 0)
        for rows in (((x, x),), ((x,), (x, x))):
            with pytest.raises(ValueError, match="matrix is not square"):
                sym_det(SymMatrix(XV, rows))

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
        assert [desc for desc, *_ in _mat1_columns(ctx)] == [("T-complement", 1, 1)]

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
        assert build_mat1(ctx).size == 2
        assert [desc for desc, *_ in _mat1_columns(ctx)] == [
            ("T-complement", 1, 1),
            ("T-complement", 2, 1),
        ]


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
        # verify_proposition scales a row of Mat1 by the cleared monomial;
        # the reference multiplies the plain, one-group determinant by it.
        rng = random.Random(63)
        for n, np_ in ADMITTED_SHAPES:
            slots = sorted(rng.sample(range(n + np_), n))
            ctx = PairContext.build(*_interleaved_pair(n, np_, slots))
            rep = verify_proposition(ctx)
            want = sym_det(build_mat1(ctx)) * cleared_period_product(ctx)
            assert rep.lhs == want, (n, np_, slots)

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
        rep = verify_proposition(ctx)
        assert rep.ok
        if n * np_ == 12:
            # README and perfbench state this count of the side read on demand.
            assert len(rep.rhs.terms) == 221_760


def _admits(n, np_):
    try:
        require_shape(n, np_)
    except SizeLimitError:
        return False
    return True


class TestPackedRing:
    def test_an_exponent_outside_the_field_raises(self):
        x = LaurentPoly.var(XV, 0)
        assert x ** 63 * LaurentPoly.monomial(XV, {0: -1}) ** 62 == x
        assert LaurentPoly.monomial(XV, {0: 127}).terms[(127, 0, 0, 0)] == 1
        with pytest.raises(OverflowError, match="bound 128"):
            LaurentPoly.monomial(XV, {0: 128})
        with pytest.raises(OverflowError, match="bound 128"):
            x ** 128
        with pytest.raises(OverflowError, match="bound 128"):
            LaurentPoly.monomial(XV, {0: 64}) * LaurentPoly.monomial(XV, {0: 64})
        rows = ((LaurentPoly.monomial(XV, {1: -100}), x), (x, LaurentPoly.monomial(XV, {2: 28})))
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
        p = poly_of(old.items())
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

    def test_sign_of_sigma_in_closed_form_on_every_shape_up_to_6x6(self):
        # σ lists A's complement in order, then A in reverse order, so with
        # pos(a, b) = (a-1)n' + (b-1), sgn(σ) = (-1)^Σ_{(a,b) ∈ A} (nn' - 1 - pos(a, b)).
        shapes = 0
        for n in range(1, 7):
            for np_ in range(1, 7):
                for slots in combinations(range(n + np_), n):
                    ctx = PairContext.build(*_interleaved_pair(n, np_, slots))
                    sigma = [(a - 1) * np_ + (b - 1) for _, a, b, _ in _mat1_columns(ctx)]
                    assert sorted(sigma) == list(range(n * np_)), (n, np_, slots)
                    exponent = sum(
                        n * np_ - 1 - ((a - 1) * np_ + (b - 1)) for a, b in ctx.A.members
                    )
                    assert _kronecker_column_sign(ctx) == (-1) ** exponent, (n, np_, slots)
                    shapes += 1
        assert shapes == 3418

    def test_wrong_prediction_fails_the_check(self, monkeypatch, fallbacks):
        # On every shape, by its factors and by the full comparison.
        import periodkit.oracle as orc

        for n, np_ in ADMITTED_SHAPES:
            ctx = PairContext.build(*_interleaved_pair(n, np_, range(n)))
            right = verify_proposition(ctx)
            with monkeypatch.context() as patch:
                patch.setattr(orc, "_kronecker_column_sign", lambda _: -right.predicted_sign)
                wrong = verify_proposition(ctx)
                assert fallbacks == []
                _forced_fallback(patch)
                expanded = verify_proposition(ctx)
                assert fallbacks == [wrong.predicted_sign]
            fallbacks.clear()
            for rep in (wrong, expanded):
                assert right.ok and not rep.ok, (n, np_)
                assert rep.sign == right.sign == -rep.predicted_sign, (n, np_)


class TestFactoredCheck:
    @pytest.mark.parametrize("n, np_", ADMITTED_SHAPES)
    def test_fallback_gives_the_factored_report(self, n, np_, monkeypatch, fallbacks):
        rng = random.Random(f"fallback/{n}x{np_}")
        ctx = PairContext.build(*_interleaved_pair(n, np_, sorted(rng.sample(range(n + np_), n))))
        factored = verify_proposition(ctx)
        assert fallbacks == []
        _forced_fallback(monkeypatch)
        expanded = verify_proposition(ctx)
        assert fallbacks == [expanded.predicted_sign]
        for name in ("size", "ok", "sign", "predicted_sign", "lhs", "rhs"):
            assert getattr(expanded, name) == getattr(factored, name), name

    def test_a_unit_other_than_plus_or_minus_one_falls_back(self, monkeypatch, fallbacks):
        import periodkit.oracle as orc

        ctx = PairContext.build(*_interleaved_pair(2, 2, range(2)))
        monkeypatch.setattr(orc, "_factored_unit", lambda *args: 2)
        rep = verify_proposition(ctx)
        assert fallbacks == [rep.predicted_sign]
        assert rep.ok and rep.sign == rep.predicted_sign

    def test_factored_unit_needs_every_factor_and_zero_total_shift(self):
        import periodkit.oracle as orc

        x, y, z = (LaurentPoly.var(XV, i)._keys for i in range(3))
        (kx,) = x
        ref_a, ref_b = {**x, **y}, {**y, **z}  # x + y and y + z
        # out = -x·(x + y), factors 2x^-1·(y + z) and (y + z): unit -2, shifts cancel.
        out = {k + kx: -c for k, c in ref_a.items()}
        p0 = {k - kx: 2 * c for k, c in ref_b.items()}
        assert orc._factored_unit(out, [p0, ref_b], ref_a, ref_b, 2) == -2
        assert orc._factored_unit(out, [p0, ref_b], ref_a, ref_b, 3) is None
        assert orc._factored_unit(out, [p0, ref_a], ref_a, ref_b, 2) is None
        assert orc._factored_unit(out, [ref_b, ref_b], ref_a, ref_b, 2) is None
        assert orc._factored_unit({}, [p0, ref_b], ref_a, ref_b, 2) is None


def _interleaved_pair(n, np_, slots):
    """The pair whose Hodge indices interleave as ``slots`` says.

    M takes 2x+1 at each slot x in ``slots``, M' takes -2x at the others;
    every p_a + r_b is odd, so no pair of classes is a (p,p)-class.
    """
    others = [x for x in range(n + np_) if x not in slots]
    m = RegularMotiveData("M", 0, tuple(sorted((2 * x + 1 for x in slots), reverse=True)))
    mp = RegularMotiveData("M'", 0, tuple(sorted((-2 * x for x in others), reverse=True)))
    return m, mp


@pytest.mark.parametrize("n, np_", ADMITTED_SHAPES)
def test_identity_holds_on_every_tableau_of_the_shape(n, np_, fallbacks):
    # Every tableau is decided by its factors; the full comparison never runs.
    seen = set()
    for slots in combinations(range(n + np_), n):
        ctx = PairContext.build(*_interleaved_pair(n, np_, slots))
        seen.add((ctx.A.members, ctx.T.members))
        assert verify_proposition(ctx).ok, (n, np_, slots)
    assert len(seen) == comb(n + np_, n)
    assert fallbacks == []


@pytest.mark.parametrize("n, np_", ADMITTED_SHAPES)
def test_every_row_block_of_mat1_factors(n, np_, factor_splits):
    # sym_det's fast route: in verify_proposition, each i-block of Mat1
    # factors into one ±monomial·det(B) and monomials, one per choice of
    # n' distinct b-indices; det(A) and det(B) are one block each.
    ctx = PairContext.build(*_interleaved_pair(n, np_, range(n)))
    assert verify_proposition(ctx).ok
    assert len(factor_splits) == n + 2
    for _, quotients in factor_splits:
        assert all(len(q) == 1 for q in quotients.values())
    for common, monomials in factor_splits[:n]:
        assert len(common) == factorial(np_)
        assert len(monomials) == n ** np_
        assert all(len(m) == 1 for m in monomials.values())
