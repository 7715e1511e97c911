"""Laurent-polynomial ring, symbolic determinant, and the period identity."""

import random
import time
from fractions import Fraction
from itertools import combinations, permutations
from math import comb, factorial, prod

import pytest

from periodkit.deligne import PairContext
from periodkit.errors import SizeLimitError
from periodkit.hodge import RegularMotiveData
from periodkit.oracle import (
    LaurentPoly,
    PairVariables,
    _classes,
    _det,
    _generic_det,
    _kronecker_column_sign,
    _laplace,
    _layout,
    _mat1_columns,
    _match,
    _pack,
    _product,
    _square,
    _summed_product,
    _unpack,
    build_mat1,
    cleared_period_product,
    naive_det,
    require_shape,
    sym_det,
    verify_proposition,
)
from periodkit.sampling import pair_of_shape, random_pp_free_pair
from shapes import every_shape

XV = ("x", "y", "z", "w")
ADMITTED_SHAPES = [(n, np_) for n in range(1, 5) for np_ in range(1, 5) if n * np_ <= 12]


def _reference_lhs(ctx):
    """det(Mat1)·cleared periods by the row-by-row determinant, which the check never runs."""
    return sym_det(build_mat1(ctx)) * cleared_period_product(ctx)


def _observed_rhs(rep):
    """s·det(A)^n' det(B)^n for the report's observed sign s, from its right side."""
    return rep.rhs if rep.sign == rep.predicted_sign else -rep.rhs


def _tamper(patch, against_b=None, against_a=None):
    """Route what ``oracle._match`` finds in ``verify_proposition`` through filters.

    ``against_b(k, found)`` takes what the k-th factor test against B's
    generic matrix, counted from 0, found for a matrix, (c, e) or None,
    and returns what ``_match`` reports instead; ``against_a`` does so for
    the tests against A's.  The spy tells the two kinds apart by the index
    map it receives, ``b_idx`` or ``a_idx``.  The check makes one test per
    distinct canonical form, and k is that form's place in the memo:
    against B one per primitive matrix, which on Mat1 all n groups of n'
    rows share, and against A one per column-class block, once every
    group has factored alike, which on Mat1 all n' blocks share.  So a
    filter sees every matrix of the k-th form.  A filter left None passes
    what is found.
    """
    import periodkit.oracle as orc

    match, kinds = orc._match, {"b_idx": against_b, "a_idx": against_a}

    def spy(columns, idx, tested):
        forge = kinds[idx.__name__]
        found = match(columns, idx, tested)
        k = list(tested).index(orc._canonical(columns)[2])
        return found if forge is None else forge(k, found)

    patch.setattr(orc, "_match", spy)


def _unfactored_groups(patch):
    """Report the first primitive matrix tested against B's generic matrix as not factoring.

    On Mat1 every group shares that one test, so no group factors, and
    ``verify_proposition`` declines at step 2: no sign.
    """
    _tamper(patch, against_b=lambda k, found: None if k == 0 else found)


def _bare(rows):
    """The bare key of each entry of ``rows``, every one a monomial of coefficient 1."""
    out = [[next(iter(entry._keys)) for entry in row] for row in rows]
    assert [[{key: 1} for key in row] for row in out] == [[e._keys for e in row] for row in rows]
    return out


def _primitive_det(classes):
    """The DP determinant of the matrix whose columns are ``classes``: {} if zero or not square.

    ``classes`` is a ``_classes`` dict, whose keys are the primitive
    columns, or a tuple of bare-key columns.
    """
    primitive = tuple(classes)
    rows = [{1 << c: {key: 1} for c, key in enumerate(row)} for row in zip(*primitive)]
    return _det(rows, len(primitive))


def _expanded(classes, minor):
    """{member column set: its minor}, from a group's ``_classes`` and its primitive determinant.

    A member set takes one column of each class, and its minor is ±x^Σe
    times ``minor``, the sign the parity of the members taken in class
    order.  A set holding two columns of one class has the minor zero.
    """
    members = {0: (1, 0)}
    for cols in classes.values():
        # Each column of ``have`` right of column c is an inversion.
        members = {
            have | 1 << c: ((u, -u)[(have >> c + 1).bit_count() & 1], s + e)
            for have, (u, s) in members.items()
            for c, e in cols
        }
    return {cols: {key + e: u * c for key, c in minor.items()} for cols, (u, e) in members.items()}


def poly_of(pairs):
    out = LaurentPoly.zero(XV)
    for exps, coeff in pairs:
        out = out + LaurentPoly.monomial(XV, dict(enumerate(exps)), coeff)
    return out


class TestLaurentPoly:
    def test_ring_axioms_small(self):
        x = LaurentPoly.monomial(XV, {0: 1})
        y = LaurentPoly.monomial(XV, {1: 1})
        assert (x + y) * (x - y) == x * x - y * y
        assert x * y == y * x
        assert (x + y) + x == x + (y + x)
        assert (x - x) == LaurentPoly.zero(XV)

    def test_negative_exponents(self):
        xinv = LaurentPoly.monomial(XV, {0: -1})
        x = LaurentPoly.monomial(XV, {0: 1})
        assert x * xinv == LaurentPoly.one(XV)

    def test_monomial_index_must_name_a_variable(self):
        assert LaurentPoly.monomial(XV, {3: 1}).terms == {(0, 0, 0, 1): 1}
        for idx in (4, -1):
            with pytest.raises(IndexError, match=f"variable index {idx} out of range"):
                LaurentPoly.monomial(XV, {idx: 1})

    @pytest.mark.parametrize(
        "exps, coeff, text",
        [
            ({0: 1}, 2.5, "coefficient 2.5"),
            ({0: 1}, True, "coefficient True"),
            ({0: 1.5}, 1, "exponent 1.5"),
            ({0: True}, 1, "exponent True"),
            ({0.0: 1}, 1, "variable index 0.0"),
            ({True: 1}, 1, "variable index True"),
        ],
    )
    def test_monomial_refuses_a_value_that_is_not_an_int(self, exps, coeff, text):
        with pytest.raises(ValueError) as err:
            LaurentPoly.monomial(XV, exps, coeff)
        assert str(err.value) == f"{text} is not an int"

    def test_monomial_checks_in_order(self):
        # Per entry the index type, the exponent type and the index range;
        # then the coefficient's type; a zero coefficient then gives zero
        # before the exponent bound is checked.
        with pytest.raises(ValueError, match="exponent 1.5 is not an int"):
            LaurentPoly.monomial(XV, {9: 1.5}, 1.5)
        with pytest.raises(IndexError, match="variable index 9 out of range"):
            LaurentPoly.monomial(XV, {9: 1, 0: 1.5}, 1.5)
        with pytest.raises(ValueError, match="coefficient 0.0 is not an int"):
            LaurentPoly.monomial(XV, {0: 128}, 0.0)
        assert LaurentPoly.monomial(XV, {0: 128}, 0) == LaurentPoly.zero(XV)
        with pytest.raises(OverflowError, match="bound 128"):
            LaurentPoly.monomial(XV, {0: 128, 1: -1})
        with pytest.raises(OverflowError, match="bound 128"):
            LaurentPoly.monomial(XV, {1: 3, 0: -128}, -1)
        assert LaurentPoly.monomial(XV, {1: 3, 0: -127}, -1).terms == {(-127, 3, 0, 0): -1}

    def test_operands_over_different_tables_raise(self):
        x = LaurentPoly.monomial(XV, {0: 1})
        y = LaurentPoly.monomial(("x", "y"), {0: 1})
        for op in (lambda: x + y, lambda: x * y, lambda: y - x):
            with pytest.raises(ValueError, match="different variable tables"):
                op()

    # One test per operator: a foreign operand gives Python's TypeError.
    @pytest.mark.parametrize("other", [2, 1.5, None])
    def test_add_refuses_an_operand_that_is_not_a_polynomial(self, other):
        with pytest.raises(TypeError, match=r"unsupported operand type\(s\) for \+"):
            LaurentPoly.one(("x",)) + other

    @pytest.mark.parametrize("other", [2, 1.5, None])
    def test_sub_refuses_an_operand_that_is_not_a_polynomial(self, other):
        with pytest.raises(TypeError, match=r"unsupported operand type\(s\) for -"):
            LaurentPoly.one(("x",)) - other

    @pytest.mark.parametrize("other", [2, 1.5, None])
    def test_mul_refuses_an_operand_that_is_not_a_polynomial(self, other):
        with pytest.raises(TypeError, match=r"unsupported operand type\(s\) for \*"):
            LaurentPoly.one(("x",)) * other

    def test_negative_power_raises(self):
        with pytest.raises(ValueError, match="only non-negative powers"):
            LaurentPoly.monomial(XV, {0: 1}) ** -1

    @pytest.mark.parametrize("k", [True, 2.0, 200.5])
    def test_a_power_that_is_not_an_int_is_refused(self, k):
        # Before the bound check: 200.5 would otherwise overflow the field.
        with pytest.raises(ValueError) as err:
            LaurentPoly.monomial(XV, {0: 1}) ** k
        assert str(err.value) == f"power {k!r} is not an int"

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
        # An empty matrix has no entry to give its determinant a table.
        assert str(LaurentPoly.one(XV)) == "1"
        with pytest.raises(ValueError, match="matrix is empty"):
            sym_det(())
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
    def test_pairs_that_meet_are_summed_and_zeros_dropped(self):
        x, y = LaurentPoly.monomial(XV, {0: 1}), LaurentPoly.monomial(XV, {1: 1})
        cancels = (x + y) * (x - y)
        assert cancels == x * x - y * y
        assert dict(cancels.terms) == {(2, 0, 0, 0): 1, (0, 2, 0, 0): -1}
        sums = (x + y) * (x + y)
        assert dict(sums.terms) == {(2, 0, 0, 0): 1, (1, 1, 0, 0): 2, (0, 2, 0, 0): 1}
        # In both, the pairs x·y and y·x meet, so the one comprehension keeps
        # 3 keys of 4 pairs and the accumulating loop gives the product.
        for a, b in ((x + y, x - y), (x + y, x + y)):
            assert len({ka + kb for ka in a._keys for kb in b._keys}) == 3
            assert _product(a._keys, b._keys) == _summed_product(a._keys, b._keys)

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
            # The summed product takes its factors in either order.
            assert _summed_product(p._keys, q._keys) == _summed_product(q._keys, p._keys) == got

    def test_factors_in_disjoint_variables_take_one_comprehension(self):
        # No two of the 12 term pairs meet, so the comprehension's keys are
        # the product's, each pair's coefficient product as it is.
        x, y, z, w = (LaurentPoly.monomial(XV, {i: 1}) for i in range(4))
        p = x * x - x * y + y - LaurentPoly.one(XV)
        q = z + z * w * w - LaurentPoly.monomial(XV, {3: -1})
        got = p * q
        assert len(got.terms) == len(p.terms) * len(q.terms) == 12
        assert got._keys == _accumulated(p._keys, q._keys)
        assert got._keys == {
            kp + kq: cp * cq for kp, cp in p._keys.items() for kq, cq in q._keys.items()
        }


def _random_polys(seed, count):
    """Seeded polynomials over XV with 0 to 6 terms and coefficients of both signs."""
    rng = random.Random(seed)
    for _ in range(count):
        yield poly_of(
            [(tuple(rng.randint(-2, 2) for _ in XV), rng.choice((-3, -2, -1, 1, 2, 3)))
             for _ in range(rng.randint(0, 6))]
        )


class TestPower:
    def test_a_power_equals_repeated_multiplication(self):
        for p in _random_polys(70, 40):
            want = LaurentPoly.one(XV)
            for k in range(7):
                got = p ** k
                assert got._keys == want._keys and got._bound == want._bound, (p, k)
                assert 0 not in got._keys.values()
                want = want * p

    def test_powers_of_zero(self):
        zero = LaurentPoly.zero(XV)
        assert zero ** 0 == LaurentPoly.one(XV)
        for k in range(1, 6):
            assert zero ** k == zero

    def test_a_cross_term_that_cancels_inside_the_square_is_dropped(self):
        # p = x + y + xyz - 1/z: the cross terms 2·x·y and -2·xyz·(1/z)
        # meet on xy and cancel, leaving 4 squares and 4 of the 6 cross terms.
        x, y = LaurentPoly.monomial(XV, {0: 1}), LaurentPoly.monomial(XV, {1: 1})
        p = x + y + LaurentPoly.monomial(XV, {0: 1, 1: 1, 2: 1}) - LaurentPoly.monomial(XV, {2: -1})
        square = p ** 2
        assert square == p * p and len(square.terms) == 8
        assert (1, 1, 0, 0) not in square.terms
        assert _square(p._keys) == square._keys

    def test_the_first_power_is_a_copy(self):
        p = poly_of([((1, 0, 0, 0), 2), ((0, -1, 1, 0), -1)])
        q = p ** 1
        assert q == p and q._keys is not p._keys

    def test_the_square_equals_the_summed_product(self):
        for p in _random_polys(71, 50):
            assert _square(p._keys) == _summed_product(p._keys, p._keys), p


class TestSymDet:
    def test_one_by_one(self):
        mx = ((LaurentPoly.monomial(XV, {0: 1}),),)
        assert sym_det(mx) == LaurentPoly.monomial(XV, {0: 1})

    def test_two_by_two(self):
        x, y, z, w = (LaurentPoly.monomial(XV, {i: 1}) for i in range(4))
        mx = ((x, y), (z, w))
        assert sym_det(mx) == x * w - y * z

    def test_permutation_matrix_signs(self):
        one = LaurentPoly.one(XV)
        zero = LaurentPoly.zero(XV)
        for perm in permutations(range(4)):
            rows = tuple(
                tuple(one if perm[r] == c else zero for c in range(4)) for r in range(4)
            )
            det = sym_det(rows)
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
            mx = tuple(rows)
            assert sym_det(mx) == naive_det(mx)

    def test_rows_whose_two_by_two_minors_vanish(self):
        # The minor on columns {0, 1} of rows 0-1 and of rows 2-3 is zero,
        # and in the second matrix rows 0 and 1 are proportional, so every
        # minor of theirs is zero.  A zero partial determinant is not
        # extended: the state it alone would reach is never made.
        assert _laplace([{0b100: {0: 1}}], {0b001: {}, 0b010: {0: 1}}) == {0b110: {0: 1}}
        one = LaurentPoly.one(XV)
        x, y, z, w = (LaurentPoly.monomial(XV, {i: 1}) for i in range(4))
        top = (x, y, z, w)
        bottom = ((z, w, one, x), (z * x, w * x, y, one))
        for second, singular in (((x * y, y * y, w, z), False), (tuple(x * e for e in top), True)):
            mx = (top, second, *bottom)
            want = naive_det(mx)
            assert (want == LaurentPoly.zero(XV)) is singular
            assert sym_det(mx) == want

    def test_block_whose_minors_differ_by_a_non_integer_ratio(self):
        # The entries of row 0 are 2P, 3P and 0 with P = x + y: 3P is not an
        # integer multiple of 2P, and the DP sums their products exactly.
        p = poly_of([((1, 0, 0, 0), 1), ((0, 1, 0, 0), 1)])
        z, w = LaurentPoly.monomial(XV, {2: 1}), LaurentPoly.monomial(XV, {3: 1})
        two, three = p + p, p + p + p
        mx = ((two, three, LaurentPoly.zero(XV)), (z, w, z * w), (w, z, z))
        assert sym_det(mx) == naive_det(mx)

    def test_block_whose_minors_share_no_factor(self):
        # Neither of x + y and x + z is a monomial times the other, and the
        # DP sums the products of such entries exactly.
        x, y, z, w = (LaurentPoly.monomial(XV, {i: 1}) for i in range(4))
        mx = ((x + y, x + z, w), (z, w * w, x), (y, z - w, y * z))
        assert sym_det(mx) == naive_det(mx)

    def test_the_factor_test_takes_a_square_matrix_alone(self):
        # Keys over x[1,1], x[1,2], x[2,1], x[2,2] and y, with G the generic
        # 2 x 2 matrix of the x's.  The matrix of columns (x[1,1], x[2,1]·y)
        # and (x[1,2], x[2,2]·y), G with row 2 times y, has determinant
        # y·det(G), which _match finds, and with its columns swapped
        # -y·det(G).  With one column more or fewer there is no square
        # matrix to match, two equal columns match nothing, and _match
        # declines.
        idx = _row_major(2)
        x11, x12, x21, x22, y = (_pack([(v, 1)]) for v in range(5))
        assert _match(((x11, x21 + y), (x12, x22 + y)), idx, {}) == (1, y)
        assert _match(((x12, x22 + y), (x11, x21 + y)), idx, {}) == (-1, y)
        rows = [{1: {x11: 1}, 2: {x12: 1}, 4: {0: 1}}, {1: {x12: 1}, 2: {0: 1}, 4: {x11: 1}}]
        assert _det(rows, 3) == {}
        for columns in (((x11, x21), (x12, x22), (0, x11)), ((x11, x21),), ((x11, x21), (x11, x21))):
            assert _match(columns, idx, {}) is None, columns

    def test_rows_whose_bounds_sum_past_half_the_field(self, monkeypatch):
        # A'⊗B' over the table of PairVariables(2, 2), checked by
        # verify_proposition in place of Mat1.  A' is the generic A with row
        # i times Q_i^20 and column a times Q_a^-20, and B' the generic B
        # with row j times Q'_j^20 and column b times Q'_b^-20: their
        # determinants are det(A) and det(B), but their entries reach
        # exponent 20, so the rows' bounds sum to 80.  Both i-blocks factor
        # against B's generic matrix, by the one test of their one
        # primitive matrix, and the packed result decodes to the
        # determinant.  A member set's shift s + e is its minor's exact
        # quotient by det(B), a product of n' entries of a row of A', so the
        # bound that admits det(A')^n' keeps it inside the 8-bit field: here
        # it reaches 40.
        import periodkit.oracle as orc

        pv = PairVariables(2, 2)
        names = pv.names
        a = [
            [_pack([(pv.a_idx(i, c), 1), (pv.q_idx(i), 20), (pv.q_idx(c), -20)]) for c in (1, 2)]
            for i in (1, 2)
        ]
        b = [
            [_pack([(pv.b_idx(j, c), 1), (pv.qp_idx(j), 20), (pv.qp_idx(c), -20)]) for c in (1, 2)]
            for j in (1, 2)
        ]
        rows = tuple(
            tuple(_poly(names, a[i][c // 2] + b[j][c % 2]) for c in range(4))
            for i in range(2)
            for j in range(2)
        )
        # det(A') and det(B') are those blocks' determinants, each with its
        # own bound of 40, and equal det(A) and det(B).
        dets = [
            naive_det(tuple(tuple(_poly(names, key) for key in row) for row in block))
            for block in (a, b)
        ]
        assert [det._bound for det in dets] == [40, 40]
        assert [det._keys for det in dets] == [_generic_det(pv.a_idx, 2), _generic_det(pv.b_idx, 2)]
        # The check's layout: the rows as bare keys, nothing cleared and a
        # predicted sign of 1.  The check counts one per row towards its
        # bound, as Mat1's entries reach exponent 1; these reach 20, so the
        # cleared bound carries the rest of their row-max sum.
        keys = _bare(rows)
        row_max = sum(max(entry._bound for entry in row) for row in rows)
        monkeypatch.setattr(orc, "_layout", lambda ctx: (pv, keys, 0, row_max - len(keys), 1))
        ctx = PairContext.build(*pair_of_shape(2, 2, range(2)))
        shifts = []
        _tamper(monkeypatch, against_b=lambda k, found: shifts.append(found) or found)
        rep = verify_proposition(ctx)
        want = naive_det(rows)
        assert want != LaurentPoly.zero(names)
        assert rep.ok and rep.sign == 1 and rep.blocks == 2
        assert rep.tests == (1, 1)
        assert rep.bound == row_max == 80
        assert rep.nonzero_minors == (4, 4)
        # The right side's bound, 80 + 80, is past the field, so the
        # reference det(A')^2 det(B')^2 is multiplied on packed keys: its
        # true exponents fit.
        squares = [(det ** 2)._keys for det in dets]
        assert want._keys == _accumulated(*squares)
        groups = [_classes(keys[:2]), _classes(keys[2:])]
        assert tuple(groups[0]) == tuple(groups[1])
        ((c, s),) = set(shifts)
        members = [
            key
            for classes in groups
            for minor in _expanded(classes, {s: c}).values()
            for key in minor
        ]
        assert len(members) == 8
        fields = [_unpack(e, len(names)) for e in members]
        assert all(_pack(enumerate(v)) == e for v, e in zip(fields, members))
        assert max(max(v) for v in fields) == 40

    @pytest.mark.parametrize("det", [sym_det, naive_det])
    def test_an_empty_matrix_is_refused(self, det):
        with pytest.raises(ValueError, match="matrix is empty"):
            det(())

    @pytest.mark.parametrize("det", [sym_det, naive_det])
    def test_a_ragged_matrix_is_refused(self, det):
        # Unchecked, naive_det would give x for the 1x2 and 0 for the 2x3.
        x = LaurentPoly.monomial(("x",), {0: 1})
        for rows in (((x, x),), ((x, x, x), (x, x, x)), ((x, x), (x,)), ((), (x,))):
            with pytest.raises(ValueError, match="matrix is not square"):
                det(rows)

    @pytest.mark.parametrize("det", [sym_det, naive_det])
    def test_entries_over_two_tables_are_refused(self, det):
        x = LaurentPoly.monomial(("x",), {0: 1})
        y = LaurentPoly.monomial(("x", "y"), {1: 1})
        for rows in (((x, y), (y, x)), ((y, y), (y, x))):
            with pytest.raises(ValueError, match="different variable tables"):
                det(rows)

    @pytest.mark.parametrize("det", [sym_det, naive_det])
    def test_an_entry_that_is_not_a_polynomial_is_refused_by_name(self, det):
        # The first entry too, whose table the others are checked against.
        x = LaurentPoly.monomial(("x",), {0: 1})
        cases = [
            (((1,),), "entry 1 at row 0, column 0"),
            (((x, 1), (x, x)), "entry 1 at row 0, column 1"),
            (((x, x), (x, None)), "entry None at row 1, column 1"),
            (((2.5, x), (x, x)), "entry 2.5 at row 0, column 0"),
        ]
        for rows, where in cases:
            with pytest.raises(ValueError, match=f"^{where} is not a LaurentPoly$"):
                det(rows)

    @pytest.mark.parametrize("det", [sym_det, naive_det])
    def test_the_determinant_carries_its_entries_table(self, det):
        # The result's table is the entries' own, so its terms decode.
        y = LaurentPoly.monomial(("x", "y"), {1: 1})
        det_y = det(((y,),))
        assert det_y == y and str(det_y) == "y" and det_y.vars == ("x", "y")
        assert dict(det_y.terms) == {(0, 1): 1}

    def test_non_square_matrix_raises(self):
        x = LaurentPoly.monomial(XV, {0: 1})
        for rows in (((x, x),), ((x,), (x, x))):
            with pytest.raises(ValueError, match="matrix is not square"):
                sym_det(rows)


@pytest.mark.parametrize("k", range(1, 7))
def test_generic_det_is_the_leibniz_sum_with_bound_one(k):
    # The k x k matrix of distinct variables x[i,a]: its determinant has k!
    # terms, each ±1 times k distinct variables, so every exponent is 0 or 1.
    names = tuple(f"x[{i},{a}]" for i in range(1, k + 1) for a in range(1, k + 1))

    def idx(i, a):
        return (i - 1) * k + (a - 1)

    det = LaurentPoly(names, _generic_det(idx, k), 1)
    mx = tuple(
        tuple(LaurentPoly.monomial(names, {idx(i, a): 1}) for a in range(1, k + 1))
        for i in range(1, k + 1)
    )
    assert det == naive_det(mx)
    assert det == sym_det(mx)
    assert len(det.terms) == factorial(k)
    assert set(det.terms.values()) == ({1} if k == 1 else {1, -1})
    assert {e for key in det.terms for e in key} <= {0, 1}
    assert max(e for key in det.terms for e in key) == 1
    assert all(sum(key) == k for key in det.terms)


@pytest.mark.parametrize("n, np_, which", [(2, 4, "b_idx"), (4, 2, "a_idx")])
def test_generic_det_on_the_index_maps_the_check_passes(n, np_, which):
    # det(B) at 2x4 and det(A) at 4x2, over the full table of the pair,
    # Q and Q' variables and the other block included.
    pv = PairVariables(n, np_)
    idx, names = getattr(pv, which), pv.names
    mx = tuple(
        tuple(LaurentPoly.monomial(names, {idx(i, a): 1}) for a in range(1, 5))
        for i in range(1, 5)
    )
    det = LaurentPoly(names, _generic_det(idx, 4), 1)
    assert det == naive_det(mx)
    assert len(det.terms) == factorial(4)


def _monomial_ratio(poly, ref):
    """(c, e) if ``poly`` is c·x^e·``ref`` on packed keys, else None.

    Adding e keeps the order of keys, so the lowest keys give c and e, and
    each term is then checked: a ratio that is not an integer fails.
    """
    if not poly or len(poly) != len(ref):
        return None
    low, base = min(poly), min(ref)
    c, e = poly[low] // ref[base], low - base
    if any(poly.get(key + e) != c * coeff for key, coeff in ref.items()):
        return None
    return c, e


def _row_major(k):
    """The index map of the generic k x k matrix G on variables 0..k²-1, row by row."""

    def idx(i, a):
        return (i - 1) * k + (a - 1)

    return idx


def _sign(perm):
    return (-1) ** sum(x > y for i, x in enumerate(perm) for y in perm[i + 1 :])


def _matched(rng, k, pi=None):
    """(columns, σ, u, v): entry (r, c) is g(π(r), σ(c)) + u_r + v_c, for G of ``_row_major``.

    σ is random, and π the identity unless given, as in every matrix the
    check builds.  u and v are random keys over the three variables after
    G's k².
    """
    idx = _row_major(k)
    pi, sigma = pi or list(range(k)), rng.sample(range(k), k)
    u, v = (
        [_pack([(k * k + t, rng.randint(-3, 3)) for t in range(3)]) for _ in range(k)]
        for _ in range(2)
    )
    columns = tuple(
        tuple(_pack([(idx(pi[r] + 1, sigma[c] + 1), 1)]) + u[r] + v[c] for r in range(k))
        for c in range(k)
    )
    return columns, sigma, u, v


class TestMatching:
    """``_match`` matches a matrix against a generic matrix G and expands no determinant."""

    @pytest.mark.parametrize("k", range(1, 7))
    def test_a_matched_matrix_gives_its_signs_and_key_sums(self, k):
        # For random σ, u and v: (sgn σ, Σu + Σv), which is also what the
        # DP determinant of the matrix gives against det(G).
        rng = random.Random(f"matching/{k}")
        idx = _row_major(k)
        ref = _generic_det(idx, k)
        for _ in range(20):
            columns, sigma, u, v = _matched(rng, k)
            want = (_sign(sigma), sum(u) + sum(v))
            assert _match(columns, idx, {}) == want, sigma
            assert _monomial_ratio(_primitive_det(columns), ref) == want, sigma

    def test_at_k_2_a_row_swap_gives_the_dps_answer(self):
        # With its rows swapped the matrix's columns less their row-0 keys
        # sort in the reverse of σ's order, and the canonical form is G
        # with both orders reversed, which is G plus row and column keys:
        # the answer is (-sgn σ, Σu + Σv), as the DP gives.
        rng = random.Random("matching/row-swap")
        idx = _row_major(2)
        ref = _generic_det(idx, 2)
        for _ in range(20):
            columns, sigma, u, v = _matched(rng, 2, pi=[1, 0])
            want = (-_sign(sigma), sum(u) + sum(v))
            assert _monomial_ratio(_primitive_det(columns), ref) == want, sigma
            assert _match(columns, idx, {}) == want, sigma

    @pytest.mark.parametrize("k", range(3, 7))
    def test_a_row_permuted_matrix_declines(self, k):
        # From k = 3 on, π other than the identity leaves no canonical form
        # that is G plus row and column keys, and the test declines, though
        # the DP finds (sgn π·sgn σ, Σu + Σv).  No matrix the check builds
        # has its rows permuted.
        rng = random.Random(f"matching/rows/{k}")
        idx = _row_major(k)
        ref = _generic_det(idx, k)
        for _ in range(20):
            pi = rng.sample(range(k), k)
            while pi == sorted(pi):
                pi = rng.sample(range(k), k)
            columns, sigma, u, v = _matched(rng, k, pi)
            want = (_sign(pi) * _sign(sigma), sum(u) + sum(v))
            assert _monomial_ratio(_primitive_det(columns), ref) == want, (pi, sigma)
            assert _match(columns, idx, {}) is None, (pi, sigma)

    @pytest.mark.parametrize("k", range(2, 7))
    def test_a_matrix_that_does_not_match_gives_none(self, k):
        # Each has no determinant c·x^e·det(G), by the DP: a ragged
        # matrix, one with an entry moved by one unit (of G's first
        # variable, in the last row and column), one with two equal
        # columns or rows, and one whose cross difference (1, 1) holds a
        # fifth variable, outside G or, from k = 3 on, in it.
        rng = random.Random(f"mismatch/{k}")
        idx = _row_major(k)
        ref = _generic_det(idx, k)
        outside = _pack([(k * k, 1)])
        for _ in range(10):
            columns, sigma, _, _ = _matched(rng, k)

            def moved(r, c, by):
                column = list(columns[c])
                column[r] += by
                return (*columns[:c], tuple(column), *columns[c + 1 :])

            cases = {
                "ragged": (*columns[:-1], columns[-1][:-1]),
                "a column more": (*columns, columns[0]),
                "one entry moved by one unit": moved(k - 1, k - 1, 1),
                "two equal columns": (*columns[:-1], columns[0]),
                "two equal rows": tuple((*column[:-1], column[0]) for column in columns),
                "a fifth variable outside G": moved(1, 1, outside),
            }
            if k > 2:
                cases["a fifth variable in G"] = moved(1, 1, _pack([(idx(3, sigma[2] + 1), 1)]))
            for case, matrix in cases.items():
                assert _monomial_ratio(_primitive_det(matrix), ref) is None, case
                assert _match(matrix, idx, {}) is None, case

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_matching_reads_the_structure_not_the_value(self, k):
        # G's transpose has det(G) as its determinant.  At k = 2 it matches
        # G, with row and column keys that hold G's variables; from k = 3 on
        # it does not, and _match declines where a factorization exists.
        idx = _row_major(k)
        # Column c of the transpose is row c of G: entry (r, c) is g(c, r).
        transpose = tuple(
            tuple(_pack([(idx(c, r), 1)]) for r in range(1, k + 1)) for c in range(1, k + 1)
        )
        assert _monomial_ratio(_primitive_det(transpose), _generic_det(idx, k)) == (1, 0)
        assert _match(transpose, idx, {}) == ((1, 0) if k == 2 else None)


def _term(exps, coeff=1):
    return LaurentPoly.monomial(XV, dict(enumerate(exps)), coeff)


X, Y, Z, W = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
U = [_term(e) for e in (X, Y, Z, W)]  # x, y, z, w down the rows


def _scaled(column, coeff=1, exps=(0, 0, 0, 0)):
    return [entry * _term(exps, coeff) for entry in column]


# (first column, second column, the row counts r for which the two are
# proportional on rows 0..r-1).  The other columns are one-term entries.
PROPORTIONAL_CASES = {
    "by 2": (U, _scaled(U, 2), {2, 3, 4}),
    "by -1": (U, _scaled(U, -1), {2, 3, 4}),
    "by 2:3": (_scaled(U, 3), _scaled(U, 2), {2, 3, 4}),
    "by a Laurent monomial": (U, _scaled(U, 5, (-2, -1, 0, 0)), {2, 3, 4}),
    "by y^-1": (U, _scaled(U, 1, (0, -1, 0, 0)), {2, 3, 4}),
    "by x^-2·y^-1, coefficients -3": (
        _scaled(U, -3), _scaled(U, -3, (-2, -1, 0, 0)), {2, 3, 4}),
    "on all rows but the last, by coefficient": (
        U, [*_scaled(U[:3], 2), _term(W, 3)], {2, 3}),
    "on all rows but the last, by y^-1": (U, [*_scaled(U[:3], 1, (0, -1, 0, 0)), U[3]], {2, 3}),
    "on all rows but the second, by exponent": (
        U, [_term((1, 0, 1, 0), 2), _term(Y, 2), _term((0, 0, 2, 0), 2), _term((0, 0, 1, 1), 2)],
        set()),
    "a zero entry": ([U[0], LaurentPoly.zero(XV), U[2], U[3]], _scaled(U, 2), set()),
    "zero entries on other rows": (
        [U[0], LaurentPoly.zero(XV), U[2], U[3]],
        [*_scaled([U[0], U[2], U[3]], 2), LaurentPoly.zero(XV)], set()),
    "a two-term entry": ([U[0], U[1] + U[2], U[2], U[3]], _scaled(U, 2), set()),
    "two-term entries on other rows": (
        [U[0] + U[1], U[2], U[3], U[0]], [U[0], U[1] + U[2], U[3], U[0]], set()),
}
PROPORTIONAL_OTHERS = (
    [_term((0, 1, 1, 0)), U[3], _term((2, 0, 0, 0)), U[1]],
    [U[3], _term((1, 0, 1, 0), -1), U[1], _term((0, 0, 0, 0), 2)],
)

# (first column, second column, the row counts r for which the two share a
# class: are equal up to x^e on rows 0..r-1).  Every entry is a bare
# monomial, as in the check's inputs, and so are the other columns.
CLASS_CASES = {
    "equal": (U, U, {2, 3, 4}),
    "by y^-1": (U, _scaled(U, 1, (0, -1, 0, 0)), {2, 3, 4}),
    "by x^-2·y^-1": (U, _scaled(U, 1, (-2, -1, 0, 0)), {2, 3, 4}),
    "on all rows but the last, by y^-1": (U, [*_scaled(U[:3], 1, (0, -1, 0, 0)), U[3]], {2, 3}),
    "on all rows but the first, by y": (U, [U[0], *_scaled(U[1:], 1, (0, 1, 0, 0))], set()),
    "on all rows but the second, by z": (
        U, [_term((1, 0, 1, 0)), _term(Y), _term((0, 0, 2, 0)), _term((0, 0, 1, 1))], set()),
}
CLASS_OTHERS = (
    [_term((0, 1, 1, 0)), U[3], _term((2, 0, 0, 0)), U[1]],
    [U[3], _term((1, 0, 1, 0)), U[1], _term((0, 0, 0, 0))],
)


def _class_members(rows):
    """The member columns of each class of ``_classes``, in its order."""
    return [[c for c, _ in members] for members in _classes(rows).values()]


class TestProportionalColumns:
    """Columns equal up to x^e on all of a block's rows are one class, and only those."""

    @pytest.mark.parametrize("case", PROPORTIONAL_CASES)
    def test_sym_det_is_exact(self, case):
        # Columns proportional on some rows, by coefficients or monomials,
        # next to zero and two-term entries: the row-by-row DP gives the
        # permutation sum, zero exactly when they are proportional on all.
        first, second, proportional_on = PROPORTIONAL_CASES[case]
        mx = tuple(zip(first, second, *PROPORTIONAL_OTHERS))
        want = naive_det(mx)
        assert (want == LaurentPoly.zero(XV)) is (4 in proportional_on), case
        assert sym_det(mx) == want, case

    @pytest.mark.parametrize("case", CLASS_CASES)
    def test_columns_share_a_class_exactly_where_they_are_equal_up_to_a_monomial(self, case):
        # On rows 0..r-1 of bare keys, columns 0 and 1 share a class where
        # CLASS_CASES says so, and never one with columns 2 or 3.  On all
        # four rows the determinant is ±x^Σe times the primitive one when
        # the four columns are four classes; with three classes the
        # primitive matrix is not square, and the determinant is zero.
        first, second, shared_on = CLASS_CASES[case]
        mx = tuple(zip(first, second, *CLASS_OTHERS))
        want = naive_det(mx)
        assert (want == LaurentPoly.zero(XV)) is (4 in shared_on), case
        keys = _bare(mx)
        for r in (2, 3, 4):
            of = {c: k for k, cols in enumerate(_class_members(keys[:r])) for c in cols}
            assert (of[0] == of[1]) is (r in shared_on), (case, r)
            assert of[0] not in (of[2], of[3]), (case, r)
        classes = _classes(keys)
        assert len(classes) == (3 if 4 in shared_on else 4), case
        assert _expanded(classes, _primitive_det(classes)).get(0b1111, {}) == want._keys, case

    def test_a_class_holds_each_member_as_its_column_and_row_0_key(self):
        # Columns 1 and 2 differ by x^2 and column 3 repeats column 1, so
        # they share a class; column 0 is one of its own, and comes first.
        keys = [[9, 5, 7, 5], [1, 2, 4, 2]]
        assert list(_classes(keys).items()) == [
            ((0, -8), [(0, 9)]),
            ((0, -3), [(1, 5), (2, 7), (3, 5)]),
        ]

    @pytest.mark.parametrize("r", [1, 2, 3, 4])
    def test_class_minors_expand_to_every_minor(self, r):
        # Blocks of r rows and 2r + 1 bare-key columns: r random columns, a
        # copy of each by a monomial x^e, and one more copy of the first,
        # all sharing their columns' classes: r classes, so the primitive
        # matrix is square.  Each set of r columns, one of each class, has
        # ±x^Σe times its determinant as minor, and every other set, two of
        # one class, the minor zero: naive_det on the set agrees.  A copy
        # of the first column with one entry past row 0 moved off the class
        # makes r + 1 classes, and no square primitive matrix.
        rng = random.Random(f"class minors/{r}")

        def monomial():
            return tuple(rng.randint(-2, 2) for _ in XV)

        for _ in range(4):
            base = [[_term(monomial()) for _ in range(r)] for _ in range(r)]
            cols = [*base, *(_scaled(col, 1, monomial()) for col in base)]
            cols.append(_scaled(base[0], 1, (1, 0, 0, -2)))
            rng.shuffle(cols)
            rows = [[col[i] for col in cols] for i in range(r)]
            keys = _bare(rows)
            classes = _classes(keys)
            assert len(classes) == r
            subsets = {sum(1 << c for c in s): s for s in combinations(range(len(cols)), r)}
            got = _expanded(classes, _primitive_det(classes))
            assert set(got) <= set(subsets)
            for bits, subset in subsets.items():
                want = naive_det(tuple(tuple(row[c] for c in subset) for row in rows))
                assert got.get(bits, {}) == want._keys, (r, subset)
            if r > 1:
                moved = _scaled(base[0], 1, monomial())
                moved[rng.randrange(1, r)] *= _term(W)
                wider = _classes([[*row, key] for row, key in zip(keys, _bare([moved])[0])])
                assert len(wider) == r + 1 and _primitive_det(wider) == {}

    def test_rows_whose_bounds_sum_to_127(self):
        # Columns 0 and 1 are proportional on rows 0-1, by y^-1, with drifts
        # of x^-127.  Row 0 shifts column 2 to column 3 by y^-128·w, which
        # packs like y^128·z^-1·w: no other row can shift that far.
        t = _term
        rows = (
            (t((64, 0, 0, 0)), t((64, -1, 0, 0)), t((0, 64, 0, 0)), t((0, -64, 0, 1))),
            (t((-63, 0, 0, 0)), t((-63, -1, 0, 0)), t((0, 0, 63, 0)), t((0, 0, 0, -63))),
            tuple(t((0, 0, 0, 0), c) for c in (1, 1, 2, -1)),
            tuple(t((0, 0, 0, 0), c) for c in (3, -1, 1, 1)),
        )
        assert sum(max(entry._bound for entry in row) for row in rows) == 127
        assert _class_members(_bare(rows[:2])) == [[0, 1], [2], [3]]
        want = naive_det(rows)
        assert want != LaurentPoly.zero(XV)
        assert sym_det(rows) == want


@pytest.mark.parametrize("n, np_", ADMITTED_SHAPES)
def test_an_i_block_of_mat1_builds_only_sets_of_distinct_b_indices(n, np_):
    # Mat1's columns with one b-index are proportional on an i-block: n'
    # classes of n members each.  So its primitive matrix is n' x n', and
    # its determinant expands to the n^n' sets that take each b-index once,
    # and none is zero: 16 at 2x4, 27 at 3x3, 64 at 4x3.
    ctx = PairContext.build(*pair_of_shape(n, np_, range(n)))
    b_of = [b for _, _, b, _ in _mat1_columns(ctx)]
    want = {
        sum(1 << c for c in cols)
        for cols in combinations(range(n * np_), np_)
        if len({b_of[c] for c in cols}) == np_
    }
    block = _bare(build_mat1(ctx)[:np_])
    members = _class_members(block)
    assert sorted({b_of[c] for c in cols} for cols in members) == [{b} for b in range(1, np_ + 1)]
    assert [len(cols) for cols in members] == [n] * np_
    classes = _classes(block)
    expanded = _expanded(classes, _primitive_det(classes))
    assert set(expanded) == want and len(want) == n ** np_
    assert all(expanded.values())


@pytest.mark.parametrize("n, np_", ADMITTED_SHAPES)
def test_the_check_takes_the_layout_the_public_wrappers_read(n, np_):
    # verify_proposition matches the key rows of _layout, build_mat1's bare
    # keys, against the generic matrices of _layout's PairVariables, and
    # adds cleared_period_product's key to the final key sum.  Its bound,
    # one per row plus the cleared key's, is the row-max sum of Mat1 with
    # row 0 multiplied by the cleared monomial, and its sign is
    # _kronecker_column_sign's, on every tableau of the shape.
    for slots in combinations(range(n + np_), n):
        ctx = PairContext.build(*pair_of_shape(n, np_, slots))
        pv, rows, cleared_key, cleared_bound, sign = _layout(ctx)
        mat1, cleared = build_mat1(ctx), cleared_period_product(ctx)
        assert rows == _bare(mat1), (n, np_, slots)
        assert cleared._keys == {cleared_key: 1}, (n, np_, slots)
        bound = len(rows) + cleared_bound
        scaled = (tuple(entry * cleared for entry in mat1[0]), *mat1[1:])
        assert bound == sum(max(entry._bound for entry in row) for row in scaled), slots
        assert sign == _kronecker_column_sign(_mat1_columns(ctx), np_), (n, np_, slots)
        assert (pv.n, pv.np) == (n, np_)
        assert mat1[0][0].vars == pv.names
        rep = verify_proposition(ctx)
        assert (rep.bound, rep.predicted_sign) == (bound, sign), (n, np_, slots)


class TestMat1:
    def test_a_layout_that_is_not_square_is_refused(self):
        # With T in place of A, the pairs outside A give columns twice:
        # 2 (nn' - |A|) of them, where nn' = |A| + |T| would be square.
        ctx = PairContext.build(*pair_of_shape(2, 2, range(2)))
        forged = PairContext(ctx.M, ctx.Mp, ctx.A, ctx.A, ctx.sp, ctx.sp_sym)
        cols = 2 * (4 - len(ctx.A.members))
        assert cols != 4
        for check in (verify_proposition, build_mat1, cleared_period_product):
            with pytest.raises(ValueError, match=f"^matrix is not square: {cols} columns for 4 "):
                check(forged)

    def test_one_by_one_entry(self):
        ctx = PairContext.build(
            RegularMotiveData("M", 0, (1,)), RegularMotiveData("M'", 0, (0,))
        )
        mx = build_mat1(ctx)
        pv = PairVariables(1, 1)
        want = LaurentPoly.monomial(
            pv.names,
            {pv.a_idx(1, 1): 1, pv.b_idx(1, 1): 1, pv.q_idx(1): -1, pv.qp_idx(1): -1},
        )
        assert mx[0][0] == want
        assert [desc for desc, *_ in _mat1_columns(ctx)] == [("T-complement", 1, 1)]

    @pytest.mark.parametrize("n, np_", [(1, 1), (3, 4), (4, 3)])
    def test_every_entry_shares_one_variable_table(self, n, np_):
        # build_mat1 reads PairVariables.names once, so every entry holds
        # the same tuple, and an operation on two entries finds their tables
        # equal by identity.
        mx = build_mat1(PairContext.build(*pair_of_shape(n, np_, range(n))))
        assert len({id(entry.vars) for row in mx for entry in row}) == 1
        assert mx[0][0].vars == PairVariables(n, np_).names

    def test_column_count_is_nn(self):
        rng = random.Random(62)
        for _ in range(50):
            ctx = PairContext.build(*random_pp_free_pair(rng, 3))
            mx = build_mat1(ctx)
            assert len(mx) == ctx.M.rank * ctx.Mp.rank
            assert all(len(row) == len(mx) for row in mx)

    def test_worked_two_by_two(self):
        ctx = PairContext.build(
            RegularMotiveData("M", 1, (1, 0)), RegularMotiveData("M'", 0, (1,))
        )
        assert len(build_mat1(ctx)) == 2
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
        assert rep.ok and rep.sign == rep.predicted_sign == 1
        pv = PairVariables(1, 1)
        want = LaurentPoly.monomial(pv.names, {pv.a_idx(1, 1): 1, pv.b_idx(1, 1): 1})
        assert _reference_lhs(ctx) == want == rep.rhs

    def test_worked_two_by_two(self):
        ctx = PairContext.build(
            RegularMotiveData("M", 1, (1, 0)), RegularMotiveData("M'", 0, (1,))
        )
        assert verify_proposition(ctx).ok

    def test_lhs_matches_det_times_cleared(self):
        # verify_proposition adds the cleared monomial's key to its final
        # key sum; the reference multiplies the plain, row-by-row
        # determinant by the monomial.
        rng = random.Random(63)
        for n, np_ in ADMITTED_SHAPES:
            slots = sorted(rng.sample(range(n + np_), n))
            ctx = PairContext.build(*pair_of_shape(n, np_, slots))
            rep = verify_proposition(ctx)
            assert _reference_lhs(ctx) == _observed_rhs(rep), (n, np_, slots)

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
            pv = PairVariables(ctx.M.rank, ctx.Mp.rank)
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
        ctx = PairContext.build(*pair_of_shape(4, 4, range(4)))
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
        ctx = PairContext.build(*pair_of_shape(n, np_, range(n)))
        start = time.perf_counter()
        with pytest.raises(SizeLimitError, match=f"shape {n}x{np_} is outside"):
            verify_proposition(ctx)
        assert time.perf_counter() - start < 0.1

    @pytest.mark.parametrize("n, np_", [(1, 4), (4, 1), (3, 4), (4, 3)])
    def test_admitted_rank_four_shape_passes(self, n, np_):
        ctx = PairContext.build(*pair_of_shape(n, np_, range(n)))
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
        x = LaurentPoly.monomial(XV, {0: 1})
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
            sym_det(rows)

    def test_a_check_whose_bound_does_not_fit_the_field_raises(self, monkeypatch):
        # The check tests its layout's bound, one per row of Mat1 plus the
        # cleared key's, against the field before any matching.
        import periodkit.oracle as orc

        ctx = PairContext.build(*pair_of_shape(2, 2, range(2)))
        layout = orc._layout
        monkeypatch.setattr(orc, "_layout", lambda c: (*layout(c)[:3], 128 - 4, layout(c)[4]))
        with pytest.raises(OverflowError, match="bound 128"):
            verify_proposition(ctx)

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
            # A determinant term takes one entry per row, so its exponents
            # are bounded by the sum of the rows' largest exponents.
            bound = sum(
                max((abs(e) for p in row for key in p.terms for e in key), default=0)
                for row in rows
            )
            if bound < 128:
                assert sym_det(rows) == naive_det(rows)
            else:
                with pytest.raises(OverflowError):
                    sym_det(rows)

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
        # The items view decodes each pair once, and can be sized, searched
        # and iterated again.
        items = terms.items()
        assert dict(items) == old and sorted(items) == sorted(old.items())
        assert len(items) == 3 and ((0, 0, 5, -7), 3) in items
        assert ((0, 0, 5, -7), 2) not in items and ((0, 0, 0, 1000), 3) not in items
        with pytest.raises(TypeError):
            terms[(1, 0, 0, 0)] = 5

    @pytest.mark.parametrize(
        "key", [(1.0, 0), (1, 0.0), ("a", 0), (None, 0), (128, 0), (0, -129), (1,), [1, 0]]
    )
    def test_terms_view_treats_a_key_not_of_ints_in_the_field_as_absent(self, key):
        p = LaurentPoly.monomial(("x", "y"), {0: 1})
        assert p.terms.get(key) is None
        assert key not in p.terms
        with pytest.raises(KeyError):
            p.terms[key]
        assert p.terms.get((1, 0)) == 1 and (1, 0) in p.terms


class TestPredictedSign:
    def test_predicted_sign_is_the_observed_sign_on_every_shape(self):
        # Every tableau up to 3x3: 62 pairs.
        shapes = list(every_shape(3))
        assert len(shapes) == 62
        for n, np_, slots in shapes:
            ctx = PairContext.build(*pair_of_shape(n, np_, slots))
            rep = verify_proposition(ctx)
            pv = PairVariables(n, np_)
            names = pv.names
            det_a = LaurentPoly(names, _generic_det(pv.a_idx, n), 1)
            det_b = LaurentPoly(names, _generic_det(pv.b_idx, np_), 1)
            unsigned = det_a ** np_ * det_b ** n
            lhs = _reference_lhs(ctx)
            observed = 1 if lhs == unsigned else -1 if lhs == -unsigned else None
            assert rep.ok, (n, np_, slots)
            assert observed == rep.sign == rep.predicted_sign, (n, np_, slots)
            assert (rep.size, rep.ok, rep.sign) == (n * np_, True, observed)

    def test_sign_of_sigma_in_closed_form_on_every_shape_up_to_6x6(self):
        # σ lists A's complement in order, then A in reverse order, so with
        # pos(a, b) = (a-1)n' + (b-1), sgn(σ) = (-1)^Σ_{(a,b) ∈ A} (nn' - 1 - pos(a, b)).
        shapes = 0
        for n, np_, slots in every_shape(6):
            ctx = PairContext.build(*pair_of_shape(n, np_, slots))
            sigma = [(a - 1) * np_ + (b - 1) for _, a, b, _ in _mat1_columns(ctx)]
            assert sorted(sigma) == list(range(n * np_)), (n, np_, slots)
            exponent = sum(n * np_ - 1 - ((a - 1) * np_ + (b - 1)) for a, b in ctx.A.members)
            sign = _kronecker_column_sign(_mat1_columns(ctx), np_)
            assert sign == (-1) ** exponent, (n, np_, slots)
            shapes += 1
        assert shapes == 3418

    def test_wrong_prediction_fails_the_check(self, monkeypatch):
        # On every shape, with every group factored and with none: the
        # first keeps the sign it observes, the second observes none.
        import periodkit.oracle as orc

        layout = orc._layout
        for n, np_ in ADMITTED_SHAPES:
            ctx = PairContext.build(*pair_of_shape(n, np_, range(n)))
            right = verify_proposition(ctx)
            with monkeypatch.context() as patch:
                # The check's own layout, with the predicted sign flipped.
                patch.setattr(orc, "_layout", lambda c: (*layout(c)[:4], -right.predicted_sign))
                wrong = verify_proposition(ctx)
                _unfactored_groups(patch)
                forced = verify_proposition(ctx)
            assert (wrong.nonzero_minors, forced.nonzero_minors) == ((n ** np_,) * n, (0,) * n)
            assert (wrong.blocks, forced.blocks) == (np_, None)
            assert forced.predicted_sign == wrong.predicted_sign == -right.predicted_sign
            assert right.ok and not wrong.ok and not forced.ok, (n, np_)
            assert wrong.sign == right.sign == -wrong.predicted_sign, (n, np_)
            assert forced.sign is None, (n, np_)


# The fields a step that declines leaves as they are: all but ok and sign,
# which it clears, and nonzero_minors, blocks and tests, which name the
# step.
KEPT_FIELDS = ("size", "predicted_sign", "bound", "rhs")


def _poly(names, key):
    """The monomial of ``key`` over ``names``, with its bound."""
    return LaurentPoly(names, {key: 1}, max(map(abs, _unpack(key, len(names)))))


def _distinct_groups(ctx, m):
    """The check's layout for ``ctx``, the last row of group 1 multiplied by x^m.

    That row's primitive entries move by m, so group 1's primitive matrix
    is no other group's.  The cleared key gives up m, so the rows'
    determinant times the cleared monomial is Mat1's, with its bound.
    """
    pv, rows, cleared, *rest = _layout(ctx)
    last = 2 * ctx.Mp.rank - 1
    rows[last] = [key + m for key in rows[last]]
    return (pv, rows, cleared - m, *rest)


def _distinct_blocks(ctx, m):
    """The check's layout for ``ctx``, each column of b-index b times x^((b-1)m) on group 1's rows.

    Row 1 of column-class block b moves by (b-1)m, so no two blocks share
    a canonical form; the groups' primitive matrices stay as they are.
    Block b's determinant gains x^((b-1)m), so the cleared key gives up
    C(n', 2)·m, and the rows' determinant times the cleared monomial is
    Mat1's, with its bound.
    """
    pv, rows, cleared, *rest = _layout(ctx)
    np_ = ctx.Mp.rank
    b_of = [b for _, _, b, _ in _mat1_columns(ctx)]
    for r in range(np_, 2 * np_):
        rows[r] = [key + (b - 1) * m for key, b in zip(rows[r], b_of)]
    return (pv, rows, cleared - comb(np_, 2) * m, *rest)


def _a11_over_q1(n, np_):
    """The key of A[1,1]·Q[1]^-1 in the variables of an n x n' pair."""
    pv = PairVariables(n, np_)
    return _pack([(pv.a_idx(1, 1), 1), (pv.q_idx(1), -1)])


class TestFactoredCheck:
    @pytest.mark.parametrize("n, np_", ADMITTED_SHAPES)
    def test_a_failed_test_against_b_declines_at_step_2(self, n, np_, monkeypatch):
        # With the test against det(B) forced to fail, the check declines at
        # step 2.  On Mat1 all n groups share that one test, so none
        # factors: no sign, no blocks, no test against det(A), no group's
        # minors counted, and every other field kept.
        rng = random.Random(f"fallback/{n}x{np_}")
        ctx = PairContext.build(*pair_of_shape(n, np_, sorted(rng.sample(range(n + np_), n))))
        right = verify_proposition(ctx)
        _unfactored_groups(monkeypatch)
        forced = verify_proposition(ctx)
        assert right.ok and (right.blocks, forced.blocks) == (np_, None)
        assert (right.tests, forced.tests) == ((1, 1), (1, 0))
        assert (right.nonzero_minors, forced.nonzero_minors) == ((n ** np_,) * n, (0,) * n)
        assert forced.sign is None and not forced.ok
        for name in KEPT_FIELDS:
            assert getattr(forced, name) == getattr(right, name), name

    def test_an_unfactored_or_forged_group_fails_the_check(self, monkeypatch):
        # Mat1 at 2x2 with group 1's last row moved (_distinct_groups), so
        # that each group's primitive matrix has a test of its own: test 0
        # is group 0's, test 1 group 1's.
        import periodkit.oracle as orc

        ctx = PairContext.build(*pair_of_shape(2, 2, range(2)))
        inputs = _distinct_groups(ctx, _a11_over_q1(2, 2))
        monkeypatch.setattr(orc, "_layout", lambda c: inputs)
        right = verify_proposition(ctx)
        assert right.ok and right.tests == (2, 1)
        # A group that does not factor leaves the blocks nothing to decide:
        # the check observes no sign, and a 0 in nonzero_minors names each
        # group that did not factor.
        unfactored = {
            "group 0 unfactored": ((0, 4), lambda k, found: None if k == 0 else found),
            "group 1 unfactored": ((4, 0), lambda k, found: None if k == 1 else found),
            "no group factored": ((0, 0), lambda k, found: None),
        }
        assert right.nonzero_minors == (4, 4)
        for case, (minors, against_b) in unfactored.items():
            with monkeypatch.context() as patch:
                _tamper(patch, against_b)
                rep = verify_proposition(ctx)
            assert rep.blocks is None, case
            assert rep.tests == (2, 0) and rep.nonzero_minors == minors, case
            assert rep.sign is None and not rep.ok, case
            for name in KEPT_FIELDS:
                assert getattr(rep, name) == getattr(right, name), (case, name)
        # One forged factor of one group's minor leaves what the blocks
        # multiply out neither sign of the identity, and the check fails.
        forged = {
            "one shift e+1": lambda found: (found[0], found[1] + 1),
            "one unit doubled": lambda found: (2 * found[0], found[1]),
            "one unit negated": lambda found: (-found[0], found[1]),
        }
        for case, forge in forged.items():
            with monkeypatch.context() as patch:
                _tamper(patch, lambda k, found: forge(found) if k == 0 else found)
                rep = verify_proposition(ctx)
            assert (rep.nonzero_minors, rep.blocks) == ((4, 4), 2), case
            assert rep.predicted_sign == right.predicted_sign, case
            assert not rep.ok, case
            negated = -right.predicted_sign if case == "one unit negated" else None
            assert rep.sign == negated, case


class TestDistinctMatrices:
    """The check makes one factor test per distinct canonical form, found by comparing them."""

    @pytest.mark.parametrize("n, np_", [(2, 2), (2, 3), (3, 2)])
    @pytest.mark.parametrize("craft", [_distinct_groups, _distinct_blocks])
    def test_each_distinct_matrix_is_run_and_the_sign_is_naive_dets(self, n, np_, craft, monkeypatch):
        # On every tableau: _distinct_groups gives group 1 a primitive
        # matrix of its own, so two are run against det(B) (groups 0 and 2
        # share one); _distinct_blocks gives each of the n' blocks a
        # canonical form of its own.  The crafted rows' determinant times
        # the cleared monomial is naive_det's, and it is the observed sign
        # times det(A)^n' det(B)^n.
        import periodkit.oracle as orc

        pv = PairVariables(n, np_)
        names = pv.names
        want_tests = (2, 1) if craft is _distinct_groups else (1, np_)
        for slots in combinations(range(n + np_), n):
            ctx = PairContext.build(*pair_of_shape(n, np_, slots))
            mat1 = verify_proposition(ctx)
            inputs = craft(ctx, _a11_over_q1(n, np_))
            with monkeypatch.context() as patch:
                patch.setattr(orc, "_layout", lambda c: inputs)
                rep = verify_proposition(ctx)
            assert rep.tests == want_tests, slots
            assert rep.ok and (rep.nonzero_minors, rep.blocks) == ((n ** np_,) * n, np_), slots
            assert (rep.sign, rep.bound) == (mat1.sign, mat1.bound), slots
            _, rows, cleared, *_ = inputs
            lhs = naive_det([[_poly(names, key) for key in row] for row in rows])
            lhs = lhs * _poly(names, cleared)
            det_a, det_b = _generic_det(pv.a_idx, n), _generic_det(pv.b_idx, np_)
            unsigned = LaurentPoly(names, det_a, 1) ** np_ * LaurentPoly(names, det_b, 1) ** n
            assert lhs == (unsigned if rep.sign == 1 else -unsigned), slots

    @pytest.mark.parametrize("n, np_", [(2, 2), (2, 3), (3, 2), (3, 3)])
    def test_blocks_whose_members_arrive_in_different_orders(self, n, np_, monkeypatch):
        # A⊗B over the pair's variables, in place of Mat1, with its columns
        # listed in an order π: every one at 2x2, 40 seeded ones past it.
        # Its determinant is sgn(π)·det(A)^n' det(B)^n (Kronecker).  The
        # members of a column-class block arrive in π's order, so blocks
        # sort their columns with signs that differ, and the check finds
        # sgn(π), which the Bareiss evaluation at a seeded point confirms.
        import periodkit.oracle as orc

        ctx = PairContext.build(*pair_of_shape(n, np_, range(n)))
        pv = PairVariables(n, np_)
        pairs = [(a, b) for a in range(1, n + 1) for b in range(1, np_ + 1)]
        rng = random.Random(f"orders/{n}x{np_}")
        size = n * np_
        orders = (
            permutations(range(size)) if size <= 4
            else (rng.sample(range(size), size) for _ in range(40))
        )
        parities = set()
        for order in orders:
            cols = [pairs[c] for c in order]
            rows = [
                [_pack([(pv.a_idx(i, a), 1), (pv.b_idx(j, b), 1)]) for a, b in cols]
                for i in range(1, n + 1)
                for j in range(1, np_ + 1)
            ]
            inversions = sum(x > y for k, x in enumerate(order) for y in order[k + 1 :])
            sign = (-1) ** inversions
            # Each block's members in arrival order, by a-index, and whether
            # they arrive in an even order.
            arrivals = [[a for a, b in cols if b == b0] for b0 in range(1, np_ + 1)]
            parities.add(tuple(
                sum(x > y for k, x in enumerate(seq) for y in seq[k + 1 :]) % 2
                for seq in arrivals
            ))
            inputs = (pv, rows, 0, 0, sign)
            with monkeypatch.context() as patch:
                patch.setattr(orc, "_layout", lambda c: inputs)
                rep = verify_proposition(ctx)
            assert rep.ok and rep.sign == sign and rep.tests == (1, 1), order
            point = [rng.choice((-1, 1)) * rng.randint(1, POINT_RANGE) for _ in pv.names]
            values = [[prod(p ** e for p, e in zip(point, _unpack(key, len(point)))) for key in row]
                      for row in rows]
            da = _bareiss([[point[pv.a_idx(i, a)] for a in range(1, n + 1)] for i in range(1, n + 1)])
            db = _bareiss(
                [[point[pv.b_idx(j, b)] for b in range(1, np_ + 1)] for j in range(1, np_ + 1)]
            )
            assert Fraction(_bareiss(values), da ** np_ * db ** n) == sign, order
        # Some orders bring one block's members in an even order and
        # another's in an odd one.
        assert any(len(set(p)) == 2 for p in parities)


@pytest.mark.parametrize("n, np_", ADMITTED_SHAPES)
def test_identity_holds_on_every_tableau_of_the_shape(n, np_):
    # On every tableau all n i-blocks factor, each with n^n' nonzero
    # minors, so the column-class blocks decide.  The exponent
    # bound of Mat1's determinant, row 0 cleared, peaks at nn' + max(n, n')
    # over the shape's tableaux: 16 at 3x4 and 4x3, the largest the check
    # meets, far inside the 8-bit field's 127.
    seen, bounds = set(), []
    for slots in combinations(range(n + np_), n):
        ctx = PairContext.build(*pair_of_shape(n, np_, slots))
        seen.add((ctx.A.members, ctx.T.members))
        rep = verify_proposition(ctx)
        assert rep.ok, (n, np_, slots)
        assert rep.nonzero_minors == (n ** np_,) * n, (n, np_, slots)
        assert rep.tests == (1, 1), (n, np_, slots)
        bounds.append(rep.bound)
    assert len(seen) == comb(n + np_, n)
    assert max(bounds) == n * np_ + max(n, np_) <= 16


@pytest.mark.parametrize("n, np_", ADMITTED_SHAPES)
def test_right_side_has_bound_n_plus_np(n, np_):
    # det(A) and det(B) have bound 1, so det(A)^n' det(B)^n has n' + n:
    # at most 7, at 3x4 and 4x3.
    rep = verify_proposition(PairContext.build(*pair_of_shape(n, np_, range(n))))
    assert rep.rhs._bound == n + np_ <= 7
    # The diagonal term's exponents are n' and n, below the bound: a
    # product's bound is the sum of its factors' bounds.
    pv = PairVariables(n, np_)
    exps = {pv.a_idx(i, i): np_ for i in range(1, n + 1)}
    exps.update({pv.b_idx(j, j): n for j in range(1, np_ + 1)})
    key = tuple(exps.get(v, 0) for v in range(len(pv.names)))
    assert rep.rhs.terms[key] == rep.predicted_sign


@pytest.mark.parametrize("n, np_", ADMITTED_SHAPES)
def test_every_row_block_of_mat1_factors(n, np_):
    # In verify_proposition, Mat1 goes in n groups of n' rows.  Each
    # i-block has n' classes and n^n' nonzero minors, one per choice of n'
    # distinct b-indices: each is ±monomial·det(B).  All n groups have one
    # primitive matrix, so its determinant is tested once against det(B).
    # All split the columns by b-index, so the n' column-class blocks
    # decide, and all have one canonical form, tested once against det(A).
    ctx = PairContext.build(*pair_of_shape(n, np_, range(n)))
    rep = verify_proposition(ctx)
    assert rep.ok
    assert rep.nonzero_minors == (n ** np_,) * n
    assert rep.tests == (1, 1)
    assert rep.blocks == np_
    pv = PairVariables(n, np_)
    assert len(_generic_det(pv.b_idx, np_)) == factorial(np_)


# The evaluation reference draws each variable from S, the nonzero integers
# in [-2^31, 2^31].
POINT_RANGE = 1 << 31
POINT_SIZE = 2 * POINT_RANGE


def _bareiss(rows):
    """The determinant of a square integer matrix, by fraction-free elimination.

    Bareiss (Math. Comp. 22, 1968): after step p every entry below and
    right of the pivots is a (p+2)-minor of the input, up to the row swaps'
    sign, so each division by the previous pivot is exact.
    """
    m = [list(row) for row in rows]
    k, sign, pivot = len(m), 1, 1
    for p in range(k - 1):
        if not m[p][p]:
            swap = next((r for r in range(p + 1, k) if m[r][p]), None)
            if swap is None:
                return 0
            m[p], m[swap], sign = m[swap], m[p], -sign
        for r in range(p + 1, k):
            for c in range(p + 1, k):
                m[r][c] = (m[r][c] * m[p][p] - m[r][p] * m[p][c]) // pivot
        pivot = m[p][p]
    return sign * m[-1][-1]


def _evaluated_identity(ctx, rng):
    """(det(Mat1)·cleared, det(A), det(B)) at a point of S drawn from ``rng``, in integers.

    Mat1 is ``build_mat1``'s, read through ``.terms``.  Each column's
    entries share one Q·Q' part; scaling the column by its inverse makes
    the matrix integral and multiplies its determinant by that inverse,
    and the product of the inverses is the cleared monomial.  Every
    determinant is ``_bareiss``'s, on evaluated entries.
    """
    n, np_ = ctx.M.rank, ctx.Mp.rank
    pv = PairVariables(n, np_)
    periods = [pv.q_idx(t) for t in range(1, n + 1)] + [pv.qp_idx(u) for u in range(1, np_ + 1)]
    period_set = set(periods)
    point = [rng.choice((-1, 1)) * rng.randint(1, POINT_RANGE) for _ in pv.names]
    mat1 = build_mat1(ctx)
    columns, cleared = [], [0] * len(point)
    for column in zip(*mat1):
        terms = [term for entry in column for term in entry.terms.items()]
        assert len(terms) == len(column)  # one term per entry
        (part,) = {tuple(exps[v] for v in periods) for exps, _ in terms}
        for v, e in zip(periods, part):
            cleared[v] -= e
        scaled = []
        for exps, coeff in terms:
            rest = [(v, e) for v, e in enumerate(exps) if e and v not in period_set]
            assert all(e >= 0 for _, e in rest)
            scaled.append(coeff * prod(point[v] ** e for v, e in rest))
        columns.append(scaled)
    assert dict(cleared_period_product(ctx).terms) == {tuple(cleared): 1}
    det_a = _bareiss([[point[pv.a_idx(i, a)] for a in range(1, n + 1)] for i in range(1, n + 1)])
    det_b = _bareiss(
        [[point[pv.b_idx(j, b)] for b in range(1, np_ + 1)] for j in range(1, np_ + 1)]
    )
    return _bareiss(list(zip(*columns))), det_a, det_b


def _assert_the_evaluation_agrees(ctx, rep, rng):
    """The evaluated det(Mat1)·cleared over det(A)^n' det(B)^n is ``rep.sign``, the predicted sign.

    lhs - s·rhs has degree 2nn' in the entries of A and B, so unless it is
    zero it vanishes at a uniform point of S^k with probability at most
    2nn'/|S| (Schwartz, JACM 27, 1980; Zippel, EUROSAM 1979).
    """
    n, np_ = ctx.M.rank, ctx.Mp.rank
    lhs, det_a, det_b = _evaluated_identity(ctx, rng)
    where = (
        f"{n}x{np_}, A {sorted(ctx.A.members)}: |S| = {POINT_SIZE}, a false identity holds "
        f"at the point with probability <= 2nn'/|S| = {2 * n * np_ / POINT_SIZE:.1e}"
    )
    assert det_a and det_b, where
    ratio = Fraction(lhs, det_a ** np_ * det_b ** n)
    assert ratio == rep.sign == rep.predicted_sign, (ratio, rep.sign, rep.predicted_sign, where)


def test_bareiss_is_the_permutation_sum():
    # Small entries, so that zero pivots and singular matrices occur.
    rng = random.Random(70)
    for _ in range(300):
        k = rng.randint(1, 5)
        rows = [[rng.choice((0, 0, 1, -1, 2, -3, 1 << 40)) for _ in range(k)] for _ in range(k)]
        want = sum(
            (-1) ** sum(perm[i] > perm[j] for i in range(k) for j in range(i + 1, k))
            * prod(rows[i][perm[i]] for i in range(k))
            for perm in permutations(range(k))
        )
        assert _bareiss(rows) == want, rows


class TestColumnClassBlocks:
    @pytest.mark.parametrize("n, np_", ADMITTED_SHAPES)
    def test_the_blocks_decide_every_tableau_with_the_bareiss_sign(self, n, np_):
        # On every tableau of the shape the blocks decide, with the sign
        # that the Bareiss evaluation of Mat1 at a seeded point finds.
        rng = random.Random(f"bareiss/{n}x{np_}")
        for slots in combinations(range(n + np_), n):
            ctx = PairContext.build(*pair_of_shape(n, np_, slots))
            rep = verify_proposition(ctx)
            _assert_the_evaluation_agrees(ctx, rep, rng)
            assert rep.ok and rep.blocks == np_, slots
            assert rep.nonzero_minors == (n ** np_,) * n, slots
            assert rep.tests == (1, 1), slots

    @pytest.mark.parametrize("n, np_", ADMITTED_SHAPES)
    def test_a_forged_block_test_fails_the_check(self, n, np_, monkeypatch):
        # As a forged unit or shift of a group's test against det(B) does.
        # A declined block test leaves blocks None: step 3 declined.  From
        # n = 2 on, _distinct_blocks gives each block a test of its own, so
        # test 0 forges block 0 alone.  At n = 1 every 1x1 block has the
        # canonical form (x^0), so the n' blocks share test 0: a forged
        # unit counts n' times, and a negated one cancels when n' is even.
        import periodkit.oracle as orc

        ctx = PairContext.build(*pair_of_shape(n, np_, range(n)))
        if n > 1:
            inputs = _distinct_blocks(ctx, _a11_over_q1(n, np_))
            monkeypatch.setattr(orc, "_layout", lambda c: inputs)
        right = verify_proposition(ctx)
        shared = np_ if n == 1 else 1
        assert right.ok and right.tests == (1, np_ // shared)
        negated = (-1) ** shared * right.predicted_sign
        forged = {
            "declined": (lambda found: None, None, None),
            "shift t+1": (lambda found: (found[0], found[1] + 1), None, np_),
            "unit d doubled": (lambda found: (2 * found[0], found[1]), None, np_),
            "unit d negated": (lambda found: (-found[0], found[1]), negated, np_),
        }
        for case, (forge, sign, blocks) in forged.items():
            with monkeypatch.context() as patch:
                _tamper(patch, against_a=lambda k, found: forge(found) if k == 0 else found)
                rep = verify_proposition(ctx)
            assert (rep.blocks, rep.nonzero_minors) == (blocks, (n ** np_,) * n), case
            assert rep.predicted_sign == right.predicted_sign, case
            assert rep.sign == sign, case
            assert rep.ok is (sign == right.predicted_sign), case

    def test_groups_that_split_the_columns_otherwise_give_no_sign(self, monkeypatch):
        # The generic A⊗B of a 2x2 pair in place of Mat1, with group 1's
        # middle columns swapped: its classes are {0, 1} and {2, 3}, group
        # 0's {0, 2} and {1, 3}.  Both groups have one primitive matrix, and
        # it factors, but the blocks need one split of the columns into
        # classes: the check declines at step 3.
        kron = _kron_2x2()
        rows = [*kron[:2], *([row[0], row[2], row[1], row[3]] for row in kron[2:])]
        rep = _check_rows(monkeypatch, rows)
        assert rep.blocks is None
        assert rep.nonzero_minors == (4, 4) and rep.tests == (1, 0)
        assert rep.sign is None and not rep.ok

    def test_a_group_whose_primitive_matrix_is_not_square_declines_at_step_2(self, monkeypatch):
        # The same A⊗B with one group's columns put into other than n' = 2
        # classes.  Its primitive matrix has 1 or 3 columns on 2 rows, so it
        # is not square and matches nothing: the group does not factor, no
        # minor of it is counted, and the blocks are never reached.  (With 3
        # classes all three class sets have nonzero minors: on monomial
        # columns two classes with a zero minor would be one class.)
        kron = _kron_2x2()
        pv = PairVariables(2, 2)
        moved = [*kron[3][:3], kron[3][3] * LaurentPoly.monomial(pv.names, {pv.q_idx(1): 1})]
        cases = {
            # Group 0's rows are equal: one class.
            "fewer than n' classes": ([kron[0], kron[0], *kron[2:]], 0, (0, 4)),
            # Group 1's last entry moved by Q[1]: classes {0, 2}, {1} and {3}.
            "n' + 1 classes": ([*kron[:3], moved], 1, (4, 0)),
        }
        for case, (rows, first, minors) in cases.items():
            keys = _bare(rows)
            width = len(_classes(keys[2 * first : 2 * first + 2]))
            assert width == (1 if first == 0 else 3), case
            rep = _check_rows(monkeypatch, rows)
            assert rep.blocks is None, case
            assert rep.nonzero_minors == minors and rep.tests == (2, 0), case
            assert rep.sign is None and not rep.ok, case


def _kron_2x2():
    """A⊗B's rows for the generic 2 x 2 matrices A and B over ``PairVariables(2, 2)``."""
    pv = PairVariables(2, 2)
    names = pv.names
    kron = [
        [
            LaurentPoly.monomial(names, {pv.a_idx(i, a): 1, pv.b_idx(j, b): 1})
            for a in (1, 2)
            for b in (1, 2)
        ]
        for i in (1, 2)
        for j in (1, 2)
    ]
    det_a, det_b = (LaurentPoly(names, _generic_det(idx, 2), 1) for idx in (pv.a_idx, pv.b_idx))
    assert naive_det(kron) == det_a ** 2 * det_b ** 2
    return kron


def _check_rows(monkeypatch, rows):
    """``verify_proposition``'s report on ``rows`` in place of Mat1: nothing cleared, sign 1 predicted.

    The rows' row-max sum is the bound: one per row, as for Mat1, and the
    rest in the cleared bound.
    """
    import periodkit.oracle as orc

    keys = _bare(rows)
    bound = sum(max(e._bound for e in row) for row in rows)
    layout = (PairVariables(2, 2), keys, 0, bound - len(keys), 1)
    with monkeypatch.context() as patch:
        patch.setattr(orc, "_layout", lambda ctx: layout)
        return verify_proposition(PairContext.build(*pair_of_shape(2, 2, range(2))))
