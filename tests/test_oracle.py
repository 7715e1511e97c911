"""Laurent-polynomial ring, symbolic determinant, and the period identity."""

import random
import time
from fractions import Fraction
from itertools import combinations, count, permutations
from math import comb, factorial, prod

import pytest

from periodkit.deligne import PairContext
from periodkit.errors import SizeLimitError
from periodkit.hodge import RegularMotiveData
from periodkit.oracle import (
    LaurentPoly,
    PairVariables,
    _classes,
    _combined,
    _generic_det,
    _inputs,
    _kronecker_column_sign,
    _mat1_columns,
    _minors,
    _pack,
    _product,
    _shift,
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


def _tamper(patch, ctx, against_b):
    """Route what ``oracle._shift`` finds in ``verify_proposition(ctx)`` through a filter.

    ``against_b(k, found)`` takes the k-th test of a class set's minor
    against det(B), counted from 0, and returns what ``_shift`` reports
    instead.  Every test against det(B) is one of these: one per class set
    of proportional columns, which on Mat1 is one per group of n' rows.
    The column-class blocks' tests against det(A) go through a seam of
    their own, ``_block_shift`` (``_tamper_blocks``).
    """
    import periodkit.oracle as orc

    det_b = orc._inputs(ctx)[3]
    shift, tests_against_b = orc._shift, count()

    def spy(poly, ref):
        assert ref == det_b
        return against_b(next(tests_against_b), shift(poly, ref))

    patch.setattr(orc, "_shift", spy)


def _tamper_blocks(patch, ctx, against_a):
    """Route what ``oracle._block_shift`` finds in ``verify_proposition(ctx)`` through a filter.

    ``against_a(k, found)`` takes the k-th test of a column-class block's
    determinant against det(A), counted from 0, and returns what is
    reported instead.  The check makes one per class, n' in all, once
    every group has factored alike against det(B).
    """
    import periodkit.oracle as orc

    det_a = orc._inputs(ctx)[2]
    shift, tests_against_a = orc._block_shift, count()

    def spy(poly, ref):
        assert ref == det_a
        return against_a(next(tests_against_a), shift(poly, ref))

    patch.setattr(orc, "_block_shift", spy)


def _unfactored_first_group(patch, ctx):
    """Report the first class set's minor tested against det(B) as not a multiple of it.

    Its group, group 0, then does not factor, so only n - 1 groups do, and
    ``verify_proposition`` declines at step 2: no sign.
    """
    _tamper(patch, ctx, against_b=lambda k, found: None if k == 0 else found)


def _expanded(group):
    """{member column set: its minor} from what ``_minors`` gives.

    A member set takes one column of each class of its set, and its minor
    is ±x^Σe times the class set's, the sign the parity of the members
    taken in class order.
    """
    out = {}
    for minor, classes in group:
        members = {0: (1, 0)}
        for cols in classes:
            # Each column of ``have`` right of ``bit`` is an inversion.
            members = {
                have | bit: ((u, -u)[(have & -(bit << 1)).bit_count() & 1], s + e)
                for have, (u, s) in members.items()
                for bit, e in cols
            }
        for cols, (u, e) in members.items():
            out[cols] = {key + e: u * c for key, c in minor.items()}
    return out


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
    @pytest.fixture
    def mul_adds(self, monkeypatch):
        """How often ``_product`` falls back to the accumulating loop."""
        import periodkit.oracle as orc

        calls = []
        summed_product = orc._summed_product

        def spy(a, b):
            calls.append(len(a) * len(b))
            return summed_product(a, b)

        monkeypatch.setattr(orc, "_summed_product", spy)
        return calls

    def test_pairs_that_meet_are_summed_and_zeros_dropped(self, mul_adds):
        x, y = LaurentPoly.monomial(XV, {0: 1}), LaurentPoly.monomial(XV, {1: 1})
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
        x, y, z, w = (LaurentPoly.monomial(XV, {i: 1}) for i in range(4))
        p = x * x - x * y + y - LaurentPoly.one(XV)
        q = z + z * w * w - LaurentPoly.monomial(XV, {3: -1})
        got = p * q
        assert len(got.terms) == len(p.terms) * len(q.terms) == 12
        assert got._keys == _accumulated(p._keys, q._keys)
        assert mul_adds == []


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

    def test_rows_whose_two_by_two_minors_vanish(self, monkeypatch):
        # The minor on columns {0, 1} of rows 0-1 and of rows 2-3 is zero,
        # and in the second matrix rows 0 and 1 are proportional, so every
        # minor of theirs is zero.  A zero partial determinant is not
        # extended: a state it reached first would be empty until its zeros
        # are dropped, and no state is.  Below, the state it alone would
        # reach is never made.
        import periodkit.oracle as orc

        partials = []
        drop_zeros = orc._drop_zeros

        def spy(terms):
            partials.append(len(terms))
            drop_zeros(terms)

        monkeypatch.setattr(orc, "_drop_zeros", spy)
        part = [(0b100, 0, {0: 1})]
        assert orc._laplace([part], {0b001: {}, 0b010: {0: 1}}) == {0b110: {0: 1}}
        one = LaurentPoly.one(XV)
        x, y, z, w = (LaurentPoly.monomial(XV, {i: 1}) for i in range(4))
        top = (x, y, z, w)
        bottom = ((z, w, one, x), (z * x, w * x, y, one))
        for second, singular in (((x * y, y * y, w, z), False), (tuple(x * e for e in top), True)):
            mx = (top, second, *bottom)
            want = naive_det(mx)
            assert (want == LaurentPoly.zero(XV)) is singular
            partials.clear()
            assert sym_det(mx) == want
            assert partials and 0 not in partials

    def test_block_whose_minors_differ_by_a_non_integer_ratio(self):
        # The minors of row 0 are 2P, 3P and 0 with P = x + y: 3P is not an
        # integer multiple of 2P, so a group of such minors tested against 2P
        # keeps its minors.
        p = poly_of([((1, 0, 0, 0), 1), ((0, 1, 0, 0), 1)])
        z, w = LaurentPoly.monomial(XV, {2: 1}), LaurentPoly.monomial(XV, {3: 1})
        two, three = p + p, p + p + p
        assert _shift(two._keys, two._keys) == (1, 0)
        assert _shift(three._keys, p._keys) == (3, 0)
        assert _shift(three._keys, two._keys) is None
        mx = ((two, three, LaurentPoly.zero(XV)), (z, w, z * w), (w, z, z))
        assert sym_det(mx) == naive_det(mx)

    def test_block_whose_minors_share_no_factor(self):
        # Neither of x + y and x + z is a monomial times the other, and a
        # zero minor is a multiple of no polynomial, so a group of either
        # kind keeps its minors.
        x, y, z, w = (LaurentPoly.monomial(XV, {i: 1}) for i in range(4))
        xy = _pack(enumerate((1, 1, 0, 0)))
        assert _shift((x * y * (x + y))._keys, (x + y)._keys) == (1, xy)
        assert _shift((x + y)._keys, (x + z)._keys) is None
        assert _shift((x + z)._keys, (x + y)._keys) is None
        assert _shift({}, (x + y)._keys) is None
        mx = ((x + y, x + z, w), (z, w * w, x), (y, z - w, y * z))
        assert sym_det(mx) == naive_det(mx)

    def test_rows_whose_bounds_sum_past_half_the_field(self, monkeypatch):
        # A⊗B with exponents 20 and a bound of 80, checked by
        # verify_proposition in place of Mat1: both i-blocks factor against
        # det(B), one test each, and the packed result decodes to the
        # determinant.  A member set's shift s + e is its minor's exact
        # quotient by det(B), a product of n' entries of a row of A, so the
        # bound that admits det(A)^n' keeps it inside the 8-bit field: here
        # it reaches 40.
        import periodkit.oracle as orc

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
        # det(A) and det(B) are those blocks' determinants, each with its
        # own bound of 40.
        dets = [
            naive_det(tuple(tuple(poly_of([(e, 1)]) for e in row) for row in block))
            for block in (a, b)
        ]
        assert [det._bound for det in dets] == [40, 40]
        # The check's inputs, as its assembly gives them: the rows as
        # packed keys, nothing cleared, their row-max bound, det(A), det(B)
        # and a predicted sign of 1.
        keys = [[entry._keys for entry in row] for row in rows]
        row_max = sum(max(entry._bound for entry in row) for row in rows)
        det_keys = [det._keys for det in dets]
        monkeypatch.setattr(orc, "_inputs", lambda ctx: (keys, row_max, *det_keys, 1))
        ctx = PairContext.build(*pair_of_shape(2, 2, range(2)))
        shifts = []
        _tamper(monkeypatch, ctx, against_b=lambda k, found: shifts.append(found) or found)
        rep = verify_proposition(ctx)
        want = naive_det(rows)
        assert want != LaurentPoly.zero(XV)
        assert rep.ok and rep.sign == 1 and rep.factored == rep.blocks == 2
        assert rep.bound == row_max == 82
        assert rep.nonzero_minors == (4, 4)
        # The right side's bound, 80 + 80, is past the field, so the
        # reference det(A)^2 det(B)^2 is multiplied on packed keys: its
        # true exponents fit.
        squares = [(det ** 2)._keys for det in dets]
        assert want._keys == _accumulated(*squares)
        class_sets = [*_minors(keys[:2]), *_minors(keys[2:])]
        assert len(shifts) == len(class_sets) == 2 and None not in shifts
        members = [
            key
            for (c, s), (_, classes) in zip(shifts, class_sets)
            for minor in _expanded([({s: c}, classes)]).values()
            for key in minor
        ]
        assert len(members) == 8
        fields = [_unpack(e, 4) for e in members]
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
    pv = PairVariables.build(n, np_)
    idx, names = getattr(pv, which), pv.names
    mx = tuple(
        tuple(LaurentPoly.monomial(names, {idx(i, a): 1}) for a in range(1, 5))
        for i in range(1, 5)
    )
    det = LaurentPoly(names, _generic_det(idx, 4), 1)
    assert det == naive_det(mx)
    assert len(det.terms) == factorial(4)


def _term(exps, coeff=1):
    return LaurentPoly.monomial(XV, dict(enumerate(exps)), coeff)


X, Y, Z, W = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
U = [_term(e) for e in (X, Y, Z, W)]  # x, y, z, w down the rows


def _scaled(column, coeff=1, exps=(0, 0, 0, 0)):
    return [entry * _term(exps, coeff) for entry in column]


# (first column, second column, the row counts r for which the two are
# proportional on rows 0..r-1, and those for which they share a class: are
# equal up to x^e there).  The other columns are one-term entries.
PROPORTIONAL_CASES = {
    "by 2": (U, _scaled(U, 2), {2, 3, 4}, set()),
    "by -1": (U, _scaled(U, -1), {2, 3, 4}, set()),
    "by 2:3": (_scaled(U, 3), _scaled(U, 2), {2, 3, 4}, set()),
    "by a Laurent monomial": (U, _scaled(U, 5, (-2, -1, 0, 0)), {2, 3, 4}, set()),
    "by y^-1": (U, _scaled(U, 1, (0, -1, 0, 0)), {2, 3, 4}, {2, 3, 4}),
    "by x^-2·y^-1, coefficients -3": (
        _scaled(U, -3), _scaled(U, -3, (-2, -1, 0, 0)), {2, 3, 4}, {2, 3, 4}),
    "on all rows but the last, by coefficient": (
        U, [*_scaled(U[:3], 2), _term(W, 3)], {2, 3}, set()),
    "on all rows but the last, by y^-1": (
        U, [*_scaled(U[:3], 1, (0, -1, 0, 0)), U[3]], {2, 3}, {2, 3}),
    "on all rows but the second, by exponent": (
        U, [_term((1, 0, 1, 0), 2), _term(Y, 2), _term((0, 0, 2, 0), 2), _term((0, 0, 1, 1), 2)],
        set(), set()),
    "a zero entry": (
        [U[0], LaurentPoly.zero(XV), U[2], U[3]], _scaled(U, 2), set(), set()),
    "zero entries on other rows": (
        [U[0], LaurentPoly.zero(XV), U[2], U[3]],
        [*_scaled([U[0], U[2], U[3]], 2), LaurentPoly.zero(XV)], set(), set()),
    "a two-term entry": ([U[0], U[1] + U[2], U[2], U[3]], _scaled(U, 2), set(), set()),
    "two-term entries on other rows": (
        [U[0] + U[1], U[2], U[3], U[0]], [U[0], U[1] + U[2], U[3], U[0]], set(), set()),
}


def _class_members(rows):
    """The member columns of each class of ``_classes``, in its order."""
    return [[bit.bit_length() - 1 for bit, _ in members] for _, members in _classes(rows)]


def _grouped_det(keys, size):
    """The check's grouped pass: the DP over each block of ``size`` rows' member set minors."""
    blocks = (keys[start : start + size] for start in range(0, len(keys), size))
    return _combined((_expanded(_minors(block)) for block in blocks), len(keys))


class TestProportionalColumns:
    """Columns equal up to x^e on all of a block's rows are one class, and only those."""

    @pytest.mark.parametrize("case", PROPORTIONAL_CASES)
    def test_sym_det_is_exact_at_every_group_size(self, case):
        # sym_det runs the rows one at a time; the check's grouped pass runs
        # blocks of 1 to 4 rows, whose member sets span several columns.
        first, second, proportional_on, shared_on = PROPORTIONAL_CASES[case]
        others = ([_term((0, 1, 1, 0)), U[3], _term((2, 0, 0, 0)), U[1]],
                  [U[3], _term((1, 0, 1, 0), -1), U[1], _term((0, 0, 0, 0), 2)])
        mx = tuple(zip(first, second, *others))
        want = naive_det(mx)
        assert (want == LaurentPoly.zero(XV)) is (4 in proportional_on), case
        assert sym_det(mx) == want, case
        keys = [[entry._keys for entry in row] for row in mx]
        for size in (1, 2, 3, 4):
            assert _grouped_det(keys, size) == want._keys, (case, size)
        for r in (2, 3, 4):
            of = {c: k for k, cols in enumerate(_class_members(keys[:r])) for c in cols}
            assert (of[0] == of[1]) is (r in shared_on), (case, r)
            assert of[0] not in (of[2], of[3]), (case, r)

    @pytest.mark.parametrize("r", [1, 2, 3, 4])
    def test_class_minors_expand_to_every_minor(self, r):
        # Blocks of r rows and twelve columns: four columns each with copies
        # by the ratios 2, -1, 2:3 and 5·x^-2·y^-1, which keep their drifts
        # but not their coefficients, so each is a class of its own, and one
        # class planted by the ratio x·w^-2.  Beside them, copies of a column
        # of the first three: one with an entry zero, one with an entry of
        # two terms, and one with a coefficient doubled.  On one row, every
        # one-term entry of a coefficient is x^e times every other, so those
        # share a class.  Each member set's minor is naive_det on its
        # columns, and every column set _minors leaves out is zero.
        rng = random.Random(f"class minors/{r}")
        for _ in range(4):
            base = [
                [
                    _term(tuple(rng.randint(-2, 2) for _ in XV), rng.choice((-3, -1, 1, 2)))
                    for _ in range(r)
                ]
                for _ in range(4)
            ]
            zero, two, odd = _scaled(base[0], 3), _scaled(base[1], 2), _scaled(base[2])
            zero[rng.randrange(r)] = LaurentPoly.zero(XV)
            two[rng.randrange(r)] += _term(W, rng.choice((-1, 1)))
            odd[rng.randrange(r)] *= _term((0, 0, 0, 0), 2)
            cols = [
                base[0], _scaled(base[0], 2), base[1], _scaled(base[1], -1),
                _scaled(base[2], 3), _scaled(base[2], 2), base[3],
                _scaled(base[3], 5, (-2, -1, 0, 0)), zero, two, odd,
                _scaled(base[0], 1, (1, 0, 0, -2)),
            ]
            rng.shuffle(cols)
            rows = [[col[i] for col in cols] for i in range(r)]
            keys = [[entry._keys for entry in row] for row in rows]
            tops = [entry._keys for entry in rows[0]]
            coefficients = {tuple(top.values()) for top in tops if len(top) == 1}
            one_row = len(coefficients) + sum(len(top) != 1 for top in tops)
            assert len(_class_members(keys)) == (11 if r > 1 else one_row)
            subsets = {sum(1 << c for c in s): s for s in combinations(range(12), r)}
            got = _expanded(_minors(keys))
            assert set(got) <= set(subsets)
            for bits, subset in subsets.items():
                want = naive_det(tuple(tuple(row[c] for c in subset) for row in rows))
                assert got.get(bits, {}) == want._keys, (r, subset)

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
        keys = [[entry._keys for entry in row] for row in rows]
        assert _class_members(keys[:2]) == [[0, 1], [2], [3]]
        assert _class_members(keys[:3]) == [[0], [1], [2], [3]]
        want = naive_det(rows)
        assert want != LaurentPoly.zero(XV)
        assert sym_det(rows) == want


@pytest.mark.parametrize("n, np_", ADMITTED_SHAPES)
def test_an_i_block_of_mat1_builds_only_sets_of_distinct_b_indices(n, np_):
    # Mat1's columns with one b-index are proportional on an i-block: n'
    # classes of n members each.  So its one class set expands to the n^n'
    # sets that take each b-index once, and none is zero: 16 at 2x4, 27 at
    # 3x3, 64 at 4x3.
    ctx = PairContext.build(*pair_of_shape(n, np_, range(n)))
    b_of = [b for _, _, b, _ in _mat1_columns(ctx)]
    want = {
        sum(1 << c for c in cols)
        for cols in combinations(range(n * np_), np_)
        if len({b_of[c] for c in cols}) == np_
    }
    block = [[entry._keys for entry in row] for row in build_mat1(ctx)[:np_]]
    classes = _class_members(block)
    assert sorted({b_of[c] for c in cols} for cols in classes) == [{b} for b in range(1, np_ + 1)]
    assert [len(cols) for cols in classes] == [n] * np_
    minors = _minors(block)
    expanded = _expanded(minors)
    assert len(minors) == 1 and set(expanded) == want and len(want) == n ** np_
    assert all(expanded.values())


@pytest.mark.parametrize("n, np_", ADMITTED_SHAPES)
def test_the_check_takes_the_layout_the_public_wrappers_read(n, np_):
    # verify_proposition expands the key rows of _inputs: build_mat1's
    # keys, row 0 shifted by cleared_period_product's key.  Their bound is
    # the row-max sum of that matrix with row 0 multiplied out, and their
    # sign is _kronecker_column_sign's, on every tableau of the shape.
    for slots in combinations(range(n + np_), n):
        ctx = PairContext.build(*pair_of_shape(n, np_, slots))
        rows, bound, det_a, det_b, sign = _inputs(ctx)
        mat1, cleared = build_mat1(ctx), cleared_period_product(ctx)
        ((shift, coeff),) = cleared._keys.items()
        want = [[dict(entry._keys) for entry in row] for row in mat1]
        want[0] = [{key + shift: c for key, c in entry.items()} for entry in want[0]]
        assert coeff == 1 and rows == want, (n, np_, slots)
        scaled = (tuple(entry * cleared for entry in mat1[0]), *mat1[1:])
        assert bound == sum(max(entry._bound for entry in row) for row in scaled), slots
        assert sign == _kronecker_column_sign(_mat1_columns(ctx), np_), (n, np_, slots)
        pv = PairVariables.build(n, np_)
        assert det_a == _generic_det(pv.a_idx, n)
        assert det_b == _generic_det(pv.b_idx, np_)
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
        pv = PairVariables.build(1, 1)
        want = LaurentPoly.monomial(
            pv.names,
            {pv.a_idx(1, 1): 1, pv.b_idx(1, 1): 1, pv.q_idx(1): -1, pv.qp_idx(1): -1},
        )
        assert mx[0][0] == want
        assert [desc for desc, *_ in _mat1_columns(ctx)] == [("T-complement", 1, 1)]

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
        pv = PairVariables.build(1, 1)
        want = LaurentPoly.monomial(pv.names, {pv.a_idx(1, 1): 1, pv.b_idx(1, 1): 1})
        assert _reference_lhs(ctx) == want == rep.rhs

    def test_worked_two_by_two(self):
        ctx = PairContext.build(
            RegularMotiveData("M", 1, (1, 0)), RegularMotiveData("M'", 0, (1,))
        )
        assert verify_proposition(ctx).ok

    def test_lhs_matches_det_times_cleared(self):
        # verify_proposition scales a row of Mat1 by the cleared monomial;
        # the reference multiplies the plain, row-by-row determinant by it.
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
        # The check tests its inputs' bound against the field before the DP.
        import periodkit.oracle as orc

        ctx = PairContext.build(*pair_of_shape(2, 2, range(2)))
        inputs = orc._inputs
        monkeypatch.setattr(orc, "_inputs", lambda c: (inputs(c)[0], 128, *inputs(c)[2:]))
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
        assert dict(terms.items()) == old
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
            pv = PairVariables.build(n, np_)
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
        # On every shape, with every group factored and with one group not:
        # the first keeps the sign it observes, the second observes none.
        import periodkit.oracle as orc

        inputs = orc._inputs
        for n, np_ in ADMITTED_SHAPES:
            ctx = PairContext.build(*pair_of_shape(n, np_, range(n)))
            right = verify_proposition(ctx)
            with monkeypatch.context() as patch:
                # The check's own inputs, with the predicted sign flipped.
                patch.setattr(orc, "_inputs", lambda c: (*inputs(c)[:4], -right.predicted_sign))
                wrong = verify_proposition(ctx)
                _unfactored_first_group(patch, ctx)
                forced = verify_proposition(ctx)
            assert (wrong.factored, forced.factored) == (n, n - 1)
            assert (wrong.unfactored, forced.unfactored) == (None, 0)
            assert (wrong.blocks, forced.blocks) == (np_, None)
            assert forced.predicted_sign == wrong.predicted_sign == -right.predicted_sign
            assert right.ok and not wrong.ok and not forced.ok, (n, np_)
            assert wrong.sign == right.sign == -wrong.predicted_sign, (n, np_)
            assert forced.sign is None, (n, np_)


# The fields a step that declines leaves as they are: all but ok and sign,
# which it clears, and factored, unfactored and blocks, which name the step.
KEPT_FIELDS = ("size", "predicted_sign", "bound", "nonzero_minors", "rhs")


class TestFactoredCheck:
    @pytest.mark.parametrize("n, np_", ADMITTED_SHAPES)
    def test_fallback_gives_the_factored_report(self, n, np_, monkeypatch):
        # With group 0 forced unfactored, the check declines at step 2: no
        # sign, group 0 named, no blocks, and every other field kept.
        rng = random.Random(f"fallback/{n}x{np_}")
        ctx = PairContext.build(*pair_of_shape(n, np_, sorted(rng.sample(range(n + np_), n))))
        right = verify_proposition(ctx)
        _unfactored_first_group(monkeypatch, ctx)
        forced = verify_proposition(ctx)
        assert right.ok and (right.factored, right.unfactored, right.blocks) == (n, None, np_)
        assert (forced.factored, forced.unfactored, forced.blocks) == (n - 1, 0, None)
        assert forced.sign is None and not forced.ok
        for name in KEPT_FIELDS:
            assert getattr(forced, name) == getattr(right, name), name

    def test_the_dp_result_is_compared_with_what_the_factors_leave(self, monkeypatch):
        ctx = PairContext.build(*pair_of_shape(2, 2, range(2)))
        right = verify_proposition(ctx)
        assert right.factored == 2 and right.ok and right.unfactored is None
        # A group that does not factor leaves the blocks nothing to decide:
        # the check observes no sign, and the report names the first group
        # that did not factor.
        unfactored = {
            "group 0 unfactored": (1, 0, lambda k, found: None if k == 0 else found),
            "group 1 unfactored": (1, 1, lambda k, found: None if k == 1 else found),
            "no group factored": (0, 0, lambda k, found: None),
        }
        for case, (factored, first, against_b) in unfactored.items():
            with monkeypatch.context() as patch:
                _tamper(patch, ctx, against_b)
                rep = verify_proposition(ctx)
            assert (rep.factored, rep.unfactored, rep.blocks) == (factored, first, None), case
            assert rep.sign is None and not rep.ok, case
            for name in KEPT_FIELDS:
                assert getattr(rep, name) == getattr(right, name), (case, name)
        # One forged factor of one minor leaves what the blocks multiply
        # out neither sign of the identity, and the check fails.
        forged = {
            "one shift e+1": lambda found: (found[0], found[1] + 1),
            "one unit doubled": lambda found: (2 * found[0], found[1]),
        }
        for case, forge in forged.items():
            with monkeypatch.context() as patch:
                _tamper(patch, ctx, lambda k, found: forge(found) if k == 0 else found)
                rep = verify_proposition(ctx)
            assert (rep.factored, rep.unfactored, rep.blocks) == (2, None, 2), case
            assert rep.predicted_sign == right.predicted_sign, case
            assert rep.sign is None and not rep.ok, case


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
        assert rep.factored == n and rep.unfactored is None, (n, np_, slots)
        assert rep.nonzero_minors == (n ** np_,) * n, (n, np_, slots)
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
    pv = PairVariables.build(n, np_)
    exps = {pv.a_idx(i, i): np_ for i in range(1, n + 1)}
    exps.update({pv.b_idx(j, j): n for j in range(1, np_ + 1)})
    key = tuple(exps.get(v, 0) for v in range(len(pv.names)))
    assert rep.rhs.terms[key] == rep.predicted_sign


@pytest.mark.parametrize("n, np_", ADMITTED_SHAPES)
def test_every_row_block_of_mat1_factors(n, np_, monkeypatch):
    # In verify_proposition, Mat1 goes in n groups of n' rows.  Each
    # i-block has one class set, whose minor is tested once against det(B),
    # and has n^n' nonzero minors, one per choice of n' distinct b-indices:
    # each is ±monomial·det(B).  All split the columns by b-index, so the
    # n' column-class blocks decide.  The DP runs on Mat1 alone: det(A)
    # and det(B) are Leibniz sums, and sym_det never runs.
    import periodkit.oracle as orc

    ctx = PairContext.build(*pair_of_shape(n, np_, range(n)))
    against_b = []
    _tamper(monkeypatch, ctx, lambda k, found: against_b.append(found) or found)
    sym_dets = []
    monkeypatch.setattr(orc, "sym_det", lambda *args: sym_dets.append(args))
    rep = verify_proposition(ctx)
    assert rep.ok and rep.factored == n and sym_dets == []
    assert rep.nonzero_minors == (n ** np_,) * n
    assert len(against_b) == n
    assert rep.blocks == np_
    assert all(found is not None and found[0] in (1, -1) for found in against_b)
    pv = PairVariables.build(n, np_)
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
    pv = PairVariables.build(n, np_)
    periods = [pv.q_idx(t) for t in range(1, n + 1)] + [pv.qp_idx(u) for u in range(1, np_ + 1)]
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
            rest = [(v, e) for v, e in enumerate(exps) if v not in periods]
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
    def test_the_blocks_and_the_combining_pass_give_one_report(self, n, np_):
        # On every tableau of the shape the blocks decide, with the sign
        # that the Bareiss evaluation of Mat1 at a seeded point finds.
        rng = random.Random(f"bareiss/{n}x{np_}")
        for slots in combinations(range(n + np_), n):
            ctx = PairContext.build(*pair_of_shape(n, np_, slots))
            rep = verify_proposition(ctx)
            _assert_the_evaluation_agrees(ctx, rep, rng)
            assert rep.ok and (rep.blocks, rep.factored, rep.unfactored) == (np_, n, None), slots

    @pytest.mark.parametrize("n, np_", ADMITTED_SHAPES)
    def test_a_forged_block_test_fails_the_check(self, n, np_, monkeypatch):
        # As a forged unit or shift of a group's test against det(B) does.
        # A declined block test leaves blocks None: step 3 declined.
        ctx = PairContext.build(*pair_of_shape(n, np_, range(n)))
        right = verify_proposition(ctx)
        forged = {
            "declined": (lambda found: None, None, None),
            "shift t+1": (lambda found: (found[0], found[1] + 1), None, np_),
            "unit d doubled": (lambda found: (2 * found[0], found[1]), None, np_),
            "unit d negated": (lambda found: (-found[0], found[1]), -right.predicted_sign, np_),
        }
        for case, (forge, sign, blocks) in forged.items():
            with monkeypatch.context() as patch:
                _tamper_blocks(patch, ctx, lambda k, found: forge(found) if k == 0 else found)
                rep = verify_proposition(ctx)
            assert (rep.blocks, rep.factored, rep.unfactored) == (blocks, n, None), case
            assert rep.predicted_sign == right.predicted_sign, case
            assert rep.sign == sign and not rep.ok, case

    def test_groups_that_split_the_columns_otherwise_give_no_sign(self, monkeypatch):
        # A⊗B over x, y, z, w in place of Mat1, as in
        # test_rows_whose_bounds_sum_past_half_the_field.  The blocks need
        # one class set per group, and one split of the columns into
        # classes; otherwise the check declines at step 3.
        import periodkit.oracle as orc

        a = (((1, 0, 0, 0), (0, 1, 0, 0)), ((0, 0, 1, 0), (1, 0, 0, 1)))
        b = (((0, 1, 0, 0), (0, 0, 0, -1)), ((-1, 0, 0, 0), (0, 0, 1, 0)))
        kron = [
            [_term(tuple(map(sum, zip(a[i][c // 2], b[j][c % 2])))) for c in range(4)]
            for i in range(2)
            for j in range(2)
        ]
        det_a, det_b = (naive_det(tuple(tuple(map(_term, row)) for row in m)) for m in (a, b))
        want = det_a ** 2 * det_b ** 2
        assert naive_det(kron) == want
        cases = {
            # Group 0's rows are equal: one class, and no class set.
            "a group with no class set": [kron[0], kron[0], *kron[2:]],
            # Group 1's middle columns swapped: its classes are {0, 1} and
            # {2, 3}, group 0's {0, 2} and {1, 3}.
            "two splits": [*kron[:2], *([row[0], row[2], row[1], row[3]] for row in kron[2:])],
        }
        ctx = PairContext.build(*pair_of_shape(2, 2, range(2)))
        for case, rows in cases.items():
            keys = [[entry._keys for entry in row] for row in rows]
            bound = sum(max(e._bound for e in row) for row in rows)
            inputs = (keys, bound, det_a._keys, det_b._keys, 1)
            with monkeypatch.context() as patch:
                patch.setattr(orc, "_inputs", lambda ctx: inputs)
                rep = verify_proposition(ctx)
            assert (rep.blocks, rep.factored, rep.unfactored) == (None, 2, None), case
            assert rep.sign is None and not rep.ok, case
