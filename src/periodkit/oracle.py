"""Exact re-derivation of the Deligne period formula by matching Mat1's structure.

Mat1 is the coefficient matrix of the comparison isomorphism, restricted
to the basis vectors outside the index sets A and T.  ``verify_proposition``
checks det(Mat1)·cleared = sgn(σ)·det(A)^n' det(B)^n over exact integers,
in these steps; the code cites them by number.

1. Layout.  Over a Laurent ring with one variable per A_ia, B_jb, Q_t and
   Q'_u, Mat1's columns are those of A⊗B, permuted by σ, with the T-block
   columns scaled by inverse periods, so sgn(σ) is predicted, not fitted.
   One column list and the index arithmetic of ``PairVariables``, run
   once per row, give Mat1's entries as bare keys (every entry is one
   term of coefficient 1), the cleared period monomial's key, kept out of
   the rows for the final key sum, its exponent bound and sgn(σ).  The
   exponents of Q_a and Q'_b in the cleared key count the scaled columns
   of index a and of index b, so the bound is the largest count, read
   without decoding a key.  No variable name and no determinant is built.
2. Groups against B, by matching.  One factor test serves steps 2 and 3.
   Let G be the generic k x k matrix of A's or of B's variables, g(r, c)
   the key of its entry.  The test takes a matrix M of keys whose rows
   are G's rows in order: in step 2 B's rows j, in step 3 A's rows i.
   Its canonical form M' takes each column less its row-0 key and sorts
   the columns, so det(M) = c·x^(Σe_0)·det(M'), c the sign of the sort and
   Σe_0 the row-0 keys taken out.  If M is G with its columns permuted
   and scaled by row keys u_r and column keys v_c, its columns less their
   row-0 keys are G's less theirs, plus u_r - u_0, and sort in G's column
   order, since g(1, c) - g(0, c) grows with c.  So M' matches G when it
   is square and D = M' - G is a row key plus a column key,
   D[r][c] = D[r][0] + D[0][c] - D[0][0] for every r and c; then
   det(M') = x^e·det(G) with e = Σ_r D[r][r], and det(M) = c·x^(Σe_0 + e)
   ·det(G).  Any other matrix gives no answer, a row-permuted G among
   them from k = 3 on.  The test runs once per distinct canonical form.
   A group's columns equal up to x^e on all its rows form a class, in Mat1
   the n columns of one b-index; e is the column's row-0 key, and the
   columns less their e, one per class, are the group's primitive matrix.
   If it matches B's generic matrix with c_i and s_i, group i factors: a
   set of n' columns, one of each class, has the minor ±x^Σe·c_i·x^(s_i)·
   det(B), and a set holding two columns of one class has the minor zero.
   A primitive matrix that is not square leaves the group unfactored.  On
   Mat1 all n groups share one canonical primitive matrix, so one test.
3. Blocks against A.  If every group factors, and all split the
   columns into the same n' classes, then
   det(Mat1) = Πc_i·x^(Σs_i)·det(B)^n·det(N).  Row (i, k) of N has x^e in
   each member column of class k of group i.  Listing N's rows class by
   class and its columns class after class makes it block diagonal (the
   Kronecker factorization, Horn and Johnson, *Topics in Matrix Analysis*,
   §4.2): det(N) = ε·Π det(N_b), with ε = (-1)^(C(n,2)·C(n',2)) times the
   sign of that column order.  The n-row block N_b, its rows A's rows i,
   goes through the factor test against A's generic matrix, which gives
   det(N_b) = d_b·x^(t_b)·det(A); on Mat1 all n' blocks share one
   canonical form, of n columns, so one test.
4. Exactness.  Each exponent is a signed 8-bit field of one integer key.
   Packing is additive, so each sum of keys above is the key of the sum of
   exponent vectors, and a key is 0 only if its vector is 0 or has a field
   of size 256 or more: its lowest nonzero field is a multiple of 256.
   Mat1's entries have fields in {-1, 0, 1}, which the checked bound
   assumes.  Two columns compared in step 2 or 3 differ by four entries,
   so by at most 4 in each field.  An entry of a canonical form is the
   difference of two of Mat1's entries, and an entry of D takes one of
   G's keys from it, so it stays within 3 in each field: each side of a
   D comparison stays within 9, and a diagonal key sum e within 3k.  All
   are far below 128, so every comparison in steps 2 and 3 is exact, and
   det(Mat1) = u·x^K·det(A)^n' det(B)^n holds, with u = ε·Πc_i·Πd_b and
   K = Σs_i + Σt_b, and K + cleared is the exponent
   of a term of det(Mat1)·cleared, below 128 by the checked bound, over
   one of det(A)^n' det(B)^n, at most max(n, n'): below 256, so its
   comparison with 0 is exact too.  The identity holds with sign u
   exactly when K + cleared is the zero key and u is ±1.  A group
   that does not factor, groups that split the columns otherwise, or a
   block that does not match leaves no sign: the check declines at that
   step.
"""
from __future__ import annotations

from collections.abc import ItemsView, Mapping
from functools import cache
from itertools import permutations
from math import comb, prod
from operator import add, sub

from .deligne import PairContext
from .errors import SizeLimitError
from .value import Frozen

# The shapes checked: n, n' <= 4 with nn' <= 12.  Steps 2-4 never multiply
# out det(A)^n' det(B)^n, but the report's right side does when it is read:
# 221,760 terms at 3x4, 102,961,609 at 4x4, and at 1x11 det(B) alone has 11!
# terms.  A wider bound needs a reference for the new shapes that shares no
# code with the check; the tests' Bareiss evaluation of Mat1 is one.
MAX_RANK = 4
MAX_SIZE = 12


def require_shape(n: int, np_: int) -> None:
    """Raise ``SizeLimitError`` unless n, n' <= MAX_RANK and nn' <= MAX_SIZE."""
    if max(n, np_) > MAX_RANK or n * np_ > MAX_SIZE:
        raise SizeLimitError(
            f"shape {n}x{np_} is outside the oracle's bound n, n' <= {MAX_RANK} and "
            f"nn' <= {MAX_SIZE} (the report's right side multiplies out det(A)^n' det(B)^n)"
        )


# Every exponent lives in a signed 8-bit field of its key.  Python hashes
# an int as its value mod 2^61 - 1, which folds the fields onto each other:
# at 6 bits distinct keys of a 3x4 determinant share a hash, at 8 they do
# not.  The identity check meets bounds up to 16, Mat1's at 3x4 and 4x3.
_WIDTH = 8
_LIMIT = 1 << (_WIDTH - 1)


def _checked(bound: int) -> int:
    """Return ``bound``, or raise if an exponent of that size does not fit the field."""
    if bound >= _LIMIT:
        raise OverflowError(f"exponent bound {bound} does not fit the {_WIDTH}-bit field")
    return bound


def _pack(pairs) -> int:
    """The packed key of (variable index, exponent) pairs."""
    return sum(e << (_WIDTH * i) for i, e in pairs)


def _unpack(key: int, nv: int) -> tuple[int, ...]:
    out = []
    for _ in range(nv):
        e = key & ((1 << _WIDTH) - 1)
        if e >= _LIMIT:
            e -= 1 << _WIDTH
        out.append(e)
        key = (key - e) >> _WIDTH
    return tuple(out)


def _drop_zeros(terms: dict[int, int]) -> None:
    if 0 in terms.values():
        for key in [key for key, c in terms.items() if not c]:
            del terms[key]


def _summed_product(a: dict[int, int], b: dict[int, int]) -> dict[int, int]:
    """a·b on packed keys, as ``_det`` of diag(a, b): for factors whose term pairs meet."""
    if len(a) < len(b):
        a, b = b, a
    return _det([{1: a}, {2: b}], 2)


def _square(a: dict[int, int]) -> dict[int, int]:
    """a·a on packed keys: c² for each term, 2·c_a·c_b for each unordered pair of terms."""
    items = list(a.items())
    out: dict[int, int] = {}
    get = out.get
    for i, (ka, ca) in enumerate(items):
        k = ka + ka
        out[k] = get(k, 0) + ca * ca
        ca += ca
        for kb, cb in items[i + 1 :]:
            k = ka + kb
            out[k] = get(k, 0) + ca * cb
    _drop_zeros(out)
    return out


def _product(a: dict[int, int], b: dict[int, int]) -> dict[int, int]:
    """a·b on packed keys, with the longer factor in the inner loop."""
    if len(a) < len(b):
        a, b = b, a
    out = {ka + kb: ca * cb for kb, cb in b.items() for ka, ca in a.items()}
    # A key per term pair: no two pairs met, so nothing was summed or zero.
    if len(out) == len(a) * len(b):
        return out
    return _summed_product(a, b)


class LaurentPoly:
    """Multivariate Laurent polynomial with exact integer coefficients.

    Terms map exponent vectors (one slot per variable, negatives allowed)
    to non-zero integers.  The variable table is a shared tuple of names;
    operations require both operands to carry the same table.

    Each exponent vector is stored as one integer, sum(e_i << 8*i), and
    each polynomial carries a bound on its |e_i|.  The one constructor
    takes both as they are; the oracle builds polynomials from keys whose
    bound it knows, and every other polynomial starts as ``monomial``,
    ``zero`` or ``one``.  A monomial, product, power or determinant whose
    bound would reach 128 raises ``OverflowError``.
    """

    __slots__ = ("vars", "_keys", "_bound")

    def __init__(self, vars: tuple[str, ...], keys: dict[int, int], bound: int):
        self.vars = vars
        self._keys = keys
        self._bound = bound

    @classmethod
    def zero(cls, vars: tuple[str, ...]) -> "LaurentPoly":
        return cls(vars, {}, 0)

    @classmethod
    def one(cls, vars: tuple[str, ...]) -> "LaurentPoly":
        return cls(vars, {0: 1}, 0)

    @classmethod
    def monomial(
        cls, vars: tuple[str, ...], exps: dict[int, int], coeff: int = 1
    ) -> "LaurentPoly":
        """coeff·Π x_idx^e over ``exps``: each index, exponent and the coefficient an int."""
        key = bound = 0
        for idx, e in exps.items():
            if type(idx) is not int:
                raise ValueError(f"variable index {idx!r} is not an int")
            if type(e) is not int:
                raise ValueError(f"exponent {e!r} is not an int")
            if not 0 <= idx < len(vars):
                raise IndexError(f"variable index {idx} out of range")
            key += e << (_WIDTH * idx)
            if abs(e) > bound:
                bound = abs(e)
        if type(coeff) is not int:
            raise ValueError(f"coefficient {coeff!r} is not an int")
        if coeff == 0:
            return cls.zero(vars)
        return cls(vars, {key: coeff}, _checked(bound))

    @property
    def terms(self) -> "Terms":
        """The terms, as a read-only mapping from exponent tuples to coefficients."""
        return Terms(self)

    def _items(self):
        """(exponent tuple, coefficient) for every term, decoded."""
        nv = len(self.vars)
        return ((_unpack(k, nv), c) for k, c in self._keys.items())

    def _check(self, other: "LaurentPoly") -> None:
        if self.vars is not other.vars and self.vars != other.vars:
            raise ValueError("operands live over different variable tables")

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        self._check(other)
        terms = dict(self._keys)
        for k, c in other._keys.items():
            terms[k] = terms.get(k, 0) + c
        _drop_zeros(terms)
        return LaurentPoly(self.vars, terms, max(self._bound, other._bound))

    def __neg__(self) -> "LaurentPoly":
        keys = {k: -c for k, c in self._keys.items()}
        return LaurentPoly(self.vars, keys, self._bound)

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other) if isinstance(other, LaurentPoly) else NotImplemented

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        self._check(other)
        bound = _checked(self._bound + other._bound)
        return LaurentPoly(self.vars, _product(self._keys, other._keys), bound)

    def __pow__(self, k: int) -> "LaurentPoly":
        """self^k by the binary method: per bit of k after the first, a square, then ·self on a 1."""
        if type(k) is not int:
            raise ValueError(f"power {k!r} is not an int")
        if k < 0:
            raise ValueError("only non-negative powers are supported")
        bound = _checked(self._bound * k)
        if not k:
            return LaurentPoly.one(self.vars)
        out = dict(self._keys)
        for bit in bin(k)[3:]:
            out = _square(out)
            if bit == "1":
                out = _summed_product(out, self._keys)
        return LaurentPoly(self.vars, out, bound)

    def __eq__(self, other) -> bool:
        if not isinstance(other, LaurentPoly) or (
            self.vars is not other.vars and self.vars != other.vars
        ):
            return False
        return self._keys == other._keys

    def __str__(self) -> str:
        if not self._keys:
            return "0"
        chunks = []
        for key, c in sorted(self._items()):
            names = [
                f"{self.vars[i]}^{e}" if e != 1 else self.vars[i]
                for i, e in enumerate(key)
                if e
            ]
            chunks.append("*".join(names if c == 1 and names else [str(c), *names]))
        return " + ".join(chunks)

    def __repr__(self) -> str:
        return f"LaurentPoly({self})"


class Terms(Mapping):
    """Read-only view of a polynomial's terms, keyed by exponent tuples.

    ``len`` reads the packed store directly; iteration decodes each key.
    A key that is not a tuple of ints inside the field is absent.
    """

    __slots__ = ("_poly",)

    def __init__(self, poly: LaurentPoly):
        self._poly = poly

    def __len__(self) -> int:
        return len(self._poly._keys)

    def __iter__(self):
        return (key for key, _ in self._poly._items())

    def __getitem__(self, key) -> int:
        poly = self._poly
        if (
            not isinstance(key, tuple)
            or len(key) != len(poly.vars)
            or not all(type(e) is int and -_LIMIT <= e < _LIMIT for e in key)
        ):
            raise KeyError(key)
        return poly._keys[_pack(enumerate(key))]

    def items(self) -> "_TermItems":
        return _TermItems(self)

    def __repr__(self) -> str:
        return f"Terms({dict(self)!r})"


class _TermItems(ItemsView):
    """The items view of ``Terms``: each pair decoded once, not looked up again by its key."""

    def __iter__(self):
        return self._mapping._poly._items()


def _laplace(rows, states: dict[int, dict[int, int]]) -> dict[int, dict[int, int]]:
    """``states``, {used column set: partial determinant}, extended by each row in turn.

    A row maps column bits c to entries.  Taking c after the used columns
    has the sign (-1)^(used columns right of c).  Zero partial
    determinants may remain as empty dicts.
    """
    # Each layer is consumed as the next is built, so at most about two are
    # alive.  A term of an entry shifts every key of a partial alike, so the
    # first term into a new state is one comprehension.
    for row in rows:
        layer: dict[int, dict[int, int]] = {}
        while states:
            used, partial = states.popitem()
            if not partial:
                continue
            for c, entry in row.items():
                if used & c:
                    continue
                odd = (used & -c).bit_count() & 1
                key = used | c
                target = layer.get(key)
                for kb, cb in entry.items():
                    if odd:
                        cb = -cb
                    if target is None:
                        target = layer[key] = {ka + kb: ca * cb for ka, ca in partial.items()}
                    else:
                        get = target.get
                        for ka, ca in partial.items():
                            k = ka + kb
                            target[k] = get(k, 0) + ca * cb
        for target in layer.values():
            _drop_zeros(target)
        states = layer
    return states


def _det(rows, k: int) -> dict[int, int]:
    """The determinant of ``rows`` on columns 0..k-1 by the DP, {} if zero or not square."""
    return _laplace(rows, {0: {0: 1}}).get((1 << k) - 1, {})


def _classes(rows: list[list[int]]) -> dict[tuple[int, ...], list[tuple[int, int]]]:
    """{primitive column: [(c, e) for each member column c]}, in the order of first members.

    ``rows`` holds bare keys, at least one row; a member is x^e times its
    class's primitive column, e its row-0 key.  Every row less row 0,
    transposed, gives the primitive columns.
    """
    primitive = zip(*[map(sub, row, rows[0]) for row in rows])
    classes: dict = {}
    for c, (column, e) in enumerate(zip(primitive, rows[0])):
        classes.setdefault(column, []).append((c, e))
    return classes


def _canonical(columns) -> tuple[int, int, tuple[tuple[int, ...], ...]]:
    """(Σ row-0 keys, sign of the sort, sorted columns), each column less its row-0 key (step 2).

    A column whose row-0 key is 0, as every primitive column of step 2 is,
    is kept as it is.
    """
    shifted = [tuple([key - col[0] for key in col]) if col[0] else col for col in columns]
    return sum([col[0] for col in columns]), -1 if _parity(shifted) else 1, tuple(sorted(shifted))


def _factor(columns: tuple[tuple[int, ...], ...], idx) -> int | None:
    """e with det = x^e·det(G) for canonical ``columns``, G the generic matrix of idx(i, a).

    The matrix M matches G when it is square and D = M - G is a row key
    plus a column key, D[r][c] = D[r][0] + D[0][c] - D[0][0]: then e is
    Σ_r D[r][r] (step 2).  Otherwise the result is None.  Each column of
    D, less its row-0 entry, must equal the lead, column 0 less its own;
    the first that does not ends the test.
    """
    k, lead, e = len(columns), None, 0
    for c, column in enumerate(columns):
        if len(column) != k:
            return None
        # Column c of D, less its row-0 entry, against the lead.
        d = [key - (1 << _WIDTH * idx(r, c + 1)) for r, key in enumerate(column, 1)]
        e, d = e + d[c], [x - d[0] for x in d]
        lead = lead or d
        if d != lead:
            return None
    return e


def _match(columns, idx, tested: dict) -> tuple[int, int] | None:
    """(c, e) with det = c·x^e·det(G) by the factor test of the canonical form, else None.

    ``tested`` maps each canonical form tested to what ``_factor`` found,
    so that each distinct one is tested once; c is the sign of the sort.
    """
    shift, sign, canonical = _canonical(columns)
    if canonical not in tested:
        tested[canonical] = _factor(canonical, idx)
    e = tested[canonical]
    return None if e is None else (sign, shift + e)


def _table(rows) -> tuple[str, ...]:
    """The entries' one variable table: ``ValueError`` if empty, ragged, mixed or not polynomial."""
    if not rows:
        raise ValueError("matrix is empty")
    for i, row in enumerate(rows):
        if len(row) != len(rows):
            raise ValueError("matrix is not square")
        for j, poly in enumerate(row):
            if not isinstance(poly, LaurentPoly):
                raise ValueError(f"entry {poly!r} at row {i}, column {j} is not a LaurentPoly")
            rows[0][0]._check(poly)
    return rows[0][0].vars


def sym_det(rows) -> LaurentPoly:
    """Exact determinant of ``rows``, by Laplace expansion one row at a time.

    ``rows`` is a nonempty square matrix of :class:`LaurentPoly` over one
    variable table, the result's.  The matrix, and the sum over rows of
    the largest entry bound, which bounds the result, are checked before
    any work.
    """
    vars_ = _table(rows)
    bound = _checked(sum(max(poly._bound for poly in row) for row in rows))
    keys = [{1 << c: poly._keys for c, poly in enumerate(row)} for row in rows]
    return LaurentPoly(vars_, _det(keys, len(rows)), bound)


def naive_det(rows) -> LaurentPoly:
    """Permutation-sum determinant, an independent reference; it refuses what ``sym_det`` does."""
    vars_ = _table(rows)
    out = LaurentPoly.zero(vars_)
    for perm in permutations(range(len(rows))):
        term = LaurentPoly.one(vars_)
        for row, c in zip(rows, perm):
            term = term * row[c]
        out = out + (-term if _parity(perm) else term)
    return out


def _parity(seq) -> int:
    """The parity of the number of strict inversions of ``seq``: 0 even, 1 odd.

    The stable argsort keeps ties in their order, so it inverts exactly
    the strictly inverted pairs, and its parity is that of k less its
    cycle count.  Each cycle of length L is walked once, L - 1 steps,
    each member past its start marked -1.
    """
    order, odd = sorted(range(len(seq)), key=seq.__getitem__), 0
    for start, j in enumerate(order):
        while j > start:
            order[j], j, odd = -1, order[j], odd ^ 1
    return odd


# ---------------------------------------------------------------------------
# Variable table and matrix assembly for a tensor pair.


class PairVariables(Frozen):
    """Variable layout: A_ia block, B_jb block, then Q and Q' blocks."""

    __slots__ = ("n", "np")

    @property
    def names(self) -> tuple[str, ...]:
        """The variable table, in index order, built anew on each read."""
        n, np_ = self.n, self.np
        names = [f"A[{i},{a}]" for i in range(1, n + 1) for a in range(1, n + 1)]
        names += [f"B[{j},{b}]" for j in range(1, np_ + 1) for b in range(1, np_ + 1)]
        names += [f"Q[{t}]" for t in range(1, n + 1)]
        names += [f"Q'[{u}]" for u in range(1, np_ + 1)]
        return tuple(names)

    def a_idx(self, i: int, a: int) -> int:
        return (i - 1) * self.n + (a - 1)

    def b_idx(self, j: int, b: int) -> int:
        return self.n * self.n + (j - 1) * self.np + (b - 1)

    def q_idx(self, t: int) -> int:
        return self.n * self.n + self.np * self.np + (t - 1)

    def qp_idx(self, u: int) -> int:
        return self.n * self.n + self.np * self.np + self.n + (u - 1)


def _mat1_columns(ctx: PairContext) -> list[tuple[tuple, int, int, int]]:
    """Each column of Mat1 in order, as (description, a, b, s).

    The column is column (a, b) of A⊗B scaled by (Q_a Q'_b)^-s.  The pairs
    outside A come first, each giving itself with s = 0; a pair (t, u)
    outside T gives (n+1-t, n'+1-u) with s = 1, as a conjugate coefficient
    is the plain one divided by its period.
    """
    n, np_, in_a, in_t = ctx.M.rank, ctx.Mp.rank, ctx.A.members, ctx.T.members
    pairs = [(x, y) for x in range(1, n + 1) for y in range(1, np_ + 1)]
    return [(("A-complement", a, b), a, b, 0) for a, b in pairs if (a, b) not in in_a] + [
        (("T-complement", t, u), n + 1 - t, np_ + 1 - u, 1) for t, u in pairs if (t, u) not in in_t
    ]


def _kronecker_column_sign(cols: list[tuple[tuple, int, int, int]], np_: int) -> int:
    """sgn(σ), where σ takes the columns of A⊗B to ``cols``, Mat1's columns.

    A⊗B orders its columns (a, b) lexicographically, like Mat1 its rows.
    """
    return -1 if _parity([(a - 1) * np_ + (b - 1) for _, a, b, _ in cols]) else 1


def _layout(ctx: PairContext) -> tuple[PairVariables, list[list[int]], int, int, int]:
    """(variables, Mat1's rows, cleared key, its bound, sgn σ), from one column list.

    Rows run over (i, j) lexicographically; the entry in the column
    (a, b, s) is A_ia B_jb Q_a^-s Q'_b^-s, as its bare key.
    The cleared key is Π Q_a Q'_b over the scaled columns, and its bound
    its largest exponent: the most scaled columns that share an a, or a
    b.  A column count other than nn' raises ``ValueError``.
    """
    n, np_ = ctx.M.rank, ctx.Mp.rank
    pv = PairVariables(n, np_)
    cols = _mat1_columns(ctx)
    if len(cols) != n * np_:
        raise ValueError(f"matrix is not square: {len(cols)} columns for {n * np_} rows")
    unit = [1 << (_WIDTH * v) for v in range(pv.qp_idx(np_) + 1)]
    # idx(r, 1) - 1 + c is idx(r, c): PairVariables' arithmetic runs once per row, not per entry.
    q, qp = pv.q_idx(1) - 1, pv.qp_idx(1) - 1
    periods = [s and unit[q + a] + unit[qp + b] for _, a, b, s in cols]
    a_tops = [pv.a_idx(i, 1) - 1 for i in range(1, n + 1)]
    a_rows = [[unit[top + a] - p for (_, a, _, _), p in zip(cols, periods)] for top in a_tops]
    b_tops = [pv.b_idx(j, 1) - 1 for j in range(1, np_ + 1)]
    b_rows = [[unit[top + b] for _, _, b, _ in cols] for top in b_tops]
    rows = [list(map(add, a_row, b_row)) for a_row in a_rows for b_row in b_rows]
    # The cleared key's exponent of Q_a is at a, of Q'_b at n + b: the scaled columns of each.
    exps = [0] * (n + np_ + 1)
    for _, a, b, s in cols:
        exps[a] += s
        exps[n + b] += s
    return pv, rows, sum(periods), max(exps), _kronecker_column_sign(cols, np_)


def build_mat1(ctx: PairContext) -> tuple[tuple[LaurentPoly, ...], ...]:
    """The rows of the nn' x nn' coefficient matrix of the comparison isomorphism.

    Each entry is a monomial of bound 1 over the table of
    ``PairVariables``, read from the layout the check takes (``_layout``).
    """
    pv, rows, *_ = _layout(ctx)
    names = pv.names
    return tuple(tuple(LaurentPoly(names, {key: 1}, 1) for key in row) for row in rows)


def cleared_period_product(ctx: PairContext) -> LaurentPoly:
    """The monomial prod Q_a Q'_b over the period-scaled columns of Mat1."""
    pv, _, key, bound, _ = _layout(ctx)
    return LaurentPoly(pv.names, {key: 1}, _checked(bound))


def _generic_det(idx, k: int) -> dict[int, int]:
    """det of the k x k matrix of distinct variables idx(i, a), as a Leibniz sum on packed keys.

    Each term is ±1 times k distinct variables, so the sum has bound 1.
    """
    # Row i taking the r-th free column, from 0, puts it before the r
    # smaller ones that later rows take: r inversions.
    terms = [(0, 1, tuple(range(1, k + 1)))]
    for i in range(1, k + 1):
        unit = {a: 1 << (_WIDTH * idx(i, a)) for a in range(1, k + 1)}
        terms = [
            (key + unit[a], -sign if r & 1 else sign, free[:r] + free[r + 1 :])
            for key, sign, free in terms
            for r, a in enumerate(free)
        ]
    return {key: sign for key, sign, _ in terms}


def _blocks(groups: list, idx, tested: dict) -> tuple[int, int] | None:
    """(u, K) with det(Mat1) = u·x^K·det(A)^n' det(B)^n by step 3, else None.

    ``groups`` holds each group's classes, as member lists, and its (c_i,
    s_i) from step 2.  Each block goes through ``_match`` against A's
    generic matrix, of the variables idx(i, a), with the memo ``tested``.
    """
    cut, *rest = {tuple([tuple([c for c, _ in cols]) for cols in classes]) for classes, _ in groups}
    if rest:
        return None
    unit = (-1) ** (comb(len(groups), 2) * comb(len(cut), 2) + _parity(sum(cut, ())))
    unit, key = unit * prod([c for _, (c, _) in groups]), sum([s for _, (_, s) in groups])
    for b in range(len(cut)):
        found = _match(list(zip(*[[e for _, e in cols[b]] for cols, _ in groups])), idx, tested)
        if found is None:
            return None
        unit, key = unit * found[0], key + found[1]
    return unit, key


class VerificationReport(Frozen):
    """Outcome of the determinant identity check for one tensor pair.

    ``sign`` is the observed s with det(Mat1)·cleared = s·det(A)^n' det(B)^n,
    or None when neither sign holds; ``ok`` requires it to be the predicted
    sgn(σ) (step 1).  ``bound`` is the exponent bound of det(Mat1)·cleared
    (step 4).  ``nonzero_minors`` gives each group of n' rows whose
    primitive matrix matched B's generic matrix its nonzero minors, the
    product of its class sizes, and each other group 0 (step 2).
    ``blocks`` is n' when every column-class block matched A's generic
    matrix (step 3), else None; a step that declines leaves ``sign`` None,
    and a 0 in ``nonzero_minors`` or ``blocks`` None names it (step 4).
    ``tests`` counts the factor tests made against B's and against A's
    generic matrix, one per distinct canonical form: (1, 1) on every Mat1.
    ``rhs``, predicted_sign·det(A)^n' det(B)^n, is the one lazy member,
    built with its variable table and the Leibniz sums det(A) and det(B)
    on its first read by the stored callable ``_rhs``; nothing in the
    package reads it, only the benchmark does.
    """

    __slots__ = (
        "size", "ok", "sign", "predicted_sign", "bound", "nonzero_minors", "blocks", "tests",
        "_rhs",
    )

    @property
    def rhs(self) -> LaurentPoly:
        return self._rhs()


def verify_proposition(ctx: PairContext) -> VerificationReport:
    """Check det(Mat1)·cleared periods = sgn(σ)·det(A)^n' det(B)^n exactly.

    The inputs come from one layout (step 1), and each group of n' rows is
    matched against B's generic matrix (step 2).  If all groups factor
    alike, the column-class blocks matched against A's decide (steps 3 and
    4); otherwise the check declines, and ``sign`` is None.
    """
    n, np_ = ctx.M.rank, ctx.Mp.rank
    require_shape(n, np_)
    pv, rows, cleared, cleared_bound, predicted = _layout(ctx)
    bound = _checked(len(rows) + cleared_bound)
    # {canonical form: its match}, against B's generic matrix in step 2, A's in steps 3 and 4.
    tested_b, tested_a = {}, {}
    splits = [_classes(rows[start : start + np_]) for start in range(0, len(rows), np_)]
    groups = [(list(c.values()), _match(tuple(c), pv.b_idx, tested_b)) for c in splits]
    # A class size is never 0, so a 0 marks a group that did not factor.
    nonzero_minors = tuple([prod(map(len, cols)) if found else 0 for cols, found in groups])
    found = None if 0 in nonzero_minors else _blocks(groups, pv.a_idx, tested_a)
    unit, key = found or (None, None)
    sign = unit if unit in (1, -1) and key + cleared == 0 else None

    def rhs() -> LaurentPoly:
        names = pv.names
        a_power = LaurentPoly(names, _generic_det(pv.a_idx, n), 1) ** np_
        b_power = LaurentPoly(names, _generic_det(pv.b_idx, np_), 1) ** n
        # Negate the small factor, not a copy of the product.
        return (a_power if predicted > 0 else -a_power) * b_power

    return VerificationReport(
        n * np_, sign == predicted, sign, predicted, bound, nonzero_minors,
        None if found is None else np_, (len(tested_b), len(tested_a)), cache(rhs),
    )
