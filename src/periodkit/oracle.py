"""Exact re-derivation of the Deligne period formula by symbolic determinant.

Mat1 is the coefficient matrix of the comparison isomorphism, restricted
to the basis vectors outside the index sets A and T.  ``verify_proposition``
checks det(Mat1)·cleared = sgn(σ)·det(A)^n' det(B)^n over exact integers,
in these steps; the code cites them by number.

1. Layout.  Over a Laurent ring with one variable per A_ia, B_jb, Q_t and
   Q'_u, Mat1's columns are those of A⊗B, permuted by σ, with the T-block
   columns scaled by inverse periods, so sgn(σ) is predicted, not fitted.
   One column list and the index arithmetic of ``PairVariables`` give
   Mat1's rows as one-term keys of coefficient 1, the cleared period
   monomial added to row 0's keys (a determinant is linear in each row),
   the exponent bound, sgn(σ), and det(A) and det(B) as Leibniz sums,
   which share no code with the DP.  No variable name is built.
2. Groups against det(B).  The determinant is Laplace's expansion, one DP
   over column subsets, run over Mat1's n groups of n' rows.  A group's
   columns equal up to x^e on all its rows form a class, in Mat1 the n
   columns of one b-index, so the group's pass runs once, over the
   primitive columns, and a member set's minor is ±x^Σe times its class
   set's; a set holding two columns of one class is zero and never built.
   Each class set's minor is tested once against det(B); if each is
   c_i·x^(s_i)·det(B), group i factors.
3. Blocks against det(A).  If every group factors with one class set, and
   all split the columns into the same n' classes of n columns, then
   det(Mat1)·cleared = Πc_i·x^(Σs_i)·det(B)^n·det(N).  Row (i, k) of N has
   x^e in each member column of class k of group i.  Listing N's rows class
   by class and its columns class after class makes it block diagonal (the
   Kronecker factorization, Horn and Johnson, *Topics in Matrix Analysis*,
   §4.2): det(N) = ε·Π det(N_b), with ε = (-1)^(C(n,2)·C(n',2)) times the
   sign of that column order.  Each n x n block N_b is tested against
   det(A), as d_b·x^(t_b)·det(A).
4. Exactness.  Each exponent is a signed 8-bit field of one integer key,
   and packing maps the ring homomorphically into Laurent polynomials in
   one variable, where the DP and the tests run.  There it is injective on
   polynomials whose exponents stay below 128, as both sides' do (the
   bound is checked), and there are no zero divisors.  So the identity
   holds with sign u = ε·Πc_i·Πd_b exactly when Σs_i + Σt_b is the zero
   key and u is ±1.  A group that does not factor, groups that split the
   columns otherwise, or a block that is no monomial times det(A) leaves
   no sign: the check declines at that step.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from functools import cache
from itertools import permutations
from math import comb, prod

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
    """a·b on packed keys, by one step of ``_laplace``: for factors whose term pairs meet."""
    if len(a) < len(b):
        a, b = b, a
    return _laplace([[(1, 0, b)]], {0: a}).get(1, {})


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
        """self^k by k plain products: the oracle's k is at most 4, so nothing is squared."""
        if type(k) is not int:
            raise ValueError(f"power {k!r} is not an int")
        if k < 0:
            raise ValueError("only non-negative powers are supported")
        bound = _checked(self._bound * k)
        out = {0: 1}
        for _ in range(k):
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

    def __repr__(self) -> str:
        return f"Terms({dict(self)!r})"


def _part(minors: dict[int, dict[int, int]]) -> list[tuple[int, int, dict[int, int]]]:
    """(column set S, sign mask, minor) for each nonzero minor of a group of rows.

    Adding S after the used columns has the sign (-1)^(used columns in the
    mask): the mask holds the columns right of an odd number of S's columns.
    """
    part = []
    for cols, minor in minors.items():
        if minor:
            mask, rest = 0, cols
            while rest:
                low = rest & -rest
                mask ^= -(low << 1)  # every column right of this one
                rest ^= low
            part.append((cols, mask, minor))
    return part


def _laplace(parts, states: dict[int, dict[int, int]]) -> dict[int, dict[int, int]]:
    """``states``, {used column set: partial determinant}, extended by each ``_part`` in turn.

    Zero partial determinants may remain as empty dicts.
    """
    # Each layer is consumed as the next is built, so at most about two are
    # alive.  A term of a minor shifts every key of a partial alike, so the
    # first term into a new state is one comprehension.
    for part in parts:
        layer: dict[int, dict[int, int]] = {}
        while states:
            used, partial = states.popitem()
            if not partial:
                continue
            for cols, mask, minor in part:
                if used & cols:
                    continue
                odd = (used & mask).bit_count() & 1
                key = used | cols
                target = layer.get(key)
                for kb, cb in minor.items():
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


def _classes(rows: list[list[dict[int, int]]]) -> list[tuple[list[dict[int, int]], list]]:
    """(primitive column, [(1 << c, e) for each member c]) per class, by first member.

    A member is x^e times its class's primitive column, e its row 0 key; a
    column not of one-term entries is a class of its own, with e = 0.
    """
    classes: dict = {}
    for c, column in enumerate(zip(*rows)):
        signature, e = c, 0
        if set(map(len, column)) == {1}:
            e = next(iter(column[0]))
            signature = tuple((k - e, x) for entry in column for k, x in entry.items())
        if signature not in classes:
            classes[signature] = ([{k - e: x for k, x in ent.items()} for ent in column], [])
        classes[signature][1].append((1 << c, e))
    return list(classes.values())


def _minors(rows: list[list[dict[int, int]]]) -> list[tuple[dict[int, int], list]]:
    """(minor, its classes' member lists) for each class set of ``_classes`` with a nonzero minor."""
    classes = _classes(rows)
    primitive_rows = zip(*(column for column, _ in classes))
    parts = [_part({1 << k: entry for k, entry in enumerate(row)}) for row in primitive_rows]
    return [
        (minor, [cols for k, (_, cols) in enumerate(classes) if used >> k & 1])
        for used, minor in _laplace(parts, {0: {0: 1}}).items()
        if minor
    ]


def _shift(poly: dict[int, int], ref: dict[int, int]) -> tuple[int, int] | None:
    """(c, e) if ``poly`` is c·x^e·``ref`` on packed keys, else None."""
    if not poly or len(poly) != len(ref):
        return None
    # Adding e keeps the order of keys; each term is checked, so a ratio
    # that is not an integer fails.
    low, base = min(poly), min(ref)
    c, e = poly[low] // ref[base], low - base
    if any(poly.get(key + e) != c * coeff for key, coeff in ref.items()):
        return None
    return c, e


# Step 3's tests against det(A) take ``_shift`` by a name of their own, so a
# fault forged in one kind of test leaves the other kind alone.
_block_shift = _shift


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


def _combined(groups: Iterable[dict[int, dict[int, int]]], k: int) -> dict[int, int]:
    """The determinant on k columns by the DP over each group's minors, {} if zero."""
    return _laplace(map(_part, groups), {0: {0: 1}}).get((1 << k) - 1, {})


def sym_det(rows) -> LaurentPoly:
    """Exact determinant of ``rows``, by Laplace expansion one row at a time.

    ``rows`` is a nonempty square matrix of :class:`LaurentPoly` over one
    variable table, the result's.  Each row enters ``_combined`` as the
    one-row group of its entries.  The matrix, and the sum over rows of the
    largest entry bound, which bounds the result, are checked before any
    work.
    """
    vars_ = _table(rows)
    bound = _checked(sum(max(poly._bound for poly in row) for row in rows))
    groups = ({1 << c: poly._keys for c, poly in enumerate(row)} for row in rows)
    return LaurentPoly(vars_, _combined(groups, len(rows)), bound)


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
    """The parity of the number of inversions of ``seq``: 0 even, 1 odd."""
    return sum(1 for i, x in enumerate(seq) for y in seq[i + 1 :] if x > y) % 2


# ---------------------------------------------------------------------------
# Variable table and matrix assembly for a tensor pair.


class PairVariables(Frozen):
    """Variable layout: A_ia block, B_jb block, then Q and Q' blocks."""

    __slots__ = ("n", "np")

    @classmethod
    def build(cls, n: int, np_: int) -> "PairVariables":
        return cls(n, np_)

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
    n, np_ = ctx.M.rank, ctx.Mp.rank
    pairs = [(x, y) for x in range(1, n + 1) for y in range(1, np_ + 1)]
    cols = [(("A-complement", a, b), a, b, 0) for a, b in pairs if (a, b) not in ctx.A.members]
    cols += [
        (("T-complement", t, u), n + 1 - t, np_ + 1 - u, 1)
        for t, u in pairs
        if (t, u) not in ctx.T.members
    ]
    return cols


def _kronecker_column_sign(cols: list[tuple[tuple, int, int, int]], np_: int) -> int:
    """sgn(σ), where σ takes the columns of A⊗B to ``cols``, Mat1's columns.

    A⊗B orders its columns (a, b) lexicographically, like Mat1 its rows.
    """
    return -1 if _parity([(a - 1) * np_ + (b - 1) for _, a, b, _ in cols]) else 1


def _layout(ctx: PairContext) -> tuple[PairVariables, list, int, int, int]:
    """(variables, Mat1's rows, cleared key, its bound, sgn σ), from one column list.

    Rows run over (i, j) lexicographically; the entry in the column
    (a, b, s) is A_ia B_jb Q_a^-s Q'_b^-s, as the one-term dict {key: 1}.
    The cleared key is Π Q_a Q'_b over the scaled columns, and its bound
    its largest exponent.  A column count other than nn' raises
    ``ValueError``.
    """
    n, np_ = ctx.M.rank, ctx.Mp.rank
    pv = PairVariables.build(n, np_)
    cols = _mat1_columns(ctx)
    if len(cols) != n * np_:
        raise ValueError(f"matrix is not square: {len(cols)} columns for {n * np_} rows")
    nv = pv.qp_idx(np_) + 1
    unit = [1 << (_WIDTH * v) for v in range(nv)]
    periods = [s * (unit[pv.q_idx(a)] + unit[pv.qp_idx(b)]) for _, a, b, s in cols]
    a_rows = [
        [unit[pv.a_idx(i, a)] - p for (_, a, _, _), p in zip(cols, periods)]
        for i in range(1, n + 1)
    ]
    b_rows = [[unit[pv.b_idx(j, b)] for _, _, b, _ in cols] for j in range(1, np_ + 1)]
    rows = [
        [{ka + kb: 1} for ka, kb in zip(a_row, b_row)] for a_row in a_rows for b_row in b_rows
    ]
    cleared = sum(periods)
    return pv, rows, cleared, max(_unpack(cleared, nv)), _kronecker_column_sign(cols, np_)


def build_mat1(ctx: PairContext) -> tuple[tuple[LaurentPoly, ...], ...]:
    """The rows of the nn' x nn' coefficient matrix of the comparison isomorphism.

    Each entry is a monomial of bound 1 over the table of
    ``PairVariables``, read from the layout the check takes (``_layout``).
    """
    pv, rows, *_ = _layout(ctx)
    return tuple(tuple(LaurentPoly(pv.names, entry, 1) for entry in row) for row in rows)


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


def _inputs(ctx: PairContext) -> tuple[list, int, dict[int, int], dict[int, int], int]:
    """(Mat1's rows with row 0 cleared, their row-max bound, det(A), det(B), sgn σ): step 1."""
    pv, rows, cleared, cleared_bound, sign = _layout(ctx)
    rows[0] = [{key + cleared: 1} for entry in rows[0] for key in entry]
    det_a, det_b = _generic_det(pv.a_idx, pv.n), _generic_det(pv.b_idx, pv.np)
    return rows, len(rows) + cleared_bound, det_a, det_b, sign


def _blocks(groups: list, shifts: list, n: int, det_a: dict) -> tuple[int, int] | None:
    """(u, K) with det(Mat1)·cleared = u·x^K·det(A)^n' det(B)^n by step 3, else None.

    ``groups`` are the n groups' class sets from ``_minors``, and ``shifts``
    each class set's (c_i, s_i) from its test against det(B).
    """
    splits = [classes for group in groups for _, classes in group]
    cuts = {tuple(tuple(bit for bit, _ in cols) for cols in classes) for classes in splits}
    # Two class sets of one group split apart, so this is one set per group.
    if len(splits) != n or len(cuts) != 1:
        return None
    (cut,) = cuts
    order = [bit for cols in cut for bit in cols]
    unit = (-1) ** (comb(n, 2) * comb(len(cut), 2) + _parity(order))
    unit *= prod(c for ((c, _),) in shifts)
    key = sum(s for ((_, s),) in shifts)
    # A class of other than n columns leaves a block short of n columns,
    # whose determinant is {}: its test declines.
    for b in range(len(cut)):
        block = [{1 << r: {e: 1} for r, (_, e) in enumerate(classes[b])} for classes in splits]
        found = _block_shift(_combined(block, n), det_a)
        if found is None:
            return None
        unit, key = unit * found[0], key + found[1]
    return unit, key


class VerificationReport(Frozen):
    """Outcome of the determinant identity check for one tensor pair.

    ``sign`` is the observed s with det(Mat1)·cleared = s·det(A)^n' det(B)^n,
    or None when neither sign holds; ``ok`` requires it to be the predicted
    sgn(σ) (step 1).  ``bound`` is the exponent bound of det(Mat1)·cleared
    (step 4).  ``nonzero_minors`` counts the nonzero minors of each group of
    n' rows, ``factored`` counts the groups whose class set minors all
    tested as monomials times det(B), and ``unfactored`` is the index, from
    0, of the first that did not, or None (step 2).  ``blocks`` is n' when
    every column-class block tested as a monomial times det(A) (step 3),
    else None; a step that declines leaves ``sign`` None, and ``factored``
    below n or ``blocks`` None names it (step 4).  ``rhs``,
    predicted_sign·det(A)^n' det(B)^n, is the one lazy member, built with
    its variable table on its first read by the stored callable ``_rhs``;
    nothing in the package reads it, only the benchmark does.
    """

    __slots__ = (
        "size", "ok", "sign", "predicted_sign", "bound", "nonzero_minors", "factored",
        "unfactored", "blocks", "_rhs",
    )

    @property
    def rhs(self) -> LaurentPoly:
        return self._rhs()


def verify_proposition(ctx: PairContext) -> VerificationReport:
    """Check det(Mat1)·cleared periods = sgn(σ)·det(A)^n' det(B)^n exactly.

    The inputs come from one layout (step 1), and each group of n' rows is
    tested against det(B) (step 2).  If all groups factor alike, the
    column-class blocks tested against det(A) decide (steps 3 and 4);
    otherwise the check declines, and ``sign`` is None.
    """
    n, np_ = ctx.M.rank, ctx.Mp.rank
    require_shape(n, np_)
    rows, bound, det_a, det_b, predicted = _inputs(ctx)
    bound = _checked(bound)
    groups = [_minors(rows[start : start + np_]) for start in range(0, len(rows), np_)]
    nonzero_minors = tuple(sum(prod(map(len, classes)) for _, classes in group) for group in groups)
    shifts = [[_shift(minor, det_b) for minor, _ in group] for group in groups]
    factored = sum(None not in found for found in shifts)
    unfactored = next((at for at, found in enumerate(shifts) if None in found), None)
    # Steps 3 and 4: on Mat1's i-blocks the columns of one b-index form a
    # class, so every group factors alike.
    found = _blocks(groups, shifts, n, det_a) if factored == n else None
    unit, key = found or (None, None)
    sign = unit if key == 0 and unit in (1, -1) else None

    def rhs() -> LaurentPoly:
        names = PairVariables.build(n, np_).names
        a_power = LaurentPoly(names, det_a, 1) ** np_
        # Negate the small factor, not a copy of the product.
        return (a_power if predicted > 0 else -a_power) * LaurentPoly(names, det_b, 1) ** n

    return VerificationReport(
        n * np_, sign == predicted, sign, predicted, bound, nonzero_minors, factored, unfactored,
        None if found is None else np_, cache(rhs),
    )
