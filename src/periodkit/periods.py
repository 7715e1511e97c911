"""Canonical monomials over formal period symbols, with rewrite rules.

Elements of (E (x) C)^x modulo E^x are modeled as monomials with integer
exponents over a fixed alphabet of symbols:

* ``(2πi)``            the Tate period
* ``Q[i;T]``           the i-th motivic period of the motive tagged T
* ``d[T]``             the determinant period delta
* ``D[T]``             the normalized determinant (2πi)^(n(n-1)/2) d[T]
* ``Qp[j;T]``          the prefix product Q[1]...Q[j]
* ``Qs[j;T]``          the grouped period Qp[j;T] * D[T]
* ``P[j;T]``           the j-th automorphic period (opaque symbol)
* ``Qxi[T]``           the first period of the auxiliary character motive

A tag names a motive together with functor decorations (conjugate, dual,
Tate twist, determinant).  Conjugation and dual cancel in pairs at the
tag level, mirroring that both functors are involutions.

Scalars from the coefficient field are invisible at this level, so a
monomial carries only exponents; the ``field_label`` annotation records
which field the relation is taken over and never affects equality.

The rewrite rules are the standard period relations.  Each names the
symbol kind it rewrites, the decoration that must end the symbol's tag
(``-`` for none) and whether the tag must be conjugate self-dual;
:func:`apply_rule` reads these three from ``RULES`` and nothing else
decides a match.

================  ====  ==========  ===  ==============================================
rule              kind  decoration  csd  relation
================  ====  ==========  ===  ==============================================
``q_conj``        Q     -           no   Q[i;T] -> Q[n+1-i; T^c]^-1   (conjugation toggle)
``delta_conj``    d     ^c          no   d[T^c] -> (prod_i Q[i;T]) d[T]
``delta_twist``   d     (k)         no   d[T(k)] -> (2πi)^(k n) d[T]
``delta_dual``    d     ^v          no   d[T^v] -> d[T]^-1
``conj_as_dual``  d     ^c          yes  d[T^c] -> d[T^v(1-n)]
``q_dual``        Q     ^v          yes  Q[i;T^v] -> Q[n+1-i;T]^-1
``xi_to_delta``   Qxi   -           yes  Qxi[T] -> (2πi)^(-n(n-1)/2) d[T]^-1
``det_q``         Q     det         no   Q[1;det(T)] -> prod_i Q[i;T]
================  ====  ==========  ===  ==============================================

A monomial keeps every factor it is given, ``d[Z]`` of the trivial motive
included.  That period is rational, and :func:`delta_tate` is the one
place that uses this: it divides the twist rule's result by ``d[Z]``,
which gives the canonical form (2πi)^k for the Tate motives.
"""

from __future__ import annotations

from typing import Callable, Iterable

from .errors import RuleNotApplicable, UnknownRankError
from .value import Frozen, Value

# Tag decorations are (kind, argument) pairs; only a twist has an argument.
# Conjugate and dual are self-cancelling; twists merge.
_CONJ = ("c", None)
_DUAL = ("v", None)
_DET = ("det", None)


class MotiveTag(Value):
    """A motive name plus functor decorations, rank and self-duality flag.

    ``rank`` is a positive int, or None for purely formal tags; rules that
    need it raise :class:`~periodkit.errors.UnknownRankError`.  ``csd``
    marks the underlying motive as conjugate self-dual, which gates the
    rules that are only valid in that case.  The printed text is built
    once, with the tag.
    """

    __slots__ = ("label", "rank", "csd", "ops", "_text")

    def __init__(self, label: str, rank: int | None = None, csd: bool = False, ops: tuple = ()):
        if rank is not None and (type(rank) is not int or rank < 1):
            raise ValueError(f"rank must be a positive int or None, got {rank!r}")
        for op in ops:
            twist = type(op) is tuple and len(op) == 2 and op[0] == "t" and type(op[1]) is int
            if op not in (_CONJ, _DUAL, _DET) and not (twist and op[1]):
                raise ValueError(
                    f"unknown tag decoration {op!r}: expected ('c', None), ('v', None),"
                    " ('det', None) or ('t', k) with k a nonzero int"
                )
        object.__setattr__(self, "label", label)
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "csd", csd)
        object.__setattr__(self, "ops", ops)
        text = label
        for kind, arg in ops:
            if kind == "c":
                text += "^c"
            elif kind == "v":
                text += "^v"
            elif kind == "det":
                text = f"det({text})"
            else:
                text += f"({arg})"
        object.__setattr__(self, "_text", text)

    def _with_ops(self, ops: tuple) -> "MotiveTag":
        return MotiveTag(self.label, self.rank, self.csd, ops)

    def _toggle(self, op) -> "MotiveTag":
        if self.ops and self.ops[-1] == op:
            return self._with_ops(self.ops[:-1])
        return self._with_ops(self.ops + (op,))

    def conj(self) -> "MotiveTag":
        return self._toggle(_CONJ)

    def dual(self) -> "MotiveTag":
        return self._toggle(_DUAL)

    def twist(self, k: int) -> "MotiveTag":
        if self.ops and self.ops[-1][0] == "t":
            k = k + self.ops[-1][1]
            base = self.ops[:-1]
        else:
            base = self.ops
        if k == 0:
            return self._with_ops(base)
        return self._with_ops(base + (("t", k),))

    def det(self) -> "MotiveTag":
        return self._with_ops(self.ops + (_DET,))

    @property
    def rank_value(self) -> int | None:
        return 1 if _DET in self.ops else self.rank

    def require_rank(self) -> int:
        r = self.rank_value
        if r is None:
            raise UnknownRankError(f"tag {self.text()} carries no rank")
        return r

    def text(self) -> str:
        return self._text


#: The trivial motive (rank one, weight zero); its twists are the Tate motives.
TRIVIAL = MotiveTag("Z", rank=1)


def motive_tag(m) -> MotiveTag:
    """Tag for anything exposing ``label`` and ``rank`` attributes."""
    return MotiveTag(m.label, rank=m.rank)


_KIND_ORDER = {"2pi": 0, "Q": 1, "d": 2, "D": 3, "Qp": 4, "Qs": 5, "P": 6, "Qxi": 7}
# The smallest index of each indexed kind; the other kinds carry no index.
_INDEX_START = {"Q": 1, "Qp": 0, "Qs": 0, "P": 0}


class PeriodSymbol(Frozen):
    """One letter of the period alphabet; see the module docstring.

    ``sort_key`` orders symbols in a monomial's canonical print order.  It
    and the hash taken from it are built once, after the checks, and
    equality compares keys.  Tags that print alike, such as ``M^c`` and
    the conjugate of ``M``, are told apart by the key's last two entries,
    the tag's label and ops, so unequal symbols never share a key; as they
    come after the index, they only break ties.  A tag without rank has
    rank -1 in the key, which no tag's rank can be.
    """

    __slots__ = ("kind", "index", "tag", "sort_key", "_hash")

    def __init__(self, kind: str, index: int | None = None, tag: MotiveTag | None = None):
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "index", index)
        object.__setattr__(self, "tag", tag)
        self._check()
        if tag is None:
            key = (_KIND_ORDER[kind], ("", -1), -1)
        else:
            key = (
                _KIND_ORDER[kind],
                (tag._text, tag.rank if tag.rank is not None else -1, tag.csd),
                index if index is not None else -1,
                tag.label,
                tag.ops,
            )
        object.__setattr__(self, "sort_key", key)
        object.__setattr__(self, "_hash", hash(key))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.sort_key == other.sort_key

    def _check(self) -> None:
        if self.kind not in _KIND_ORDER:
            raise ValueError(f"unknown symbol kind {self.kind!r}")
        if self.kind == "2pi":
            if self.index is not None or self.tag is not None:
                raise ValueError("(2πi) carries no index or tag")
            return
        if self.tag is None:
            raise ValueError(f"symbol {self.kind} needs a motive tag")
        start = _INDEX_START.get(self.kind)
        if start is None:
            if self.index is not None:
                raise ValueError(f"{self.kind} carries no index")
            return
        if self.index is not None and type(self.index) is not int:
            raise ValueError(f"{self.kind} index {self.index!r} is not an int")
        if self.index is None or self.index < start:
            raise ValueError(f"{self.kind} index starts at {start}, got {self.index}")
        rank = self.tag.rank_value
        if rank is not None and self.index > rank:
            raise ValueError(
                f"{self.kind} index {self.index} exceeds rank {rank} of {self.tag.text()}"
            )

    def __hash__(self) -> int:
        return self._hash

    def text(self) -> str:
        if self.kind == "2pi":
            return "(2πi)"
        if self.index is None:
            return f"{self.kind}[{self.tag.text()}]"
        return f"{self.kind}[{self.index};{self.tag.text()}]"


TWO_PI = PeriodSymbol("2pi")


def join_field_labels(a: str, b: str) -> str:
    tokens = []
    for tok in a.split(";") + b.split(";"):
        if tok and tok not in tokens:
            tokens.append(tok)
    return ";".join(tokens)


class PeriodMonomial(Frozen):
    """A free-abelian-group element over period symbols.

    Every exponent is an int, bools excluded.  Zero exponents are never
    stored; the factor order is the canonical print order, so equal
    monomials are structurally identical.  Equality and hashing ignore
    ``field_label``.  ``*`` merges the two canonical factor tuples and
    ``**`` scales the exponents, so neither sorts or checks again.
    """

    __slots__ = ("factors", "field_label")

    def __init__(self, factors: Iterable[tuple[PeriodSymbol, int]] = (), field_label: str = ""):
        merged: dict[PeriodSymbol, int] = {}
        for sym, exp in factors:
            if type(exp) is not int:
                raise ValueError(f"exponent {exp!r} is not an int")
            merged[sym] = merged.get(sym, 0) + exp
        nonzero = [(sym, exp) for sym, exp in merged.items() if exp]
        canon = tuple(sorted(nonzero, key=lambda kv: kv[0].sort_key))
        object.__setattr__(self, "factors", canon)
        object.__setattr__(self, "field_label", field_label)

    @classmethod
    def one(cls, field_label: str = "") -> "PeriodMonomial":
        return cls((), field_label)

    def __mul__(self, other: "PeriodMonomial") -> "PeriodMonomial":
        if not isinstance(other, PeriodMonomial):
            return NotImplemented
        a, b = self.factors, other.factors
        na, nb = len(a), len(b)
        out = []
        i = j = 0
        while i < na and j < nb:
            (s, e), (t, f) = a[i], b[j]
            if s.sort_key < t.sort_key:
                out.append(a[i])
                i += 1
            elif t.sort_key < s.sort_key:
                out.append(b[j])
                j += 1
            else:
                if e + f:
                    out.append((s, e + f))
                i += 1
                j += 1
        out += a[i:] or b[j:]
        return _canonical(tuple(out), join_field_labels(self.field_label, other.field_label))

    def __pow__(self, k: int) -> "PeriodMonomial":
        if type(k) is not int:
            raise ValueError(f"exponent {k!r} is not an int")
        factors = tuple([(s, e * k) for s, e in self.factors]) if k else ()
        return _canonical(factors, self.field_label)

    def inv(self) -> "PeriodMonomial":
        return self ** -1

    def __truediv__(self, other: "PeriodMonomial") -> "PeriodMonomial":
        return self * other.inv() if isinstance(other, PeriodMonomial) else NotImplemented

    def __eq__(self, other) -> bool:
        return isinstance(other, PeriodMonomial) and self.factors == other.factors

    def __hash__(self) -> int:
        return hash(self.factors)

    def exponent(self, sym: PeriodSymbol) -> int:
        for s, e in self.factors:
            if s == sym:
                return e
        return 0

    def text(self) -> str:
        """Canonical rendering; (2πi) always shows its exponent."""
        if not self.factors:
            return "1"
        parts = []
        for sym, exp in self.factors:
            s = sym.text()
            if sym.kind == "2pi" or exp != 1:
                s += f"^{exp}"
            parts.append(s)
        return " * ".join(parts)

    def to_json(self) -> dict:
        return {
            "text": self.text(),
            "factors": [{"symbol": s.text(), "exp": e} for s, e in self.factors],
            "field_label": self.field_label,
        }

    def __repr__(self) -> str:
        return f"PeriodMonomial({self.text()!r})"


def _canonical(factors: tuple, field_label: str) -> PeriodMonomial:
    """A monomial whose factors are already canonical: no merge, sort or check runs."""
    x = PeriodMonomial.__new__(PeriodMonomial)
    Frozen.__init__(x, factors, field_label)
    return x


def two_pi_i(k: int = 1) -> PeriodMonomial:
    return PeriodMonomial(((TWO_PI, k),))


def q(i: int, tag: MotiveTag) -> PeriodMonomial:
    return PeriodMonomial(((PeriodSymbol("Q", i, tag), 1),))


def delta(tag: MotiveTag) -> PeriodMonomial:
    return PeriodMonomial(((PeriodSymbol("d", None, tag), 1),))


def q_paren(j: int, tag: MotiveTag) -> PeriodMonomial:
    return PeriodMonomial(((PeriodSymbol("Qp", j, tag), 1),))


def q_sup(j: int, tag: MotiveTag) -> PeriodMonomial:
    return PeriodMonomial(((PeriodSymbol("Qs", j, tag), 1),))


def q_xi(tag: MotiveTag) -> PeriodMonomial:
    return PeriodMonomial(((PeriodSymbol("Qxi", None, tag), 1),))


def delta_tate(k: int) -> PeriodMonomial:
    """Canonical determinant period of the Tate motive Z(k): (2πi)^k.

    The twist rule gives (2πi)^k d[Z]; d[Z] is rational, so it is divided
    out here, and nowhere else.
    """
    if not k:
        return PeriodMonomial.one()
    return apply_rule(delta(TRIVIAL.twist(k)), "delta_twist") / delta(TRIVIAL)


# Factor lists: the helpers below return (symbol, exponent) pairs, so that
# a rewrite collects every piece and builds its monomial once.
_Factors = list[tuple[PeriodSymbol, int]]


def _q_range(tag: MotiveTag, j: int, exp: int) -> _Factors:
    """Q[1;T]...Q[j;T], each to the power exp."""
    return [(PeriodSymbol("Q", i, tag), exp) for i in range(1, j + 1)]


def _normalized_delta(tag: MotiveTag, exp: int) -> _Factors:
    """D[T] = (2πi)^(n(n-1)/2) d[T], to the power exp."""
    n = tag.require_rank()
    return [(TWO_PI, n * (n - 1) // 2 * exp), (PeriodSymbol("d", None, tag), exp)]


def expand(x: PeriodMonomial) -> PeriodMonomial:
    """Rewrite D, Qp and Qs into the base alphabet {Q, d, (2πi)}.

    Idempotent on base symbols and a group homomorphism.  Opaque symbols
    (P, Qxi) pass through untouched.
    """
    factors: _Factors = []
    for sym, exp in x.factors:
        if sym.kind in ("Qp", "Qs"):
            factors += _q_range(sym.tag, sym.index, exp)
        if sym.kind in ("D", "Qs"):
            factors += _normalized_delta(sym.tag, exp)
        if sym.kind not in ("D", "Qp", "Qs"):
            factors.append((sym, exp))
    return PeriodMonomial(factors, x.field_label)


# ---------------------------------------------------------------------------
# Rewrite rules.  A replacement maps (symbol, tag with the rule's decoration
# removed, that decoration's argument, exponent) to the factors that stand
# in for the symbol; a rule that names no decoration gets the tag as it is.

def _rule_q_conj(sym: PeriodSymbol, base: MotiveTag, _arg, exp: int) -> _Factors:
    n = sym.tag.require_rank()
    return [(PeriodSymbol("Q", n + 1 - sym.index, sym.tag.conj()), -exp)]


def _rule_delta_conj(sym: PeriodSymbol, base: MotiveTag, _arg, exp: int) -> _Factors:
    n = base.require_rank()
    return _q_range(base, n, exp) + [(PeriodSymbol("d", None, base), exp)]


def _rule_delta_twist(sym: PeriodSymbol, base: MotiveTag, k: int, exp: int) -> _Factors:
    n = base.require_rank()
    return [(TWO_PI, k * n * exp), (PeriodSymbol("d", None, base), exp)]


def _rule_delta_dual(sym: PeriodSymbol, base: MotiveTag, _arg, exp: int) -> _Factors:
    return [(PeriodSymbol("d", None, base), -exp)]


def _rule_conj_as_dual(sym: PeriodSymbol, base: MotiveTag, _arg, exp: int) -> _Factors:
    n = base.require_rank()
    return [(PeriodSymbol("d", None, base.dual().twist(1 - n)), exp)]


def _rule_q_dual(sym: PeriodSymbol, base: MotiveTag, _arg, exp: int) -> _Factors:
    n = base.require_rank()
    return [(PeriodSymbol("Q", n + 1 - sym.index, base), -exp)]


def _rule_xi_to_delta(sym: PeriodSymbol, base: MotiveTag, _arg, exp: int) -> _Factors:
    return _normalized_delta(sym.tag, -exp)


def _rule_det_q(sym: PeriodSymbol, base: MotiveTag, _arg, exp: int) -> _Factors:
    # A Q on a det(...) tag has index 1: the tag's rank_value is 1.
    n = base.require_rank()
    return _q_range(base, n, exp)


_Replacement = Callable[[PeriodSymbol, MotiveTag, "int | None", int], _Factors]

#: rule -> (symbol kind, trailing tag decoration or None, csd tags only,
#: field label, replacement); see the table in the module docstring.
RULES: dict[str, tuple[str, str | None, bool, str, _Replacement]] = {
    "q_conj": ("Q", None, False, "E", _rule_q_conj),
    "delta_conj": ("d", "c", False, "E", _rule_delta_conj),
    "delta_twist": ("d", "t", False, "E;K", _rule_delta_twist),
    "delta_dual": ("d", "v", False, "E", _rule_delta_dual),
    "conj_as_dual": ("d", "c", True, "E", _rule_conj_as_dual),
    "q_dual": ("Q", "v", True, "E", _rule_q_dual),
    "xi_to_delta": ("Qxi", None, True, "E;K", _rule_xi_to_delta),
    "det_q": ("Q", "det", False, "E", _rule_det_q),
}


def apply_rule(x: PeriodMonomial, rule: str) -> PeriodMonomial:
    """Replace every factor matching the named rule by its right-hand side."""
    if rule not in RULES:
        raise KeyError(f"unknown rule {rule!r}; known: {sorted(RULES)}")
    kind, decoration, csd_only, label, replacement = RULES[rule]
    factors: _Factors = []
    matched = False
    for sym, exp in x.factors:
        tag, arg = sym.tag, None
        hit = sym.kind == kind and (tag.csd or not csd_only)
        if hit and decoration is not None:
            hit = bool(tag.ops) and tag.ops[-1][0] == decoration
            if hit:
                arg, tag = tag.ops[-1][1], tag._with_ops(tag.ops[:-1])
        if hit:
            matched = True
            factors += replacement(sym, tag, arg, exp)
        else:
            factors.append((sym, exp))
    if not matched:
        raise RuleNotApplicable(f"rule {rule!r} matches no factor of {x.text()}")
    return PeriodMonomial(factors, join_field_labels(x.field_label, label))


class DerivationResult(Frozen):
    """The two sides of a derived identity, monomials, and whether they are as stated."""

    __slots__ = ("lhs", "rhs", "ok")


def derive_delta_square_identity(n: int) -> DerivationResult:
    """Derive d[M]^-2 (2πi)^(n(1-n)) = prod_i Q[i;M] for a csd motive.

    The determinant period of the conjugate is rewritten two ways: via
    the conjugation rule, and via conjugate-as-dual followed by the twist
    and dual rules.  Dividing both routes by d[M] yields the two sides of
    the identity; ``ok`` records that each route reproduces its stated
    closed form exactly.
    """
    if n < 1:
        raise ValueError("rank must be positive")
    tag = MotiveTag("M", rank=n, csd=True)
    dc = delta(tag.conj())
    via_conj = apply_rule(dc, "delta_conj")
    via_dual = apply_rule(dc, "conj_as_dual")
    if n > 1:  # at n = 1 the twist by 1 - n is empty
        via_dual = apply_rule(via_dual, "delta_twist")
    via_dual = apply_rule(via_dual, "delta_dual")
    d_inv = delta(tag).inv()
    lhs = via_dual * d_inv
    rhs = via_conj * d_inv
    ok = lhs == two_pi_i(n * (1 - n)) * delta(tag) ** -2 and rhs == expand(q_paren(n, tag))
    return DerivationResult(lhs, rhs, ok)


def derive_grouped_period_identity(n: int, s: int, lemma: DerivationResult) -> DerivationResult:
    """Match Qs[s;M] against the dual-period expression of the s-th period.

    The right-hand side starts from Q[1;M^v]...Q[n-s;M^v] * Qxi[M], is
    rewritten through the dual rule, ``lemma`` (the rank-n identity that
    :func:`derive_delta_square_identity` derives, taken as given so that
    one derivation serves every s), and the xi rule; ``ok`` reports exact
    monomial equality with the expansion of Qs[s;M].  A lemma of another
    rank leaves its own symbols in the right-hand side, so ``ok`` is False.
    """
    if not 0 <= s <= n:
        raise ValueError(f"need 0 <= s <= n, got s={s}, n={n}")
    tag = MotiveTag("M", rank=n, csd=True)
    lhs = expand(q_sup(s, tag))
    rhs = expand(q_paren(n - s, tag.dual())) * q_xi(tag)
    if s < n:
        rhs = apply_rule(rhs, "q_dual")
    rhs = rhs * lemma.rhs * lemma.lhs.inv()  # multiply by 1 in the period algebra
    rhs = apply_rule(rhs, "xi_to_delta")
    return DerivationResult(lhs, rhs, lhs == rhs)
