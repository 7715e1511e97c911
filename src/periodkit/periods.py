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
tag level, mirroring that both functors are involutions.  Each decoration
is checked once, when it is added to a tag.

Scalars from the coefficient field are invisible at this level, so a
monomial carries only exponents; the ``field_label`` annotation records
which field the relation is taken over and never affects equality.  A
monomial is held as its exponent map {symbol: nonzero int}, so products,
powers, comparisons and rewrites never sort; the canonical print order,
by each symbol's ``sort_key``, is made only where a monomial is printed
or its ``factors`` are read.

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

from typing import Callable, ItemsView, Iterable

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
    once, with the tag.  The constructor checks every decoration it is
    given; :meth:`conj`, :meth:`dual`, :meth:`twist` and :meth:`det` check
    only the one they add, and a rule that strips the last decoration
    checks none, since what is left was checked when it was added.
    """

    __slots__ = ("label", "rank", "csd", "ops", "_text")

    def __init__(self, label: str, rank: int | None = None, csd: bool = False, ops: tuple = ()):
        if type(label) is not str:
            raise ValueError(f"label must be a str, got {label!r}")
        if rank is not None and (type(rank) is not int or rank < 1):
            raise ValueError(f"rank must be a positive int or None, got {rank!r}")
        for op in ops:
            twist = type(op) is tuple and len(op) == 2 and op[0] == "t" and type(op[1]) is int
            if op not in (_CONJ, _DUAL, _DET) and not (twist and op[1]):
                raise ValueError(_unknown_decoration(op))
        Frozen.__init__(self, label, rank, csd, ops, _tag_text(label, ops))

    def _with_ops(self, ops: tuple) -> "MotiveTag":
        """This tag's motive with ``ops``, each checked when it was added to a tag."""
        tag = object.__new__(MotiveTag)
        Frozen.__init__(tag, self.label, self.rank, self.csd, ops, _tag_text(self.label, ops))
        return tag

    def _toggle(self, op) -> "MotiveTag":
        if self.ops and self.ops[-1] == op:
            return self._with_ops(self.ops[:-1])
        return self._with_ops(self.ops + (op,))

    def conj(self) -> "MotiveTag":
        return self._toggle(_CONJ)

    def dual(self) -> "MotiveTag":
        return self._toggle(_DUAL)

    def twist(self, k: int) -> "MotiveTag":
        """The tag twisted by k: a trailing twist merges with it, and a sum of 0 drops it."""
        base = self.ops
        if base and base[-1][0] == "t":
            k = k + base[-1][1]
            base = base[:-1]
        if k == 0:
            return self._with_ops(base)
        if type(k) is not int:
            raise ValueError(_unknown_decoration(("t", k)))
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


def _unknown_decoration(op) -> str:
    return (
        f"unknown tag decoration {op!r}: expected ('c', None), ('v', None),"
        " ('det', None) or ('t', k) with k a nonzero int"
    )


def _tag_text(label: str, ops: tuple) -> str:
    """The printed tag: ``label`` with each decoration of ``ops`` applied in turn."""
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
    return text


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
    and the hash taken from it are built in the pass that checks the
    symbol, and equality compares keys.  Tags that print alike, such as
    ``M^c`` and the conjugate of ``M``, are told apart by the key's last
    two entries, the tag's label and ops, so unequal symbols never share a
    key; as they come after the index, they only break ties.  A tag
    without rank has rank -1 in the key, which no tag's rank can be.
    """

    __slots__ = ("kind", "index", "tag", "sort_key", "_hash")

    def __init__(self, kind: str, index: int | None = None, tag: MotiveTag | None = None):
        if kind not in _KIND_ORDER:
            raise ValueError(f"unknown symbol kind {kind!r}")
        if kind == "2pi":
            if index is not None or tag is not None:
                raise ValueError("(2πi) carries no index or tag")
            key = (_KIND_ORDER[kind], ("", -1), -1)
        else:
            if tag is None:
                raise ValueError(f"symbol {kind} needs a motive tag")
            start = _INDEX_START.get(kind)
            if start is None:
                if index is not None:
                    raise ValueError(f"{kind} carries no index")
            else:
                if index is not None and type(index) is not int:
                    raise ValueError(f"{kind} index {index!r} is not an int")
                if index is None or index < start:
                    raise ValueError(f"{kind} index starts at {start}, got {index}")
                rank = tag.rank_value
                if rank is not None and index > rank:
                    raise ValueError(f"{kind} index {index} exceeds rank {rank} of {tag.text()}")
            key = (_KIND_ORDER[kind], (tag._text, -1 if tag.rank is None else tag.rank, tag.csd),
                   -1 if index is None else index, tag.label, tag.ops)
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "index", index)
        object.__setattr__(self, "tag", tag)
        object.__setattr__(self, "sort_key", key)
        object.__setattr__(self, "_hash", hash(key))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.sort_key == other.sort_key

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
    """A free-abelian-group element over period symbols, held as its exponent map.

    Every exponent is an int, bools excluded, and zero exponents are never
    stored, so equal monomials have equal maps, whatever order their
    factors came in.  Equality and hashing read the map and ignore
    ``field_label``.  ``*``, ``/`` and ``**`` update a copy of the map
    and ``exponent`` is one lookup, so none of them sorts or checks
    again.  The canonical print order exists only where a monomial is
    read in order: ``factors``, ``text``, ``to_json`` and ``repr`` sort by
    the symbols' ``sort_key``.  The map itself is private; ``items``
    gives a read-only view of it.
    """

    __slots__ = ("_exps", "field_label")

    def __init__(self, factors: Iterable[tuple[PeriodSymbol, int]] = (), field_label: str = ""):
        exps: dict[PeriodSymbol, int] = {}
        for sym, exp in factors:
            if type(exp) is not int:
                raise ValueError(f"exponent {exp!r} is not an int")
            exps[sym] = exps.get(sym, 0) + exp
        if 0 in exps.values():
            exps = {sym: exp for sym, exp in exps.items() if exp}
        object.__setattr__(self, "_exps", exps)
        object.__setattr__(self, "field_label", field_label)

    @classmethod
    def one(cls, field_label: str = "") -> "PeriodMonomial":
        return cls((), field_label)

    def __mul__(self, other: "PeriodMonomial") -> "PeriodMonomial":
        if not isinstance(other, PeriodMonomial):
            return NotImplemented
        exps = self._exps.copy()
        for sym, exp in other._exps.items():
            exp += exps.get(sym, 0)
            if exp:
                exps[sym] = exp
            else:
                del exps[sym]
        return _from_map(exps, join_field_labels(self.field_label, other.field_label))

    def __pow__(self, k: int) -> "PeriodMonomial":
        if type(k) is not int:
            raise ValueError(f"exponent {k!r} is not an int")
        return _from_map({s: e * k for s, e in self._exps.items()} if k else {}, self.field_label)

    def inv(self) -> "PeriodMonomial":
        return self ** -1

    def __truediv__(self, other: "PeriodMonomial") -> "PeriodMonomial":
        return self * other.inv() if isinstance(other, PeriodMonomial) else NotImplemented

    def __eq__(self, other) -> bool:
        return isinstance(other, PeriodMonomial) and self._exps == other._exps

    def __hash__(self) -> int:
        return hash(frozenset(self._exps.items()))

    def exponent(self, sym: PeriodSymbol) -> int:
        return self._exps.get(sym, 0)

    def items(self) -> ItemsView[PeriodSymbol, int]:
        """The (symbol, exponent) pairs, in no set order, as a read-only view."""
        return self._exps.items()

    @property
    def factors(self) -> tuple[tuple[PeriodSymbol, int], ...]:
        """The (symbol, exponent) pairs in canonical print order."""
        return tuple(sorted(self._exps.items(), key=lambda kv: kv[0].sort_key))

    def text(self) -> str:
        """Canonical rendering; (2πi) always shows its exponent."""
        if not self._exps:
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


def _from_map(exps: dict, field_label: str) -> PeriodMonomial:
    """A monomial over ``exps``, a fresh map with no zero exponent: no merge or check runs."""
    x = PeriodMonomial.__new__(PeriodMonomial)
    Frozen.__init__(x, exps, field_label)
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
    (P, Qxi) pass through untouched, and a monomial with no D, Qp or Qs
    factor is returned as it is.  The exponents of the Qp and Qs factors
    are summed by tag and index first, so that each Q[i;T] and d[T] is
    built once: Q[i;T] carries the sum over the prefixes Qp[j;T] and
    Qs[j;T] with j >= i.
    """
    prefixes: dict[MotiveTag, dict[int, int]] = {}  # tag -> {j: exponent of its j-prefix}
    deltas: dict[MotiveTag, int] = {}  # tag -> exponent of D[T], a Qs[j;T] counting too
    factors: _Factors = []
    for sym, exp in x._exps.items():
        if sym.kind in ("Qp", "Qs"):
            by_j = prefixes.setdefault(sym.tag, {})
            by_j[sym.index] = by_j.get(sym.index, 0) + exp
        if sym.kind in ("D", "Qs"):
            deltas[sym.tag] = deltas.get(sym.tag, 0) + exp
        elif sym.kind != "Qp":
            factors.append((sym, exp))
    if len(factors) == len(x._exps):
        return x
    for tag, by_j in prefixes.items():
        exp = 0
        for i in range(max(by_j), 0, -1):
            exp += by_j.get(i, 0)
            if exp:
                factors.append((PeriodSymbol("Q", i, tag), exp))
    for tag, exp in deltas.items():
        factors += _normalized_delta(tag, exp)
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
    for sym, exp in x._exps.items():
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
