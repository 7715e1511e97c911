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

The determinant period of the trivial motive is rational, so ``d`` of the
undecorated trivial tag is dropped when a monomial is assembled; with the
twist rule this gives the canonical form (2πi)^k for the Tate motives.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Iterable, NamedTuple

from .errors import RuleNotApplicable, UnknownRankError

# Tag decorations are (kind, argument) pairs; only a twist has an argument.
# Conjugate and dual are self-cancelling; twists merge.
_CONJ = ("c", None)
_DUAL = ("v", None)
_DET = ("det", None)


@dataclass(frozen=True)
class MotiveTag:
    """A motive name plus functor decorations, rank and self-duality flag.

    ``rank`` may be None for purely formal tags; rules that need it raise
    :class:`~periodkit.errors.UnknownRankError`.  ``csd`` marks the
    underlying motive as conjugate self-dual, which gates the rules that
    are only valid in that case.
    """

    label: str
    rank: int | None = None
    csd: bool = False
    ops: tuple = ()

    def _toggle(self, op) -> "MotiveTag":
        if self.ops and self.ops[-1] == op:
            return replace(self, ops=self.ops[:-1])
        return replace(self, ops=self.ops + (op,))

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
            return replace(self, ops=base)
        return replace(self, ops=base + (("t", k),))

    def det(self) -> "MotiveTag":
        return replace(self, ops=self.ops + (_DET,))

    @property
    def rank_value(self) -> int | None:
        return 1 if _DET in self.ops else self.rank

    def require_rank(self) -> int:
        r = self.rank_value
        if r is None:
            raise UnknownRankError(f"tag {self.text()} carries no rank")
        return r

    def text(self) -> str:
        s = self.label
        for kind, arg in self.ops:
            if kind == "c":
                s += "^c"
            elif kind == "v":
                s += "^v"
            elif kind == "det":
                s = f"det({s})"
            else:
                s += f"({arg})"
        return s

    def sort_key(self):
        return (self.text(), self.rank if self.rank is not None else -1)


#: The trivial motive (rank one, weight zero); its twists are the Tate motives.
TRIVIAL = MotiveTag("Z", rank=1)


def motive_tag(m, csd: bool = False) -> MotiveTag:
    """Tag for anything exposing ``label`` and ``rank`` attributes."""
    return MotiveTag(m.label, rank=m.rank, csd=csd)


_KIND_ORDER = {"2pi": 0, "Q": 1, "d": 2, "D": 3, "Qp": 4, "Qs": 5, "P": 6, "Qxi": 7}
# The smallest index of each indexed kind; the other kinds carry no index.
_INDEX_START = {"Q": 1, "Qp": 0, "Qs": 0, "P": 0}


@dataclass(frozen=True)
class PeriodSymbol:
    """One letter of the period alphabet; see the module docstring."""

    kind: str
    index: int | None = None
    tag: MotiveTag | None = None

    def __post_init__(self):
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
        if self.index is None or self.index < start:
            raise ValueError(f"{self.kind} index starts at {start}, got {self.index}")
        rank = self.tag.rank_value
        if rank is not None and self.index > rank:
            raise ValueError(
                f"{self.kind} index {self.index} exceeds rank {rank} of {self.tag.text()}"
            )

    def text(self) -> str:
        if self.kind == "2pi":
            return "(2πi)"
        if self.index is None:
            return f"{self.kind}[{self.tag.text()}]"
        return f"{self.kind}[{self.index};{self.tag.text()}]"

    def sort_key(self):
        tag_key = self.tag.sort_key() if self.tag is not None else ("", -1)
        return (_KIND_ORDER[self.kind], tag_key, self.index if self.index is not None else -1)


_TWO_PI = PeriodSymbol("2pi")


def join_field_labels(a: str, b: str) -> str:
    tokens = []
    for tok in a.split(";") + b.split(";"):
        if tok and tok not in tokens:
            tokens.append(tok)
    return ";".join(tokens)


class PeriodMonomial:
    """A free-abelian-group element over period symbols.

    Zero exponents are never stored; the factor order is the canonical
    print order, so equal monomials are structurally identical.  Equality
    and hashing ignore ``field_label``.
    """

    __slots__ = ("factors", "field_label")

    def __init__(self, factors: Iterable[tuple[PeriodSymbol, int]] = (), field_label: str = ""):
        merged: dict[PeriodSymbol, int] = {}
        for sym, exp in factors:
            if exp == 0:
                continue
            # The trivial motive's comparison is rational: drop its delta.
            if sym.kind == "d" and sym.tag == TRIVIAL:
                continue
            merged[sym] = merged.get(sym, 0) + exp
        canon = tuple(
            (sym, exp)
            for sym, exp in sorted(merged.items(), key=lambda kv: kv[0].sort_key())
            if exp != 0
        )
        object.__setattr__(self, "factors", canon)
        object.__setattr__(self, "field_label", field_label)

    def __setattr__(self, name, value):  # immutability guard
        raise AttributeError("PeriodMonomial is immutable")

    @classmethod
    def one(cls, field_label: str = "") -> "PeriodMonomial":
        return cls((), field_label)

    def __mul__(self, other: "PeriodMonomial") -> "PeriodMonomial":
        return PeriodMonomial(
            tuple(self.factors) + tuple(other.factors),
            join_field_labels(self.field_label, other.field_label),
        )

    def __pow__(self, k: int) -> "PeriodMonomial":
        return PeriodMonomial(((s, e * k) for s, e in self.factors), self.field_label)

    def inv(self) -> "PeriodMonomial":
        return self ** -1

    def __truediv__(self, other: "PeriodMonomial") -> "PeriodMonomial":
        return self * other.inv()

    def __eq__(self, other) -> bool:
        return isinstance(other, PeriodMonomial) and self.factors == other.factors

    def __hash__(self) -> int:
        return hash(self.factors)

    def exponent(self, sym: PeriodSymbol) -> int:
        for s, e in self.factors:
            if s == sym:
                return e
        return 0

    @property
    def two_pi_exponent(self) -> int:
        return self.exponent(_TWO_PI)

    def with_label(self, field_label: str) -> "PeriodMonomial":
        return PeriodMonomial(self.factors, field_label)

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


def two_pi_i(k: int = 1) -> PeriodMonomial:
    return PeriodMonomial(((_TWO_PI, k),))


def q(i: int, tag: MotiveTag) -> PeriodMonomial:
    return PeriodMonomial(((PeriodSymbol("Q", i, tag), 1),))


def delta(tag: MotiveTag) -> PeriodMonomial:
    return PeriodMonomial(((PeriodSymbol("d", None, tag), 1),))


def delta_cap(tag: MotiveTag) -> PeriodMonomial:
    return PeriodMonomial(((PeriodSymbol("D", None, tag), 1),))


def q_paren(j: int, tag: MotiveTag) -> PeriodMonomial:
    return PeriodMonomial(((PeriodSymbol("Qp", j, tag), 1),))


def q_sup(j: int, tag: MotiveTag) -> PeriodMonomial:
    return PeriodMonomial(((PeriodSymbol("Qs", j, tag), 1),))


def q_xi(tag: MotiveTag) -> PeriodMonomial:
    return PeriodMonomial(((PeriodSymbol("Qxi", None, tag), 1),))


def delta_tate(k: int) -> PeriodMonomial:
    """Canonical determinant period of the Tate motive: (2πi)^k."""
    return apply_rule(delta(TRIVIAL.twist(k)), "delta_twist") if k else PeriodMonomial.one()


# Factor lists: the helpers below return (symbol, exponent) pairs, so that
# a rewrite collects every piece and builds its monomial once.
_Factors = list[tuple[PeriodSymbol, int]]


def _q_range(tag: MotiveTag, j: int, exp: int) -> _Factors:
    """Q[1;T]...Q[j;T], each to the power exp."""
    return [(PeriodSymbol("Q", i, tag), exp) for i in range(1, j + 1)]


def _normalized_delta(tag: MotiveTag, exp: int) -> _Factors:
    """D[T] = (2πi)^(n(n-1)/2) d[T], to the power exp."""
    n = tag.require_rank()
    return [(_TWO_PI, n * (n - 1) // 2 * exp), (PeriodSymbol("d", None, tag), exp)]


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
    return [(_TWO_PI, k * n * exp), (PeriodSymbol("d", None, base), exp)]


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
                arg, tag = tag.ops[-1][1], replace(tag, ops=tag.ops[:-1])
        if hit:
            matched = True
            factors += replacement(sym, tag, arg, exp)
        else:
            factors.append((sym, exp))
    if not matched:
        raise RuleNotApplicable(f"rule {rule!r} matches no factor of {x.text()}")
    return PeriodMonomial(factors, join_field_labels(x.field_label, label))


class DerivationResult(NamedTuple):
    lhs: PeriodMonomial
    rhs: PeriodMonomial
    ok: bool


def derive_delta_square_identity(n: int, label: str = "M") -> DerivationResult:
    """Derive d[M]^-2 (2πi)^(n(1-n)) = prod_i Q[i;M] for a csd motive.

    The determinant period of the conjugate is rewritten two ways: via
    the conjugation rule, and via conjugate-as-dual followed by the twist
    and dual rules.  Dividing both routes by d[M] yields the two sides of
    the identity; ``ok`` records that each route reproduces its stated
    closed form exactly.
    """
    if n < 1:
        raise ValueError("rank must be positive")
    tag = MotiveTag(label, rank=n, csd=True)
    dc = delta(tag.conj())
    via_conj = apply_rule(dc, "delta_conj")
    via_dual = apply_rule(dc, "conj_as_dual")
    try:
        via_dual = apply_rule(via_dual, "delta_twist")
    except RuleNotApplicable:
        pass  # n = 1: the twist by 1-n is empty
    via_dual = apply_rule(via_dual, "delta_dual")
    d_inv = delta(tag).inv()
    lhs = via_dual * d_inv
    rhs = via_conj * d_inv
    ok = lhs == two_pi_i(n * (1 - n)) * delta(tag) ** -2 and rhs == expand(q_paren(n, tag))
    return DerivationResult(lhs, rhs, ok)


def derive_grouped_period_identity(n: int, s: int, label: str = "M") -> DerivationResult:
    """Match Qs[s;M] against the dual-period expression of the s-th period.

    The right-hand side starts from Q[1;M^v]...Q[n-s;M^v] * Qxi[M], is
    rewritten through the dual rule, the rank-n identity from
    :func:`derive_delta_square_identity`, and the xi rule; ``ok`` reports exact
    monomial equality with the expansion of Qs[s;M].
    """
    if not 0 <= s <= n:
        raise ValueError(f"need 0 <= s <= n, got s={s}, n={n}")
    tag = MotiveTag(label, rank=n, csd=True)
    lhs = expand(q_sup(s, tag))
    rhs = expand(q_paren(n - s, tag.dual())) * q_xi(tag)
    if s < n:
        rhs = apply_rule(rhs, "q_dual")
    identity = derive_delta_square_identity(n, label)
    rhs = rhs * identity.rhs * identity.lhs.inv()  # multiply by 1 in the period algebra
    rhs = apply_rule(rhs, "xi_to_delta")
    return DerivationResult(lhs, rhs, lhs == rhs)
