"""Period monomial algebra: group laws, expansion, rules, derivations."""

import random
from collections.abc import MutableMapping
from fractions import Fraction
from itertools import permutations
from types import MappingProxyType

import pytest

from periodkit.errors import RuleNotApplicable, UnknownRankError
from periodkit.periods import (
    RULES,
    TRIVIAL,
    MotiveTag,
    PeriodMonomial,
    PeriodSymbol,
    apply_rule,
    delta,
    delta_tate,
    derive_delta_square_identity,
    derive_grouped_period_identity,
    expand,
    join_field_labels,
    q,
    q_paren,
    q_sup,
    q_xi,
    two_pi_i,
)

M2 = MotiveTag("M", rank=2)
M3 = MotiveTag("M", rank=3)


def delta_cap(tag):
    return PeriodMonomial(((PeriodSymbol("D", None, tag), 1),))


class TestMonomialAlgebra:
    def test_inverse_cancels(self):
        x = q(1, M2) * delta(M2)
        assert x * x.inv() == PeriodMonomial.one()

    def test_two_pi_powers_add(self):
        assert two_pi_i(2) * two_pi_i(3) == two_pi_i(5)

    def test_canonical_merge(self):
        assert q(1, M2) * delta(M2) * q(1, M2) == q(1, M2) ** 2 * delta(M2)

    def test_eq_ignores_field_label(self):
        assert PeriodMonomial.one("E") == PeriodMonomial.one("EE'")
        assert PeriodMonomial(delta(M2).factors, "E;K") == delta(M2)

    def test_group_laws_random(self):
        rng = random.Random(31)
        pool = [two_pi_i(3), q(1, M2), q(2, M2), delta(M2), delta_cap(M3), q_sup(1, M3)]
        for _ in range(200):
            x, y, z = (rng.choice(pool) ** rng.choice([-2, -1, 1, 2]) for _ in range(3))
            assert (x * y) * z == x * (y * z)
            assert x * y == y * x
            assert x * x.inv() == PeriodMonomial.one()


def _random_tag(rng):
    """A freshly built tag: equal tags drawn twice are equal, not identical."""
    tag = MotiveTag(rng.choice(["M", "M'", "Pi"]), rank=rng.randint(1, 3), csd=rng.random() < 0.5)
    for _ in range(rng.randint(0, 2)):
        step = rng.choice(["conj", "dual", "twist", "det"])
        tag = tag.twist(rng.choice([-2, 1, 3])) if step == "twist" else getattr(tag, step)()
    return tag


def _random_monomial(rng):
    """A monomial on 0 to 5 factors of every kind, a symbol repeated now and then."""
    factors = []
    for _ in range(rng.randint(0, 5)):
        kind, tag = rng.choice(["2pi", "Q", "d", "D", "Qp", "Qs", "P", "Qxi"]), _random_tag(rng)
        if kind == "2pi":
            sym = PeriodSymbol("2pi")
        elif kind in ("d", "D", "Qxi"):
            sym = PeriodSymbol(kind, None, tag)
        else:
            sym = PeriodSymbol(kind, rng.randint(kind == "Q", tag.rank_value), tag)
        factors += [(sym, rng.choice([-2, -1, 1, 3]))] * rng.choice([1, 1, 2])
    return PeriodMonomial(factors, rng.choice(["", "E", "E;K", "EE'", "E;E", "K;E;K"]))


class TestMergePath:
    """``*``, ``/``, ``inv`` and ``**`` against the constructor, which sorts and checks."""

    def test_every_operation_matches_the_constructor(self):
        rng = random.Random(28)
        kinds, ops, cancelled = set(), set(), 0
        for _ in range(400):
            x, y = _random_monomial(rng), _random_monomial(rng)
            if rng.random() < 0.2:  # y shares, and cancels, some of x's factors
                y = y * x.inv()
            label = join_field_labels(x.field_label, y.field_label)
            negated = tuple((s, -e) for s, e in y.factors)
            cases = [
                (x * y, PeriodMonomial(x.factors + y.factors, label)),
                (x / y, PeriodMonomial(x.factors + negated, label)),
                (x.inv(), PeriodMonomial(((s, -e) for s, e in x.factors), x.field_label)),
            ]
            for k in range(-3, 4):
                scaled = PeriodMonomial(((s, e * k) for s, e in x.factors), x.field_label)
                cases.append((x ** k, scaled))
            for got, want in cases:
                assert got.factors == want.factors and got.field_label == want.field_label
                assert hash(got) == hash(want) and got.text() == want.text()
            product = {s for s, _ in x.factors} | {s for s, _ in y.factors}
            cancelled += len({s for s, _ in (x * y).factors}) < len(product)
            kinds |= {s.kind for s, _ in x.factors}
            ops |= {op[0] for s, _ in x.factors if s.tag for op in s.tag.ops}
        assert kinds == {"2pi", "Q", "d", "D", "Qp", "Qs", "P", "Qxi"}
        assert ops == {"c", "v", "t", "det"}
        assert cancelled > 20

    def test_a_product_that_cancels_to_one(self):
        x = PeriodMonomial((q(1, M2) * delta(M3.conj()) ** 2 * two_pi_i(-3)).factors, "E;E")
        for one in (x * x.inv(), x / x, x ** 0, x.inv() * x):
            assert one.factors == () and one.text() == "1"
        assert (x / x).field_label == "E" and (x ** 0).field_label == "E;E"

    def test_equal_keys_from_distinct_tags_merge(self):
        # Equal symbols built apart are not the same object; the merge adds them.
        x = q(2, MotiveTag("M", rank=3, csd=True).dual().twist(2))
        y = q(2, MotiveTag("M", rank=3, csd=True).dual().twist(2))
        assert x.factors[0][0] is not y.factors[0][0]
        assert (x * y).text() == "Q[2;M^v(2)]^2" and (x / y).factors == ()

    @pytest.mark.parametrize("exp", [0.5, True, "1", Fraction(1, 2), 2.0])
    def test_an_exponent_that_is_not_an_int_is_refused(self, exp):
        with pytest.raises(ValueError) as err:
            PeriodMonomial([(PeriodSymbol("Q", 1, M2), exp)])
        assert str(err.value) == f"exponent {exp!r} is not an int"
        with pytest.raises(ValueError) as err:
            q(1, M2) ** exp
        assert str(err.value) == f"exponent {exp!r} is not an int"

    @pytest.mark.parametrize("rank", [-1, 0, 2.5, True, "2"])
    def test_a_rank_that_is_not_a_positive_int_is_refused(self, rank):
        # A rankless tag's key reads rank -1; and D[M] at rank 2.5 expanded to (2πi)^1.0.
        with pytest.raises(ValueError) as err:
            MotiveTag("M", rank)
        assert str(err.value) == f"rank must be a positive int or None, got {rank!r}"


class TestExponentMap:
    """A monomial is its exponent map, private; the print order is made where it is read."""

    def test_no_public_attribute_hands_out_a_writable_mapping(self):
        x = PeriodMonomial((q(1, M2) ** 2 * delta(M3.conj()) * two_pi_i(-1)).factors, "E")
        before = (x.factors, x.text(), x.to_json(), hash(x), x.field_label)
        for name in dir(x):
            if name.startswith("_"):
                continue
            value = getattr(x, name)
            if callable(value):
                try:
                    value = value()
                except TypeError:  # it takes arguments: exponent
                    continue
            assert not isinstance(value, MutableMapping) or name == "to_json", name
            if name == "to_json":  # a fresh dict: clearing it leaves the monomial as it was
                value["factors"].clear()
                value.clear()
        view = x.items()
        assert isinstance(view.mapping, MappingProxyType)
        with pytest.raises(TypeError):
            view.mapping[PeriodSymbol("2pi")] = 5
        for name in ("_exps", "factors", "field_label"):
            with pytest.raises(AttributeError):
                setattr(x, name, {})
        assert (x.factors, x.text(), x.to_json(), hash(x), x.field_label) == before
        assert dict(x.items()) == dict(x.factors)

    def test_factors_text_and_json_follow_a_reference_sort(self):
        # Tags that print alike sit beside each other in the pool, so their
        # order comes from the key's label and ops alone.
        tags = [
            MotiveTag("M^c", rank=2),
            MotiveTag("M", rank=2).conj(),
            MotiveTag("M(3)", rank=2),
            MotiveTag("M", rank=2).twist(3),
            MotiveTag("M", rank=2, csd=True),
            MotiveTag("M", rank=3),
            MotiveTag("M"),
            MotiveTag("M'", rank=1).dual(),
            MotiveTag("M", rank=3).det(),
        ]
        twins = {tags[0]: tags[1], tags[1]: tags[0], tags[2]: tags[3], tags[3]: tags[2]}

        def symbol(rng):
            kind, tag = rng.choice(["2pi", "Q", "d", "D", "Qp", "Qs", "P", "Qxi"]), rng.choice(tags)
            if kind == "2pi":
                return PeriodSymbol("2pi")
            if kind in ("d", "D", "Qxi"):
                return PeriodSymbol(kind, None, tag)
            return PeriodSymbol(kind, rng.randint(kind == "Q", tag.rank_value or 4), tag)

        def reference(factors):
            merged = {}
            for sym, exp in factors:
                merged[sym] = merged.get(sym, 0) + exp
            canon = sorted(((s, e) for s, e in merged.items() if e), key=lambda f: f[0].sort_key)
            shown = [s.text() + (f"^{e}" if s.kind == "2pi" or e != 1 else "") for s, e in canon]
            return tuple(canon), " * ".join(shown) or "1"

        rng = random.Random(47)
        seen = {"repeat": 0, "zero sum": 0, "alike": 0}
        for _ in range(500):
            factors = [(symbol(rng), rng.choice([-3, -1, 1, 2])) for _ in range(rng.randint(0, 6))]
            for sym, exp in list(factors):
                roll = rng.random()
                if roll < 0.2:  # the same symbol again, built apart
                    factors.append((PeriodSymbol(sym.kind, sym.index, sym.tag), exp))
                elif roll < 0.4:  # a pair that cancels
                    factors.append((sym, -exp))
                elif roll < 0.5:
                    factors.append((sym, 0))
                elif roll < 0.8 and sym.tag in twins:  # its twin, printed alike
                    factors.append((PeriodSymbol(sym.kind, sym.index, twins[sym.tag]), exp))
            label = rng.choice(["", "E", "E;K"])
            x = PeriodMonomial(factors, label)
            canon, text = reference(factors)
            assert x.factors == canon and x.text() == text and repr(x) == f"PeriodMonomial({text!r})"
            assert x.to_json() == {
                "text": text,
                "factors": [{"symbol": s.text(), "exp": e} for s, e in canon],
                "field_label": label,
            }
            # The same symbols, each exponent doubled: equal only when x is 1.
            assert (PeriodMonomial(factors * 2) == x) == (not canon)
            for _ in range(3):
                shuffled = rng.sample(factors, len(factors))
                y = PeriodMonomial(shuffled, rng.choice(["", "EE'"]))
                assert y == x and hash(y) == hash(x) and y.factors == canon
            syms = [s for s, _ in factors]
            seen["repeat"] += len(set(syms)) < len(syms)
            seen["zero sum"] += len(canon) < len(set(syms))
            texts = [s.text() for s, _ in canon]
            seen["alike"] += len(set(texts)) < len(texts)
        assert min(seen.values()) > 100, seen

    def test_equal_symbols_under_other_exponents_are_unequal(self):
        x = q(1, M2) * delta(M2) * two_pi_i(2)
        for k in (-2, -1, 0, 2, 3):
            assert x ** k != x
        assert q(1, M2) ** 2 * delta(M2) != q(1, M2) * delta(M2) ** 2
        assert x.exponent(PeriodSymbol("2pi")) == 2 and x.exponent(PeriodSymbol("Q", 2, M2)) == 0

    def test_expand_returns_its_argument_exactly_when_nothing_expands(self):
        rng = random.Random(48)
        hits = [0, 0]
        for _ in range(400):
            x = _random_monomial(rng)
            plain = all(s.kind not in ("D", "Qp", "Qs") for s, _ in x.items())
            assert (expand(x) is x) == plain
            hits[plain] += 1
        assert min(hits) > 50
        # A Qs factor alone expands, whatever else the monomial holds.
        for x in (q_sup(0, M2), q_sup(1, M2) * q(1, M2), q_sup(2, M3) ** -1 * two_pi_i(1)):
            assert expand(x) is not x and expand(x) != x


class TestForeignOperands:
    """A monomial's operator meets a non-monomial with Python's TypeError."""

    @pytest.mark.parametrize("other", [2, Fraction(1, 2), None])
    def test_mul(self, other):
        with pytest.raises(TypeError, match=r"unsupported operand type\(s\) for \*"):
            q(1, M2) * other

    @pytest.mark.parametrize("other", [2, Fraction(1, 2), None])
    def test_truediv(self, other):
        with pytest.raises(TypeError, match=r"unsupported operand type\(s\) for /"):
            q(1, M2) / other


class TestCanonicalText:
    def test_identity(self):
        assert PeriodMonomial.one().text() == "1"

    def test_repr_quotes_the_text(self):
        assert repr(q(1, M2) ** 2 * delta(M2)) == "PeriodMonomial('Q[1;M]^2 * d[M]')"
        assert repr(PeriodMonomial.one()) == "PeriodMonomial('1')"

    def test_two_pi_always_shows_exponent(self):
        assert two_pi_i(1).text() == "(2πi)^1"
        assert two_pi_i(-1).text() == "(2πi)^-1"

    def test_unit_exponent_omitted_elsewhere(self):
        assert (q(1, M2) ** 2 * delta(M2)).text() == "Q[1;M]^2 * d[M]"

    def test_sort_order(self):
        mp = MotiveTag("M'", rank=1)
        mono = q_sup(1, mp) ** 2 * q_sup(2, M2) * two_pi_i(-1)
        assert mono.text() == "(2πi)^-1 * Qs[2;M] * Qs[1;M']^2"

    def test_all_eight_kinds_print_in_the_documented_order(self):
        # Tag labels fall as the kinds rise, so two kinds that shared a
        # sort slot would print in the opposite order.
        t = {k: MotiveTag(f"M{k}", rank=2) for k in range(1, 8)}
        p = PeriodMonomial(((PeriodSymbol("P", 1, t[2]), 1),))
        mono = q_xi(t[1]) * p * q_sup(1, t[3]) * q_paren(1, t[4]) * delta_cap(t[5])
        mono = mono * delta(t[6]) * q(1, t[7]) * two_pi_i(2)
        assert mono.text() == (
            "(2πi)^2 * Q[1;M7] * d[M6] * D[M5] * Qp[1;M4] * Qs[1;M3] * P[1;M2] * Qxi[M1]"
        )

    def test_tag_decorations(self):
        t = M2.conj()
        assert delta(t).text() == "d[M^c]"
        assert delta(M2.dual().twist(2)).text() == "d[M^v(2)]"
        assert q(1, M2.det()).text() == "Q[1;det(M)]"

    def test_order_separates_tags_that_differ_only_in_csd(self):
        csd = MotiveTag("M", rank=2, csd=True)
        left, right = q(1, M2) * q(1, csd), q(1, csd) * q(1, M2)
        assert left == right
        assert hash(left) == hash(right)
        assert [s.tag.csd for s, _ in left.factors] == [False, True]

    @pytest.mark.parametrize(
        "a, b",
        [
            # A motive named M^c beside the conjugate of M.
            (MotiveTag("M^c", rank=2), MotiveTag("M", rank=2).conj()),
            # A dictionary motive's label M(3) beside M twisted by 3.
            (MotiveTag("M(3)", rank=2), MotiveTag("M", rank=2).twist(3)),
        ],
    )
    def test_symbols_that_print_alike_have_one_order(self, a, b):
        x, y = PeriodSymbol("d", None, a), PeriodSymbol("d", None, b)
        assert x != y and x.text() == y.text()
        left, right = PeriodMonomial([(x, 1), (y, 1)]), PeriodMonomial([(y, 1), (x, 1)])
        assert left == right and hash(left) == hash(right)
        assert left.factors == right.factors

    def test_every_order_of_the_factors_gives_one_monomial(self):
        # Six factors, one symbol twice, each on a freshly built tag.
        def factors():
            m3 = MotiveTag("M", rank=3)
            return [
                (PeriodSymbol("Q", 2, m3), 1),
                (PeriodSymbol("d", None, MotiveTag("M", rank=2).dual().twist(2)), -1),
                (PeriodSymbol("Q", 1, MotiveTag("M", rank=3, csd=True)), 2),
                (PeriodSymbol("2pi"), 3),
                (PeriodSymbol("Qs", 0, MotiveTag("M'", rank=1)), 1),
                (PeriodSymbol("Q", 2, MotiveTag("M", rank=3)), 1),
            ]

        first = PeriodMonomial(factors())
        assert first.text() == "(2πi)^3 * Q[2;M]^2 * Q[1;M]^2 * d[M^v(2)]^-1 * Qs[0;M']"
        for order in permutations(range(6)):
            fresh = factors()
            mono = PeriodMonomial([fresh[i] for i in order])
            assert mono.factors == first.factors and mono.text() == first.text()

    def test_equal_symbols_hash_equal(self):
        def build():
            csd = MotiveTag("M", rank=3, csd=True)
            return [
                PeriodSymbol("2pi"),
                PeriodSymbol("Q", 3, csd.conj()),
                PeriodSymbol("d", None, csd.dual().twist(-2)),
                PeriodSymbol("Qp", 0, MotiveTag("M", rank=2).det()),
                PeriodSymbol("P", 1, MotiveTag("Pi'", rank=1)),
                PeriodSymbol("Qxi", None, csd),
            ]

        for x, y in zip(build(), build()):
            assert x is not y and x == y and hash(x) == hash(y)
            assert x.sort_key == y.sort_key

    @pytest.mark.parametrize(
        "ops", [("c",), (("x", 5),), (("t", 0),), (("t", True),), (("t", 1.5),), (("c", 1),)]
    )
    def test_unknown_decoration_is_rejected(self, ops):
        with pytest.raises(ValueError, match="unknown tag decoration") as err:
            MotiveTag("M", rank=2, ops=ops)
        assert repr(ops[0]) in str(err.value)

    def test_every_known_decoration_is_accepted(self):
        ops = (("c", None), ("v", None), ("t", -3), ("det", None))
        assert MotiveTag("M", rank=2, ops=ops).text() == "det(M^c^v(-3))"


class TestExpand:
    def test_q_sup_zero(self):
        assert expand(q_sup(0, M2)) == two_pi_i(1) * delta(M2)

    def test_q_sup_full(self):
        assert expand(q_sup(2, M2)) == q(1, M2) * q(2, M2) * two_pi_i(1) * delta(M2)

    def test_idempotent(self):
        x = q_sup(1, M3) * q_paren(2, M3) * delta_cap(M2) ** -1
        assert expand(expand(x)) == expand(x)

    def test_homomorphism(self):
        x = q_sup(1, M3)
        y = q_paren(2, M3) * two_pi_i(2)
        assert expand(x * y) == expand(x) * expand(y)

    def test_unknown_rank(self):
        with pytest.raises(UnknownRankError):
            expand(delta_cap(MotiveTag("M")))


class TestRules:
    def test_q_conjugation(self):
        x = q(2, M3.conj())
        assert apply_rule(x, "q_conj") == q(2, M3).inv()

    def test_q_conjugation_involution(self):
        for tag in (M3, M3.conj(), M2):
            for i in range(1, tag.rank_value + 1):
                x = q(i, tag)
                assert apply_rule(apply_rule(x, "q_conj"), "q_conj") == x

    def test_delta_twist_rank_one(self):
        t = MotiveTag("M", rank=1)
        assert apply_rule(delta(t.twist(1)), "delta_twist") == two_pi_i(1) * delta(t)

    def test_delta_twist_general_exponent(self):
        for r in range(1, 5):
            for k in (-3, -1, 2, 4):
                t = MotiveTag("M", rank=r)
                got = apply_rule(delta(t.twist(k)), "delta_twist")
                assert got.exponent(PeriodSymbol("2pi")) == k * r
                assert got == two_pi_i(k * r) * delta(t)

    def test_delta_conjugation(self):
        got = apply_rule(delta(M2.conj()), "delta_conj")
        assert got == q(1, M2) * q(2, M2) * delta(M2)

    def test_delta_dual(self):
        assert apply_rule(delta(M2.dual()), "delta_dual") == delta(M2).inv()

    def test_tate_motive_closed_form(self):
        assert delta_tate(1).text() == "(2πi)^1"
        assert delta_tate(0) == PeriodMonomial.one()
        for k in range(-4, 5):
            assert delta_tate(k) == two_pi_i(k)

    def test_trivial_motive_keeps_its_delta(self):
        assert delta(TRIVIAL).text() == "d[Z]"
        assert (q(1, TRIVIAL) * delta(TRIVIAL) ** 2).text() == "Q[1;Z] * d[Z]^2"
        assert delta(TRIVIAL) == delta(MotiveTag("Z", rank=1))

    def test_twists_compose(self):
        tag = MotiveTag("M", rank=2)
        assert tag.twist(2).twist(3) == tag.twist(5)
        assert tag.twist(2).twist(-2) == tag
        assert tag.twist(-1).twist(3).ops == (("t", 2),)

    def test_csd_rules_gated(self):
        with pytest.raises(RuleNotApplicable):
            apply_rule(q(1, M2.dual()), "q_dual")
        with pytest.raises(RuleNotApplicable):
            apply_rule(q_xi(M2), "xi_to_delta")
        csd = MotiveTag("M", rank=2, csd=True)
        assert apply_rule(q(1, csd.dual()), "q_dual") == q(2, csd).inv()

    def test_det_q(self):
        got = apply_rule(q(1, M3.det()), "det_q")
        assert got == q(1, M3) * q(2, M3) * q(3, M3)

    def test_not_applicable(self):
        with pytest.raises(RuleNotApplicable):
            apply_rule(two_pi_i(1), "delta_conj")

    def test_field_label_joins(self):
        t = MotiveTag("M", rank=1)
        got = apply_rule(PeriodMonomial(delta(t.twist(1)).factors, "E"), "delta_twist")
        assert got.field_label == "E;K"


class TestDerivations:
    def test_delta_square_n1(self):
        res = derive_delta_square_identity(1)
        tag = MotiveTag("M", rank=1, csd=True)
        assert res.ok
        assert res.lhs == delta(tag) ** -2
        assert res.rhs == q(1, tag)

    def test_delta_square_n2(self):
        res = derive_delta_square_identity(2)
        tag = MotiveTag("M", rank=2, csd=True)
        assert res.ok
        assert res.lhs == two_pi_i(-2) * delta(tag) ** -2
        assert res.rhs == q(1, tag) * q(2, tag)

    def test_delta_square_through_n8(self):
        assert all(derive_delta_square_identity(n).ok for n in range(1, 9))

    @pytest.mark.parametrize("n", range(1, 9))
    def test_delta_square_applies_the_twist_only_where_it_is_not_empty(self, n, monkeypatch):
        # The twist by 1 - n is empty at n = 1, so the derivation applies
        # delta_twist only from n = 2 on.
        import periodkit.periods as pd

        applied, apply_rule = [], pd.apply_rule

        def spy(x, rule):
            applied.append(rule)
            return apply_rule(x, rule)

        monkeypatch.setattr(pd, "apply_rule", spy)
        assert derive_delta_square_identity(n).ok
        twist = ["delta_twist"] if n > 1 else []
        assert applied == ["delta_conj", "conj_as_dual", *twist, "delta_dual"]

    def test_grouped_period_small(self):
        assert derive_grouped_period_identity(1, 0, derive_delta_square_identity(1)).ok
        assert derive_grouped_period_identity(2, 1, derive_delta_square_identity(2)).ok

    def test_grouped_period_boundary(self):
        res = derive_grouped_period_identity(4, 4, derive_delta_square_identity(4))
        assert res.ok
        assert res.lhs == expand(q_sup(4, MotiveTag("M", rank=4, csd=True)))

    def test_grouped_period_through_n8(self):
        lemmas = {n: derive_delta_square_identity(n) for n in range(1, 9)}
        assert all(
            derive_grouped_period_identity(n, s, lemmas[n]).ok
            for n in range(1, 9)
            for s in range(n + 1)
        )

    def test_a_lemma_of_another_rank_does_not_derive_the_identity(self):
        # The rank-k lemma's symbols carry rank k, so none of them cancels
        # against the rank-n right-hand side.
        lemmas = {n: derive_delta_square_identity(n) for n in range(1, 10)}
        for n in range(1, 9):
            for s in range(n + 1):
                for k in range(1, 10):
                    res = derive_grouped_period_identity(n, s, lemmas[k])
                    assert res.ok is (k == n), (n, s, k)


class TestErrorBranches:
    """Each refusal of a malformed symbol, rule name or derivation argument."""

    @pytest.mark.parametrize(
        "args, message",
        [
            (("Z", None, M2), "unknown symbol kind 'Z'"),
            (("2pi", 1, None), "(2πi) carries no index or tag"),
            (("2pi", None, M2), "(2πi) carries no index or tag"),
            (("Q", 1, None), "symbol Q needs a motive tag"),
            (("d", 1, M2), "d carries no index"),
            (("Q", None, M2), "Q index starts at 1, got None"),
            (("Q", 0, M2), "Q index starts at 1, got 0"),
            (("Qs", -1, M2), "Qs index starts at 0, got -1"),
            (("P", 3, M2), "P index 3 exceeds rank 2 of M"),
            # Two faults at once: the first check in this order names its own.
            (("Z", 1.5, None), "unknown symbol kind 'Z'"),
            (("Q", 1.5, None), "symbol Q needs a motive tag"),
            (("Qxi", 1, M2), "Qxi carries no index"),
            (("2pi", 1, M2), "(2πi) carries no index or tag"),
        ],
    )
    def test_symbol_check(self, args, message):
        with pytest.raises(ValueError) as err:
            PeriodSymbol(*args)
        assert str(err.value) == message

    @pytest.mark.parametrize("index", [True, 1.5, Fraction(1), "1", 2.0])
    def test_an_index_that_is_not_an_int_is_refused(self, index):
        # A bool index would print Q[True;M] and yet equal Q[1;M].
        for kind in ("Q", "Qs"):
            with pytest.raises(ValueError) as err:
                PeriodSymbol(kind, index, M2)
            assert str(err.value) == f"{kind} index {index!r} is not an int"

    def test_a_tag_without_rank_bounds_no_index(self):
        assert PeriodSymbol("Q", 7, MotiveTag("M")).index == 7

    def test_unknown_rule(self):
        with pytest.raises(KeyError, match="unknown rule 'q_twist'"):
            apply_rule(q(1, M2), "q_twist")

    def test_delta_square_needs_a_positive_rank(self):
        with pytest.raises(ValueError, match="rank must be positive"):
            derive_delta_square_identity(0)

    @pytest.mark.parametrize("n, s", [(2, 3), (2, -1), (0, 1)])
    def test_grouped_period_needs_s_between_0_and_n(self, n, s):
        with pytest.raises(ValueError) as err:
            derive_grouped_period_identity(n, s, derive_delta_square_identity(2))
        assert str(err.value) == f"need 0 <= s <= n, got s={s}, n={n}"


def _slots(tag):
    return [getattr(tag, name) for name in MotiveTag.__slots__]


def _checked(tag):
    """The tag rebuilt by the constructor, which checks every decoration."""
    return MotiveTag(tag.label, tag.rank, tag.csd, tag.ops)


def _random_chain(rng, tag, steps):
    for _ in range(steps):
        step = rng.choice(["conj", "dual", "twist", "det"])
        tag = tag.twist(rng.choice([-3, -1, 0, 1, 2])) if step == "twist" else getattr(tag, step)()
    return tag


class TestDerivedTags:
    """``conj``, ``dual``, ``twist``, ``det`` and a rule's strip build a tag
    without the constructor; each equals the constructor's tag on the same
    ops in every slot, the printed text included."""

    def test_seeded_chains_give_the_checked_tag_at_every_step(self):
        rng = random.Random(4099)
        lengths = set()
        for _ in range(300):
            tag = MotiveTag(
                rng.choice(["M", "M'", "Pi", "M(3)"]),
                rank=rng.choice([None, 1, 2, 5]),
                csd=rng.random() < 0.5,
            )
            for _ in range(rng.randint(1, 6)):
                tag = _random_chain(rng, tag, 1)
                assert type(tag) is MotiveTag
                assert _slots(tag) == _slots(_checked(tag)), tag.ops
                lengths.add(len(tag.ops))
        # Toggles and merged twists that cancel are met too: ops grow and shrink.
        assert lengths == set(range(7))

    @pytest.mark.parametrize(
        "rule", ["delta_conj", "delta_twist", "delta_dual", "conj_as_dual", "q_dual", "det_q"]
    )
    def test_a_rule_strips_to_the_checked_tag(self, rule):
        kind, decoration, _, _, _ = RULES[rule]
        rng = random.Random(rule)
        for _ in range(100):
            base = _random_chain(rng, MotiveTag(rng.choice(["M", "M'"]), rng.randint(1, 4), True),
                                 rng.randint(0, 3))
            op = ("t", rng.choice([-2, 1, 3])) if decoration == "t" else (decoration, None)
            tag = MotiveTag(base.label, base.rank, base.csd, base.ops + (op,))
            index = rng.randint(1, tag.rank_value) if kind == "Q" else None
            out = apply_rule(PeriodMonomial([(PeriodSymbol(kind, index, tag), 1)]), rule)
            tags = [sym.tag for sym, _ in out.items() if sym.tag is not None]
            for t in tags:
                assert _slots(t) == _slots(_checked(t)), (rule, t.ops)
            if rule != "conj_as_dual":  # it rewrites to the stripped tag's dual twist
                assert base.ops in [t.ops for t in tags], rule

    @pytest.mark.parametrize(
        "tag, k, named",
        [(M2, 1.5, "1.5"), (M2.conj(), 1.5, "1.5"), (M2, True, "True"), (M2.det(), True, "True"),
         # On a trailing twist the two merge first, and the merged k is named.
         (M2.twist(2), 1.5, "3.5")],
    )
    def test_a_twist_that_is_not_an_int_raises_the_constructors_message(self, tag, k, named):
        with pytest.raises(ValueError) as err:
            tag.twist(k)
        assert str(err.value) == (
            f"unknown tag decoration ('t', {named}): expected ('c', None), ('v', None),"
            " ('det', None) or ('t', k) with k a nonzero int"
        )
