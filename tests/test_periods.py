"""Period monomial algebra: group laws, expansion, rules, derivations."""

import random
from itertools import permutations

import pytest

from periodkit.errors import RuleNotApplicable, UnknownRankError
from periodkit.periods import (
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

    def test_grouped_period_small(self):
        assert derive_grouped_period_identity(1, 0).ok
        assert derive_grouped_period_identity(2, 1).ok

    def test_grouped_period_boundary(self):
        res = derive_grouped_period_identity(4, 4)
        assert res.ok
        assert res.lhs == expand(q_sup(4, MotiveTag("M", rank=4, csd=True)))

    def test_grouped_period_through_n8(self):
        assert all(
            derive_grouped_period_identity(n, s).ok for n in range(1, 9) for s in range(n + 1)
        )


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
        ],
    )
    def test_symbol_check(self, args, message):
        with pytest.raises(ValueError) as err:
            PeriodSymbol(*args)
        assert str(err.value) == message

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
            derive_grouped_period_identity(n, s)
        assert str(err.value) == f"need 0 <= s <= n, got s={s}, n={n}"
