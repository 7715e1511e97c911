"""Period monomial algebra: group laws, expansion, rules, derivations."""

import random

import pytest

from periodkit import (
    MotiveTag,
    PeriodMonomial,
    RuleNotApplicable,
    UnknownRankError,
    apply_rule,
    delta,
    delta_cap,
    delta_tate,
    derive_grouped_period_identity,
    derive_delta_square_identity,
    expand,
    q,
    q_paren,
    q_sup,
    q_xi,
    two_pi_i,
)

M2 = MotiveTag("M", rank=2)
M3 = MotiveTag("M", rank=3)


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
        assert delta(M2).with_label("E;K") == delta(M2)

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

    def test_two_pi_always_shows_exponent(self):
        assert two_pi_i(1).text() == "(2πi)^1"
        assert two_pi_i(-1).text() == "(2πi)^-1"

    def test_unit_exponent_omitted_elsewhere(self):
        assert (q(1, M2) ** 2 * delta(M2)).text() == "Q[1;M]^2 * d[M]"

    def test_sort_order(self):
        mp = MotiveTag("M'", rank=1)
        mono = q_sup(1, mp) ** 2 * q_sup(2, M2) * two_pi_i(-1)
        assert mono.text() == "(2πi)^-1 * Qs[2;M] * Qs[1;M']^2"

    def test_tag_decorations(self):
        t = M2.conj()
        assert delta(t).text() == "d[M^c]"
        assert delta(M2.dual().twist(2)).text() == "d[M^v(2)]"
        assert q(1, M2.det()).text() == "Q[1;det(M)]"


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
                assert got.two_pi_exponent == k * r
                assert got == two_pi_i(k * r) * delta(t)

    def test_delta_conjugation(self):
        got = apply_rule(delta(M2.conj()), "delta_conj")
        assert got == q(1, M2) * q(2, M2) * delta(M2)

    def test_delta_dual(self):
        assert apply_rule(delta(M2.dual()), "delta_dual") == delta(M2).inv()

    def test_tate_motive_closed_form(self):
        assert delta_tate(1).text() == "(2πi)^1"
        assert delta_tate(0) == PeriodMonomial.one()
        assert delta_tate(-3) == two_pi_i(-3)

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
        got = apply_rule(delta(t.twist(1)).with_label("E"), "delta_twist")
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
