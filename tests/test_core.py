"""Core pair operations: quasi-zeros, balancing, surpassing, structure."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as strat

from pairlin import (
    CapExceeded,
    axiom_audit,
    balances,
    characteristic,
    circ,
    e_elements,
    height,
    make_algebra,
    make_doubled,
    registered_instances,
    st_ghost,
    st_tan,
    surpasses0,
    uniform_presentation,
)
from pairlin.core import (
    AUDIT_CARRIER_CAP,
    NonTangibleInput,
    NotMetatangible,
    UniformPresentation,
)

sign = make_algebra("sign")
sb = make_algebra("superboolean")
st = make_algebra("supertropical")
db = make_algebra("doubled:boolean")


def lit(alg, s):
    return alg.parse_literal(s)


class TestCirc:
    def test_sign_circ_one_is_inf(self):
        assert circ(sign, lit(sign, "1")) == lit(sign, "inf")

    def test_superboolean_circ_one_is_e(self):
        assert circ(sb, lit(sb, "1")) == lit(sb, "e")

    def test_supertropical_circ_is_ghost(self):
        assert circ(st, st_tan(3)) == st_ghost(3)

    def test_rejects_non_tangible(self):
        with pytest.raises(NonTangibleInput):
            circ(sign, lit(sign, "inf"))

    def test_circ_commutes_with_tangible_products(self):
        # (a1 a2)o = a1 a2o = a1o a2 on pairs with Property N
        for alg in (sign, sb, db):
            for a1 in alg.tangibles:
                for a2 in alg.tangibles:
                    lhs = circ(alg, alg.mul(a1, a2))
                    assert lhs == alg.mul(a1, circ(alg, a2))
                    assert lhs == alg.mul(circ(alg, a1), a2)


class TestEElements:
    def test_sign(self):
        e, ep = e_elements(sign)
        assert e == lit(sign, "inf") and ep == lit(sign, "inf")

    def test_superboolean(self):
        e, ep = e_elements(sb)
        assert e == lit(sb, "e") and ep == lit(sb, "e")

    def test_doubled_boolean(self):
        e, ep = e_elements(db)
        assert e == lit(db, "1|1") and ep == lit(db, "1|1")

    def test_e_square_is_e_plus_e(self):
        for alg in (sign, sb, db):
            e, _ = e_elements(alg)
            assert alg.mul(e, e) == alg.add(e, e)


class TestBalances:
    @pytest.mark.parametrize(
        "x, y, want",
        [("1", "1", True), ("1", "-1", False), ("inf", "1", True), ("0", "inf", True)],
    )
    def test_sign_cases(self, x, y, want):
        assert balances(sign, lit(sign, x), lit(sign, y)) is want

    def test_symmetry_exhaustive(self):
        for alg in (sign, sb, db, make_algebra("counting:5")):
            for a in alg.carrier:
                for b in alg.carrier:
                    assert balances(alg, a, b) == balances(alg, b, a)

    def test_tangible_balances_sum_with_null(self):
        # a nabla (a + c) for tangible a, null c
        for alg in (sign, sb, db):
            nulls = [c for c in alg.carrier if alg.is_null(c)]
            for a in alg.tangibles:
                for c in nulls:
                    assert balances(alg, a, alg.add(a, c))

    def test_supertropical_first_kind_rule(self):
        assert balances(st, st_tan(3), st_tan(3))
        assert not balances(st, st_tan(5), st_tan(1))
        assert balances(st, st_ghost(7), st_tan(7))


class TestSurpasses:
    def test_sign_examples(self):
        assert surpasses0(sign, lit(sign, "1"), lit(sign, "inf"))
        assert surpasses0(sign, lit(sign, "1"), lit(sign, "1"))
        assert not surpasses0(sign, lit(sign, "inf"), lit(sign, "1"))

    def test_supertropical_examples(self):
        assert surpasses0(st, st_tan(3), st_ghost(3))
        assert surpasses0(st, st_tan(3), st_ghost(7))
        assert not surpasses0(st, st_tan(3), st_tan(7))
        assert not surpasses0(st, st_ghost(3), st_tan(3))

    def test_hyperpair_surpass_is_subset_inclusion(self):
        for spec in ("krasner:5:4", "hyper:hex1-c2"):
            alg = make_algebra(spec)
            for a in alg.carrier:
                for b in alg.carrier:
                    want = a.payload & ~b.payload == 0
                    assert surpasses0(alg, a, b) == want

    def test_symdiff_surpass_is_equality(self):
        # the null layer is {empty set}, so nothing is gained by adding
        alg = make_algebra("powerset-symdiff:2")
        for a in alg.carrier:
            for b in alg.carrier:
                assert surpasses0(alg, a, b) == (a == b)

    def test_reflexive_transitive_exhaustive(self):
        for alg in (sign, sb, db):
            for a in alg.carrier:
                assert surpasses0(alg, a, a)
                for b in alg.carrier:
                    for c in alg.carrier:
                        if surpasses0(alg, a, b) and surpasses0(alg, b, c):
                            assert surpasses0(alg, a, c)

    def test_surpass_implies_balance(self):
        for alg in (sign, sb, db):
            for a in alg.carrier:
                for b in alg.carrier:
                    if surpasses0(alg, a, b):
                        assert balances(alg, a, b)

    def test_tangible_surpass_forces_equal_circ(self):
        # ws1: a1 <=_0 a2 with both tangible implies a1 e = a2 e
        for alg in (sign, sb, db):
            for a1 in alg.tangibles:
                for a2 in alg.tangibles:
                    if surpasses0(alg, a1, a2):
                        assert circ(alg, a1) == circ(alg, a2)


rationals = strat.fractions(
    min_value=Fraction(-8), max_value=Fraction(8), max_denominator=4
)


@given(rationals, rationals, rationals)
@settings(max_examples=200, deadline=None)
def test_supertropical_surpass_transitive_hypothesis(u, v, w):
    els = [st_tan(u), st_ghost(v), st_tan(w), st_ghost(u), st.zero]
    for a in els:
        for b in els:
            for c in els:
                if surpasses0(st, a, b) and surpasses0(st, b, c):
                    assert surpasses0(st, a, c)


@given(rationals, rationals)
@settings(max_examples=200, deadline=None)
def test_supertropical_circ_multiplicative_hypothesis(u, v):
    a, b = st_tan(u), st_tan(v)
    assert circ(st, st.mul(a, b)) == st.mul(a, circ(st, b))


class TestHeight:
    def test_zero_has_height_zero(self):
        assert height(sign, sign.zero) == 0

    def test_superboolean_e(self):
        assert height(sb, lit(sb, "e")) == 2

    def test_sign_inf(self):
        assert height(sign, lit(sign, "inf")) == 2

    def test_supertropical_rule(self):
        assert height(st, st_tan(4)) == 1
        assert height(st, st_ghost(4)) == 2


class TestCharacteristic:
    @pytest.mark.parametrize(
        "spec, p, q, m",
        [
            ("npq:2:3", 2, 3, 4),
            ("superboolean", 1, 2, 2),
            ("sign", 1, 1, 1),
            ("supertropical", 1, 2, 2),
            ("boolean", 1, 1, 1),
        ],
    )
    def test_profiles(self, spec, p, q, m):
        prof = characteristic(make_algebra(spec))
        assert (prof.p, prof.q, prof.period) == (p, q, m)

    def test_doubling_preserves_characteristic(self):
        for spec in ("sign", "boolean", "superboolean", "npq:2:3", "counting:5"):
            base = make_algebra(spec)
            doubled = make_doubled(base)
            assert characteristic(base) == characteristic(doubled)


class TestUniformPresentation:
    def test_sign_inf_is_quasizero_of_one(self):
        up = uniform_presentation(sign, lit(sign, "inf"))
        assert up == UniformPresentation(lit(sign, "1"), 2, "quasizero")

    def test_sign_tangible(self):
        up = uniform_presentation(sign, lit(sign, "-1"))
        assert up == UniformPresentation(lit(sign, "-1"), 1, "tangible")

    def test_superboolean_e_is_double_one(self):
        up = uniform_presentation(sb, lit(sb, "e"))
        assert up == UniformPresentation(lit(sb, "1"), 2, "multiple")

    def test_supertropical_ghost(self):
        up = uniform_presentation(st, st_ghost(3))
        assert up.base == st_tan(3) and up.multiplicity == 2

    def test_round_trip_everywhere(self):
        for alg in (sign, sb, db, make_algebra("minimal:second:3")):
            for c in alg.carrier:
                if c == alg.zero:
                    continue
                up = uniform_presentation(alg, c)
                if up.form == "quasizero":
                    assert circ(alg, up.base) == c
                else:
                    assert alg.scale_int(up.multiplicity, up.base) == c

    def test_non_metatangible_rejected(self):
        with pytest.raises(NotMetatangible):
            uniform_presentation(make_algebra("counting:5"), make_algebra("counting:5").one)


class TestAudit:
    def test_sign_flags(self):
        rep = axiom_audit(sign)
        assert rep.flags["a0_bipotent"]
        assert rep.flags["strict_second_kind"]
        assert rep.flags["almost_regular"]
        assert rep.flags["uniquely_negated"]
        assert not rep.sample_only

    def test_supertropical_flags(self):
        rep = axiom_audit(st)
        assert rep.flags["first_kind"]
        assert rep.flags["tropical_type"]
        assert rep.sample_only

    def test_minimal_second_kind_idempotent(self):
        rep = axiom_audit(make_algebra("minimal:second:3"))
        assert rep.flags["idempotent_addition"]
        assert rep.flags["a0_bipotent"]
        assert not rep.flags["uniquely_negated"]

    def test_boolean_lacks_property_n(self):
        rep = axiom_audit(make_algebra("boolean"))
        assert not rep.flags["property_n"]
        assert rep.flags["weakly_metatangible"]
        assert not rep.flags["metatangible"]

    def test_audit_carrier_cap_both_sides(self):
        at_cap = make_algebra(f"counting:{AUDIT_CARRIER_CAP - 1}")
        assert len(at_cap.carrier) == AUDIT_CARRIER_CAP
        assert axiom_audit(at_cap).flags["admissible"]
        for spec in (f"counting:{AUDIT_CARRIER_CAP}", "doubled:counting:5"):
            over = make_algebra(spec)
            assert len(over.carrier) > AUDIT_CARRIER_CAP
            with pytest.raises(CapExceeded, match="audit cap exceeded"):
                axiom_audit(over)

    def test_registered_pairs_fit_the_audit_cap(self):
        for alg in registered_instances():
            assert len(alg.carrier) <= AUDIT_CARRIER_CAP, alg.id
        for spec in ("hyper:hex2-c4", "krasner:17:1", "doubled:sign", "doubled:superboolean"):
            assert len(make_algebra(spec).carrier) <= AUDIT_CARRIER_CAP, spec

    def test_tangible_plus_null_covers_metatangible_carriers(self):
        for alg in (sign, sb, db):
            rep = axiom_audit(alg)
            assert rep.flags["metatangible"]
            nulls = [b for b in alg.carrier if alg.is_null(b)]
            cover = {alg.add(a, b) for a in alg.tangibles for b in nulls}
            cover |= set(alg.tangibles) | set(nulls)
            assert set(alg.carrier) <= cover
