"""Constructors for the concrete pairs and their paper-asserted structure."""

import itertools
import random
from fractions import Fraction

import pytest

from pairlin import axiom_audit, make_algebra, make_doubled, st_ghost, st_tan
from pairlin.cli import run_command
from pairlin.core import circ
from pairlin import instances
from pairlin.instances import (
    CARRIER_CAP,
    BadSpecifier,
    embed_doubled,
    make_hex,
    make_krasner,
    make_weak_sign,
    project_doubled,
)


class TestSignPair:
    alg = make_algebra("sign")

    def test_addition_table(self):
        l = self.alg.parse_literal
        assert self.alg.add(l("1"), l("-1")) == l("inf")
        assert self.alg.add(l("1"), l("1")) == l("1")
        assert self.alg.add(l("inf"), l("1")) == l("inf")
        assert self.alg.add(l("0"), l("-1")) == l("-1")

    def test_multiplication_table(self):
        l = self.alg.parse_literal
        assert self.alg.mul(l("-1"), l("-1")) == l("1")
        assert self.alg.mul(l("inf"), l("-1")) == l("inf")
        assert self.alg.mul(l("inf"), l("0")) == l("0")


class TestSupertropical:
    alg = make_algebra("supertropical")

    def test_equal_values_ghost(self):
        assert self.alg.add(st_tan(2), st_tan(2)) == st_ghost(2)

    def test_larger_value_wins_with_layer(self):
        assert self.alg.add(st_tan(5), st_ghost(3)) == st_tan(5)
        assert self.alg.add(st_ghost(5), st_tan(3)) == st_ghost(5)

    def test_ghost_absorbs_in_products(self):
        assert self.alg.mul(st_tan(2), st_ghost(3)) == st_ghost(5)

    def test_exact_rationals(self):
        a = st_tan(Fraction(1, 3))
        b = st_tan(Fraction(2, 3))
        assert self.alg.mul(a, b) == st_tan(1)

    def test_literals_round_trip(self):
        for s in ("-inf", "0", "5", "-7/2", "5g", "-7/2g"):
            assert self.alg.format_literal(self.alg.parse_literal(s)) == s

    def test_ghost_map_is_a_modulus(self):
        rng = random.Random(7)
        for _ in range(200):
            a = st_tan(Fraction(rng.randint(-9, 9), rng.randint(1, 3)))
            b = st_ghost(Fraction(rng.randint(-9, 9), rng.randint(1, 3)))
            mu = self.alg.modulus
            assert mu(self.alg.mul(a, b)) == mu(a).mul(mu(b))
            assert mu(self.alg.add(a, b)) == max(mu(a), mu(b))


class TestDoubled:
    base = make_algebra("boolean")
    alg = make_algebra("doubled:boolean")

    def test_twist_product(self):
        l = self.alg.parse_literal
        assert self.alg.mul(l("1|0"), l("0|1")) == l("0|1")
        assert self.alg.mul(l("0|1"), l("0|1")) == l("1|0")

    def test_one_plus_switch_one_is_null(self):
        l = self.alg.parse_literal
        s = self.alg.add(l("1|0"), l("0|1"))
        assert s == l("1|1")
        assert self.alg.is_null(s)

    def test_embedding_preserves_products(self):
        for a in self.base.carrier:
            for b in self.base.carrier:
                lhs = embed_doubled(self.alg, self.base.mul(a, b))
                rhs = self.alg.mul(
                    embed_doubled(self.alg, a), embed_doubled(self.alg, b)
                )
                assert lhs == rhs

    def test_second_kind_with_switch_negation(self):
        assert self.alg.kind() == "second"
        rep = axiom_audit(self.alg)
        assert rep.flags["uniquely_negated"]
        assert rep.flags["metatangible"]

    def test_quasi_zeros_fill_null_layer(self):
        # lemma sw: the quasi-zeros of the doubled pair are its null layer
        quasi = {circ(self.alg, a) for a in self.alg.tangibles} | {self.alg.zero}
        nulls = {b for b in self.alg.carrier if self.alg.is_null(b)}
        assert quasi == nulls

    def test_projection_needs_negation(self):
        dst = make_doubled(make_algebra("supertropical"))
        e = embed_doubled(dst, st_tan(3))
        assert project_doubled(dst, e) == st_tan(3)


class TestSpecials:
    def test_superboolean_absorbing_e(self):
        alg = make_algebra("superboolean")
        l = alg.parse_literal
        assert alg.add(l("1"), l("1")) == l("e")
        assert alg.add(l("e"), l("1")) == l("e")

    def test_minimal_second_kind_addition(self):
        alg = make_algebra("minimal:second:3")
        a, b = alg.tangibles[0], alg.tangibles[1]
        assert alg.add(a, a) == a
        assert alg.add(a, b) == alg.parse_literal("inf")

    def test_minimal_first_kind_addition(self):
        alg = make_algebra("minimal:first:2")
        a = alg.tangibles[0]
        assert alg.add(a, a) == alg.parse_literal("inf")

    def test_counting_clips(self):
        alg = make_algebra("counting:5")
        l = alg.parse_literal
        assert alg.add(l("3"), l("4")) == l("5")
        assert alg.add(l("5"), l("1")) == l("5")
        assert alg.mul(l("3"), l("4")) == l("5")

    def test_npq_wraparound(self):
        alg = make_algebra("npq:2:3")
        l = alg.parse_literal
        assert alg.add(l("4"), l("1")) == l("3")

    def test_bad_specifiers(self):
        for spec in ("nope", "counting:1", "minimal:third:2", "krasner:6:5",
                     "hyper:hex9-c2", "minimal:second:1"):
            with pytest.raises(BadSpecifier):
                make_algebra(spec)

    def test_zero_generator_not_a_subgroup(self):
        from pairlin.instances import NotASubgroup, make_krasner

        with pytest.raises(NotASubgroup):
            make_krasner(5, [0])


class TestHyperpairs:
    def test_krasner_f5_one_plus_one_contains_zero(self):
        alg = make_algebra("krasner:5:4")
        s = alg.add(alg.one, alg.one)
        assert alg.is_null(s)

    def test_krasner_f7_second_kind(self):
        alg = make_algebra("krasner:7:2")
        assert alg.kind() == "second"
        assert make_algebra("krasner:5:4").kind() == "first"

    def test_krasner_hyperaddition_associative(self):
        for spec in ("krasner:5:4", "krasner:7:2"):
            alg = make_algebra(spec)
            atoms = [a for a in alg.carrier if bin(a.payload).count("1") == 1]
            for a, b, c in itertools.product(atoms, repeat=3):
                assert alg.add(alg.add(a, b), c) == alg.add(a, alg.add(b, c))

    def test_hex_hyperaddition_associative(self):
        for spec in ("hyper:hex1-c2", "hyper:hex1-c3", "hyper:hex2-c4"):
            alg = make_algebra(spec)
            atoms = [a for a in alg.carrier if bin(a.payload).count("1") == 1]
            for a, b, c in itertools.product(atoms, repeat=3):
                assert alg.add(alg.add(a, b), c) == alg.add(a, alg.add(b, c))

    def test_hex2_small_groups_rejected(self):
        with pytest.raises(BadSpecifier):
            make_algebra("hyper:hex2-c3")

    def test_hex1_self_sum(self):
        alg = make_algebra("hyper:hex1-c3")
        a = alg.tangibles[0]
        s = alg.add(a, a)
        # a + a = H minus {a}
        assert alg.is_null(s)
        assert not (s.payload & a.payload)
        assert bin(s.payload).count("1") == 3

    def test_symdiff_self_cancels(self):
        alg = make_algebra("powerset-symdiff:2")
        g = alg.parse_literal("g0")
        assert alg.add(g, g) == alg.zero
        assert alg.kind() == "first"

    def test_weaksign_is_admissible(self):
        rep = axiom_audit(make_algebra("hyper:weaksign-c2"))
        assert rep.flags["admissible"]

    def test_hyper_literals(self):
        alg = make_algebra("krasner:5:4")
        e = alg.parse_literal("{0,c1}")
        assert alg.is_null(e)
        assert alg.format_literal(alg.parse_literal("c2")) == "c2"


class TestAuditsAcrossRegistry:
    def test_every_registered_instance_is_admissible(self):
        from pairlin import registered_instances

        for alg in registered_instances():
            rep = axiom_audit(alg)
            assert rep.flags["admissible"], (alg.id, rep.witnesses.get("admissible"))

    def test_sign_isomorphic_to_doubled_boolean(self):
        sign = make_algebra("sign")
        db = make_algebra("doubled:boolean")
        b0, b1 = db.base.zero, db.base.one
        iso = {"-1": (b0, b1), "0": (b0, b0), "1": (b1, b0), "inf": (b1, b1)}
        f = lambda x: db.el(iso[x.payload])
        for x in sign.carrier:
            assert sign.is_tangible(x) == db.is_tangible(f(x))
            assert sign.is_null(x) == db.is_null(f(x))
            for y in sign.carrier:
                assert f(sign.add(x, y)) == db.add(f(x), f(y))
                assert f(sign.mul(x, y)) == db.mul(f(x), f(y))


# The three named pairs and their doubles, pinned literal by literal as the
# hand-written tables built them, before they became members of the minimal
# and N_{p,q} families: carrier and tangibles; the tables as one row of
# carrier indices (hex digits) per element; dagger and tangible inverses
# over the tangibles; negation and modulus values over the carrier; the
# declared kind and the one kind() settles on; one bad literal and its
# error; and the `pairlin audit` lines: the flags in order, a false one
# marked "-", then every other line.
NAMED_PAIRS = {
    "sign": dict(
        carrier='0 1 -1 inf',
        tangibles='1 -1',
        add=('0123', '1133', '2323', '3333'),
        mul=('0000', '0123', '0213', '0333'),
        dagger='-1 1',
        negation='0 -1 1 inf',
        modulus='None 0 0 0',
        kinds=('second', 'second'),
        inverses='1 -1',
        bad=('2', "sign: unknown element literal '2'"),
        flags=(
            'a0_bipotent admissible almost_regular circ_reversible distributive '
            'e_idempotent -first_kind idempotent_addition lzs metatangible n_transitive '
            'negation_involutive property_n second_kind strict_second_kind '
            'tangible_summand tropical_type two_final uniquely_negated '
            'weakly_metatangible'
        ),
        notes=('witness_dagger_multiplicity: 1', 'sample_only: false', 'audit_elements: 4'),
    ),
    "boolean": dict(
        carrier='0 1',
        tangibles='1',
        add=('01', '11'),
        mul=('00', '01'),
        dagger=None,
        negation=None,
        modulus=None,
        kinds=('unknown', 'second'),
        inverses='1',
        bad=('2', "boolean: unknown element literal '2'"),
        flags=(
            '-a0_bipotent admissible -almost_regular -circ_reversible distributive '
            '-e_idempotent -first_kind idempotent_addition lzs -metatangible n_transitive'
            ' -property_n second_kind strict_second_kind tangible_summand -tropical_type '
            '-two_final -uniquely_negated weakly_metatangible'
        ),
        notes=(
            'witness_almost_regular: needs Property N',
            'witness_circ_reversible: needs Property N', 'witness_dagger_multiplicity: 0',
            'witness_e_idempotent: needs Property N',
            'witness_property_n: no dagger registered',
            'witness_tropical_type: needs Property N',
            'witness_two_final: needs Property N',
            "witness_uniquely_negated: El(boolean:'1') has 0 negation partners",
            'sample_only: false', 'audit_elements: 2',
        ),
    ),
    "superboolean": dict(
        carrier='0 1 e',
        tangibles='1',
        add=('012', '122', '222'),
        mul=('000', '012', '022'),
        dagger='1',
        negation='0 1 e',
        modulus='None 0 0',
        kinds=('first', 'first'),
        inverses='1',
        bad=('2', "superboolean: unknown element literal '2'"),
        flags=(
            'a0_bipotent admissible almost_regular circ_reversible distributive '
            'e_idempotent first_kind -idempotent_addition lzs metatangible n_transitive '
            'negation_involutive property_n -second_kind -strict_second_kind '
            'tangible_summand tropical_type two_final uniquely_negated '
            'weakly_metatangible'
        ),
        notes=('witness_dagger_multiplicity: 1', 'sample_only: false', 'audit_elements: 3'),
    ),
    "doubled:sign": dict(
        carrier=(
            '0|0 0|1 0|-1 0|inf 1|0 1|1 1|-1 1|inf -1|0 -1|1 -1|-1 -1|inf inf|0 inf|1 '
            'inf|-1 inf|inf'
        ),
        tangibles='0|1 0|-1 1|0 -1|0',
        add=(
            '0123456789abcdef', '1133557799bbddff', '23236767ababefef', '33337777bbbbffff',
            '45674567cdefcdef', '55775577ddffddff', '67676767efefefef', '77777777ffffffff',
            '89abcdef89abcdef', '99bbddff99bbddff', 'ababefefababefef', 'bbbbffffbbbbffff',
            'cdefcdefcdefcdef', 'ddffddffddffddff', 'efefefefefefefef', 'ffffffffffffffff',
        ),
        mul=(
            '0000000000000000', '048c159d26ae37bf', '084c2a6e195d3b7f', '0ccc3fff3fff3fff',
            '0123456789abcdef', '05af55ffafafffff', '096f6f6f99ffffff', '0def7fffbfffffff',
            '02138a9b4657cedf', '069f9f9f66ffffff', '0a5faaff5f5fffff', '0edfbfff7fffffff',
            '0333cfffcfffcfff', '07bfdfffefffffff', '0b7fefffdfffffff', '0fffffffffffffff',
        ),
        dagger='1|0 -1|0 0|1 0|-1',
        negation=(
            '0|0 1|0 -1|0 inf|0 0|1 1|1 -1|1 inf|1 0|-1 1|-1 -1|-1 inf|-1 0|inf 1|inf '
            '-1|inf inf|inf'
        ),
        modulus='None 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0',
        kinds=('second', 'second'),
        inverses='0|1 0|-1 1|0 -1|0',
        bad=('1|2', "sign: unknown element literal '2'"),
        flags=(
            '-a0_bipotent admissible -almost_regular -circ_reversible distributive '
            '-e_idempotent -first_kind idempotent_addition lzs -metatangible '
            '-n_transitive negation_involutive -property_n second_kind '
            '-strict_second_kind tangible_summand -tropical_type -two_final '
            '-uniquely_negated weakly_metatangible'
        ),
        notes=(
            'witness_almost_regular: needs Property N',
            'witness_circ_reversible: needs Property N', 'witness_dagger_multiplicity: 3',
            'witness_e_idempotent: needs Property N',
            (
                "witness_n_transitive: El(doubled:sign:(El(sign:'0'), "
                "El(sign:'1'))),El(doubled:sign:(El(sign:'0'), "
                "El(sign:'-1'))),El(doubled:sign:(El(sign:'1'), "
                "El(sign:'0'))),El(doubled:sign:(El(sign:'0'), El(sign:'1')))"
            ),
            (
                "witness_property_n: null sum El(doubled:sign:(El(sign:'0'), "
                "El(sign:'1')))+El(doubled:sign:(El(sign:'0'), El(sign:'-1'))) is not a "
                'quasi-zero'
            ),
            (
                "witness_strict_second_kind: El(doubled:sign:(El(sign:'0'), "
                "El(sign:'1'))) nabla El(doubled:sign:(El(sign:'0'), El(sign:'-1'))) with"
                ' null sum'
            ),
            'witness_tropical_type: needs Property N',
            'witness_two_final: needs Property N',
            (
                "witness_uniquely_negated: El(doubled:sign:(El(sign:'0'), El(sign:'1'))) "
                'has 3 negation partners'
            ),
            'sample_only: false', 'audit_elements: 16',
        ),
    ),
    "doubled:boolean": dict(
        carrier='0|0 0|1 1|0 1|1',
        tangibles='0|1 1|0',
        add=('0123', '1133', '2323', '3333'),
        mul=('0000', '0213', '0123', '0333'),
        dagger='1|0 0|1',
        negation='0|0 1|0 0|1 1|1',
        modulus=None,
        kinds=('second', 'second'),
        inverses='0|1 1|0',
        bad=('1|2', "boolean: unknown element literal '2'"),
        flags=(
            'a0_bipotent admissible almost_regular circ_reversible distributive '
            'e_idempotent -first_kind idempotent_addition lzs metatangible n_transitive '
            'negation_involutive property_n second_kind strict_second_kind '
            'tangible_summand tropical_type two_final uniquely_negated '
            'weakly_metatangible'
        ),
        notes=('witness_dagger_multiplicity: 1', 'sample_only: false', 'audit_elements: 4'),
    ),
    "doubled:superboolean": dict(
        carrier='0|0 0|1 0|e 1|0 1|1 1|e e|0 e|1 e|e',
        tangibles='0|1 1|0',
        add=(
            '012345678', '122455788', '222555888', '345678678', '455788788', '555888888',
            '678678678', '788788788', '888888888',
        ),
        mul=(
            '000000000', '036147258', '066288288', '012345678', '048488888', '078588888',
            '022688688', '058788888', '088888888',
        ),
        dagger='1|0 0|1',
        negation='0|0 1|0 e|0 0|1 1|1 e|1 0|e 1|e e|e',
        modulus='None 0 0 0 0 0 0 0 0',
        kinds=('second', 'second'),
        inverses='0|1 1|0',
        bad=('1|2', "superboolean: unknown element literal '2'"),
        flags=(
            '-a0_bipotent admissible -almost_regular -circ_reversible distributive '
            '-e_idempotent -first_kind -idempotent_addition lzs -metatangible '
            'n_transitive negation_involutive -property_n second_kind -strict_second_kind'
            ' tangible_summand -tropical_type -two_final -uniquely_negated '
            'weakly_metatangible'
        ),
        notes=(
            'witness_almost_regular: needs Property N',
            'witness_circ_reversible: needs Property N', 'witness_dagger_multiplicity: 2',
            'witness_e_idempotent: needs Property N',
            (
                'witness_property_n: null sum '
                "El(doubled:superboolean:(El(superboolean:'0'), "
                "El(superboolean:'1')))+El(doubled:superboolean:(El(superboolean:'0'), "
                "El(superboolean:'1'))) is not a quasi-zero"
            ),
            (
                'witness_strict_second_kind: '
                "El(doubled:superboolean:(El(superboolean:'0'), El(superboolean:'1'))) "
                "nabla El(doubled:superboolean:(El(superboolean:'0'), "
                "El(superboolean:'1'))) with null sum"
            ),
            'witness_tropical_type: needs Property N',
            'witness_two_final: needs Property N',
            (
                "witness_uniquely_negated: El(doubled:superboolean:(El(superboolean:'0'),"
                " El(superboolean:'1'))) has 2 negation partners"
            ),
            "warning_0: declared kind 'second' but detected 'first'", 'sample_only: false',
            'audit_elements: 9',
        ),
    ),
}


def index_table(alg, op):
    index = {e: f"{i:x}" for i, e in enumerate(alg.carrier)}
    return tuple("".join(index[op(x, y)] for y in alg.carrier) for x in alg.carrier)


@pytest.mark.parametrize("spec", NAMED_PAIRS)
def test_named_pairs_keep_their_descriptors(spec, capsys):
    want = NAMED_PAIRS[spec]
    alg = make_algebra(spec)
    fmt, ts = alg.format_literal, alg.tangibles

    def join(xs):
        return " ".join(map(fmt, xs))

    got = dict(
        carrier=join(alg.carrier),
        tangibles=join(ts),
        add=index_table(alg, alg.add),
        mul=index_table(alg, alg.mul),
        dagger=alg.dagger and join(map(alg.dagger, ts)),
        negation=alg.negation and join(map(alg.negation, alg.carrier)),
        modulus=alg.modulus and " ".join(str(alg.modulus(x).value) for x in alg.carrier),
        kinds=(alg.declared_kind, alg.kind()),
        inverses=join(map(alg.tangible_inverse, ts)),
    )
    assert got == {k: want[k] for k in got}
    for e in alg.carrier:
        assert alg.parse_literal(fmt(e)) == e
    bad, error = want["bad"]
    with pytest.raises(BadSpecifier) as exc:
        alg.parse_literal(bad)
    assert str(exc.value) == error
    assert run_command(["audit", spec]) == 0
    flags = [f"{f.lstrip('-')}: {str(f[0] != '-').lower()}" for f in want["flags"].split()]
    assert capsys.readouterr().out.splitlines() == [f"pair: {spec}", *flags, *want["notes"]]


@pytest.mark.parametrize(
    "spec",
    [f"minimal:first:{n}" for n in range(1, 7)] + [f"minimal:second:{n}" for n in range(2, 7)],
)
def test_minimal_pairs_declare_unique_negation_as_audited(spec):
    # one null-sum partner per tangible: n = 1 of the first kind, n = 2 of
    # the second
    alg = make_algebra(spec)
    assert alg.negation_unique == axiom_audit(alg).flags["uniquely_negated"]


def test_declared_unique_negation_holds_on_every_registered_pair():
    from pairlin import registered_instances

    declared = [alg for alg in registered_instances() if alg.negation_unique]
    assert {"sign", "superboolean", "doubled:boolean"} <= {alg.id for alg in declared}
    for alg in declared:
        assert axiom_audit(alg).flags["uniquely_negated"], alg.id


def distributes(alg):
    """Exhaustive two-sided scan of a(b+c) = ab+ac and (b+c)a = ba+ca."""
    add, mul = alg.add, alg.mul
    for a, b, c in itertools.product(alg.carrier, repeat=3):
        s = add(b, c)
        if mul(a, s) != add(mul(a, b), mul(a, c)):
            return False
        if mul(s, a) != add(mul(b, a), mul(c, a)):
            return False
    return True


class TestDistributiveDeclarations:
    def test_declared_flag_matches_exhaustive_scan(self):
        from pairlin import registered_instances

        extra = ("counting:3", "npq:3:1", "powerset-symdiff:4", "doubled:sign",
                 "hyper:hex1-c4", "doubled:hyper:hex1-c2")
        for alg in registered_instances() + [make_algebra(s) for s in extra]:
            assert alg.distributive == distributes(alg), alg.id

    def test_hyperpair_counterexample(self):
        alg = make_algebra("hyper:hex1-c3")
        l = alg.parse_literal
        a, b, c = l("{g0,g1}"), l("g1"), l("g2")
        assert alg.mul(a, alg.add(b, c)) != alg.add(alg.mul(a, b), alg.mul(a, c))

    def test_doubling_keeps_the_flag(self):
        for spec in ("sign", "supertropical", "hyper:hex1-c2", "krasner:5:4"):
            base = make_algebra(spec)
            assert make_doubled(base).distributive is base.distributive


def atoms(mask):
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


class TestClosurePairOperations:
    specs = ("krasner:5:4", "krasner:7:2", "krasner:13:3", "hyper:hex1-c2",
             "hyper:hex1-c3", "hyper:hex2-c4", "hyper:weaksign-c2")

    def test_sets_combine_atomwise(self):
        # the bitwise definition: S op T is the union of s op t over atoms
        for spec in self.specs:
            alg = make_algebra(spec)
            for op in (alg.add, alg.mul):
                for x in alg.carrier:
                    for y in alg.carrier:
                        want = 0
                        for i in atoms(x.payload):
                            for j in atoms(y.payload):
                                want |= op(alg.el(1 << i), alg.el(1 << j)).payload
                        assert op(x, y).payload == want, (spec, x, y)

    def test_krasner_atoms_follow_field_arithmetic(self):
        for spec in ("krasner:5:4", "krasner:7:2", "krasner:13:3"):
            alg = make_algebra(spec)
            p, cosets = alg.krasner_field, alg.krasner_cosets
            coset_of = {r: i for i, c in enumerate(cosets) for r in c}
            for i, ci in enumerate(cosets):
                for j, cj in enumerate(cosets):
                    x, y = alg.el(1 << i), alg.el(1 << j)
                    sums = {coset_of[(a + b) % p] for a in ci for b in cj}
                    assert alg.add(x, y).payload == sum(1 << s for s in sums)
                    prod = coset_of[min(ci) * min(cj) % p]
                    assert alg.mul(x, y).payload == 1 << prod


def pairwise_closure(alg):
    """The hyperpair carrier as the closure over every pair of members: each
    new set joins every member by ⊞ and every atom by product."""
    singles = [1 << i for i in range(len(alg.tangibles) + 1)]
    seen = set(singles)
    frontier = list(singles)
    while frontier:
        nxt = []
        for m1 in frontier:
            for m2 in sorted(seen):
                cand = [alg.add(alg.el(m1), alg.el(m2)).payload]
                if m2 in singles:
                    cand.append(alg.mul(alg.el(m2), alg.el(m1)).payload)
                for m in cand:
                    if m not in seen:
                        seen.add(m)
                        nxt.append(m)
        frontier = nxt
    return sorted(seen)


def one_generator_krasners(pmax):
    for p in range(2, pmax + 1):
        if all(p % d for d in range(2, p)):
            yield from ((p, g) for g in range(1, p))


class TestCarrierClosure:
    # every one-generator Krasner quotient up to F_17 and the small named
    # hyperfields, as (specifier, constructor); the carriers over the cap
    # have few enough atoms for the oracle to close them under a raised cap
    SWEEP = [
        *((f"krasner:{p}:{g}", lambda p=p, g=g: make_krasner(p, [g]))
          for p, g in one_generator_krasners(17)),
        *((f"hyper:hex1-c{n}", lambda n=n: make_hex(1, n)) for n in range(2, 9)),
        *((f"hyper:hex2-c{n}", lambda n=n: make_hex(2, n)) for n in range(4, 13)),
        *((f"hyper:weaksign-c{n}", lambda n=n: make_weak_sign(n)) for n in range(1, 8)),
    ]
    OVER_CAP = ("krasner:17:16", "hyper:hex1-c8")

    def test_atom_steps_equal_the_pairwise_closure(self):
        checked = 0
        for spec, build in self.SWEEP:
            if spec not in self.OVER_CAP:
                alg = build()
                assert [e.payload for e in alg.carrier] == pairwise_closure(alg), spec
                checked += 1
        assert checked == len(self.SWEEP) - len(self.OVER_CAP)

    @pytest.mark.parametrize("spec", OVER_CAP)
    def test_refused_carriers_pass_the_cap_in_the_oracle(self, spec, monkeypatch):
        with pytest.raises(BadSpecifier, match=f"^{spec}: more than {CARRIER_CAP} elements$"):
            make_algebra(spec)
        monkeypatch.setattr(instances, "CARRIER_CAP", 1 << 12)
        alg = dict(self.SWEEP)[spec]()
        carrier = [e.payload for e in alg.carrier]
        assert len(carrier) > CARRIER_CAP
        assert carrier == pairwise_closure(alg)
