"""The pair descriptor: immutability, capabilities given at construction,
element literals, and the size bounds checked before a pair is built."""

import inspect
import os
import pathlib
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as strat

import pairlin
from pairlin import core, instances
from pairlin.core import PairAlgebra, axiom_audit
from pairlin.instances import (
    CARRIER_CAP,
    BadSpecifier,
    make_algebra,
    make_counting,
    make_doubled,
    make_minimal,
    make_npq,
    registered_instances,
)

BASES = registered_instances() + [make_algebra("supertropical")]
PAIRS = BASES + [make_doubled(alg) for alg in BASES]
HYPERPAIRS = [alg for alg in registered_instances() if alg.surpass_rule is not None]


class TestImmutable:
    @pytest.mark.parametrize("alg", PAIRS, ids=lambda alg: alg.spec_string)
    def test_assignment_raises(self, alg):
        for name in ("one", "negation", "tangible_inverse", "base", "krasner_field", "fresh"):
            with pytest.raises(AttributeError):
                setattr(alg, name, None)
        with pytest.raises(AttributeError):
            del alg.one

    def test_kind_and_audit_memoised(self):
        alg = make_algebra("minimal:second:3")
        assert alg.kind() == alg.kind()
        assert axiom_audit(alg) is axiom_audit(alg)

    def test_traced_names_are_plain_functions(self):
        # the benchmark's tracer wraps these by name and skips non-functions
        for method in ("add", "mul", "check"):
            assert inspect.isfunction(getattr(PairAlgebra, method)), method
        assert inspect.isfunction(core.axiom_audit)
        assert inspect.isfunction(instances.make_algebra)


class TestCapabilities:
    def test_doubled_pairs_keyed_by_descriptor(self):
        # krasner:5:4 and krasner:5:1-4 are distinct descriptors of one pair
        first = make_doubled(make_algebra("krasner:5:4"))
        base = make_algebra("krasner:5:1-4")
        second = make_algebra("doubled:krasner:5:1-4")
        assert second.spec_string == "doubled:krasner:5:1-4"
        assert second.base is base
        assert first.base is make_algebra("krasner:5:4")
        assert make_doubled(base) is second

    def test_only_supertropical_is_max_plus(self):
        assert [alg.spec_string for alg in PAIRS if alg.max_plus] == ["supertropical"]

    def test_rules_where_enumeration_cannot_decide(self):
        st = make_algebra("supertropical")
        assert st.surpass_rule is not None and st.height_rule is not None
        assert make_doubled(st).surpass_rule is None
        for alg in HYPERPAIRS:
            assert alg.id.startswith(("hyper:", "krasner:"))
        assert len(HYPERPAIRS) == 6

    @pytest.mark.parametrize("alg", HYPERPAIRS + [make_algebra("krasner:13:3")],
                             ids=lambda alg: alg.spec_string)
    def test_hypernegation_equals_mask_table(self, alg):
        k = len(alg.tangibles) + 1
        table = negation_table(atom_negation(alg), k)
        for mask in range(1 << k):
            assert alg.negation(alg.el(mask)).payload == table[mask], mask
            assert alg.dagger(alg.el(mask)).payload == table[mask], mask

    def test_large_krasner_quotient_builds_fast(self):
        start = time.perf_counter()
        alg = make_algebra("krasner:61:1")
        assert time.perf_counter() - start < 1
        assert len(alg.carrier) == 61


def atom_negation(alg):
    """Atom -> atom of its negative, read off the field for Krasner quotients
    and off the atom names (g1+ <-> g1-) for the named hyperfields."""
    k = len(alg.tangibles) + 1
    if alg.krasner_field is not None:
        p, cosets = alg.krasner_field, alg.krasner_cosets
        return {
            i: next(j for j, c in enumerate(cosets) if (p - min(cosets[i])) % p in c)
            for i in range(k)
        }
    names = [alg.format_literal(alg.el(1 << i)) for i in range(k)]
    swap = str.maketrans("+-", "-+")
    return {i: names.index(name.translate(swap)) for i, name in enumerate(names)}


def negation_table(neg_atom_map, atom_count):
    """Elementwise negation of every atom subset, tabulated."""
    table = {}
    for mask in range(1 << atom_count):
        out = 0
        m, i = mask, 0
        while m:
            if m & 1:
                out |= 1 << neg_atom_map[i]
            m >>= 1
            i += 1
        table[mask] = out
    return table


class TestSizeBounds:
    @pytest.mark.parametrize("build, size", [
        (lambda s: make_counting(s - 1), "q + 1"),
        (lambda s: make_npq(s // 2, s - s // 2), "p + q"),
        (lambda s: make_minimal("first", s - 2), "n + 2"),
    ])
    def test_table_pairs_bounded(self, build, size):
        assert len(build(CARRIER_CAP).carrier) == CARRIER_CAP
        start = time.perf_counter()
        with pytest.raises(BadSpecifier, match="elements"):
            build(CARRIER_CAP + 1)
        assert time.perf_counter() - start < 0.1

    def test_counting_2000_refused_before_tables(self):
        start = time.perf_counter()
        with pytest.raises(BadSpecifier):
            make_algebra("counting:2000")
        assert time.perf_counter() - start < 0.1

    @pytest.mark.parametrize("spec", [
        "krasner:23:22", "krasner:61:11", "krasner:31:30", "krasner:61:60", "hyper:hex1-c9",
    ])
    def test_hyperpair_closure_bounded(self, spec):
        start = time.perf_counter()
        with pytest.raises(BadSpecifier, match="elements"):
            make_algebra(spec)
        assert time.perf_counter() - start < 1

    @pytest.mark.parametrize("spec, code, error", [
        # the base is checked before its doubled carrier is built
        ("doubled:doubled:krasner:61:1", 2, "doubled:krasner:61:1: more than 256 elements"),
        (
            "doubled:doubled:doubled:doubled:doubled:boolean",
            2,
            "doubled:doubled:doubled:doubled:boolean: more than 256 elements",
        ),
        # the atoms are counted before the k x k atom tables are built
        ("hyper:hex2-c1000", 2, "hyper:hex2-c1000: more than 256 elements"),
        ("hyper:hex1-c3000", 2, "hyper:hex1-c3000: more than 256 elements"),
        # a doubled carrier within the bound still builds; the audit refuses it
        (
            "doubled:krasner:13:3",
            3,
            "audit cap exceeded: doubled:krasner:13:1,3,9 has 441 elements, more than 32",
        ),
    ])
    def test_oversized_specifiers_exit_as_a_process(self, spec, code, error):
        src = str(pathlib.Path(pairlin.__file__).resolve().parent.parent)
        proc = subprocess.run(
            [sys.executable, "-m", "pairlin.cli", "audit", spec],
            capture_output=True,
            text=True,
            timeout=30,
            env=dict(os.environ, PYTHONPATH=src),
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (code, f"error: {error}\n", "")

    def test_cramer_doubles_a_doubled_matrix_pair(self, tmp_path):
        # the size check guards specifiers only: Cramer's rule doubles the
        # matrix's pair, here to 441^2 elements, and still answers
        path = tmp_path / "dk.txt"
        path.write_text("pair doubled:krasner:13:3\nrows 2\ncols 2\nc1|0 0|c2\nc4|0 c1|c7\n")
        src = str(pathlib.Path(pairlin.__file__).resolve().parent.parent)
        proc = subprocess.run(
            [sys.executable, "-m", "pairlin.cli", "solve", "cramer", str(path), "--rhs", "c1|0,0|c1"],
            capture_output=True,
            text=True,
            timeout=30,
            env=dict(os.environ, PYTHONPATH=src),
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            0, "w: c1|c7|c2|0,0|c1|c4|0\nbalance_verified: true\n", ""
        )

    def test_cramer_refuses_a_doubling_beyond_the_cap(self, tmp_path):
        # doubling doubled:krasner:61:1 would build 3721^2 elements
        path = tmp_path / "dk.txt"
        path.write_text("pair doubled:krasner:61:1\nrows 2\ncols 2\nc1|0 0|c2\nc4|0 c1|c7\n")
        src = str(pathlib.Path(pairlin.__file__).resolve().parent.parent)
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "pairlin.cli", "solve", "cramer", str(path), "--rhs", "c1|0,0|c1"],
            capture_output=True,
            text=True,
            timeout=30,
            env=dict(os.environ, PYTHONPATH=src),
        )
        assert time.perf_counter() - start < 5
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            3,
            "error: doubling cap exceeded: doubled:doubled:krasner:61:1 has 13845841 "
            "elements, more than 262144\n",
            "",
        )

    def test_registered_pairs_within_bound(self):
        for spec in ("krasner:17:1", "krasner:13:3", "krasner:13:12", "hyper:hex1-c6"):
            assert len(make_algebra(spec).carrier) <= CARRIER_CAP
        assert max(len(alg.carrier) for alg in registered_instances()) <= 25


LITERAL_PAIRS = BASES + [make_doubled(make_algebra("krasner:5:4"))]
KNOWN_TOKENS = sorted({
    alg.format_literal(e) for alg in LITERAL_PAIRS for e in alg.carrier_sample()
})
TOKENS = strat.one_of(
    strat.sampled_from(KNOWN_TOKENS),
    strat.text(alphabet="0123456789-+/.eEginfct{},| ", max_size=12),
    strat.text(max_size=8),
)


class TestLiterals:
    @settings(max_examples=600, deadline=None)
    @given(alg=strat.sampled_from(LITERAL_PAIRS), token=TOKENS)
    def test_parse_format_round_trip(self, alg, token):
        try:
            e = alg.parse_literal(token)
        except BadSpecifier:
            return
        assert alg.parse_literal(alg.format_literal(e)) == e

    @pytest.mark.parametrize("token", ["zz", "{g0", "{g0,zz}", "g9"])
    def test_powerset_unknown_atoms(self, token):
        with pytest.raises(BadSpecifier):
            make_algebra("powerset-symdiff:2").parse_literal(token)
