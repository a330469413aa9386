"""Property suites for the rank and solver theorems beyond the acceptance gate."""

import itertools
import random

import pytest

from pairlin import (
    El,
    PairAlgebra,
    balances,
    entry_ratio_domain,
    exact_domain,
    find_dependence,
    is_singular,
    make_algebra,
    matrix,
    st_tan,
    surpasses0,
)
from pairlin.core import Undecidable, characteristic
from test_matrices import det_signed
from pairlin.suites import rand_supertropical_matrix

sign = make_algebra("sign")
st = make_algebra("supertropical")


class TestA1OverSign:
    def test_dependent_implies_singular_exhaustive(self):
        # Condition A1 on 2x2: exhaustive over tangible-or-zero entries
        dom = exact_domain(sign)
        t0 = (sign.zero,) + sign.tangibles
        for quad in itertools.product(t0, repeat=4):
            a = matrix(sign, [quad[0:2], quad[2:4]])
            if find_dependence(list(a.entries), dom, sign) is not None:
                assert is_singular(a)

    def test_dependent_implies_singular_3x3_sample(self):
        rng = random.Random(31)
        dom = exact_domain(sign)
        t0 = (sign.zero,) + sign.tangibles
        for _ in range(400):
            a = matrix(
                sign, [[rng.choice(t0) for _ in range(3)] for _ in range(3)]
            )
            if find_dependence(list(a.entries), dom, sign) is not None:
                assert is_singular(a)


class TestTwoRowMatrices:
    def test_two_by_m_minors_singular_implies_dependent(self):
        # A2 for tangible 2xm matrices over a negated A0-bipotent pair
        dom = exact_domain(sign)
        t0 = (sign.zero,) + sign.tangibles
        for entries in itertools.product(t0, repeat=6):
            a = matrix(sign, [entries[0:3], entries[3:6]])
            minors_singular = all(
                is_singular(a.submatrix((0, 1), cols))
                for cols in itertools.combinations(range(3), 2)
            )
            if minors_singular:
                assert find_dependence(list(a.entries), dom, sign) is not None


class TestWideMatrixMinors:
    def test_minors_singular_implies_dependent_supertropical(self):
        # first kind, tropical type: dependent-by-construction m x n matrices
        # have every m x m minor singular, and the search recovers a witness
        rng = random.Random(32)
        for _ in range(120):
            m = rng.choice((2, 3))
            n = rng.randint(m, 5)
            rows = [
                [st_tan(rng.randint(-9, 9)) for _ in range(n)]
                for _ in range(m - 1)
            ]
            coeffs = [st_tan(rng.randint(-4, 4)) for _ in range(m - 1)]
            last = [
                st.sum(st.mul(c, r[j]) for c, r in zip(coeffs, rows))
                for j in range(n)
            ]
            a = matrix(st, rows + [last])
            for cols in itertools.combinations(range(n), m):
                assert is_singular(a.submatrix(tuple(range(m)), cols))
            dom = entry_ratio_domain(st, list(a.entries))
            assert find_dependence(list(a.entries), dom, st) is not None


class TestDetProductSurpass:
    def test_projected_determinant_surpassed_by_product_matrix(self):
        # |A||B| <=_0 |AB| in the base, over pairs with their own negation
        rng = random.Random(33)
        for _ in range(150):
            a = rand_supertropical_matrix(rng, 3, tangible=False)
            b = rand_supertropical_matrix(rng, 3, tangible=False)
            lhs = st.mul(det_signed(a), det_signed(b))
            rhs = det_signed(
                matrix(
                    st,
                    [
                        [
                            st.sum(st.mul(a[i, k], b[k, j]) for k in range(3))
                            for j in range(3)
                        ]
                        for i in range(3)
                    ],
                )
            )
            assert surpasses0(st, lhs, rhs)

    def test_sign_exhaustive_2x2(self):
        for ea in itertools.product(sign.carrier, repeat=4):
            for eb in itertools.product(sign.tangibles, repeat=4):
                a = matrix(sign, [ea[0:2], ea[2:4]])
                b = matrix(sign, [eb[0:2], eb[2:4]])
                ab = matrix(
                    sign,
                    [
                        [
                            sign.sum(sign.mul(a[i, k], b[k, j]) for k in range(2))
                            for j in range(2)
                        ]
                        for i in range(2)
                    ],
                )
                assert surpasses0(
                    sign, sign.mul(det_signed(a), det_signed(b)), det_signed(ab)
                )


class TestBreadthAcrossPairs:
    def test_a1_exhaustive_over_small_metatangible_pairs(self):
        # dependent rows force singularity wherever a modulus exists
        for spec in ("superboolean", "minimal:first:2", "minimal:second:2"):
            alg = make_algebra(spec)
            dom = exact_domain(alg)
            t0 = (alg.zero,) + alg.tangibles
            for quad in itertools.product(t0, repeat=4):
                a = matrix(alg, [quad[0:2], quad[2:4]])
                if find_dependence(list(a.entries), dom, alg) is not None:
                    assert is_singular(a), (spec, quad)

    def test_cayley_hamilton_exhaustive_over_small_negated_pairs(self):
        from pairlin import cayley_hamilton_check

        for spec in ("superboolean", "minimal:first:2", "minimal:second:2"):
            alg = make_algebra(spec)
            for quad in itertools.product(alg.carrier, repeat=4):
                a = matrix(alg, [quad[0:2], quad[2:4]])
                assert cayley_hamilton_check(a), (spec, quad)

    def test_laplace_on_second_kind_sample(self):
        from pairlin import laplace_expand
        from pairlin.matrices import det_doubled as dd

        rng = random.Random(41)
        alg = make_algebra("doubled:boolean")
        for _ in range(200):
            a = matrix(
                alg, [[rng.choice(alg.carrier) for _ in range(3)] for _ in range(3)]
            )
            d = dd(a)
            for size in (1, 2):
                for rows in itertools.combinations(range(3), size):
                    l = laplace_expand(a, rows)
                    assert (l.det_plus, l.det_minus) == (d.det_plus, d.det_minus)

    def test_quasi_inverse_over_doubled_boolean(self):
        from pairlin import identity as ident, quasi_inverse

        alg = make_algebra("doubled:boolean")
        out = quasi_inverse(ident(alg, 2))
        assert out.verified
        assert out.a_prime.entries == ident(alg, 2).entries


class TestVerdictStabilityAcrossSeeds:
    def test_randomized_suites_verdict_stable(self):
        from pairlin import suites

        for seed in (1, 2, 3, 4, 5):
            assert suites.suite_laplace(seed=seed, n_random=40).passed
            assert suites.suite_cramer(seed=seed, n_random=40).passed
            assert suites.suite_jacobi(seed=seed, n_random=30).passed
            assert suites.suite_singular_3x3_dependence(seed=seed, n_random=15).passed


class TestNegativeControls:
    def test_corrupted_sign_addition_fails_audit(self):
        from pairlin.core import axiom_audit
        from pairlin.instances import make_sign_pair, _table_pair

        atoms = ("0", "1", "-1", "inf")
        good = make_sign_pair()
        add_table = {
            (x, y): good.add(El(good.id, x), El(good.id, y)).payload
            for x in atoms
            for y in atoms
        }
        mul_table = {
            (x, y): good.mul(El(good.id, x), El(good.id, y)).payload
            for x in atoms
            for y in atoms
        }
        add_table[("1", "-1")] = "1"  # breaks commutativity with (-1, 1)
        bad = _table_pair(
            "sign-corrupt", atoms, add_table, mul_table,
            tangible={"1", "-1"}, null={"0", "inf"}, zero="0", one="1",
        )
        rep = axiom_audit(bad)
        assert not rep.flags["admissible"]

    def test_balance_undecidable_without_negation(self):
        # second kind, infinite tangibles, no negation map: explicit error
        stub = PairAlgebra(
            id="stub",
            zero=El("stub", 0),
            one=El("stub", 1),
            add=lambda a, b: El("stub", a.payload + b.payload),
            mul=lambda a, b: El("stub", a.payload * b.payload),
            is_tangible=lambda a: a.payload > 0,
            is_null=lambda a: a.payload == 0,
            declared_kind="second",
            sample=(El("stub", 0), El("stub", 1), El("stub", 2)),
        )
        with pytest.raises(Undecidable):
            balances(stub, El("stub", 1), El("stub", 2))

    def test_characteristic_cap_reports_zero(self):
        nat = PairAlgebra(
            id="nat",
            zero=El("nat", 0),
            one=El("nat", 1),
            add=lambda a, b: El("nat", a.payload + b.payload),
            mul=lambda a, b: El("nat", a.payload * b.payload),
            is_tangible=lambda a: a.payload == 1,
            is_null=lambda a: a.payload == 0,
        )
        prof = characteristic(nat, cap=50)
        assert prof.kind == "zero" and prof.capped
