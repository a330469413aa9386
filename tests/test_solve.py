"""Cramer and Jacobi solvers over pairs with a modulus."""

import itertools
import random

import pytest

import pairlin.matrices as matrices_mod
from pairlin import (
    CapExceeded,
    balances,
    cramer_solve,
    dominant_structure,
    identity,
    jacobi_solve,
    make_algebra,
    mat_vec,
    matrix,
    st_ghost,
    st_tan,
)
from pairlin.solve import NoModulus, NotDominantDiagonal
from pairlin.suites import rand_dominant_diagonal_supertropical, rand_supertropical_matrix

st = make_algebra("supertropical")
sign = make_algebra("sign")


def cramer_unique_tangible_solution(a, v, x) -> bool:
    """Exhaustive uniqueness check of A y nabla v over tangible-or-zero y:
    enumerates the whole of T0^n, so only for small finite pairs."""
    alg = a.alg
    t0 = (alg.zero,) + tuple(alg.tangibles)
    solutions = []
    for y in itertools.product(t0, repeat=a.rows):
        ay = mat_vec(a, y)
        if all(balances(alg, l, r) for l, r in zip(ay, v)):
            solutions.append(y)
    return solutions == [tuple(x)]


def st_mat(rows):
    return matrix(st, [[st_tan(v) for v in r] for r in rows])


FIX = st_mat([[2, 0], [1, 3]])


class TestCramer:
    def test_supertropical_fixture(self):
        out = cramer_solve(FIX, (st_tan(4), st_tan(4)))
        assert out.balance_verified
        assert out.x == (st_tan(2), st_tan(1))
        assert out.x_verified
        # w projects to (7, 6)
        proj = [st.add(w.payload[0], w.payload[1]) for w in out.w]
        assert proj == [st_tan(7), st_tan(6)]

    def test_identity_any_rhs(self):
        for v in ((st_tan(1), st_ghost(2)), (st.zero, st_tan(0))):
            out = cramer_solve(identity(st, 2), v)
            assert out.balance_verified

    def test_sign_diagonal(self):
        l = sign.parse_literal
        a = matrix(sign, [[l("1"), l("0")], [l("0"), l("-1")]])
        out = cramer_solve(a, (l("1"), l("1")))
        assert out.balance_verified
        assert out.x == (l("1"), l("-1"))
        assert out.x_verified

    def test_sign_uniqueness_for_invertible(self):
        l = sign.parse_literal
        a = matrix(sign, [[l("1"), l("1")], [l("-1"), l("1")]])
        v = (l("1"), l("0"))
        out = cramer_solve(a, v)
        assert out.x is not None and out.x_verified
        assert cramer_unique_tangible_solution(a, v, out.x)

    def test_dimension_mismatch(self):
        from pairlin.matrices import DimensionMismatch

        with pytest.raises(DimensionMismatch):
            cramer_solve(FIX, (st_tan(1),))

    def test_foreign_rhs_before_the_caps(self, monkeypatch):
        # the adjugate pass checks the sizes, after the right-hand side
        from pairlin.core import AlgebraMismatch

        monkeypatch.setenv("PAIRLIN_CAP_N", "1")
        with pytest.raises(AlgebraMismatch):
            cramer_solve(identity(st, 3), (sign.one,) * 3)

    def test_runs_without_negation_map(self):
        # pairs without a negation map keep w doubled and never produce x
        alg = make_algebra("counting:5")
        l = alg.parse_literal
        a = matrix(alg, [[l("1"), l("0")], [l("0"), l("1")]])
        out = cramer_solve(a, (l("1"), l("2")))
        assert out.x is None
        assert out.balance_verified  # identity system balances trivially


class TestDominantStructure:
    def test_fixture_diagonal_dominant(self):
        rep = dominant_structure(FIX)
        assert rep.diagonal_dominant
        assert rep.dominant == [(0, 1)]
        assert rep.strictly_nonsingular
        assert not rep.two_counterexample

    def test_identity(self):
        rep = dominant_structure(identity(st, 3))
        assert rep.diagonal_dominant and rep.strictly_nonsingular

    def test_flat_matrix_two_dominant(self):
        a = st_mat([[0, 0], [0, 0]])
        rep = dominant_structure(a)
        assert len(rep.dominant) == 2
        assert not rep.strictly_nonsingular

    def test_no_modulus_rejected(self):
        alg = make_algebra("counting:5")
        with pytest.raises(NoModulus):
            dominant_structure(identity(alg, 2))


class TestJacobi:
    def test_fixture(self):
        state = jacobi_solve(FIX, (st_tan(4), st_tan(4)))
        assert state.iterates[0] == (st_tan(2), st_tan(1))
        assert state.stabilized_at == 1
        assert state.x == (st_tan(2), st_tan(1))
        assert state.balance_verified
        assert state.mu_verified

    def test_diagonal_stabilizes_immediately(self):
        a = matrix(st, [[st_tan(5), st.zero], [st.zero, st_tan(7)]])
        v = (st_tan(1), st_tan(2))
        state = jacobi_solve(a, v)
        assert state.stabilized_at == 1
        assert state.x == (st_tan(-4), st_tan(-5))

    def test_iterates_ascend(self):
        # ascending in the natural pre-order: a <= b iff a+b = b or equal circ
        rng = random.Random(21)
        for _ in range(50):
            n = rng.choice((2, 3, 4))
            a = rand_dominant_diagonal_supertropical(rng, n)
            v = tuple(st_tan(rng.randint(-9, 9)) for _ in range(n))
            state = jacobi_solve(a, v)
            for prev, cur in zip(state.iterates, state.iterates[1:]):
                for p, c in zip(prev, cur):
                    assert st.add(p, c) == c or st.add(p, c) == st_ghost(
                        p.payload[1]
                    )

    def test_agrees_with_cramer_mu(self):
        rng = random.Random(22)
        for _ in range(50):
            n = rng.choice((2, 3))
            a = rand_dominant_diagonal_supertropical(rng, n)
            v = tuple(st_tan(rng.randint(-9, 9)) for _ in range(n))
            state = jacobi_solve(a, v)
            out = cramer_solve(a, v)
            if out.x is None:
                continue
            assert tuple(st.modulus(e) for e in state.x) == tuple(
                st.modulus(e) for e in out.x
            )

    def test_non_dominant_rejected(self):
        a = st_mat([[0, 9], [9, 0]])
        with pytest.raises(NotDominantDiagonal):
            jacobi_solve(a, (st_tan(0), st_tan(0)))

    def test_refuses_pairs_without_lift(self):
        from pairlin.core import PairError

        alg = make_algebra("sign")
        l = alg.parse_literal
        a = matrix(alg, [[l("1"), l("0")], [l("0"), l("1")]])
        with pytest.raises(PairError):
            jacobi_solve(a, (l("1"), l("1")))

    def test_refusal_walks_no_minor_layer(self, monkeypatch):
        # the caps come first, then the cycle test on A's codes, and the
        # adjugate pass's layers only after it: a non-dominant 8 x 8 matrix
        # is refused with no layer walked
        def no_layer(*args):
            raise AssertionError("a minor layer was walked")

        monkeypatch.setattr(matrices_mod, "_minor_layer", no_layer)
        a = rand_supertropical_matrix(random.Random(4), 8)
        with pytest.raises(NotDominantDiagonal):
            jacobi_solve(a, (st_tan(0),) * 8)
        monkeypatch.setenv("PAIRLIN_CAP_N", "7")
        with pytest.raises(CapExceeded, match="^determinant cap exceeded at n = 8$"):
            jacobi_solve(a, (st_tan(0),) * 8)

    def test_refuses_a_lift_off_max_plus_codes(self):
        from pairlin.core import PairAlgebra, PairError

        # the sign pair with a lift: its codes carry no value to iterate on
        renamed = {"_add": "add", "_mul": "mul", "_is_tangible": "is_tangible",
                   "_is_null": "is_null", "_codec": "codec"}
        fields = {renamed.get(k, k): getattr(sign, k) for k in PairAlgebra.__slots__ if k != "_memo"}
        lifted = PairAlgebra(**{**fields, "tangible_lift": lambda a: a})
        a = matrix(lifted, [[sign.one, sign.zero], [sign.zero, sign.one]])
        with pytest.raises(PairError, match="^sign is not max-plus"):
            jacobi_solve(a, (sign.one, sign.one))

    def test_ghost_diagonal_rejected(self):
        from pairlin.solve import NonInvertibleDiagonal

        a = matrix(st, [[st_ghost(9), st_tan(0)], [st_tan(0), st_ghost(9)]])
        with pytest.raises(NonInvertibleDiagonal):
            jacobi_solve(a, (st_tan(0), st_tan(0)))
