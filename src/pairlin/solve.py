"""Cramer's rule with balance verification, and the Jacobi iteration with
modulus-based convergence.

Both work on the doubled pair only where a factor is embedded, b -> (b, 0).
Zero is additively neutral and multiplicatively absorbing in every pair, so
(p, n)(x, 0) = (px, nx) and (x, 0)(p, n) = (xp, xn) exactly: adj(A) v, A w and
|A| v are each two folds in the base, one per coordinate, and no embedded
vector or matrix is built.  adj(A) and |A| come coded from one adjugate pass
over one coding of A and v (matrices._adjugate), the folds run on those
codes, and the balance check reads the doubled nullity of the codes
(core._doubled_null): only w is decoded, and |A| where a tangible solution
needs it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional

from .core import El, PairError, _doubled_null, balances
from .instances import make_doubled
from .matrices import DimensionMismatch, Matrix, _adjugate, _dot, _tracks, mat_vec


class NotDominantDiagonal(PairError):
    pass


class NonInvertibleDiagonal(PairError):
    pass


class NoConvergence(PairError):
    pass


class NoModulus(PairError):
    pass


@dataclass
class CramerResult:
    w: tuple  # vector over doubled(alg): adjoint(A) . v
    x: Optional[tuple]  # tangible solution when available
    balance_verified: bool
    x_verified: bool = False


def _adj_vec(a: Matrix, v) -> tuple:
    """(coding, codes of A, codes of v, w, det): adj(A) (v, 0) as its two
    base coordinate vectors w = (w+, w-) and |A| = (det+, det-), all coded
    under one coding of A and v, from one adjugate pass (see matrices),
    which checks the sizes."""
    coding, codes, adj, det = _adjugate(a, v)
    vc = [coding.encode(e) for e in v]
    w = tuple([_dot(coding, (e[side] for e in row), vc) for row in adj] for side in (0, 1))
    return coding, codes, vc, w, det


def cramer_solve(a: Matrix, v) -> CramerResult:
    """w = adj(A) v in the doubled pair, with |A| v nabla A w verified
    componentwise; when |A| is tangible invertible and w projects tangibly,
    also the tangible solution x with A x nabla v.

    The adjugate pass checks n - 1 and then n before any work, and the
    doubled pair is built after it, so the determinant caps come before the
    doubling cap."""
    if not a.is_square:
        raise DimensionMismatch("cramer needs a square matrix")
    if len(v) != a.rows:
        raise DimensionMismatch("right-hand side length mismatch")
    alg = a.alg
    alg.check(*v)
    coding, codes, vc, (wp, wm), (dp, dm) = _adj_vec(a, v)
    dalg = make_doubled(alg)
    add, mul, dec = coding.add, coding.mul, coding.decode
    # switch negation is declared unique on doubled pairs: X nabla Y iff
    # X (-) Y is null there, here on the base codes of |A| v and A w
    null = _doubled_null(alg, coding)
    balance_verified = all(
        null[add(mul(dp, e), _dot(coding, row, wm)), add(mul(dm, e), _dot(coding, row, wp))]
        for e, row in zip(vc, codes)
    )
    wp, wm = [dec(x) for x in wp], [dec(x) for x in wm]
    w = tuple(El(dalg.id, pm) for pm in zip(wp, wm))
    x = None
    x_verified = False
    if alg.negation is not None and alg.tangible_inverse is not None:
        det_base = alg.add(dec(dp), alg.negation(dec(dm)))
        if alg.is_tangible(det_base):
            w_base = tuple(alg.add(p, alg.negation(q)) for p, q in zip(wp, wm))
            if all(alg.is_tangible(e) or e == alg.zero for e in w_base):
                inv = alg.tangible_inverse(det_base)
                x = tuple(alg.mul(inv, e) for e in w_base)
                ax = mat_vec(a, x)
                x_verified = all(
                    balances(alg, l, r) for l, r in zip(ax, v)
                )
    return CramerResult(w, x, balance_verified, x_verified)


@dataclass
class DominantReport:
    tracks: list  # (permutation, modulus value)
    dominant: list  # permutations attaining the maximal modulus
    diagonal_dominant: bool
    two_counterexample: bool
    strictly_nonsingular: bool


def dominant_structure(a: Matrix) -> DominantReport:
    """Enumerate all tracks and classify the mu-maximal ones."""
    if not a.is_square:
        raise DimensionMismatch("dominant structure needs a square matrix")
    alg = a.alg
    if alg.modulus is None:
        raise NoModulus(f"{alg.id} has no modulus")
    n = a.rows
    tracks = [(perm, odd, alg.modulus(val), val)
              for perm, odd, val in _tracks(a, "track enumeration")]
    best = max(t[2] for t in tracks)
    dominant = [t for t in tracks if t[2] == best]
    ident = tuple(range(n))
    diagonal_dominant = any(t[0] == ident for t in dominant)
    two_counter = False
    for (p1, o1, _, v1), (p2, o2, _, v2) in itertools.combinations(dominant, 2):
        if o1 == o2 and alg.is_null(alg.add(v1, v2)):
            two_counter = True
            break
    if len(dominant) == 1:
        strict = True
    else:
        parities = {t[1] for t in dominant}
        total = alg.sum(t[3] for t in dominant)
        strict = len(parities) == 1 and alg.is_tangible(total)
    return DominantReport(
        [(t[0], t[2]) for t in tracks],
        [t[0] for t in dominant],
        diagonal_dominant,
        two_counter,
        strict,
    )


@dataclass
class JacobiState:
    iterates: list = field(default_factory=list)
    stabilized_at: Optional[int] = None
    x: Optional[tuple] = None
    balance_verified: bool = False
    mu_verified: bool = False


def jacobi_solve(a: Matrix, v, max_iter: Optional[int] = None) -> JacobiState:
    """Jacobi iteration x_{k+1} = lift(D^{-1} (N x_k + v)).

    Requires a modulus, a strictly nonsingular matrix with dominant diagonal,
    invertible tangible diagonal entries, and a registered tangible lift
    realizing modular descent (supertropical: ghosts drop to tangibles of the
    same value).  On stabilization verifies A x nabla v and the mu identity
    mu(x) = mu(|A|)^-1 mu(adj A v).  Stabilization is seen by comparing an
    iterate with the one before, so a max_iter below 2 is an input error.
    """
    if max_iter is not None and max_iter < 2:
        raise PairError(
            f"max_iter must be at least 2, since stabilization compares two iterates, "
            f"got {max_iter}"
        )
    if not a.is_square:
        raise DimensionMismatch("jacobi needs a square matrix")
    if len(v) != a.rows:
        raise DimensionMismatch("right-hand side length mismatch")
    alg = a.alg
    if alg.modulus is None:
        raise NoModulus(f"{alg.id} has no modulus")
    if alg.tangible_lift is None:
        raise PairError(f"{alg.id} has no registered tangible lift")
    rep = dominant_structure(a)
    if not rep.diagonal_dominant or not rep.strictly_nonsingular:
        raise NotDominantDiagonal(
            "jacobi needs a strictly nonsingular matrix with dominant diagonal"
        )
    n = a.rows
    if max_iter is None:
        max_iter = 2 * n + 4
    diag = [a[i, i] for i in range(n)]
    if any(not alg.is_tangible(e) for e in diag) or alg.tangible_inverse is None:
        raise NonInvertibleDiagonal("diagonal entries must be tangible invertible")
    dinv = [alg.tangible_inverse(e) for e in diag]
    n_mat = Matrix(
        alg,
        tuple(
            tuple(alg.zero if i == j else a[i, j] for j in range(n)) for i in range(n)
        ),
    )
    state = JacobiState()
    x = tuple(alg.zero for _ in range(n))
    for k in range(1, max_iter + 1):
        nx = mat_vec(n_mat, x)
        rhs = tuple(alg.add(nx[i], v[i]) for i in range(n))
        nxt = tuple(alg.tangible_lift(alg.mul(dinv[i], rhs[i])) for i in range(n))
        if state.iterates and nxt == state.iterates[-1]:
            state.stabilized_at = k - 1
            break
        state.iterates.append(nxt)
        x = nxt
    if state.stabilized_at is None:
        raise NoConvergence(f"no stabilization within {max_iter} iterations")
    state.x = state.iterates[-1]
    ax = mat_vec(a, state.x)
    state.balance_verified = all(balances(alg, l, r) for l, r in zip(ax, v))
    # mu identity, checked exactly
    coding, _, _, w, (dp, dm) = _adj_vec(a, v)
    dec = coding.decode
    det_mu = alg.modulus(alg.add(dec(dp), dec(dm)))
    ok = True
    for xi, p, q in zip(state.x, *([dec(c) for c in side] for side in w)):
        wmu = max(alg.modulus(p), alg.modulus(q))
        lhs = alg.modulus(xi)
        if wmu.is_bottom:
            ok = ok and lhs.is_bottom
        else:
            ok = ok and (not lhs.is_bottom) and lhs == det_mu.inv().mul(wmu)
    state.mu_verified = ok
    return state
