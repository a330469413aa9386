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

The Jacobi iteration runs on the codes of the same pass over a max-plus
pair: its precondition, taken before the pass's layers, is one O(n^3)
cycle test on the code values (_identity_dominant), not the n! tracks
that dominant_structure, the library's report of every track, multiplies
out on elements.  Only the iterates are decoded.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional

from .core import El, PairError, _balance_codes, _doubled_null, balances
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


def _adj_vec(a: Matrix, v, precondition=None) -> tuple:
    """(coding, codes of A, codes of v, w, det): adj(A) (v, 0) as its two
    base coordinate vectors w = (w+, w-) and |A| = (det+, det-), all coded
    under one coding of A and v, from one adjugate pass (see matrices),
    which checks the sizes and then calls precondition, when given, on A's
    codes before any layer."""
    coding, codes, adj, det = _adjugate(a, v, precondition=precondition)
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
    """Enumerate all tracks and classify the mu-maximal ones, multiplied
    out on elements under the track enumeration cap.  jacobi_solve reads
    its two flags from _identity_dominant instead, which the tests check
    against this report."""
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


def _identity_dominant(codes) -> bool:
    """Whether the identity is the only track of largest modulus of the
    square max-plus matrix with these codes (see rank: ((v * S) << 1) |
    ghost, None for zero): dominant_structure's diagonal_dominant and
    strictly_nonsingular together, decided in O(n^3) with no track built.

    Over the supertropical pair a + a is a ghost, so two tracks of the best
    modulus never sum to a tangible: strictly_nonsingular holds exactly
    when that track is unique, and with diagonal_dominant exactly when it
    is the identity.  A permutation's track value less the identity's is
    the sum, over its cycles, of w(i, j) = a_ij - a_jj along the cycle's
    moves from column j to row i (Butkovic, Max-linear Systems, 2010,
    ch. 1).  So the identity is the unique best track exactly when the
    diagonal is finite and every cycle of the graph of finite w is
    negative: a cycle of weight 0 or more, with the other columns fixed,
    is a track no smaller.  A max-plus Floyd-Warshall closure of w holds
    in d[i][i] the weight of a closed walk through i, and reaches a
    nonnegative one exactly when such a cycle exists, since a closed
    walk splits into cycles.  At n = 1 the identity is the only track,
    so it holds even on a zero diagonal entry, as in dominant_structure.
    """
    n = len(codes)
    if n == 1:
        return True
    diag = [row[j] for j, row in enumerate(codes)]
    if None in diag:
        return False
    d = [
        [None if i == j or c is None else (c >> 1) - (diag[j] >> 1) for j, c in enumerate(row)]
        for i, row in enumerate(codes)
    ]
    for k in range(n):
        dk = d[k]
        for di in d:
            dik = di[k]
            if dik is None:
                continue
            for j, dkj in enumerate(dk):
                if dkj is not None and (di[j] is None or dik + dkj > di[j]):
                    di[j] = dik + dkj
    return all(d[i][i] is None or d[i][i] < 0 for i in range(n))


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

    Everything runs on one coding of A and v: over a max-plus pair a code
    holds its value and ghost bit, so the modulus is the value, the lift
    clears the ghost bit and a tangible's inverse negates its code.  The
    adjugate pass (matrices._adjugate) checks its caps first, then runs the
    precondition, _identity_dominant's cycle test on A's codes, and only
    then its minor layers, so a refusal walks no layer.  The balance check
    reads the codec's nullity (core._balance_codes), the mu identity
    compares values, and only the iterates are decoded.
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
    if not alg.max_plus:
        raise PairError(f"{alg.id} is not max-plus: jacobi runs on max-plus codes")
    alg.check(*v)

    def precondition(codes):
        if not _identity_dominant(codes):
            raise NotDominantDiagonal(
                "jacobi needs a strictly nonsingular matrix with dominant diagonal"
            )

    coding, codes, vc, w, (dp, dm) = _adj_vec(a, v, precondition)
    n = a.rows
    if max_iter is None:
        max_iter = 2 * n + 4
    add, mul, null, zero = coding.add, coding.mul, coding.null, coding.zero
    diag = [row[i] for i, row in enumerate(codes)]
    if any(null[c] for c in diag) or alg.tangible_inverse is None:
        raise NonInvertibleDiagonal("diagonal entries must be tangible invertible")
    # per row: N's row, D^-1 (a tangible code negated) and v's entry
    rows = [
        ([zero if i == j else c for j, c in enumerate(row)], -diag[i], vc[i])
        for i, row in enumerate(codes)
    ]
    iterates = []
    stabilized_at = None
    x = [zero] * n
    for k in range(1, max_iter + 1):
        nxt = []
        for row, dinv, e in rows:
            c = mul(dinv, add(_dot(coding, row, x), e))
            nxt.append(c if c is None else c & ~1)
        if iterates and nxt == iterates[-1]:
            stabilized_at = k - 1
            break
        iterates.append(nxt)
        x = nxt
    if stabilized_at is None:
        raise NoConvergence(f"no stabilization within {max_iter} iterations")
    balanced = _balance_codes(alg, coding)
    balance_verified = all(balanced[_dot(coding, row, x), e] for row, e in zip(codes, vc))
    # mu identity on values, mu(x_i) = mu(w_i) - mu(|A|), where |A| is
    # finite: its best track is the identity's
    det_mu = add(dp, dm) >> 1
    mu_verified = all(
        xi is None if wi is None else xi is not None and xi >> 1 == (wi >> 1) - det_mu
        for xi, wi in zip(x, map(add, *w))
    )
    dec = coding.decode
    iterates = [tuple(map(dec, it)) for it in iterates]
    return JacobiState(iterates, stabilized_at, iterates[-1], balance_verified, mu_verified)
