"""The shared-layer and base-coordinate kernels against their per-minor and
doubled-product predecessors, kept here as reference oracles.

Laplace expansion, submatrix rank and the `det` report on a non-square
matrix read many minors off one minor layer; Cayley-Hamilton, Cramer and the
Jacobi mu check multiply embedded factors in base coordinates.  Each
reference below is the straightforward version: one det_doubled per
submatrix, or doubled arithmetic on embedded matrices.  The axiom audit runs
on interned element indices; its reference runs every loop on elements.  The
dependence search over non-max-plus pairs runs on codes with partial column
sums; its reference sums every coefficient tuple on elements, and so does
the reference of the surpassing span search, which walks the same codes.  The minor
layers walk precomputed index plans; their reference is the dict walk, which
tests bits and probes a dict for every row set and row.  The quasi-inverse
takes adj(A) and |A| from one adjugate pass; its reference takes det_doubled
and then adjoint.  The ranks walk the supports once, searching none that
holds a witnessed one; their reference is the nested search that ran
`find_dependence` on every subset, and a second search for the row witness.
The characteristic polynomial takes one principal walk; its reference takes
one minor layer per principal submatrix.  Cayley-Hamilton, Cramer and the
balance memo decide nullity on codes through each codec's nullity mapping;
their reference decodes and asks the pair.  The Jacobi iteration runs on
codes, its precondition from a cycle test; its reference iterates on
elements after dominant_structure's n! tracks, and the cycle test is
checked against that report.  mat_vec folds codes; its reference, which the
other references use, folds elements.
"""

import itertools
import math
import random
from fractions import Fraction

import pytest

from pairlin import (
    CapExceeded,
    matrices,
    cayley_hamilton_check,
    cramer_solve,
    det_doubled,
    identity,
    is_singular,
    jacobi_solve,
    laplace_expand,
    make_algebra,
    mat_mul,
    mat_vec,
    matrix,
    submatrix_rank,
)
from pairlin.cli import run_command
from pairlin import core, instances, solve
import pairlin.rank as rank_mod
from pairlin.core import (
    FIRST,
    SECOND,
    AlgebraMismatch,
    AuditReport,
    El,
    PairAlgebra,
    PairError,
    _pairs,
    _triples,
    balances,
    circ,
    e_elements,
    surpasses0,
)
from pairlin.instances import (
    embed_doubled,
    make_doubled,
    project_doubled,
    registered_instances,
    st_ghost,
    st_tan,
    st_value,
)
from pairlin.matrices import (
    DoubledDet,
    Matrix,
    adjoint,
    det_cap,
    embed_matrix,
    scalar_mat,
)
from pairlin.rank import (
    CoefficientDomain,
    DependenceWitness,
    DomainEmpty,
    UndecidableSurpassing,
    default_domain,
    find_dependence,
    preceq_spans,
    rank_report,
)
from pairlin.solve import CramerResult
from pairlin.suites import rand_dominant_diagonal_supertropical, rand_supertropical_matrix
from test_cli import format_matrix_text

st = make_algebra("supertropical")


# ---------------------------------------------------------------------------
# reference implementations


def _switch_pow(dalg, x, k):
    if k & 1:
        p, n = x.payload
        return El(dalg.id, (n, p))
    return x


def laplace_ref(a, row_set):
    """Two det_doubled calls per column set, each on its own submatrix."""
    n = a.rows
    rows = tuple(sorted(row_set))
    if n > det_cap():
        raise CapExceeded(f"laplace cap exceeded at n = {n}")
    alg = a.alg
    dalg = make_doubled(alg)
    comp_rows = tuple(i for i in range(n) if i not in rows)
    acc = El(dalg.id, (alg.zero, alg.zero))
    for cols in itertools.combinations(range(n), len(rows)):
        comp_cols = tuple(j for j in range(n) if j not in cols)
        d1 = det_doubled(a.submatrix(rows, cols))
        d2 = det_doubled(a.submatrix(comp_rows, comp_cols))
        term = dalg.mul(
            El(dalg.id, (d1.det_plus, d1.det_minus)),
            El(dalg.id, (d2.det_plus, d2.det_minus)),
        )
        acc = dalg.add(acc, _switch_pow(dalg, term, sum(rows) + sum(cols)))
    p, q = acc.payload
    return DoubledDet(alg, p, q)


def _mat_add(a, b):
    alg = a.alg
    return matrix(alg, [
        [alg.add(a[i, j], b[i, j]) for j in range(a.cols)] for i in range(a.rows)
    ])


def cayley_hamilton_ref(a):
    """f(A) summed in the doubled pair from powers of the embedded A."""
    n = a.rows
    if n > matrices.CAYLEY_HAMILTON_CAP:
        raise CapExceeded(f"cayley-hamilton cap exceeded at n = {n}")
    dalg = make_doubled(a.alg)
    coeffs = matrices.char_poly_doubled(a)
    ahat = embed_matrix(dalg, a)
    powers = [identity(dalg, n)]
    for _ in range(n):
        powers.append(mat_mul(powers[-1], ahat))
    total = None
    for k, c in enumerate(coeffs):
        term = scalar_mat(dalg, c, powers[n - k])
        total = term if total is None else _mat_add(total, term)
    return all(dalg.is_null(e) for row in total.entries for e in row)


def mat_vec_ref(a, v):
    """A v folded on elements, each row's sum from zero in column order."""
    if a.cols != len(v):
        raise matrices.DimensionMismatch("vector length mismatch")
    alg = a.alg
    return tuple(
        alg.sum(alg.mul(a[i, k], v[k]) for k in range(a.cols)) for i in range(a.rows)
    )


def _embedded_adj_vec(a, v):
    dalg = make_doubled(a.alg)
    vhat = tuple(embed_doubled(dalg, e) for e in v)
    return mat_vec_ref(adjoint(a), vhat), vhat


def cramer_ref(a, v):
    """adj(A) v, A w and |A| v as doubled products of embedded factors."""
    alg = a.alg
    dalg = make_doubled(alg)
    w, vhat = _embedded_adj_vec(a, v)
    d = det_doubled(a)
    det_el = El(dalg.id, (d.det_plus, d.det_minus))
    aw = mat_vec_ref(embed_matrix(dalg, a), w)
    lhs = tuple(dalg.mul(det_el, ve) for ve in vhat)

    def balance(l, r):
        p, n = r.payload
        return dalg.is_null(dalg.add(l, El(dalg.id, (n, p))))

    balance_verified = all(balance(l, r) for l, r in zip(lhs, aw))
    x = None
    x_verified = False
    if alg.negation is not None and alg.tangible_inverse is not None:
        det_base = alg.add(d.det_plus, alg.negation(d.det_minus))
        if alg.is_tangible(det_base):
            w_base = tuple(project_doubled(dalg, we) for we in w)
            if all(alg.is_tangible(e) or e == alg.zero for e in w_base):
                inv = alg.tangible_inverse(det_base)
                x = tuple(alg.mul(inv, e) for e in w_base)
                x_verified = all(
                    balances(alg, l, r) for l, r in zip(mat_vec_ref(a, x), v)
                )
    return CramerResult(w, x, balance_verified, x_verified)


def jacobi_mu_ref(a, v, x):
    """The Jacobi mu identity mu(x) = mu(|A|)^-1 mu(adj A v), with adj A v
    taken in the doubled pair."""
    alg = a.alg
    d = det_doubled(a)
    det_mu = alg.modulus(alg.add(d.det_plus, d.det_minus))
    w, _ = _embedded_adj_vec(a, v)
    ok = True
    for xi, wi in zip(x, w):
        p, q = wi.payload
        wmu = max(alg.modulus(p), alg.modulus(q))
        lhs = alg.modulus(xi)
        if wmu.is_bottom:
            ok = ok and lhs.is_bottom
        else:
            ok = ok and (not lhs.is_bottom) and lhs == det_mu.inv().mul(wmu)
    return ok


def jacobi_ref(a, v, max_iter=None):
    """The Jacobi iteration on elements: the precondition from
    dominant_structure's n! tracks, each iterate from A's off-diagonal part
    multiplied out on elements, the balance check by balances and the mu
    identity on ModulusValues.  Its track enumeration cap stands in for the
    coded path's determinant cap."""
    if max_iter is not None and max_iter < 2:
        raise PairError(
            f"max_iter must be at least 2, since stabilization compares two iterates, "
            f"got {max_iter}"
        )
    if not a.is_square:
        raise matrices.DimensionMismatch("jacobi needs a square matrix")
    if len(v) != a.rows:
        raise matrices.DimensionMismatch("right-hand side length mismatch")
    alg = a.alg
    if alg.modulus is None:
        raise solve.NoModulus(f"{alg.id} has no modulus")
    if alg.tangible_lift is None:
        raise PairError(f"{alg.id} has no registered tangible lift")
    rep = solve.dominant_structure(a)
    if not rep.diagonal_dominant or not rep.strictly_nonsingular:
        raise solve.NotDominantDiagonal(
            "jacobi needs a strictly nonsingular matrix with dominant diagonal"
        )
    n = a.rows
    if max_iter is None:
        max_iter = 2 * n + 4
    diag = [a[i, i] for i in range(n)]
    if any(not alg.is_tangible(e) for e in diag) or alg.tangible_inverse is None:
        raise solve.NonInvertibleDiagonal("diagonal entries must be tangible invertible")
    dinv = [alg.tangible_inverse(e) for e in diag]
    n_mat = Matrix(
        alg,
        tuple(tuple(alg.zero if i == j else a[i, j] for j in range(n)) for i in range(n)),
    )
    state = solve.JacobiState()
    x = tuple(alg.zero for _ in range(n))
    for k in range(1, max_iter + 1):
        nx = mat_vec_ref(n_mat, x)
        rhs = tuple(alg.add(nx[i], v[i]) for i in range(n))
        nxt = tuple(alg.tangible_lift(alg.mul(dinv[i], rhs[i])) for i in range(n))
        if state.iterates and nxt == state.iterates[-1]:
            state.stabilized_at = k - 1
            break
        state.iterates.append(nxt)
        x = nxt
    if state.stabilized_at is None:
        raise solve.NoConvergence(f"no stabilization within {max_iter} iterations")
    state.x = state.iterates[-1]
    ax = mat_vec_ref(a, state.x)
    state.balance_verified = all(balances(alg, l, r) for l, r in zip(ax, v))
    state.mu_verified = jacobi_mu_ref(a, v, state.x)
    return state


def submatrix_rank_ref(a):
    """One is_singular call per square submatrix, largest size first."""
    for k in range(min(a.rows, a.cols), 0, -1):
        for ri in itertools.combinations(range(a.rows), k):
            for ci in itertools.combinations(range(a.cols), k):
                if not is_singular(a.submatrix(ri, ci)):
                    return k
    return 0


def det_minor_lines_ref(a):
    """`pairlin det` on a non-square matrix, minor lines only: a fresh
    submatrix and is_singular per k x k minor, k = min(m, n), in row-major
    order."""
    k = min(a.rows, a.cols)
    out = []
    for ri in itertools.combinations(range(a.rows), k):
        for ci in itertools.combinations(range(a.cols), k):
            label = (
                "rows=[" + ",".join(str(i + 1) for i in ri) + "]"
                " cols=[" + ",".join(str(j + 1) for j in ci) + "]"
            )
            singular = str(is_singular(a.submatrix(ri, ci))).lower()
            out.append(f"minor {label} singular: {singular}")
    return out


# ---------------------------------------------------------------------------
# inputs


PAIRS = list(registered_instances()) + [st]


def _draw(rng, alg):
    if alg is st:
        return rand_supertropical_matrix(rng, 1, tangible=False)[0, 0]
    return rng.choice(alg.carrier)


def rand_matrix(rng, alg, m, n=None):
    n = m if n is None else n
    return matrix(alg, [[_draw(rng, alg) for _ in range(n)] for _ in range(m)])


def outcome(fn, *args):
    """The value fn returns, or the type and message of what it raises."""
    try:
        return ("value", fn(*args))
    except Exception as exc:  # the references must raise the same errors
        return ("raised", type(exc), str(exc))


def cases(seed, sizes=range(2, 6), per_size=3):
    rng = random.Random(seed)
    for alg in PAIRS:
        for n in sizes:
            for _ in range(per_size):
                yield alg, rand_matrix(rng, alg, n), rng


def audit_ref(alg: PairAlgebra) -> AuditReport:
    """The axiom audit on elements: every loop calls the descriptor's
    operations on El values."""
    rep = AuditReport(alg.id)
    elems = alg.carrier if alg.carrier is not None else alg.carrier_sample()
    tang = alg.tangible_sample()
    rep.sample_only = alg.carrier is None
    flags = rep.flags
    wit = rep.witnesses

    def fail(flag, note):
        flags[flag] = False
        wit.setdefault(flag, note)

    # admissibility: zero/one placement, T.A0 action, basic semiring laws
    flags["admissible"] = True
    if alg.is_tangible(alg.zero) or not alg.is_null(alg.zero):
        fail("admissible", "zero misplaced")
    if not alg.is_tangible(alg.one):
        fail("admissible", "one not tangible")
    for a in elems:
        if alg.is_tangible(a) and alg.is_null(a):
            fail("admissible", f"{a!r} tangible and null")
        if alg.add(a, alg.zero) != a:
            fail("admissible", f"zero not neutral at {a!r}")
        if alg.mul(a, alg.zero) != alg.zero or alg.mul(alg.zero, a) != alg.zero:
            fail("admissible", f"zero not absorbing at {a!r}")
        if alg.mul(a, alg.one) != a or alg.mul(alg.one, a) != a:
            fail("admissible", f"one not neutral at {a!r}")
    for a, b in _pairs(elems):
        if alg.add(a, b) != alg.add(b, a):
            fail("admissible", f"addition not commutative at {a!r},{b!r}")
    for a, b, c in _triples(elems):
        if alg.add(alg.add(a, b), c) != alg.add(a, alg.add(b, c)):
            fail("admissible", f"addition not associative at {a!r},{b!r},{c!r}")
        if alg.mul(alg.mul(a, b), c) != alg.mul(a, alg.mul(b, c)):
            fail("admissible", f"multiplication not associative at {a!r},{b!r},{c!r}")
    for a in tang:
        for b in elems:
            if alg.is_null(b):
                if not alg.is_null(alg.mul(a, b)) or not alg.is_null(alg.mul(b, a)):
                    fail("admissible", f"T action leaves null layer at {a!r},{b!r}")
    flags["distributive"] = True
    for a, b, c in _triples(elems):
        if alg.mul(a, alg.add(b, c)) != alg.add(alg.mul(a, b), alg.mul(a, c)):
            fail("distributive", f"{a!r}*({b!r}+{c!r})")
            break
    if alg.carrier is not None and alg.tangibles is not None:
        spanned = {alg.zero}
        frontier = {alg.zero}
        while frontier:
            nxt = {alg.add(s, a) for s in frontier for a in alg.tangibles} - spanned
            spanned |= nxt
            frontier = nxt
        if set(alg.carrier) - spanned:
            fail("admissible", "carrier not T-spanned")

    # Property N, with the registered canonical dagger
    if alg.dagger is None:
        flags["property_n"] = False
        wit["property_n"] = "no dagger registered"
    else:
        flags["property_n"] = True
        for a in tang:
            d = alg.dagger(a)
            if not alg.is_tangible(d) or not alg.is_null(alg.add(a, d)):
                fail("property_n", f"dagger fails at {a!r}")
        if flags["property_n"]:
            e = circ(alg, alg.one)
            for a, b in _pairs(tang):
                s = alg.add(a, b)
                if alg.is_null(s) and s != alg.mul(a, e) and s != alg.mul(b, e):
                    fail("property_n", f"null sum {a!r}+{b!r} is not a quasi-zero")
    if alg.tangibles is not None:
        partners = [
            b for b in alg.tangibles if alg.is_null(alg.add(alg.one, b))
        ]
        wit["dagger_multiplicity"] = str(len(partners))

    # metatangibility ladder
    flags["weakly_metatangible"] = True
    for a, b in _pairs(tang):
        s = alg.add(a, b)
        if not (alg.is_tangible(s) or alg.is_null(s)):
            fail("weakly_metatangible", f"{a!r}+{b!r} escapes T u A0")
            break
    flags["metatangible"] = flags["weakly_metatangible"] and flags["property_n"]
    flags["a0_bipotent"] = flags["metatangible"]
    if flags["metatangible"]:
        for a, b in _pairs(tang):
            s = alg.add(a, b)
            if s != a and s != b and not alg.is_null(s):
                fail("a0_bipotent", f"{a!r}+{b!r} not bipotent")
                break

    kind = alg.kind()
    flags["first_kind"] = kind == FIRST
    flags["second_kind"] = kind == SECOND
    warning = alg._memo["kind"][1]  # filled by alg.kind() above
    if warning:
        rep.warnings.append(warning)

    # second-kind refinements and balancing hygiene
    flags["strict_second_kind"] = kind == SECOND
    if kind == SECOND and alg.tangibles is not None:
        for a, b in _pairs(alg.tangibles):
            if balances(alg, a, b) and alg.is_null(alg.add(a, b)):
                fail("strict_second_kind", f"{a!r} nabla {b!r} with null sum")
                break

    if alg.dagger is not None and flags["property_n"]:
        e, e_prime = e_elements(alg)
        flags["e_idempotent"] = alg.add(e, e) == e
        flags["two_final"] = e_prime == e
        flags["circ_reversible"] = True
        for a, b in _pairs(tang):
            if circ(alg, a) == circ(alg, b):
                if a != b and alg.add(a, b) != circ(alg, a):
                    fail("circ_reversible", f"{a!r},{b!r}")
                    break
        flags["tropical_type"] = (
            flags["a0_bipotent"] and flags["two_final"] and flags["circ_reversible"]
        )
        flags["almost_regular"] = True
        for a1, a2, a3 in _triples(tang):
            if alg.is_null(alg.sum([a1, a2, a3])) and alg.is_null(
                alg.sum([alg.dagger(a1), a2, a3])
            ):
                if not alg.is_null(alg.add(a2, a3)):
                    fail("almost_regular", f"{a1!r},{a2!r},{a3!r}")
                    break
    else:
        for k in ("e_idempotent", "two_final", "circ_reversible", "tropical_type",
                  "almost_regular"):
            flags[k] = False
            wit.setdefault(k, "needs Property N")

    flags["n_transitive"] = True
    limit = 7  # quadruple scan is |T|^4; registered tangible sets are tiny
    tq = tang[:limit]
    for a1, a2, a3, a4 in itertools.product(tq, repeat=4):
        if (
            alg.is_null(alg.add(a1, a2))
            and alg.is_null(alg.add(a2, a3))
            and alg.is_null(alg.add(a3, a4))
            and not alg.is_null(alg.add(a1, a4))
        ):
            fail("n_transitive", f"{a1!r},{a2!r},{a3!r},{a4!r}")
            break

    flags["uniquely_negated"] = True
    for a in tang:
        partners = [b for b in tang if alg.is_null(alg.add(a, b))]
        if len(partners) != 1:
            fail("uniquely_negated", f"{a!r} has {len(partners)} negation partners")
            break
        if alg.negation is not None and partners[0] != alg.negation(a):
            fail("uniquely_negated", f"partner of {a!r} differs from declared negation")
            break

    if alg.negation is not None:
        flags["negation_involutive"] = all(
            alg.negation(alg.negation(a)) == a for a in elems
        )

    flags["tangible_summand"] = True
    for a, b in _pairs(elems):
        if alg.is_tangible(alg.add(a, b)) and not (alg.is_tangible(a) or alg.is_tangible(b)):
            fail("tangible_summand", f"{a!r}+{b!r}")
            break

    flags["lzs"] = True
    for a, b in _pairs(tang):
        if alg.add(a, b) == alg.zero:
            fail("lzs", f"{a!r}+{b!r} = zero")
            break

    flags["idempotent_addition"] = all(alg.add(a, a) == a for a in elems)

    if flags["metatangible"] and alg.carrier is not None:
        # T + A0 must cover a metatangible carrier
        nulls = [b for b in alg.carrier if alg.is_null(b)]
        cover = {alg.add(a, b) for a in alg.tangibles for b in nulls}
        cover |= set(alg.tangibles) | set(nulls)
        if set(alg.carrier) - cover:
            rep.warnings.append("T + A0 does not cover the carrier")

    return rep


# ---------------------------------------------------------------------------
# tests


def test_zero_is_neutral_and_absorbing_in_every_registered_pair():
    for alg in PAIRS:
        zero = alg.zero
        for x in alg.carrier_sample():
            assert alg.add(x, zero) == x == alg.add(zero, x), (alg.id, x)
            assert alg.mul(x, zero) == zero == alg.mul(zero, x), (alg.id, x)


def test_pairs_cover_ghosts_zeros_and_doubled():
    ids = {alg.id for alg in PAIRS}
    assert "supertropical" in ids and "doubled:boolean" in ids
    rng = random.Random(0)
    entries = [e for _ in range(20) for row in rand_matrix(rng, st, 4).entries for e in row]
    assert st.zero in entries
    assert any(not st.is_tangible(e) and e != st.zero for e in entries)


def test_laplace_matches_per_minor_reference():
    for alg, a, rng in cases(1):
        n = a.rows
        row_sets = [
            rows for m in range(1, n) for rows in itertools.combinations(range(n), m)
        ]
        for rows in rng.sample(row_sets, min(3, len(row_sets))):
            got = outcome(laplace_expand, a, rows)
            assert got == outcome(laplace_ref, a, rows), (alg.id, rows, a.entries)
            assert got[0] == "value"
            assert got[1] == det_doubled(a), (alg.id, rows)


def test_laplace_keeps_its_cap(monkeypatch):
    a = rand_matrix(random.Random(2), st, 4)
    for cap in ("2", "3", "4"):
        monkeypatch.setenv("PAIRLIN_CAP_N", cap)
        assert outcome(laplace_expand, a, (0, 2)) == outcome(laplace_ref, a, (0, 2))
    monkeypatch.setenv("PAIRLIN_CAP_N", "3")
    assert outcome(laplace_expand, a, (1,))[1] is CapExceeded


def test_cayley_hamilton_matches_doubled_powers():
    for alg, a, _ in cases(3):
        got = outcome(cayley_hamilton_check, a)
        assert got == outcome(cayley_hamilton_ref, a), (alg.id, a.entries)


def test_polynomial_evaluation_matches_doubled_powers(monkeypatch):
    # Cayley-Hamilton always holds, so a check that answers true regardless
    # would agree with the reference; random coefficients in place of the
    # characteristic polynomial make f(A) non-null often enough to tell.
    # The check codes the coefficients under A's coding, so arbitrary
    # coefficients are no longer valid input to it: a supertropical value
    # is covered when its denominator divides those of A's entries.  The
    # supertropical coefficients are therefore drawn as sums of up to n
    # entry values (products of entries), tangible or ghost, or zero.
    rng = random.Random(13)
    coeffs = []
    monkeypatch.setattr(
        matrices,
        "_char_poly_codes",
        lambda a, codes, coding: [tuple(map(coding.encode, c.payload)) for c in coeffs],
    )
    monkeypatch.setattr(matrices, "char_poly_doubled", lambda a: coeffs)
    nonnull = 0
    for alg, a, _ in cases(14, sizes=range(2, 5)):
        dalg = make_doubled(alg)

        def draw():
            if alg is st:
                if rng.random() < 0.15:
                    return st.zero
                live = [st_value(e) for row in a.entries for e in row if e.payload is not None]
                v = sum(rng.choice(live) for _ in range(rng.randint(0, a.rows))) if live else 0
                return st_ghost(v) if rng.random() < 0.3 else st_tan(v)
            return _draw(rng, alg)

        coeffs[:] = [El(dalg.id, (draw(), draw())) for _ in range(a.rows + 1)]
        got = outcome(cayley_hamilton_check, a)
        assert got == outcome(cayley_hamilton_ref, a), (alg.id, a.entries, coeffs)
        nonnull += got == ("value", False)
    assert nonnull > 20


def test_cayley_hamilton_keeps_its_cap(monkeypatch):
    a = rand_matrix(random.Random(4), st, 4)
    monkeypatch.setattr(matrices, "CAYLEY_HAMILTON_CAP", 3)
    assert outcome(cayley_hamilton_check, a) == outcome(cayley_hamilton_ref, a)
    assert outcome(cayley_hamilton_check, a)[1] is CapExceeded


def test_cramer_matches_embedded_products():
    for alg, a, rng in cases(5):
        v = tuple(_draw(rng, alg) for _ in range(a.rows))
        got = outcome(cramer_solve, a, v)
        assert got == outcome(cramer_ref, a, v), (alg.id, a.entries, v)


def test_cramer_finds_tangible_solutions_like_the_reference():
    # tangible-or-zero entries, so that |A| is often tangible and x exists;
    # the sign pair's negation is not the identity, so x's sign is checked
    rng = random.Random(6)
    sign = make_algebra("sign")
    t0 = [sign.parse_literal(t) for t in ("0", "1", "-1")]
    found = {}
    for n in range(2, 6):
        for _ in range(10):
            for alg, draw in (
                (st, lambda: rand_supertropical_matrix(rng, 1)[0, 0]),
                (sign, lambda: rng.choice(t0)),
            ):
                a = matrix(alg, [[draw() for _ in range(n)] for _ in range(n)])
                v = tuple(draw() for _ in range(n))
                got = cramer_solve(a, v)
                assert got == cramer_ref(a, v), (alg.id, a.entries, v)
                found[alg.id] = found.get(alg.id, 0) + (got.x is not None)
    assert found["supertropical"] > 0 and found["sign"] > 0


def test_cramer_keeps_the_caps(monkeypatch):
    a = rand_matrix(random.Random(7), st, 4)
    v = tuple(rand_supertropical_matrix(random.Random(8), 1)[0, 0] for _ in range(4))
    for cap in ("2", "3"):
        monkeypatch.setenv("PAIRLIN_CAP_N", cap)
        got = outcome(cramer_solve, a, v)
        assert got[1] is CapExceeded
        assert got == outcome(cramer_ref, a, v)


def test_jacobi_mu_check_matches_embedded_products():
    rng = random.Random(9)
    checked = 0
    for n in range(2, 6):
        for _ in range(6):
            a = rand_dominant_diagonal_supertropical(rng, n)
            v = tuple(rand_supertropical_matrix(rng, 1)[0, 0] for _ in range(n))
            try:
                state = jacobi_solve(a, v)
            except PairError:
                continue
            assert state.mu_verified == jacobi_mu_ref(a, v, state.x)
            checked += 1
    assert checked >= 10


# ---------------------------------------------------------------------------
# Jacobi on codes: the cycle test against the tracks, the iteration against
# its element reference


def _identity_dominant_of(a):
    coding = a.alg.coding(itertools.chain(*a.entries))
    return solve._identity_dominant([[coding.encode(e) for e in row] for row in a.entries])


def _dominant_flags(a):
    rep = solve.dominant_structure(a)
    return rep.diagonal_dominant and rep.strictly_nonsingular


def test_cycle_test_matches_the_tracks_at_n_up_to_2():
    lits = [st.parse_literal(t) for t in ("-inf", "-1", "0", "1", "0g", "1g")]
    seen = set()
    for n in (1, 2):
        for flat in itertools.product(lits, repeat=n * n):
            a = matrix(st, [flat[i * n:(i + 1) * n] for i in range(n)])
            got = _identity_dominant_of(a)
            assert got == _dominant_flags(a), a.entries
            seen.add((n, got))
    assert seen == {(1, True), (2, True), (2, False)}


def _tie_entry(rng, shift=0):
    """A supertropical entry of few values, so that tracks tie often: zero,
    or a tangible or ghost of -1, -1/2, 0 or 1, raised by shift."""
    if rng.random() < 0.15:
        return st.zero
    value = rng.choice((-1, Fraction(-1, 2), 0, 1)) + shift
    return st_ghost(value) if rng.random() < 0.2 else st_tan(value)


def _tie_matrix(rng, n, shift):
    return matrix(st, [[_tie_entry(rng, shift if i == j else 0) for j in range(n)]
                       for i in range(n)])


def test_cycle_test_matches_the_tracks_on_ties():
    rng = random.Random("cycle-test")
    seen = {True: 0, False: 0}
    for t in range(600):
        a = _tie_matrix(rng, 3 + t % 2, rng.choice((0, 1, 2)))
        got = _identity_dominant_of(a)
        assert got == _dominant_flags(a), a.entries
        seen[got] += 1
    assert min(seen.values()) >= 100, seen


def _jacobi_fields(got):
    """outcome() of a Jacobi solve with its five fields spelled out."""
    if got[0] == "raised":
        return got
    s = got[1]
    return ("value", s.iterates, s.stabilized_at, s.x, s.balance_verified, s.mu_verified)


def test_jacobi_on_codes_matches_the_element_reference():
    rng = random.Random("jacobi-codes")
    seen = set()
    for t in range(1200):
        n = 1 + t % 4
        if t % 3 == 0:
            a = rand_dominant_diagonal_supertropical(rng, n)
        else:
            a = _tie_matrix(rng, n, rng.choice((0, 1, 3)))
        v = tuple(_tie_entry(rng, rng.choice((0, 2))) for _ in range(n))
        max_iter = rng.choice((None, None, 2, 3))
        got = _jacobi_fields(outcome(jacobi_solve, a, v, max_iter))
        assert got == _jacobi_fields(outcome(jacobi_ref, a, v, max_iter)), (a.entries, v)
        seen.add(got[1] if got[0] == "raised" else got[-2:])
    assert {
        (True, True), solve.NotDominantDiagonal, solve.NonInvertibleDiagonal, solve.NoConvergence,
    } <= seen, seen


def test_jacobi_takes_no_track(monkeypatch):
    """The precondition is the cycle test: with the track enumeration
    made to fail, dominant_structure fails and jacobi_solve does not."""
    for mod in (matrices, solve):
        monkeypatch.setattr(mod, "_tracks", _forbidden)
    rng = random.Random("jacobi-no-tracks")
    for n in (2, 3, 4, 8):
        a = rand_dominant_diagonal_supertropical(rng, n)
        v = tuple(st_tan(rng.randint(-9, 9)) for _ in range(n))
        state = jacobi_solve(a, v)
        assert state.balance_verified and state.mu_verified
        with pytest.raises(AssertionError, match="the search ran"):
            solve.dominant_structure(a)
    with pytest.raises(solve.NotDominantDiagonal):
        jacobi_solve(matrix(st, [[st_tan(0), st_tan(9)], [st_tan(9), st_tan(0)]]),
                     (st.one, st.one))


def test_jacobi_checks_the_determinant_cap_before_the_precondition(tmp_path, monkeypatch):
    v = (st.one,) * 3
    dominant = rand_dominant_diagonal_supertropical(random.Random(3), 3)
    flat = matrix(st, [[st.one] * 3] * 3)
    assert _dominant_flags(dominant) and not _dominant_flags(flat)
    monkeypatch.setenv("PAIRLIN_CAP_N", "2")
    for a in (dominant, flat):
        assert outcome(jacobi_solve, a, v) == (
            "raised", CapExceeded, "determinant cap exceeded at n = 3"
        )
        assert outcome(jacobi_ref, a, v)[1] is CapExceeded
        path = tmp_path / "a.txt"
        path.write_text(format_matrix_text(a))
        assert run_command(["solve", "jacobi", str(path), "--rhs", "0,0,0"]) == 3


def test_mat_vec_matches_the_element_fold():
    rng = random.Random("mat-vec")
    pairs = PAIRS + [make_doubled(st), make_doubled(make_algebra("sign"))]
    for alg in pairs:
        for m, n in ((1, 1), (2, 3), (3, 3), (4, 2)):
            if alg.carrier is None and alg.base is not None:
                draw = lambda: El(alg.id, (_draw(rng, st), _draw(rng, st)))
            elif alg.carrier is None:
                draw = lambda: _draw(rng, alg)
            else:
                draw = lambda: rng.choice(alg.carrier)
            a = matrix(alg, [[draw() for _ in range(n)] for _ in range(m)])
            v = tuple(draw() for _ in range(n))
            assert mat_vec(a, v) == mat_vec_ref(a, v), (alg.id, a.entries, v)


def test_submatrix_rank_matches_per_submatrix_reference():
    for alg, a, rng in cases(10):
        assert outcome(submatrix_rank, a) == outcome(submatrix_rank_ref, a), (alg.id, a.entries)
    rng = random.Random(11)
    for alg in PAIRS:
        for m, n in ((2, 3), (3, 2), (3, 5), (4, 2)):
            a = rand_matrix(rng, alg, m, n)
            assert outcome(submatrix_rank, a) == outcome(submatrix_rank_ref, a), (alg.id, m, n)


def test_submatrix_rank_of_zero_and_null_matrices():
    for alg in PAIRS:
        a = Matrix(alg, ((alg.zero,) * 3,) * 3)
        assert submatrix_rank(a) == submatrix_rank_ref(a) == 0
        nulls = [e for e in alg.carrier_sample() if alg.is_null(e)]
        b = matrix(alg, [[nulls[(i + j) % len(nulls)] for j in range(3)] for i in range(3)])
        assert submatrix_rank(b) == submatrix_rank_ref(b)


def test_submatrix_rank_keeps_its_cap(monkeypatch):
    a = rand_matrix(random.Random(12), st, 3, 4)
    for cap in ("0", "2", "3", "x"):
        monkeypatch.setenv("PAIRLIN_CAP_N", cap)
        assert outcome(submatrix_rank, a) == outcome(submatrix_rank_ref, a), cap
    monkeypatch.setenv("PAIRLIN_CAP_N", "2")
    assert outcome(submatrix_rank, a)[1] is CapExceeded


def test_nonsquare_det_report_matches_per_minor_reference(tmp_path, capsys):
    rng = random.Random(15)
    path = tmp_path / "m.txt"
    for alg in PAIRS:
        for m, n in ((1, 3), (2, 3), (3, 2), (2, 4), (4, 3), (3, 5)):
            a = rand_matrix(rng, alg, m, n)
            path.write_text(format_matrix_text(a))
            assert run_command(["det", str(path)]) == 0
            lines = capsys.readouterr().out.splitlines()
            assert lines[3:] == det_minor_lines_ref(a), (alg.id, a.entries)


def test_nonsquare_det_report_keeps_the_determinant_cap(tmp_path, capsys, monkeypatch):
    a = rand_matrix(random.Random(16), st, 3, 4)
    path = tmp_path / "m.txt"
    path.write_text(format_matrix_text(a))
    for cap in ("2", "x"):
        monkeypatch.setenv("PAIRLIN_CAP_N", cap)
        ref = outcome(det_minor_lines_ref, a)
        assert ref[0] == "raised"
        assert run_command(["det", str(path)]) in (2, 3)
        assert capsys.readouterr().out.splitlines()[3] == f"error: {ref[2]}"


# ---------------------------------------------------------------------------
# the axiom audit on interned indices against the element audit

AUDIT_SPECS = [alg.spec_string for alg in instances.registered_instances()] + [
    "supertropical",  # sample-only
    "doubled:supertropical",  # sample-only
    "doubled:krasner:7:2",  # 25 elements
    "counting:31",  # exactly AUDIT_CARRIER_CAP elements
]


def fresh_algebra(spec, monkeypatch):
    """A descriptor built anew, with no kind or audit memoised."""
    monkeypatch.setattr(instances, "_ALGEBRA_CACHE", {})
    return make_algebra(spec)


@pytest.mark.parametrize("spec", AUDIT_SPECS)
def test_audit_matches_element_reference(spec, monkeypatch):
    alg = fresh_algebra(spec, monkeypatch)
    assert alg.carrier is None or len(alg.carrier) <= core.AUDIT_CARRIER_CAP
    interned = core._audit(alg)
    ref_alg = fresh_algebra(spec, monkeypatch)
    assert interned.lines() == audit_ref(ref_alg).lines()
    # the audit fills the kind memo as alg.kind() would
    assert alg._memo["kind"] == ref_alg._memo["kind"]


def int_pair(id, add, mul, carrier):
    """A pair on integer payloads: 0 is the only null, the rest tangible,
    and dagger and negation are the identity."""

    def el(v):
        return El(id, v)

    return PairAlgebra(
        id=id,
        zero=el(0),
        one=el(1),
        add=lambda a, b: el(add(a.payload, b.payload)),
        mul=lambda a, b: el(mul(a.payload, b.payload)),
        is_tangible=lambda a: a.payload != 0,
        is_null=lambda a: a.payload == 0,
        dagger=lambda a: a,
        negation=lambda a: a,
        tangibles=tuple(el(v) for v in carrier if v),
        carrier=tuple(el(v) for v in carrier),
    )


def _skew_mul(a, b):
    # 0 absorbs, 1 is neutral, commutative; (2*3)*3 != 2*(3*3)
    if a == 0 or b == 0:
        return 0
    if a == 1 or b == 1:
        return a * b
    return 2 + (a * a + b * b) % 3


def _max_but(a, b):
    # max, except 2 + 4 = 2: (2+3)+4 = 4 but 2+(3+4) = 2
    return 2 if {a, b} == {2, 4} else max(a, b)


def _flat_mul(a, b):
    # 0 absorbs, 1 is neutral, 2*4 = 4 and any other product in {2,3,4} is 2:
    # (2*3)*4 = 4 but 2*(3*4) = 2, the same first triple as _max_but
    if a == 0 or b == 0:
        return 0
    if a == 1 or b == 1:
        return a * b
    return 4 if {a, b} == {2, 4} else 2


def _left_mul(a, b):
    if a == 0 or b == 0:
        return 0
    return a * b if a == 1 or b == 1 else a


BROKEN_PAIRS = {
    # both associativity checks fail first at (2, 3, 4): the witness is the
    # addition's, checked first
    "nonassoc-both": (int_pair("nonassoc-both", _max_but, _flat_mul, range(5)),
                      "admissible", "addition not associative at El(nonassoc-both:2),"),
    # |a - b| is commutative with 0 neutral, but (1+2)+3 != 1+(2+3)
    "nonassoc-add": (int_pair("nonassoc-add", lambda a, b: abs(a - b),
                              lambda a, b: a * b % 5, range(5)),
                     "admissible", "addition not associative at"),
    "nonassoc-mul": (int_pair("nonassoc-mul", max, _skew_mul, range(5)),
                     "admissible", "multiplication not associative at"),
    # products mod 5 over max: 2*max(2,3) = 1, max(2*2, 2*3) = 4
    "nondistributive": (int_pair("nondistributive", max, lambda a, b: a * b % 5, range(5)),
                        "distributive", "El(nondistributive:"),
    # a*b = a on {2,3,4}: distributive on the left only, which is what the
    # audit checks, so a table read transposed would fail it
    "left-projection": (int_pair("left-projection", max, _left_mul, range(5)),
                        "distributive", None),
    # 2*3 = 6 and the triples' 2*2*3 = 12 leave the carrier {0..3}
    "offcarrier": (int_pair("offcarrier", max, lambda a, b: a * b, range(4)),
                   "distributive", None),
}


@pytest.mark.parametrize("name", sorted(BROKEN_PAIRS))
def test_audit_matches_element_reference_on_broken_pairs(name):
    alg, flag, witness = BROKEN_PAIRS[name]
    interned = core._audit(alg)
    assert interned.lines() == audit_ref(alg).lines()
    assert interned.flags[flag] == (witness is None)
    if witness is not None:
        assert interned.witnesses[flag].startswith(witness)


def test_audit_interns_off_carrier_products():
    alg = BROKEN_PAIRS["offcarrier"][0]
    # 0..3 and the products of two or three factors off it: 4, 6, 9, 8, 12,
    # 18, 27
    assert core._audit(alg).elements == 11


def counting_copy(alg, calls, seen):
    """A descriptor of the same pair whose add and mul count their calls per
    ordered pair of operands, and which records every element it returns."""

    def counted(name, op):
        def run(a, b):
            calls[name, a, b] += 1
            seen.update((a, b))
            out = op(a, b)
            seen.add(out)
            return out

        return run

    def recorded(op):
        if op is None:
            return None

        def run(a):
            out = op(a)
            seen.update((a, out))
            return out

        return run

    return PairAlgebra(
        id=alg.id,
        zero=alg.zero,
        one=alg.one,
        add=counted("add", alg._add),
        mul=counted("mul", alg._mul),
        is_tangible=alg._is_tangible,
        is_null=alg._is_null,
        dagger=recorded(alg.dagger),
        negation=recorded(alg.negation),
        negation_unique=alg.negation_unique,
        tangibles=alg.tangibles,
        carrier=alg.carrier,
        declared_kind=alg.declared_kind,
        sample=alg.sample,
    )


@pytest.mark.parametrize("spec", ["hyper:hex2-c4", "supertropical", "doubled:boolean", None])
def test_audit_reaches_each_ordered_pair_once(spec):
    import collections

    alg = BROKEN_PAIRS["offcarrier"][0] if spec is None else make_algebra(spec)
    calls, seen = collections.Counter(), set()
    rep = core.axiom_audit(counting_copy(alg, calls, seen))
    assert calls and max(calls.values()) == 1
    assert rep.lines() == audit_ref(alg).lines()
    seen |= {alg.zero, alg.one} | set(alg.carrier_sample())
    assert rep.elements == len(seen)
    if alg.carrier is not None:
        assert rep.elements > len(alg.carrier) or spec == "doubled:boolean"


# ---------------------------------------------------------------------------
# the dependence search over non-max-plus pairs: codes against elements


def _combo_null(alg, vectors, support, coeffs) -> bool:
    """Whether sum_i coeffs[i] vectors[support[i]] is null in every column,
    summed on elements as ((0 + c0 v0) + c1 v1) + ..."""
    n = len(vectors[0])
    for j in range(n):
        acc = alg.zero
        for i, c in zip(support, coeffs):
            acc = alg.add(acc, alg.mul(c, vectors[i][j]))
        if not alg.is_null(acc):
            return False
    return True


def find_dependence_ref(vectors, domain, alg, *, stats=None):
    """The dependence search as an element loop: every coefficient tuple's
    combination summed column by column with `_combo_null`.  For a
    non-max-plus pair this is `find_dependence` before its search ran on
    codes, without the work bound."""
    if not vectors:
        return None
    if len(domain) == 0:
        raise DomainEmpty("empty coefficient domain")
    m = len(vectors)
    n = len(vectors[0])
    for vec in vectors:
        if len(vec) != n:
            raise PairError("vectors must have equal length")
        for e in vec:
            alg.check(e)
    assert not alg.max_plus
    heads = (alg.one,) if alg.tangible_inverse is not None else domain.candidates
    tried = scanned = 0
    try:
        for size in range(1, m + 1):
            for support in itertools.combinations(range(m), size):
                tried += 1
                scanned += 1
                for coeffs in itertools.product(heads, *[domain.candidates] * (size - 1)):
                    if _combo_null(alg, vectors, support, coeffs):
                        return DependenceWitness(support, coeffs)
        return None
    finally:
        if stats is not None:
            stats["supports_tried"] += tried
            stats["supports_scanned"] += scanned


DOUBLED_ST = make_algebra("doubled:supertropical")
SEARCH_PAIRS = registered_instances() + [DOUBLED_ST]


def _draw_entry(rng, alg, tangible):
    """An entry from anywhere in the carrier, or a tangible or zero one;
    over doubled:supertropical a pair of supertropical entries with ghosts,
    zeros and halves."""
    if alg is DOUBLED_ST:
        p, q = _draw(rng, st), _draw(rng, st)
        if tangible:
            p, q = rng.choice([(st.tangible_lift(p), st.zero), (st.zero, st.tangible_lift(q))])
        return El(alg.id, (p, q))
    return rng.choice((alg.zero, *alg.tangibles) if tangible else alg.carrier)


def searched(search, rows, domain, alg):
    """(witness or what was raised, supports_tried, supports_scanned)."""
    stats = {"supports_tried": 0, "supports_scanned": 0}
    got = outcome(lambda: search(rows, domain, alg, stats=stats))
    return got, stats["supports_tried"], stats["supports_scanned"]


@pytest.mark.parametrize("alg", SEARCH_PAIRS, ids=lambda alg: alg.id)
def test_dependence_search_matches_the_element_loop(alg):
    rng = random.Random(f"dependence:{alg.id}")
    found = 0
    for m in range(1, 5):
        for n in range(1, 4):
            for tangible in (False, False, True, True, True):
                rows = [[_draw_entry(rng, alg, tangible) for _ in range(n)] for _ in range(m)]
                domains = [default_domain(alg, rows)]
                if alg is DOUBLED_ST:
                    # a heuristic domain past the coefficient 1, whose
                    # denominators rebind the codec's scale
                    picks = [rng.choice(st.sample[1:6]) for _ in range(3)]
                    domains.append(CoefficientDomain(
                        tuple(El(alg.id, (p, st.zero)) for p in picks), "heuristic"
                    ))
                for domain in domains:
                    got = searched(find_dependence, rows, domain, alg)
                    assert got == searched(find_dependence_ref, rows, domain, alg), (rows, domain)
                    found += got[0][1] is not None
    assert found  # some draws are dependent


@pytest.mark.parametrize("spec", ["sign", "krasner:5:4", "hyper:hex1-c3", "doubled:boolean"])
def test_dependence_search_leads_with_one_outside_the_domain(spec):
    alg = make_algebra(spec)
    assert alg.tangible_inverse is not None
    domain = CoefficientDomain(tuple(t for t in alg.tangibles if t != alg.one), "exact")
    rng = random.Random(f"no-one:{spec}")
    leads = 0
    for _ in range(40):
        m, n = rng.randint(1, 4), rng.randint(1, 3)
        rows = [[rng.choice(alg.carrier) for _ in range(n)] for _ in range(m)]
        got = searched(find_dependence, rows, domain, alg)
        assert got == searched(find_dependence_ref, rows, domain, alg)
        w = got[0][1]
        if w is not None:
            assert w.coeffs[0] == alg.one
            leads += 1
    assert leads


# ---------------------------------------------------------------------------
# the surpassing span search: codes against elements


def preceq_spans_ref(vectors, target, domain=None, alg=None):
    """The span search as an element loop: every coefficient tuple's
    combination summed on elements and tested column by column with
    `surpasses0`.  This is `preceq_spans` before it ran on codes, without
    the work bound or the up-front checks of owners and lengths."""
    if alg is None:
        raise UndecidableSurpassing("algebra required")
    if domain is None:
        domain = default_domain(alg, list(vectors) + [target])
    n = len(target)
    m = len(vectors)
    for size in range(1, m + 1):
        for support in itertools.combinations(range(m), size):
            for coeffs in itertools.product(domain.candidates, repeat=size):
                ok = True
                for j in range(n):
                    acc = alg.zero
                    for i, c in zip(support, coeffs):
                        acc = alg.add(acc, alg.mul(c, vectors[i][j]))
                    try:
                        if not surpasses0(alg, acc, target[j]):
                            ok = False
                            break
                    except PairError as exc:
                        raise UndecidableSurpassing(str(exc))
                if ok:
                    full = [alg.zero] * m
                    for i, c in zip(support, coeffs):
                        full[i] = c
                    witness = None
                    if alg.dagger is not None:
                        wit_vecs = [target] + [vectors[i] for i in support]
                        wit_coeffs = (alg.one,) + tuple(
                            alg.dagger(c) for c in coeffs
                        )
                        if _combo_null(
                            alg, wit_vecs, tuple(range(len(wit_vecs))), wit_coeffs
                        ):
                            witness = DependenceWitness(
                                tuple(range(len(wit_vecs))), wit_coeffs
                            )
                    return tuple(full), witness
    return None


SPAN_PAIRS = SEARCH_PAIRS + [st]


def _span_entry(rng, alg, tangible):
    if alg is st:
        return rng.choice(st.sample[:6] if tangible else st.sample)
    return _draw_entry(rng, alg, tangible)


def _span_candidates(rng, alg, k):
    """k tangible coefficients, repeats allowed."""
    if alg is st:
        return [rng.choice(st.sample[1:6]) for _ in range(k)]
    if alg is DOUBLED_ST:
        return [El(alg.id, (rng.choice(st.sample[1:6]), st.zero)) for _ in range(k)]
    return [rng.choice(alg.tangibles) for _ in range(k)]


def _nulls(alg):
    if alg is DOUBLED_ST:
        pool = [El(alg.id, (p, q)) for p in st.sample for q in st.sample]
    else:
        pool = st.sample if alg is st else alg.carrier
    return [c for c in pool if alg.is_null(c)]


def _span_target(rng, alg, rows, n, tangible):
    """A random vector, or a combination of some of the rows with random
    coefficients, to which a null element is sometimes added."""
    if rng.random() < 0.4:
        return tuple(_span_entry(rng, alg, tangible) for _ in range(n))
    used = [row for row in rows if rng.random() < 0.7]
    coeffs = _span_candidates(rng, alg, len(used))
    target = [alg.sum(alg.mul(c, row[j]) for c, row in zip(coeffs, used)) for j in range(n)]
    nulls = _nulls(alg)
    for j in range(n):
        if rng.random() < 0.3:
            target[j] = alg.add(target[j], rng.choice(nulls))
    return tuple(target)


@pytest.mark.parametrize("alg", SPAN_PAIRS, ids=lambda alg: alg.id)
def test_span_search_matches_the_element_loop(alg):
    rng = random.Random(f"span:{alg.id}")
    found = 0
    for m in range(1, 4):
        for n in range(1, 4):
            for tangible in (False, False, True, True):
                rows = [tuple(_span_entry(rng, alg, tangible) for _ in range(n)) for _ in range(m)]
                target = _span_target(rng, alg, rows, n, tangible)
                listed = CoefficientDomain(
                    tuple(_span_candidates(rng, alg, rng.randint(2, 4))), "heuristic"
                )
                for domain in (None, listed):
                    got = outcome(preceq_spans, rows, target, domain, alg)
                    ref = outcome(preceq_spans_ref, rows, target, domain, alg)
                    assert got == ref, (rows, target, domain)
                    found += got[0] == "value" and got[1] is not None
    assert found  # some draws are spanned


def test_span_search_tries_a_leaf_in_tuple_order():
    """doubled:supertropical has no surpass rule and no finite carrier, so
    surpassing is undecidable there unless the two sides are equal.  The
    first candidate spans v in every column; the second's first column is
    undecidable, and is never tested."""
    d = DOUBLED_ST
    lit = d.parse_literal
    v = (lit("1|-inf"), lit("2|-inf"))
    dom = CoefficientDomain((lit("0|-inf"), lit("1|-inf")), "heuristic")
    got = outcome(preceq_spans, [v], v, dom, d)
    assert got == outcome(preceq_spans_ref, [v], v, dom, d)
    assert got[0] == "value" and got[1][0] == (d.one,)
    # the other way round, the first tuple's first column is undecidable
    dom = CoefficientDomain(dom.candidates[::-1], "heuristic")
    got = outcome(preceq_spans, [v], v, dom, d)
    assert got == outcome(preceq_spans_ref, [v], v, dom, d)
    assert got[:2] == ("raised", UndecidableSurpassing)


def _forbidden(*args, **kwargs):
    raise AssertionError("the search ran")


@pytest.mark.parametrize("spec", ["sign", "hyper:hex2-c4", "supertropical", "doubled:supertropical"])
def test_span_search_cap_on_both_sides(spec, monkeypatch):
    alg = make_algebra(spec)
    rng = random.Random(f"span-cap:{spec}")
    rows = [tuple(_span_entry(rng, alg, False) for _ in range(2)) for _ in range(3)]
    target = tuple(_span_entry(rng, alg, False) for _ in range(2))
    domain = CoefficientDomain(tuple(_span_candidates(rng, alg, 3)), "heuristic")
    work = 4 ** 3 - 1  # sum over k of C(3, k) 3^k
    assert rank_mod._search_work(3, 3, 3) == work
    monkeypatch.setattr(rank_mod, "SEARCH_WORK_CAP", work)
    got = outcome(preceq_spans, rows, target, domain, alg)
    assert got == outcome(preceq_spans_ref, rows, target, domain, alg)
    monkeypatch.setattr(rank_mod, "SEARCH_WORK_CAP", work - 1)
    monkeypatch.setattr(rank_mod, "_coded_walk", _forbidden)
    with pytest.raises(
        CapExceeded,
        match=f"^span search cap exceeded: 3 vectors need up to {work} "
        f"coefficient tuples, more than {work - 1}$",
    ):
        preceq_spans(rows, target, domain, alg=alg)


def test_span_search_cap_refuses_at_once():
    """Over krasner:17:1 (16 tangibles) six vectors need 17^6 - 1 tuples,
    past SEARCH_WORK_CAP; five need 17^5 - 1, within it."""
    alg = make_algebra("krasner:17:1")
    domain = default_domain(alg, [])
    assert len(domain) == 16
    assert rank_mod._search_work(5, 16, 16) == 17 ** 5 - 1 <= rank_mod.SEARCH_WORK_CAP
    rows = [(t,) for t in alg.tangibles[:6]]
    with pytest.raises(CapExceeded, match=f"need up to {17 ** 6 - 1} coefficient tuples"):
        preceq_spans(rows, (alg.one,), alg=alg)


def test_span_search_checks_owners_and_lengths_first(monkeypatch):
    """Foreign elements and vectors whose length differs from the target's
    are refused before the cap and before any search, where the element
    loop found a span, raised from inside its search, or ignored them."""
    sign = make_algebra("sign")
    other = make_algebra("boolean").one
    one = sign.one
    v = (one, one)
    monkeypatch.setattr(rank_mod, "SEARCH_WORK_CAP", 0)
    monkeypatch.setattr(rank_mod, "_coded_walk", _forbidden)
    cases = [
        # vectors, target, what the element loop did, what is raised now
        ([v, (one, other)], v, "value", AlgebraMismatch),
        ([(other, one)], v, AlgebraMismatch, AlgebraMismatch),
        ([v], (one, other), UndecidableSurpassing, AlgebraMismatch),
        ([v, (one,)], v, "value", PairError),
        ([(one,)], v, IndexError, PairError),
        ([v + (one,)], v, "value", PairError),
    ]
    for vectors, target, before, now in cases:
        ref = outcome(preceq_spans_ref, vectors, target, None, sign)
        assert (ref[0] if before == "value" else ref[1]) == before
        got = outcome(preceq_spans, vectors, target, None, sign)
        assert got[:2] == ("raised", now)
        if now is PairError:
            assert got[2] == "vectors and target must have equal length"


# ---------------------------------------------------------------------------
# the walk over supports: ranks and the first row witness against the
# nested search that re-searched every subset


def rank_of_ref(alg, vectors, domain):
    """The rank as the nested search took it: for k from m down, the first
    k-subset of the vectors on which `find_dependence` finds no witness,
    each call searching every support of its subset from size 1."""
    m = len(vectors)
    for k in range(m, 0, -1):
        for subset in itertools.combinations(range(m), k):
            if find_dependence([vectors[i] for i in subset], domain, alg) is None:
                return k
    return 0


def rank_facts_ref(a, domain):
    """(row rank, column rank, submatrix rank, first row witness, the A1, A2
    and A2' verdicts) as the nested search gave them: each rank from
    `rank_of_ref`, and the witness from a second search over every row."""
    alg, rows = a.alg, list(a.entries)
    rr = rank_of_ref(alg, rows, domain)
    cr = rank_of_ref(alg, [a.col(j) for j in range(a.cols)], domain)
    sr = submatrix_rank(a)
    w = find_dependence(rows, domain, alg)
    verdicts = (
        rank_mod._rank_verdict("a1", sr, rr, cr, domain),
        rank_mod._rank_verdict("a2", sr, rr, cr, domain),
        rank_mod._a2prime_verdict(a, w, domain),
    )
    return rr, cr, sr, w, verdicts


WALK_PAIRS = [
    make_algebra(spec)
    for spec in (
        "sign", "doubled:boolean", "hyper:hex1-c3", "hyper:weaksign-c2",
        "krasner:7:2", "krasner:17:1",
    )
] + [st]


def _walk_entry(rng, alg, tangible):
    """A finite pair's entry from anywhere in the carrier, or a tangible or
    zero one; a supertropical entry with small values, ghosts and zeros."""
    if alg is not st:
        return _draw_entry(rng, alg, tangible)
    r = rng.random()
    if r < 0.1:
        return st.zero
    if r < 0.25 and not tangible:
        return st_ghost(rng.randint(-3, 3))
    return st_tan(Fraction(rng.randint(-6, 6), rng.choice((1, 1, 2))))


def walk_draws(seed, count):
    """count seeded random matrices of 1-4 x 1-4, spread over WALK_PAIRS."""
    rng = random.Random(seed)
    for t in range(count):
        alg = WALK_PAIRS[t % len(WALK_PAIRS)]
        m, n, tangible = rng.randint(1, 4), rng.randint(1, 4), rng.random() < 0.5
        yield matrix(alg, [[_walk_entry(rng, alg, tangible) for _ in range(n)] for _ in range(m)])


EXIT_OF = {"HOLDS": 0, "FAILS": 1, "UNKNOWN": 3}


def test_walk_ranks_and_witness_match_the_nested_search(tmp_path, capsys):
    """Over 3,010 random files, `rank_report` and the `rank` and `check`
    commands give the nested search's ranks, first row witness, verdicts
    and exit codes."""
    path = tmp_path / "m.txt"
    dependent = gaps = 0
    for a in walk_draws("walk", 3010):
        alg = a.alg
        domain = default_domain(alg, list(a.entries))
        rr, cr, sr, w, verdicts = rank_facts_ref(a, domain)
        rep = rank_report(a, domain)
        assert (rep.row_rank, rep.col_rank, rep.submatrix_rank) == (rr, cr, sr), a
        assert rep.row_witnesses == ([] if w is None else [w]), a
        assert (rep.a1, rep.a2, rep.a2prime) == verdicts, a
        path.write_text(format_matrix_text(a))
        assert run_command(["rank", str(path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[1:4] == [f"row_rank: {rr}", f"col_rank: {cr}", f"submatrix_rank: {sr}"]
        witness = [] if w is None else [f"witness: {w.kv(alg.format_literal)}"]
        assert [l for l in lines if l.startswith("witness: ")] == witness, a
        for which, v in zip(("a1", "a2", "a2p"), verdicts):
            want = [f"{which}: {v.verdict}"] + [f"{which}_detail: {v.detail}"] * bool(v.detail)
            if v.witness is not None:
                want.append(f"witness: {v.witness.kv(alg.format_literal)}")
            assert run_command(["check", which, str(path)]) == EXIT_OF[v.verdict], (a, which)
            assert capsys.readouterr().out.splitlines()[:-2] == want, (a, which)
        dependent += w is not None
        gaps += rr != cr or rr != sr
    # dependent and independent rows, and ranks that differ, are drawn
    assert 500 < dependent < 2500 and gaps >= 10, (dependent, gaps)


def test_the_walk_searches_a_support_once_and_only_past_witness_free_ones(monkeypatch):
    """Every walk, wrapped at its per-support search: supports come by size,
    then lexicographically, none twice, and one of k > 1 vectors is searched
    only after each of its k - 1 subsets was searched and had no witness, so
    never when it holds a witnessed support."""
    walks = []
    inner = rank_mod._dependence_search

    def recorded(vectors, domain, alg):
        search, calls = inner(vectors, domain, alg), []
        walks.append((len(vectors), calls))

        def wrapped(support):
            got = search(support)
            calls.append((support, got[0] is not None))
            return got

        return wrapped

    monkeypatch.setattr(rank_mod, "_dependence_search", recorded)
    for a in walk_draws("walk-once", 700):
        rank_report(a)
    pruned = 0
    for m, calls in walks:
        supports = [s for s, _ in calls]
        assert supports == sorted(set(supports), key=lambda s: (len(s), s))
        free = {s for s, hit in calls if not hit}
        witnessed = [set(s) for s, hit in calls if hit]
        for s in supports:
            if len(s) > 1:
                assert all(s[:i] + s[i + 1:] in free for i in range(len(s)))
            assert not any(t < set(s) for t in witnessed)
        # the supports up to the walk's last size that it left unsearched
        pruned += sum(math.comb(m, k) for k in range(1, len(supports[-1]) + 1)) - len(supports)
    assert len(walks) == 1400 and pruned > 100, (len(walks), pruned)


# ---------------------------------------------------------------------------
# minor layers on index plans against the dict walk


def dp_layer_ref(codes, cols, coding) -> tuple:
    """Each S keeps its (even, odd) sums of partial track products.
    Regrouping the track sum by S needs multiplication to distribute over
    addition."""
    m = len(codes)
    layer = {0: (coding.one, coding.zero)}
    products = 0
    for k, c in enumerate(cols):
        products += 2 * (m - k) * len(layer)
        layer = dp_step_ref(layer, [row[c] for row in codes], coding)
    return layer, products


def dp_step_ref(layer, col, coding) -> dict:
    """The DP layer one column further: every S extended by each row i
    outside it, with the coded entries col[i] of the new column."""
    add, mul = coding.add, coding.mul
    nxt = {}
    for s, (even, odd) in layer.items():
        for i, e in enumerate(col):
            if s >> i & 1:
                continue
            x = mul(even, e)
            y = mul(odd, e)
            if (s >> i).bit_count() & 1:
                x, y = y, x
            t = s | 1 << i
            prev = nxt.get(t)
            nxt[t] = (x, y) if prev is None else (add(prev[0], x), add(prev[1], y))
    return nxt


def walk_layer_ref(codes, cols, coding) -> tuple:
    """Each S keeps its distinct partial products, each with the number of
    even and of odd partial tracks that reach it.

    Tracks with equal prefixes have equal continuations, since the next
    prefix is mul(prefix, entry), so the grouping is exact for any pair and
    a group costs one multiplication per extension.  A parity's sum is then
    the sum over its distinct products x of k * x, for k tracks.
    """
    mul = coding.mul
    m = len(codes)
    layer = {0: {coding.one: [1, 0]}}
    products = 0
    for c in cols:
        nxt = {}
        for s, prefixes in layer.items():
            for i in range(m):
                if s >> i & 1:
                    continue
                e = codes[i][c]
                swap = (s >> i).bit_count() & 1
                out = nxt.setdefault(s | 1 << i, {})
                # the plan walk makes no product by a zero entry or of a
                # zero prefix, and so keeps no zero group
                if e != coding.zero:
                    products += sum(x != coding.zero for x in prefixes)
                for x, (even, odd) in prefixes.items():
                    y = mul(x, e)
                    if swap:
                        even, odd = odd, even
                    counts = out.get(y)
                    if counts is None:
                        out[y] = [even, odd]
                    else:
                        counts[0] += even
                        counts[1] += odd
        layer = nxt
    return {s: matrices._parity_sums(coding, prefixes) for s, prefixes in layer.items()}, products


def minor_layer_ref(alg, codes, cols, coding):
    """`_minor_layer` as a dict walk, before it ran on index plans."""
    if matrices.det_method(alg) == "dp":
        return dp_layer_ref(codes, cols, coding)
    return walk_layer_ref(codes, cols, coding)


HYPERPAIRS = [alg for alg in registered_instances() if alg.id.startswith(("hyper:", "krasner:"))]
LAYER_PAIRS = PAIRS + [DOUBLED_ST]


def _set_valued(rng, alg):
    """A hyperpair entry off the carrier: a set of atoms no sum reaches."""
    atoms = len(alg.tangibles) + 1
    carrier = {e.payload for e in alg.carrier}
    return El(alg.id, rng.choice([s for s in range(1, 1 << atoms) if s not in carrier]
                                 or range(1, 1 << atoms)))


def _layer_entry(rng, alg):
    if alg is DOUBLED_ST:
        return _draw_entry(rng, alg, False)
    if alg in HYPERPAIRS and rng.random() < 0.3:
        return _set_valued(rng, alg)
    return _draw(rng, alg)


def _column_tuples(rng, width, k):
    """The column tuples of k columns out of width that the kernels pass:
    contiguous from the first column or elsewhere, and any sorted choice."""
    j = rng.randrange(width - k + 1)
    return {tuple(range(k)), tuple(range(j, j + k)), tuple(sorted(rng.sample(range(width), k)))}


@pytest.mark.parametrize("alg", LAYER_PAIRS, ids=lambda alg: alg.id)
def test_minor_layers_match_the_dict_walk(alg):
    # values, key order and products, on the codes as given and transposed
    # (Laplace walks the transpose), for empty to full column tuples
    rng = random.Random(f"layers:{alg.id}")
    compared = 0
    for m in (*range(1, 8), *range(1, 8)):
        a = matrix(alg, [[_layer_entry(rng, alg) for _ in range(m + 1)] for _ in range(m)])
        coding, codes = matrices._coded(a)
        at = [list(col) for col in zip(*codes)]
        for rows, width in ((codes, m + 1), (at, m)):
            for k in range(min(len(rows), width) + 1):
                for cols in sorted(_column_tuples(rng, width, k)):
                    got, made = matrices._minor_layer(alg, rows, cols, coding)
                    want, want_made = minor_layer_ref(alg, rows, cols, coding)
                    assert list(got.items()) == list(want.items()), (m, cols, a.entries)
                    assert made == want_made, (m, cols)
                    compared += 1
    assert compared > 100


@pytest.mark.parametrize("alg", [alg for alg in LAYER_PAIRS if matrices.det_method(alg) == "dp"],
                         ids=lambda alg: alg.id)
def test_cramer_determinant_step_matches_a_full_layer(alg):
    # _adj_vec extends the adjoint's last layer by the last column with the
    # plan's last step instead of walking a layer of its own
    rng = random.Random(f"adj-step:{alg.id}")
    for n in range(1, 7):
        for _ in range(2):
            a = matrix(alg, [[_layer_entry(rng, alg) for _ in range(n)] for _ in range(n)])
            v = [_layer_entry(rng, alg) for _ in range(n)]
            coding, codes, _, _, det = solve._adj_vec(a, v)
            layer, _ = dp_layer_ref(codes, range(n), coding)
            assert det == layer[(1 << n) - 1], (n, a.entries)


def free_codec():
    """Codes as terms: every add and mul builds its own node, so two walks
    give equal values only if they make the same operations on the same
    arguments in the same order."""
    return core.Codec(
        zero=("0",), one=("1",),
        add=lambda x, y: ("+", x, y), mul=lambda x, y: ("*", x, y),
        encode=None, decode=None,
    )


@pytest.mark.parametrize("spec", ["sign", "hyper:hex1-c3"], ids=["dp", "tracks"])
def test_minor_layers_keep_the_dict_walks_order_of_operations(spec):
    alg = make_algebra(spec)
    coding = free_codec()
    rng = random.Random(f"terms:{spec}")
    for m in range(1, 7):
        codes = [[("e", i, j) for j in range(m + 1)] for i in range(m)]
        for k in range(m + 1):
            for cols in sorted(_column_tuples(rng, m + 1, k)):
                got = matrices._minor_layer(alg, codes, cols, coding)
                want = minor_layer_ref(alg, codes, cols, coding)
                assert list(got[0].items()) == list(want[0].items()), (m, cols)
                assert got[1] == want[1]


def test_cramer_determinant_step_keeps_the_order_of_operations(monkeypatch):
    sign = make_algebra("sign")
    coding = free_codec()
    coding.encode = lambda e: ("v", e)
    for n in range(1, 6):
        codes = [[("e", i, j) for j in range(n)] for i in range(n)]
        monkeypatch.setattr(matrices, "_coded", lambda a, v: (coding, codes))
        det = solve._adj_vec(identity(sign, n), [sign.one] * n)[4]
        assert det == dp_layer_ref(codes, range(n), coding)[0][(1 << n) - 1], n


# ---------------------------------------------------------------------------
# the quasi-inverse: one adjugate pass against det_doubled then adjoint


def quasi_inverse_ref(a):
    """The quasi-inverse from two passes: det_doubled, then adjoint."""
    if not a.is_square:
        raise matrices.DimensionMismatch("quasi-inverse of a non-square matrix")
    alg = a.alg
    d = det_doubled(a)
    if d.balanced():
        raise matrices.SingularInput("matrix is singular")
    adj = adjoint(a)
    if alg.negation is not None:
        dalg = adj.alg
        det = alg.add(d.det_plus, alg.negation(d.det_minus))
        if not alg.is_tangible(det):
            raise matrices.NonInvertibleDeterminant(f"determinant {det!r} is not tangible")
        if alg.tangible_inverse is None:
            raise matrices.NonInvertibleDeterminant(f"{alg.id} has no tangible inverses")
        inv = alg.tangible_inverse(det)
        a_prime = scalar_mat(alg, inv, matrices.project_matrix(dalg, adj))
        work = a
    else:
        dalg = adj.alg
        det = El(dalg.id, (d.det_plus, d.det_minus))
        if not dalg.is_tangible(det):
            raise matrices.NonInvertibleDeterminant("doubled determinant is not tangible")
        if dalg.tangible_inverse is None:
            raise matrices.NonInvertibleDeterminant(f"{dalg.id} has no tangible inverses")
        inv = dalg.tangible_inverse(det)
        a_prime = scalar_mat(dalg, inv, adj)
        work = embed_matrix(dalg, a)
    left = mat_mul(work, a_prime)
    right = mat_mul(a_prime, work)
    verified = matrices.quasi_identity_check(left) and matrices.quasi_identity_check(right)
    a_tilde = mat_mul(mat_mul(a_prime, work), a_prime)
    return matrices.QuasiInverse(a_prime, a_tilde, left, right, verified)


def _qi_entry(rng, alg, tangible):
    if alg is st:
        return rand_supertropical_matrix(rng, 1, tangible=tangible)[0, 0]
    if tangible:
        return rng.choice((*alg.tangible_sample(), alg.zero))
    return rng.choice(alg.carrier)


def _qi_fields(got):
    """outcome() of a quasi-inverse with its five fields spelled out."""
    if got[0] == "raised":
        return got
    q = got[1]
    return ("value", q.a_prime, q.a_tilde, q.left_identity, q.right_identity, q.verified)


def test_quasi_inverse_matches_two_passes():
    seen = set()
    for alg in PAIRS:
        rng = random.Random(f"quasi-inverse:{alg.id}")
        for n in range(1, 5):
            for tangible in (True, False):
                for _ in range(8):
                    a = matrix(alg, [[_qi_entry(rng, alg, tangible) for _ in range(n)]
                                     for _ in range(n)])
                    got = _qi_fields(outcome(matrices.quasi_inverse, a))
                    assert got == _qi_fields(outcome(quasi_inverse_ref, a)), (alg.id, a.entries)
                    seen.add(got[1] if got[0] == "raised" else got[-1])
    # both verdicts and the errors after the determinant are reached
    assert {True, False, matrices.SingularInput, matrices.NonInvertibleDeterminant} <= seen, seen


@pytest.mark.parametrize("spec", ["sign", "hyper:hex1-c3", "supertropical"])
def test_quasi_inverse_keeps_the_cap(spec, monkeypatch):
    alg = make_algebra(spec)
    rng = random.Random(f"quasi-inverse-cap:{spec}")
    a = matrix(alg, [[_qi_entry(rng, alg, True) for _ in range(3)] for _ in range(3)])
    for cap, raised in (("2", True), ("3", False)):
        monkeypatch.setenv("PAIRLIN_CAP_N", cap)
        got = outcome(matrices.quasi_inverse, a)
        assert (got[1] is CapExceeded) == raised, got
        assert _qi_fields(got) == _qi_fields(outcome(quasi_inverse_ref, a))


def counting_coded(monkeypatch):
    """Make every kernel call count its code products: matrices._coded
    hands out the pair's codec with a counting mul.  Returns the count."""
    made = [0]
    real = matrices._coded

    def coded(a, *extra):
        coding, codes = real(a, *extra)
        mul = coding.mul

        def counted(x, y):
            made[0] += 1
            return mul(x, y)

        return core.Codec(coding.zero, coding.one, coding.add, counted,
                          coding.encode, coding.decode, coding.null), codes

    monkeypatch.setattr(matrices, "_coded", coded)
    return made


def _products_of(made, fn, *args):
    before = made[0]
    outcome(fn, *args)
    return made[0] - before


@pytest.mark.parametrize("spec", ["sign", "hyper:hex1-c3"], ids=["dp", "tracks"])
def test_adjugate_pass_product_counts(spec, monkeypatch):
    alg = make_algebra(spec)
    rng = random.Random(f"adjugate-products:{spec}")
    compared = singular = 0
    for n in range(1, 6):
        for _ in range(8):
            a = matrix(alg, [[_qi_entry(rng, alg, True) for _ in range(n)] for _ in range(n)])
            coding, codes = matrices._coded(a)
            plans = matrices._row_plans(n)
            per_row = [
                matrices._minor_layer(alg, codes, [c for c in range(n) if c != i], coding, plans)[1]
                for i in range(n)
            ]
            det = det_doubled(a).products
            dp = matrices.det_method(alg) == "dp"
            with monkeypatch.context() as mp:
                made = counting_coded(mp)
                # the adjoint walks its n layers and nothing more
                assert _products_of(made, adjoint, a) == sum(per_row), (n, a.entries)
                if is_singular(a):
                    # the last row's layer and |A|, and no other layer
                    got = _products_of(made, matrices.quasi_inverse, a)
                    assert got == per_row[-1] + (2 * n if dp else det), (n, a.entries)
                    singular += 1
                    continue
                ref = _products_of(made, quasi_inverse_ref, a)
                got = _products_of(made, matrices.quasi_inverse, a)
            if dp:
                # |A| extends the last adjoint layer by one column step: a
                # determinant layer fewer, 2n products more
                assert ref - got == det - 2 * n, (n, a.entries)
            else:
                # the walk's |A| takes its own layer, in place of det_doubled's
                assert ref == got, (n, a.entries)
            compared += 1
    assert compared > 10 and singular > 3, (compared, singular)


# ---------------------------------------------------------------------------
# the principal walk and nullity on codes


def char_poly_codes_ref(a, codes, coding) -> list:
    """`_char_poly_codes` as one minor layer per principal submatrix, before
    the principal walk."""
    if not a.is_square:
        raise matrices.DimensionMismatch("characteristic polynomial of a non-square matrix")
    n = a.rows
    matrices._check_n("determinant", n)
    add = coding.add
    coeffs = [(coding.one, coding.zero)]
    for k in range(1, n + 1):
        plus = minus = coding.zero
        plans = matrices._row_plans(k)
        for subset in itertools.combinations(range(n), k):
            sub = [[codes[i][j] for j in subset] for i in subset]
            layer, _ = matrices._minor_layer(a.alg, sub, range(k), coding, plans)
            p, q = layer[(1 << k) - 1]
            plus, minus = add(plus, p), add(minus, q)
        coeffs.append((minus, plus) if k & 1 else (plus, minus))
    return coeffs


def cayley_hamilton_decoding_ref(a):
    """cayley_hamilton_check on char_poly_codes_ref, deciding the nullity of
    each entry of f(A) on the decoded doubled element."""
    n = a.rows
    if n > matrices.CAYLEY_HAMILTON_CAP:
        raise CapExceeded(f"cayley-hamilton cap exceeded at n = {n}")
    dalg = make_doubled(a.alg)
    coding, codes = matrices._coded(a)
    cs = char_poly_codes_ref(a, codes, coding)
    powers = [[[coding.one if i == j else coding.zero for j in range(n)] for i in range(n)]]
    for _ in range(n):
        powers.append(matrices._mat_mul_codes(powers[-1], codes, coding))
    dec = coding.decode
    for i in range(n):
        for j in range(n):
            column = [powers[n - k][i][j] for k in range(n + 1)]
            plus = matrices._dot(coding, (c[0] for c in cs), column)
            minus = matrices._dot(coding, (c[1] for c in cs), column)
            if not dalg.is_null(El(dalg.id, (dec(plus), dec(minus)))):
                return False
    return True


CHAR_POLY_PAIRS = LAYER_PAIRS + [
    make_algebra(spec) for spec in ("doubled:sign", "doubled:hyper:hex1-c3")
]


def _char_poly_entry(rng, alg):
    if alg.base is not None and alg is not DOUBLED_ST and alg.base in HYPERPAIRS:
        return El(alg.id, (_layer_entry(rng, alg.base), _layer_entry(rng, alg.base)))
    return _layer_entry(rng, alg)


@pytest.mark.parametrize("alg", CHAR_POLY_PAIRS, ids=lambda alg: alg.id)
def test_principal_walk_matches_one_layer_per_principal_minor(alg, monkeypatch):
    # the coefficients on codes, from the pair's own path and, where
    # multiplication distributes, from the grouped path too, which needs
    # only that addition commutes and associates
    rng = random.Random(f"principal:{alg.id}")
    paths = ["dp", "tracks"] if matrices.det_method(alg) == "dp" else ["tracks"]
    for n in range(1, 6):
        for _ in range(12):
            a = matrix(alg, [[_char_poly_entry(rng, alg) for _ in range(n)] for _ in range(n)])
            coding, codes = matrices._coded(a)
            want = char_poly_codes_ref(a, codes, coding)
            for path in paths:
                with monkeypatch.context() as m:
                    m.setattr(matrices, "det_method", lambda alg, path=path: path)
                    got = matrices._char_poly_codes(a, codes, coding)
                assert got == want, (alg.id, path, a.entries)


def test_principal_walk_keeps_the_cap_and_the_shape(monkeypatch):
    a = rand_matrix(random.Random(21), st, 4)
    coding, codes = matrices._coded(a)
    b = rand_matrix(random.Random(21), st, 3, 4)
    for cap in ("3", "4"):
        monkeypatch.setenv("PAIRLIN_CAP_N", cap)
        got = outcome(matrices._char_poly_codes, a, codes, coding)
        assert got == outcome(char_poly_codes_ref, a, codes, coding)
        assert outcome(matrices.char_poly_doubled, b) == outcome(
            char_poly_codes_ref, b, None, None
        )
    assert got[0] == "value"


def _codes_of(alg):
    """Every code alg's own codec makes: carrier indices, every atom mask
    of a hyperpair (sets off the carrier too), and pairs of base codes."""
    coding = alg.coding()
    if alg.base is not None:
        base = _codes_of(alg.base)[1]
        return coding, [(p, q) for p in base for q in base]
    if alg in HYPERPAIRS:
        return coding, list(range(1, 1 << len(alg.tangibles) + 1))
    return coding, [coding.encode(e) for e in alg.carrier]


NULLITY_PAIRS = [alg for alg in CHAR_POLY_PAIRS if alg.carrier is not None] + [
    make_algebra(spec) for spec in ("doubled:krasner:5:4", "doubled:superboolean")
]


@pytest.mark.parametrize("alg", NULLITY_PAIRS, ids=lambda alg: alg.id)
def test_codec_nullity_is_the_nullity_of_the_decoded_element(alg):
    coding, codes = _codes_of(alg)
    dec = coding.decode
    for c in codes:
        assert coding.null[c] == alg.is_null(dec(c)), (alg.id, c)
    el = core.el_codec(alg)
    for c in codes:
        assert el.null[dec(c)] == alg.is_null(dec(c)), (alg.id, c)


def _st_codes(rng, coding, count):
    """Random codes of a supertropical codec: zero, and tangible and ghost
    values at its scale, small and large."""
    out = [None]
    for _ in range(count):
        v = rng.choice((rng.randint(-9, 9), rng.randint(-10 ** 9, 10 ** 9)))
        out.append(v << 1 | rng.randint(0, 1))
    return out


@pytest.mark.parametrize("denominators", [(1,), (2, 3), (7, 1_000_003)])
def test_supertropical_nullity_on_codes_at_each_scale(denominators):
    rng = random.Random(f"st-null:{denominators}")
    coding = st.coding(st_tan(Fraction(1, d)) for d in denominators)
    codes = _st_codes(rng, coding, 300)
    for c in codes:
        assert coding.null[c] == st.is_null(coding.decode(c)), c
    dcoding = DOUBLED_ST.coding(
        El(DOUBLED_ST.id, (st_tan(Fraction(1, d)), st.zero)) for d in denominators
    )
    for _ in range(600):
        pq = (rng.choice(codes), rng.choice(codes))
        assert dcoding.null[pq] == DOUBLED_ST.is_null(dcoding.decode(pq)), pq


@pytest.mark.parametrize("alg", NULLITY_PAIRS + [st], ids=lambda alg: alg.id)
def test_doubled_nullity_and_balance_on_base_codes(alg):
    # the doubled nullity and the balance memo on a pair's codes, against
    # the doubled pair's is_null and balances on the decoded elements
    rng = random.Random(f"doubled-null:{alg.id}")
    if alg is st:
        coding = st.coding([st_tan(Fraction(1, 6))])
        codes = _st_codes(rng, coding, 40)
    else:
        coding, codes = _codes_of(alg)
    dalg = make_doubled(alg)
    null = core._doubled_null(alg, coding)
    balanced = core._balance_codes(alg, coding)
    dec = coding.decode
    pairs = [(p, q) for p in codes for q in codes]
    for p, q in rng.sample(pairs, min(len(pairs), 2000)):
        assert null[p, q] == dalg.is_null(El(dalg.id, (dec(p), dec(q)))), (alg.id, p, q)
        assert outcome(lambda: balanced[p, q]) == outcome(balances, alg, dec(p), dec(q))


@pytest.mark.parametrize("alg", CHAR_POLY_PAIRS, ids=lambda alg: alg.id)
def test_cayley_hamilton_and_cramer_verdicts_match_the_element_path(alg):
    rng = random.Random(f"verdicts:{alg.id}")
    for n in range(1, 6):
        for _ in range(3):
            a = matrix(alg, [[_char_poly_entry(rng, alg) for _ in range(n)] for _ in range(n)])
            v = tuple(_char_poly_entry(rng, alg) for _ in range(n))
            got = outcome(cayley_hamilton_check, a)
            assert got == outcome(cayley_hamilton_decoding_ref, a), (alg.id, a.entries)
            assert got == ("value", True), (alg.id, a.entries)
            got = outcome(cramer_solve, a, v)
            assert got == outcome(cramer_ref, a, v), (alg.id, a.entries, v)
