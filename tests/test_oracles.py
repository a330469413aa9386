"""The shared-layer and base-coordinate kernels against their per-minor and
doubled-product predecessors, kept here as reference oracles.

Laplace expansion, submatrix rank and the `det` report on a non-square
matrix read many minors off one minor layer; Cayley-Hamilton, Cramer and the
Jacobi mu check multiply embedded factors in base coordinates.  Each
reference below is the straightforward version: one det_doubled per
submatrix, or doubled arithmetic on embedded matrices.
"""

import itertools
import random

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
from pairlin.cli import format_matrix_text, run_command
from pairlin.core import El, PairError, balances
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
    CAYLEY_HAMILTON_CAP,
    DoubledDet,
    Matrix,
    adjoint,
    det_cap,
    embed_matrix,
    scalar_mat,
)
from pairlin.solve import CramerResult
from pairlin.suites import rand_dominant_diagonal_supertropical, rand_supertropical_matrix

st = make_algebra("supertropical")


# ---------------------------------------------------------------------------
# reference implementations


def _switch_pow(dalg, x, k):
    if k & 1:
        p, n = x.payload
        return El(dalg.id, (n, p))
    return x


def laplace_ref(a, row_set, cap=None):
    """Two det_doubled calls per column set, each on its own submatrix."""
    n = a.rows
    rows = tuple(sorted(row_set))
    if n > (cap if cap is not None else det_cap()):
        raise CapExceeded(f"laplace cap exceeded at n = {n}")
    alg = a.alg
    dalg = make_doubled(alg)
    comp_rows = tuple(i for i in range(n) if i not in rows)
    acc = El(dalg.id, (alg.zero, alg.zero))
    for cols in itertools.combinations(range(n), len(rows)):
        comp_cols = tuple(j for j in range(n) if j not in cols)
        d1 = det_doubled(a.submatrix(rows, cols), cap=cap)
        d2 = det_doubled(a.submatrix(comp_rows, comp_cols), cap=cap)
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


def cayley_hamilton_ref(a, cap=CAYLEY_HAMILTON_CAP):
    """f(A) summed in the doubled pair from powers of the embedded A."""
    n = a.rows
    if n > cap:
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


def _embedded_adj_vec(a, v):
    dalg = make_doubled(a.alg)
    vhat = tuple(embed_doubled(dalg, e) for e in v)
    return mat_vec(adjoint(a), vhat), vhat


def cramer_ref(a, v):
    """adj(A) v, A w and |A| v as doubled products of embedded factors."""
    alg = a.alg
    dalg = make_doubled(alg)
    w, vhat = _embedded_adj_vec(a, v)
    d = det_doubled(a)
    det_el = El(dalg.id, (d.det_plus, d.det_minus))
    aw = mat_vec(embed_matrix(dalg, a), w)
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
                    balances(alg, l, r) for l, r in zip(mat_vec(a, x), v)
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


def test_laplace_keeps_its_cap():
    a = rand_matrix(random.Random(2), st, 4)
    for cap in (2, 3, 4):
        assert outcome(laplace_expand, a, (0, 2), cap) == outcome(laplace_ref, a, (0, 2), cap)
    assert outcome(laplace_expand, a, (1,), 3)[1] is CapExceeded


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


def test_cayley_hamilton_keeps_its_cap():
    a = rand_matrix(random.Random(4), st, 4)
    assert outcome(cayley_hamilton_check, a, 3) == outcome(cayley_hamilton_ref, a, 3)
    assert outcome(cayley_hamilton_check, a, 3)[1] is CapExceeded


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
