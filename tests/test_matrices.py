"""Determinants, adjoints, Laplace expansion, Cayley-Hamilton, quasi-inverses."""

import ast
import itertools
import math
import os
import random
import sys
import threading
from collections import Counter

import pytest

from pairlin import (
    CapExceeded,
    adjoint,
    cayley_hamilton_check,
    det_doubled,
    identity,
    is_singular,
    krasner_det_contains_zero,
    laplace_expand,
    make_algebra,
    mat_mul,
    matrix,
    permanent,
    quasi_identity_check,
    quasi_inverse,
    st_tan,
)
from pairlin.core import El, PairError
from pairlin.instances import make_doubled, registered_instances
from pairlin.matrices import (
    Matrix,
    _perms,
    det_method,
    det_tracks,
    project_matrix,
)
from pairlin.suites import clipped_counting_matrix, rand_supertropical_matrix
import pairlin.matrices as matrices_mod


def det_signed(a):
    """det_plus (-) det_minus via the pair's own negation map."""
    alg = a.alg
    if alg.negation is None:
        raise PairError(f"{alg.id} has no negation map; use det_doubled")
    d = det_doubled(a)
    return alg.add(d.det_plus, alg.negation(d.det_minus))


def as_doubled_element(d):
    """A DoubledDet as the element (det_plus, det_minus) of the doubled pair."""
    return El(make_doubled(d.alg).id, (d.det_plus, d.det_minus))


sign = make_algebra("sign")
st = make_algebra("supertropical")


def sgn(s):
    return sign.parse_literal(s)


def sign_mat(rows):
    return matrix(sign, [[sgn(x) for x in r] for r in rows])


# Independent oracle: raw dict arithmetic for the sign semiring, used to
# cross-check the library's track expansion on the fixtures.
_ADD = {}
_MUL = {}
for x in ("0", "1", "-1", "inf"):
    for y in ("0", "1", "-1", "inf"):
        if x == "0":
            _ADD[x, y] = y
        elif y == "0":
            _ADD[x, y] = x
        elif x == "inf" or y == "inf" or x != y:
            _ADD[x, y] = "inf"
        else:
            _ADD[x, y] = x
        if x == "0" or y == "0":
            _MUL[x, y] = "0"
        elif x == "inf" or y == "inf":
            _MUL[x, y] = "inf"
        else:
            _MUL[x, y] = str(int(x) * int(y))


def oracle_sign_tracks(rows):
    n = len(rows)
    plus, minus = "0", "0"
    for perm in itertools.permutations(range(n)):
        inv = sum(1 for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j])
        t = "1"
        for c in range(n):
            t = _MUL[t, rows[perm[c]][c]]
        if inv % 2:
            minus = _ADD[minus, t]
        else:
            plus = _ADD[plus, t]
    return plus, minus


class TestDetDoubled:
    def test_sign_comp_fixtures(self):
        # the two 3x3 minors singled out by the counterexample analysis
        for rows in (
            [["1", "1", "-1"], ["1", "-1", "1"], ["-1", "1", "1"]],
            [["1", "1", "1"], ["1", "-1", "1"], ["-1", "1", "1"]],
        ):
            a = sign_mat(rows)
            d = det_doubled(a)
            want = oracle_sign_tracks(rows)
            assert (d.det_plus.payload, d.det_minus.payload) == want
            assert d.total() == sgn("inf")
            assert is_singular(a)

    def test_identity_det(self):
        for alg in (sign, st, make_algebra("doubled:boolean")):
            d = det_doubled(identity(alg, 2))
            assert d.det_plus == alg.one and d.det_minus == alg.zero
            assert not is_singular(identity(alg, 2))

    def test_supertropical_2x2(self):
        a = matrix(st, [[st_tan(2), st_tan(0)], [st_tan(1), st_tan(3)]])
        d = det_doubled(a)
        assert d.det_plus == st_tan(5) and d.det_minus == st_tan(1)
        assert not is_singular(a)
        assert permanent(a) == st_tan(5)

    def test_1x1_minus_track_empty(self):
        a = matrix(st, [[st_tan(4)]])
        d = det_doubled(a)
        assert d.det_minus == st.zero

    def test_transpose_invariance(self):
        rng = random.Random(0)
        for _ in range(50):
            a = rand_supertropical_matrix(rng, 3, tangible=False)
            d, dt = det_doubled(a), det_doubled(a.transpose())
            assert (d.det_plus, d.det_minus) == (dt.det_plus, dt.det_minus)

    def test_row_sum_singularity(self):
        # one row equal to the sum of the others forces singularity
        rng = random.Random(1)
        for _ in range(50):
            a = rand_supertropical_matrix(rng, 3)
            rows = list(a.entries)
            rows[2] = tuple(
                st.add(rows[0][j], rows[1][j]) for j in range(3)
            )
            assert is_singular(matrix(st, rows))

    def test_det_product_balances(self):
        # det(AB) balances det(A) det(B) componentwise in the doubled pair
        from pairlin.instances import make_doubled
        from pairlin.core import El

        rng = random.Random(2)
        dst = make_doubled(st)
        for _ in range(50):
            a = rand_supertropical_matrix(rng, 3)
            b = rand_supertropical_matrix(rng, 3)
            dab = as_doubled_element(det_doubled(mat_mul(a, b)))
            da = as_doubled_element(det_doubled(a))
            dbb = as_doubled_element(det_doubled(b))
            prod = dst.mul(da, dbb)
            p, n = prod.payload
            q, m = dab.payload
            # X nabla Y in the doubled pair via the switch shortcut
            diff = dst.add(dab, El(dst.id, (n, p)))
            assert dst.is_null(diff)

    def test_cap_override(self, monkeypatch):
        monkeypatch.setenv("PAIRLIN_CAP_N", "2")
        a = matrix(st, [[st_tan(0)] * 3 for _ in range(3)])
        with pytest.raises(CapExceeded):
            det_doubled(a)

    def test_clipped_counting_permanent_null(self):
        a = clipped_counting_matrix()
        assert a.alg.is_null(permanent(a))

    def test_doubled_embedding_recovers_track_split(self):
        # switch-negation determinant of the embedded matrix = (det+, det-)
        from pairlin.instances import make_doubled
        from pairlin.matrices import embed_matrix

        rng = random.Random(8)
        dst = make_doubled(st)
        for _ in range(30):
            a = rand_supertropical_matrix(rng, 3)
            d = det_doubled(a)
            emb = det_signed(embed_matrix(dst, a))
            assert emb.payload == (d.det_plus, d.det_minus)


def same_det(a):
    d, ref = det_doubled(a), det_tracks(a)
    return (d.det_plus, d.det_minus) == (ref.det_plus, ref.det_minus)


def rand_carrier_matrix(rng, alg, n):
    return matrix(alg, [[rng.choice(alg.carrier) for _ in range(n)] for _ in range(n)])


def off_carrier_masks(alg):
    """Atom subsets outside the carrier, or every nonempty subset where the
    carrier is the whole power set."""
    atoms = len(alg.tangibles) + 1
    carrier = {e.payload for e in alg.carrier}
    every = range(1, 1 << atoms)
    return [m for m in every if m not in carrier] or list(every)


class TestDetPaths:
    """det_doubled's subset DP and track walk against the flat det_tracks."""

    def test_dp_matches_tracks_on_distributive_pairs(self):
        rng = random.Random(11)
        algs = [alg for alg in registered_instances() if alg.distributive]
        assert len(algs) == 10
        for alg in algs:
            assert det_method(alg) == "dp"
            for n in range(1, 7):
                for _ in range(2):
                    assert same_det(rand_carrier_matrix(rng, alg, n)), (alg.id, n)

    def test_dp_matches_tracks_on_supertropical(self):
        rng = random.Random(12)
        dst = make_doubled(st)
        for n in range(1, 7):
            for _ in range(4):
                assert same_det(rand_supertropical_matrix(rng, n, tangible=False))
            for _ in range(2):
                p = rand_supertropical_matrix(rng, n, tangible=False)
                q = rand_supertropical_matrix(rng, n, tangible=False)
                a = matrix(dst, [
                    [El(dst.id, (p[i, j], q[i, j])) for j in range(n)] for i in range(n)
                ])
                assert same_det(a), n

    def test_dp_matches_tracks_on_every_sign_3x3(self):
        for e in itertools.product(sign.carrier, repeat=9):
            assert same_det(Matrix(sign, (e[0:3], e[3:6], e[6:9]))), e

    def test_walk_matches_tracks_on_hyperpairs(self):
        rng = random.Random(13)
        algs = [
            alg for alg in registered_instances()
            if alg.id.startswith(("hyper:", "krasner:"))
        ]
        assert len(algs) == 6
        algs += [make_algebra(s) for s in ("krasner:17:1", "krasner:2:1", "krasner:3:1")]
        for alg in algs:
            assert det_method(alg) == "tracks"
            dalg = make_doubled(alg)
            assert det_method(dalg) == "tracks"
            t0 = (alg.zero,) + alg.tangibles
            off = off_carrier_masks(alg)
            for n in range(1, 7):
                for draw in (
                    lambda: rng.choice(alg.carrier),
                    lambda: rng.choice(t0),
                    lambda: El(alg.id, rng.choice(off)),
                ):
                    a = matrix(alg, [[draw() for _ in range(n)] for _ in range(n)])
                    assert same_det(a), (alg.id, n)
                a = matrix(dalg, [
                    [El(dalg.id, (rng.choice(alg.carrier), rng.choice(t0))) for _ in range(n)]
                    for _ in range(n)
                ])
                assert same_det(a), (dalg.id, n)

    def test_walk_shares_prefix_products(self):
        # a row set holds at most one group per distinct prefix, and a
        # product of atoms is an atom, so tangible-or-zero entries give at
        # most k groups per row set for k atoms (the tangibles and the
        # hyperzero); no entries give more groups than partial tracks.
        # det_doubled reports the code products its minor layer made.  A
        # zero entry or product makes no group, so the walk makes none at
        # all exactly when the first column is zero.
        rng = random.Random(14)
        for spec in ("hyper:hex1-c3", "hyper:weaksign-c2", "krasner:17:1"):
            alg = make_algebra(spec)
            k = len(alg.tangibles) + 1
            t0 = (alg.zero,) + alg.tangibles
            off = off_carrier_masks(alg)
            for n in range(1, 7):
                tracks = sum(math.perm(n, j) for j in range(1, n + 1))
                grouped = 2 * k * sum(math.comb(n, c) * (n - c) for c in range(n))
                a = matrix(alg, [[rng.choice(t0) for _ in range(n)] for _ in range(n)])
                d = det_doubled(a)
                assert d.products <= min(tracks, grouped), (spec, n)
                assert (d.products == 0) == (a.col(0) == (alg.zero,) * n), (spec, n)
                d = det_doubled(matrix(alg, [
                    [El(alg.id, rng.choice(off)) for _ in range(n)] for _ in range(n)
                ]))
                assert 0 < d.products <= tracks, (spec, n)

    def test_dp_multiplication_count(self):
        n = 6
        a = rand_supertropical_matrix(random.Random(15), n, tangible=False)
        assert 0 < det_doubled(a).products <= 2 * n * 2 ** (n - 1)

    def test_reference_keeps_the_cap(self, monkeypatch):
        a = matrix(st, [[st_tan(0)] * 3 for _ in range(3)])
        monkeypatch.setenv("PAIRLIN_CAP_N", "2")
        with pytest.raises(CapExceeded):
            det_tracks(a)

    def test_perms_keeps_the_old_table_order(self):
        for n in range(7):
            table = []
            for perm in itertools.permutations(range(n)):
                inv = sum(1 for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j])
                table.append((perm, inv & 1))
            perms = _perms(n)
            assert iter(perms) is perms  # a generator, not a cached table
            assert list(perms) == table, n


class TestPlanCache:
    """The index plans the minor layers walk, and the bound on those kept."""

    def test_twelve_rows_stay_within_the_bound(self, monkeypatch):
        monkeypatch.setattr(matrices_mod, "_PLANS", {})
        monkeypatch.setenv("PAIRLIN_CAP_N", "12")
        a = rand_supertropical_matrix(random.Random(16), 12, tangible=False)
        d = det_doubled(a)
        plans = matrices_mod._PLANS
        assert sorted(plans) == [(12, k) for k in range(12)]
        kept = sum(step[2] for step in plans.values())
        assert kept == 12 * 2 ** 11 <= matrices_mod.PLAN_CACHE_EXTENSIONS
        assert d.products == 2 * kept
        steps = list(map(id, plans.values()))
        assert det_doubled(a) == d
        assert list(map(id, plans.values())) == steps  # reused, not rebuilt

    def test_every_kept_height_stays_within_the_bound(self, monkeypatch):
        monkeypatch.setattr(matrices_mod, "_PLANS", {})
        rows = matrices_mod.PLAN_CACHE_ROWS
        for m in range(1, rows + 2):
            matrices_mod._plan(matrices_mod._row_plans(m), m, m - 1)
        plans = matrices_mod._PLANS
        assert sorted(plans) == [(m, k) for m in range(1, rows + 1) for k in range(m)]
        kept = sum(step[2] for step in plans.values())
        assert kept == matrices_mod.PLAN_CACHE_EXTENSIONS

    def test_taller_plans_last_one_call(self, monkeypatch):
        monkeypatch.setattr(matrices_mod, "_PLANS", {})
        monkeypatch.setattr(matrices_mod, "PLAN_CACHE_ROWS", 3)
        rng = random.Random(17)
        for n in (3, 4, 5):
            a = rand_supertropical_matrix(rng, n, tangible=False)
            assert det_doubled(a) == det_tracks(a)
            assert laplace_expand(a, (0,)) == det_doubled(a)
        assert sorted(matrices_mod._PLANS) == [(3, 0), (3, 1), (3, 2)]

    def test_threads_building_plans_keep_equal_steps(self, monkeypatch):
        monkeypatch.setattr(matrices_mod, "_PLANS", {})
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=lambda: [
                    matrices_mod._plan(matrices_mod._PLANS, m, m - 1) for m in range(1, 10)
                ])
                for _ in range(4)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
        finally:
            sys.setswitchinterval(interval)
        built = matrices_mod._PLANS
        fresh = {}
        assert sorted(built) == [(m, k) for m in range(1, 10) for k in range(m)]
        for m, k in built:
            assert built[m, k] == matrices_mod._plan(fresh, m, k), (m, k)

    def test_steps_follow_the_dict_walk(self):
        # the row sets of each step in the order a dict walk first reaches
        # them (lexicographic in their sorted rows), each reached from its
        # sets without one row, in walk order, swapped past an odd number
        # of larger rows
        for m in range(1, 7):
            plans = matrices_mod._row_plans(m)
            keys = (0,)
            for k in range(m):
                targets, exts, size = matrices_mod._plan(plans, m, k)
                assert targets == tuple(
                    sum(1 << i for i in t) for t in itertools.combinations(range(m), k + 1)
                )
                assert size == len(keys) * (m - k)
                for t, (first, rest) in zip(targets, exts):
                    got = [(keys[a >> 1], i, a & 1, b ^ a) for a, b, i in (first, *rest)]
                    want = [
                        (t ^ 1 << i, i, (t >> i + 1).bit_count() & 1, 1)
                        for i in sorted((i for i in range(m) if t >> i & 1), reverse=True)
                    ]
                    assert got == want, (m, k, t)
                keys = targets

    def test_principal_plans_stay_within_the_bound(self, monkeypatch):
        monkeypatch.setattr(matrices_mod, "_PRINCIPAL_PLANS", {})
        monkeypatch.setenv("PAIRLIN_CAP_N", "10")
        rows = matrices_mod.PRINCIPAL_PLAN_ROWS
        rng = random.Random(18)
        for n in range(1, rows + 3):
            matrices_mod.char_poly_doubled(rand_supertropical_matrix(rng, n, tangible=False))
        plans = matrices_mod._PRINCIPAL_PLANS
        assert sorted(plans) == [(m, k) for m in range(1, rows + 1) for k in range(m)]
        kept = sum(step[2] for step in plans.values())
        assert kept == matrices_mod.PRINCIPAL_PLAN_EXTENSIONS == 10_446
        steps = list(map(id, plans.values()))
        matrices_mod.char_poly_doubled(rand_supertropical_matrix(rng, rows, tangible=False))
        assert list(map(id, plans.values())) == steps  # reused, not rebuilt

    def test_taller_principal_plans_last_one_call(self, monkeypatch):
        rng = random.Random(19)
        mats = [rand_supertropical_matrix(rng, n, tangible=False) for n in (3, 4, 5)]
        want = [matrices_mod.char_poly_doubled(a) for a in mats]
        monkeypatch.setattr(matrices_mod, "_PRINCIPAL_PLANS", {})
        monkeypatch.setattr(matrices_mod, "PRINCIPAL_PLAN_ROWS", 3)
        assert [matrices_mod.char_poly_doubled(a) for a in mats] == want
        assert sorted(matrices_mod._PRINCIPAL_PLANS) == [(3, 0), (3, 1), (3, 2)]

    def test_principal_steps_end_on_every_principal_minor(self):
        # the last step's states are S | T << n with S = T, each subset once,
        # and each holds the tracks of its minor: every bijection of P to
        # itself once, with its parity
        extensions = {5: 265, 8: 6_898}
        for n in range(1, 9):
            plans = {}
            steps = [matrices_mod._plan(plans, n, j, matrices_mod._principal_moves)
                     for j in range(n)]
            assert sorted(steps[-1][0]) == [p | p << n for p in range(1 << n)]
            if n in extensions:
                assert sum(step[2] for step in steps) == extensions[n]
            if n > 4:
                continue
            tracks = {0: [((), 0)]}  # state -> [(row taken per column or None, parity)]
            for j, (targets, exts, _) in enumerate(steps):
                keys = steps[j - 1][0] if j else (0,)
                nxt = {}
                for t, (first, rest) in zip(targets, exts):
                    nxt[t] = [
                        (rows + ((None if i == n else i),), parity ^ (a & 1))
                        for a, b, i in (first, *rest)
                        for rows, parity in tracks[keys[a >> 1]]
                    ]
                tracks = nxt
            for p in range(1 << n):
                members = [i for i in range(n) if p >> i & 1]
                want = []
                for perm in itertools.permutations(members):
                    rows = iter(perm)
                    inv = sum(x > y for x, y in itertools.combinations(perm, 2))
                    want.append((tuple(next(rows) if p >> j & 1 else None for j in range(n)),
                                 inv & 1))
                assert Counter(tracks[p | p << n]) == Counter(want), (n, p)


def adjoint_by_minors(a):
    """The adjoint entry by entry: det_tracks of the (j,i) minor, its parts
    exchanged when i+j is odd."""
    alg, n = a.alg, a.rows
    dalg = make_doubled(alg)
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            if n == 1:
                p, q = alg.one, alg.zero
            else:
                d = det_tracks(a.minor(j, i))
                p, q = d.det_plus, d.det_minus
            row.append(El(dalg.id, (q, p) if (i + j) & 1 else (p, q)))
        rows.append(tuple(row))
    return matrix(dalg, rows)


class TestAdjointAndLaplace:
    def test_supertropical_adjoint_fixture(self):
        a = matrix(st, [[st_tan(2), st_tan(0)], [st_tan(1), st_tan(3)]])
        adj = adjoint(a)
        dalg = adj.alg
        z = st.zero
        want = [
            [(st_tan(3), z), (z, st_tan(0))],
            [(z, st_tan(1)), (st_tan(2), z)],
        ]
        for i in range(2):
            for j in range(2):
                assert adj[i, j].payload == want[i][j]

    def test_identity_adjoint(self):
        adj = adjoint(identity(sign, 3))
        proj = project_matrix(adj.alg, adj)
        assert proj.entries == identity(sign, 3).entries

    def test_sign_all_ones_adjoint(self):
        a = sign_mat([["1", "1"], ["1", "1"]])
        adj = adjoint(a)
        z, o = sign.zero, sgn("1")
        assert adj[0, 0].payload == (o, z)
        assert adj[0, 1].payload == (z, o)
        assert adj[1, 0].payload == (z, o)
        assert adj[1, 1].payload == (o, z)

    def test_single_row_laplace_matches_det(self):
        rng = random.Random(3)
        for _ in range(100):
            a = rand_supertropical_matrix(rng, 4, tangible=False)
            d = det_doubled(a)
            for i in range(4):
                l = laplace_expand(a, (i,))
                assert (l.det_plus, l.det_minus) == (d.det_plus, d.det_minus)

    def test_two_row_laplace_matches_det(self):
        rng = random.Random(4)
        for _ in range(100):
            a = rand_supertropical_matrix(rng, 4, tangible=False)
            d = det_doubled(a)
            for rows in itertools.combinations(range(4), 2):
                l = laplace_expand(a, rows)
                assert (l.det_plus, l.det_minus) == (d.det_plus, d.det_minus)

    def test_adjoint_matches_per_minor_tracks(self):
        rng = random.Random(16)
        dst = make_doubled(st)
        hex3 = make_algebra("hyper:hex1-c3")
        dhex = make_doubled(hex3)
        cases = [(alg, lambda alg=alg: rng.choice(alg.carrier)) for alg in registered_instances()]
        cases += [
            (st, lambda: rand_supertropical_matrix(rng, 1, tangible=False)[0, 0]),
            (dst, lambda: El(dst.id, (
                rand_supertropical_matrix(rng, 1, tangible=False)[0, 0],
                rand_supertropical_matrix(rng, 1, tangible=False)[0, 0],
            ))),
            (dhex, lambda: El(dhex.id, (rng.choice(hex3.carrier), rng.choice(hex3.carrier)))),
        ]
        for alg, draw in cases:
            for n in range(1, 6):
                for _ in range(2):
                    a = matrix(alg, [[draw() for _ in range(n)] for _ in range(n)])
                    got = adjoint(a)
                    assert got.entries == adjoint_by_minors(a).entries, (alg.id, n)

    def test_adjoint_keeps_the_cap(self, monkeypatch):
        a = matrix(st, [[st_tan(0)] * 4 for _ in range(4)])
        monkeypatch.setenv("PAIRLIN_CAP_N", "2")
        with pytest.raises(CapExceeded):
            adjoint(a)
        monkeypatch.setenv("PAIRLIN_CAP_N", "3")
        assert adjoint(a).rows == 4  # its minors are 3 x 3

    def test_adjoint_balances_det_times_identity(self):
        # |A| I nabla A adj(A), entrywise in the doubled pair
        from pairlin.instances import make_doubled
        from pairlin.matrices import embed_matrix
        from pairlin.core import El

        rng = random.Random(5)
        dst = make_doubled(st)
        for _ in range(25):
            a = rand_supertropical_matrix(rng, 3)
            adj = adjoint(a)
            prod = mat_mul(embed_matrix(dst, a), adj)
            d = as_doubled_element(det_doubled(a))
            ident = identity(dst, 3)
            for i in range(3):
                for j in range(3):
                    lhs = dst.mul(d, ident[i, j])
                    p, n = prod[i, j].payload
                    diff = dst.add(lhs, El(dst.id, (n, p)))
                    assert dst.is_null(diff)


class TestCayleyHamilton:
    def test_1x1(self):
        for alg, e in ((sign, sgn("-1")), (st, st_tan(5))):
            assert cayley_hamilton_check(matrix(alg, [[e]]))

    def test_sign_sample(self):
        rng = random.Random(6)
        for _ in range(100):
            a = sign_mat(
                [[rng.choice(("1", "-1", "0", "inf")) for _ in range(3)] for _ in range(3)]
            )
            assert cayley_hamilton_check(a)

    def test_supertropical_sample(self):
        rng = random.Random(7)
        for _ in range(100):
            a = rand_supertropical_matrix(rng, 3, tangible=False)
            assert cayley_hamilton_check(a)

    def test_cap(self, monkeypatch):
        a = identity(sign, 4)
        monkeypatch.setattr(matrices_mod, "CAYLEY_HAMILTON_CAP", 3)
        with pytest.raises(CapExceeded):
            cayley_hamilton_check(a)

    def test_char_poly_refuses_before_any_layer(self, monkeypatch):
        # no column step before the cap, and after it one principal walk,
        # one step per column, and no minor layer
        walks, steps = [], []
        walk, step = matrices_mod._layer_walk, matrices_mod._sum_step
        monkeypatch.setattr(
            matrices_mod, "_layer_walk", lambda *args: walks.append(1) or walk(*args)
        )
        monkeypatch.setattr(
            matrices_mod, "_sum_step", lambda *args: steps.append(1) or step(*args)
        )
        monkeypatch.setattr(matrices_mod, "_minor_layer", None)
        a = rand_supertropical_matrix(random.Random(8), 12, tangible=False)
        with pytest.raises(CapExceeded, match="determinant cap exceeded at n = 12"):
            matrices_mod.char_poly_doubled(a)
        assert walks == steps == []
        monkeypatch.setenv("PAIRLIN_CAP_N", "12")
        b = rand_supertropical_matrix(random.Random(8), 4, tangible=False)
        assert len(matrices_mod.char_poly_doubled(b)) == 5
        assert (len(walks), len(steps)) == (1, 4)


class TestQuasi:
    def test_identity_is_quasi_identity(self):
        assert quasi_identity_check(identity(sign, 3))

    def test_superboolean_example(self):
        sb = make_algebra("superboolean")
        l = sb.parse_literal
        m = matrix(sb, [[l("1"), l("e")], [l("0"), l("1")]])
        assert quasi_identity_check(m)

    def test_tangible_off_diagonal_rejected(self):
        m = sign_mat([["1", "1"], ["0", "1"]])
        assert not quasi_identity_check(m)

    def test_supertropical_quasi_inverse(self):
        a = matrix(st, [[st_tan(2), st_tan(0)], [st_tan(1), st_tan(3)]])
        out = quasi_inverse(a)
        assert out.verified
        want = [[st_tan(-2), st_tan(-5)], [st_tan(-4), st_tan(-3)]]
        assert [list(r) for r in out.a_prime.entries] == want
        left = out.left_identity
        assert left[0, 0] == st.one and left[1, 1] == st.one
        assert st.is_null(left[0, 1]) and st.is_null(left[1, 0])

    def test_sign_generalized_permutation(self):
        a = sign_mat([["-1", "0"], ["0", "1"]])
        out = quasi_inverse(a)
        assert out.verified
        assert [list(r) for r in out.a_prime.entries] == [
            [sgn("-1"), sgn("0")],
            [sgn("0"), sgn("1")],
        ]

    def test_identity_quasi_inverse(self):
        out = quasi_inverse(identity(st, 3))
        assert out.verified
        assert out.a_prime.entries == identity(st, 3).entries
        assert out.a_tilde.entries == identity(st, 3).entries

    def test_singular_input_rejected(self):
        from pairlin.matrices import SingularInput

        a = matrix(st, [[st_tan(0), st_tan(0)], [st_tan(0), st_tan(0)]])
        with pytest.raises(SingularInput):
            quasi_inverse(a)

    def test_cap_names_n(self, monkeypatch):
        # the adjoint's minors are 3 x 3, but the refusal names the matrix
        monkeypatch.setenv("PAIRLIN_CAP_N", "2")
        with pytest.raises(CapExceeded, match=r"^determinant cap exceeded at n = 4$"):
            quasi_inverse(identity(sign, 4))


class TestKrasnerDet:
    def test_all_ones_coset_matrix(self):
        alg = make_algebra("krasner:5:4")
        c1 = alg.parse_literal("c1")
        a = matrix(alg, [[c1, c1], [c1, c1]])
        assert krasner_det_contains_zero(a)

    def test_identity_cosets(self):
        alg = make_algebra("krasner:5:4")
        a = identity(alg, 2)
        assert not krasner_det_contains_zero(a)

    def test_agrees_with_singularity(self):
        alg = make_algebra("krasner:5:4")
        t0 = (alg.zero,) + alg.tangibles
        for quad in itertools.product(t0, repeat=4):
            a = matrix(alg, [quad[0:2], quad[2:4]])
            assert krasner_det_contains_zero(a) == is_singular(a)

    def test_cap(self, monkeypatch):
        alg = make_algebra("krasner:5:4")
        a = identity(alg, 5)
        with pytest.raises(CapExceeded):
            krasner_det_contains_zero(a)
        # the cap is read when the check runs
        monkeypatch.setattr(matrices_mod, "KRASNER_CAP", 2)
        with pytest.raises(CapExceeded, match="at n = 3"):
            krasner_det_contains_zero(identity(alg, 3))


# The private names each module may take from matrices.  The coded minor
# layers, their plans, the coded (plus, minus) pairs and every size check
# stay behind these entry points, which check their own sizes.
MATRICES_INTERFACE = {
    "solve": {"_adjugate", "_dot", "_tracks"},
    "rank": {"_singular_minors", "_permanent_minors"},
    "cli": {"_singular_minors"},
}


def _matrices_names(tree):
    """The names a module takes from matrices: imported from it, or read
    as attributes of a name it binds to the module."""
    names, aliases = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if (node.module, node.level) in (("matrices", 1), ("pairlin.matrices", 0)):
                names |= {alias.name for alias in node.names}
            elif (node.module, node.level) in ((None, 1), ("pairlin", 0)):
                aliases |= {alias.asname or alias.name for alias in node.names
                            if alias.name == "matrices"}
        elif isinstance(node, ast.Import):
            aliases |= {alias.asname for alias in node.names
                        if alias.name == "pairlin.matrices" and alias.asname}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in aliases):
            names.add(node.attr)
    return names


def _private(names):
    return {name for name in names if name.startswith("_")}


@pytest.mark.parametrize("module", sorted(MATRICES_INTERFACE))
def test_only_matrices_reads_the_minor_layers(module):
    path = os.path.join(os.path.dirname(matrices_mod.__file__), f"{module}.py")
    with open(path, encoding="utf-8") as f:
        tree = ast.parse(f.read(), path)
    assert _private(_matrices_names(tree)) <= MATRICES_INTERFACE[module]


def test_the_interface_check_sees_each_way_of_reaching_matrices():
    allowed = set().union(*MATRICES_INTERFACE.values())
    for source in (
        "from .matrices import _coded",
        "from pairlin.matrices import Matrix, _check_n",
        "from . import matrices\nmatrices._minor_layer",
        "import pairlin.matrices as m\nm._det_size",
    ):
        assert _private(_matrices_names(ast.parse(source))) - allowed, source
