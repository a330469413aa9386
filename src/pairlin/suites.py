"""Named desk-scale reproductions and the randomized verification suites.

Each suite returns a SuiteResult; `verify all` in the CLI runs them all with
a fixed seed, and the acceptance tests assert each one passes at its stated
size.  Randomized draws are deterministic given the seed.  Each suite of
ALL_SUITES declares its cost, the checks it makes, so that `verify all` can
start the costliest first.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from fractions import Fraction

from .core import circ, characteristic, uniform_presentation
from .instances import (
    make_algebra,
    registered_instances,
    st_ghost,
    st_tan,
    st_value,
)
from .matrices import (
    cayley_hamilton_check,
    det_doubled,
    det_tracks,
    is_singular,
    krasner_det_contains_zero,
    laplace_expand,
    matrix,
    permanent,
)
from .rank import (
    check_condition,
    default_domain,
    exact_domain,
    find_dependence,
    row_rank,
    submatrix_rank,
)
from .solve import cramer_solve, jacobi_solve

DEFAULT_SEED = 271828


@dataclass
class SuiteResult:
    name: str
    passed: bool
    detail: list = field(default_factory=list)

    def note(self, line):
        self.detail.append(str(line))

    def require(self, cond, line):
        if not cond:
            self.passed = False
            self.detail.append(f"FAIL: {line}")


# ---------------------------------------------------------------------------
# fixtures


def sign_rank_gap_matrix():
    """3x4 sign-pair matrix with row rank 3 but submatrix rank 2."""
    alg = make_algebra("sign")
    p, m = alg.parse_literal("1"), alg.parse_literal("-1")
    return matrix(alg, [[p, p, m, p], [p, m, p, p], [m, p, p, p]])


def two_track_doubled_matrix():
    """4x4 matrix over the doubled Boolean pair with null track sum but
    independent rows."""
    alg = make_algebra("doubled:boolean")
    one = alg.parse_literal("1|0")
    neg = alg.parse_literal("0|1")
    zero = alg.zero
    return matrix(
        alg,
        [
            [one, zero, zero, one],
            [zero, one, one, zero],
            [one, zero, one, zero],
            [zero, neg, zero, one],
        ],
    )


def clipped_counting_matrix():
    """4x4 quasi-periodic matrix over the clipped counting pair."""
    alg = make_algebra("counting:5")
    one, zero = alg.one, alg.zero
    return matrix(
        alg,
        [
            [one, one, one, one],
            [one, one, zero, one],
            [zero, one, one, one],
            [one, zero, one, one],
        ],
    )


def symdiff_independent_vectors():
    alg = make_algebra("powerset-symdiff:2")
    one = alg.parse_literal("g0")
    x = alg.parse_literal("g1")
    zero = alg.zero
    return alg, [(one, one), (one, x), (zero, one)]


def _rand_st_tangible(rng, lo=-12, hi=12):
    return st_tan(Fraction(rng.randint(lo, hi), rng.choice((1, 1, 2, 3))))


def rand_supertropical_matrix(rng, n, tangible=True):
    alg = make_algebra("supertropical")
    rows = []
    for _ in range(n):
        row = []
        for _ in range(n):
            if tangible:
                row.append(_rand_st_tangible(rng))
            else:
                r = rng.random()
                if r < 0.15:
                    row.append(alg.zero)
                elif r < 0.35:
                    row.append(st_ghost(Fraction(rng.randint(-12, 12))))
                else:
                    row.append(_rand_st_tangible(rng))
        rows.append(row)
    return matrix(alg, rows)


def rand_singular_supertropical(rng, n=3):
    """Singular tangible matrix built by forcing two equal dominant tracks."""
    alg = make_algebra("supertropical")
    while True:
        a = rand_supertropical_matrix(rng, n)
        perms = list(itertools.permutations(range(n)))
        vals = {
            p: sum(st_value(a[p[c], c]) for c in range(n)) for p in perms
        }
        best = max(vals.values())
        ordered = sorted(perms, key=lambda p: (-vals[p], p))
        top, second = ordered[0], ordered[1]
        cell = next(
            (second[c], c) for c in range(n) if second[c] != top[c]
        )
        delta = best - vals[second]
        rows = [list(r) for r in a.entries]
        rows[cell[0]][cell[1]] = st_tan(st_value(a[cell]) + delta)
        forced = matrix(alg, rows)
        if is_singular(forced):
            return forced


def rand_dominant_diagonal_supertropical(rng, n):
    """Strictly nonsingular matrix with a strictly dominant diagonal."""
    alg = make_algebra("supertropical")
    big = 100
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            if i == j:
                row.append(st_tan(Fraction(big + rng.randint(0, 5))))
            else:
                row.append(_rand_st_tangible(rng))
        rows.append(row)
    return matrix(alg, rows)


# ---------------------------------------------------------------------------
# acceptance suites (one per criterion)


def costs(checks):
    """Declare a suite's cost: the checks it makes at its default sizes, one
    per matrix, linear system or vector set, and one per row set of a
    Laplace expansion.  `verify all` queues the suites by it."""

    def declare(suite):
        suite.cost = checks
        return suite

    return declare


@costs(1 + 4)  # the rank-gap matrix and its 3x3 minors
def suite_sign_counterexample(seed=DEFAULT_SEED):
    res = SuiteResult("sign-a2-counterexample", True)
    a = sign_rank_gap_matrix()
    dom = exact_domain(a.alg)
    rr = row_rank(a, dom)
    sr = submatrix_rank(a)
    res.require(rr == 3, f"row rank {rr} != 3")
    res.require(sr == 2, f"submatrix rank {sr} != 2")
    inf = a.alg.parse_literal("inf")
    for cols in itertools.combinations(range(4), 3):
        minor = a.submatrix((0, 1, 2), cols)
        d = det_doubled(minor)
        res.require(is_singular(minor), f"minor {cols} not singular")
        res.require(d.total() == inf, f"minor {cols} track sum {d.total()!r}")
    verdict = check_condition(a, "a2", dom)
    res.require(verdict.verdict == "FAILS", f"a2 verdict {verdict.verdict}")
    res.note(f"row_rank=3 submatrix_rank=2 minors singular, a2 {verdict.verdict}")
    return res


@costs(1)
def suite_doubled_boolean(seed=DEFAULT_SEED):
    res = SuiteResult("doubled-boolean-a2", True)
    a = two_track_doubled_matrix()
    d = det_doubled(a)
    res.require(d.is_null_total(), f"track sum {d.total()!r} not null")
    w = find_dependence(list(a.entries), exact_domain(a.alg), a.alg)
    res.require(w is None, f"unexpected dependence witness {w}")
    res.note(f"det tracks ({a.alg.format_literal(d.det_plus)}, "
             f"{a.alg.format_literal(d.det_minus)}), sum null, rows independent")
    return res


@costs(1)
def suite_truncated(seed=DEFAULT_SEED):
    res = SuiteResult("truncated-quasiperiodic", True)
    a = clipped_counting_matrix()
    # independent oracle: count the nonzero permutation tracks over the integers
    count = 0
    for perm in itertools.permutations(range(4)):
        if all(a[perm[c], c] != a.alg.zero for c in range(4)):
            count += 1
    res.require(count == 11, f"brute-force track count {count} != 11")
    p = permanent(a)
    res.require(a.alg.is_null(p), f"permanent {p!r} not null")
    w = find_dependence(list(a.entries), exact_domain(a.alg), a.alg)
    res.require(w is None, f"unexpected dependence witness {w}")
    sr = submatrix_rank(a)
    res.require(sr == 3, f"submatrix rank {sr} != 3")
    res.note(f"11 tracks clip to {a.alg.format_literal(p)}; rows independent; "
             f"submatrix rank {sr}")
    return res


@costs(1)
def suite_powerset_symdiff(seed=DEFAULT_SEED):
    res = SuiteResult("powerset-symdiff-a2prime", True)
    alg, vecs = symdiff_independent_vectors()
    w = find_dependence(vecs, exact_domain(alg), alg)
    res.require(w is None, f"unexpected witness {w}")
    verdict = check_condition(matrix(alg, vecs), "a2p", exact_domain(alg))
    res.require(verdict.verdict == "FAILS", f"a2' verdict {verdict.verdict}")
    res.note("three length-2 vectors independent: A2' fails")
    return res


@costs(1000 * (4 + 6) + 2 ** 9 * (3 + 3))  # 4x4s and sign 3x3s, along 1 or 2 rows
def suite_laplace(seed=DEFAULT_SEED, n_random=1000):
    res = SuiteResult("laplace-identity", True)
    rng = random.Random(seed)
    alg = make_algebra("supertropical")
    checked = 0
    for _ in range(n_random):
        a = rand_supertropical_matrix(rng, 4, tangible=False)
        d = det_tracks(a)
        for size in (1, 2):
            for rows in itertools.combinations(range(4), size):
                l = laplace_expand(a, rows)
                if (l.det_plus, l.det_minus) != (d.det_plus, d.det_minus):
                    res.require(False, f"laplace mismatch rows {rows} on {a.entries}")
                    return res
        checked += 1
    sign = make_algebra("sign")
    p, m = sign.parse_literal("1"), sign.parse_literal("-1")
    for bits in itertools.product((p, m), repeat=9):
        a = matrix(sign, [bits[0:3], bits[3:6], bits[6:9]])
        d = det_tracks(a)
        for size in (1, 2):
            for rows in itertools.combinations(range(3), size):
                l = laplace_expand(a, rows)
                if (l.det_plus, l.det_minus) != (d.det_plus, d.det_minus):
                    res.require(False, f"laplace mismatch rows {rows} on sign case")
                    return res
    res.note(f"{checked} random supertropical 4x4 + 512 sign 3x3, exact equality")
    return res


@costs(2 ** 9 + 1000)  # the sign 3x3s of 1 and -1, random 3x3s
def suite_cayley_hamilton(seed=DEFAULT_SEED, n_random=1000):
    res = SuiteResult("cayley-hamilton", True)
    sign = make_algebra("sign")
    p, m = sign.parse_literal("1"), sign.parse_literal("-1")
    for bits in itertools.product((p, m), repeat=9):
        a = matrix(sign, [bits[0:3], bits[3:6], bits[6:9]])
        if not cayley_hamilton_check(a):
            res.require(False, f"Cayley-Hamilton fails on sign matrix {a.entries}")
            return res
    rng = random.Random(seed)
    for _ in range(n_random):
        a = rand_supertropical_matrix(rng, 3, tangible=False)
        if not cayley_hamilton_check(a):
            res.require(False, f"Cayley-Hamilton fails on supertropical {a.entries}")
            return res
    res.note(f"512 sign 3x3 + {n_random} random supertropical 3x3")
    return res


@costs(1000 + 4 ** 4 * 4 ** 2)  # random 3x3 systems, every sign 2x2 system
def suite_cramer(seed=DEFAULT_SEED, n_random=1000):
    res = SuiteResult("cramer-balance", True)
    rng = random.Random(seed)
    for _ in range(n_random):
        a = rand_supertropical_matrix(rng, 3, tangible=False)
        v = tuple(_rand_st_tangible(rng) for _ in range(3))
        out = cramer_solve(a, v)
        res.require(out.balance_verified, f"|A|v not balanced on {a.entries}")
        if out.x is not None:
            res.require(out.x_verified, f"A x not balanced with v on {a.entries}")
        if not res.passed:
            return res
    sign = make_algebra("sign")
    carrier = sign.carrier
    count = 0
    for quad in itertools.product(carrier, repeat=4):
        a = matrix(sign, [quad[0:2], quad[2:4]])
        for v in itertools.product(carrier, repeat=2):
            out = cramer_solve(a, v)
            res.require(out.balance_verified, f"sign balance fails {quad} {v}")
            if out.x is not None:
                res.require(out.x_verified, f"sign A x fails {quad} {v}")
            if not res.passed:
                return res
            count += 1
    res.note(f"{n_random} random supertropical 3x3 + {count} exhaustive sign 2x2")
    return res


@costs(1000)  # dominant-diagonal systems
def suite_jacobi(seed=DEFAULT_SEED, n_random=1000):
    res = SuiteResult("jacobi-convergence", True)
    rng = random.Random(seed)
    sizes = [2, 3, 4]
    per = [n_random // 3, n_random // 3, n_random - 2 * (n_random // 3)]
    for n, count in zip(sizes, per):
        for _ in range(count):
            a = rand_dominant_diagonal_supertropical(rng, n)
            v = tuple(_rand_st_tangible(rng) for _ in range(n))
            state = jacobi_solve(a, v)
            res.require(
                state.stabilized_at is not None and state.stabilized_at <= n,
                f"stabilized at {state.stabilized_at} > n = {n}",
            )
            res.require(state.balance_verified, f"A x not balanced with v (n={n})")
            res.require(state.mu_verified, f"mu identity fails (n={n})")
            if not res.passed:
                return res
    res.note(f"{n_random} dominant-diagonal systems, n in {{2,3,4}}")
    return res


@costs(3 ** 9 + 500)  # every tangible-or-zero sign 3x3, forced singular 3x3s
def suite_singular_3x3_dependence(seed=DEFAULT_SEED, n_random=500):
    res = SuiteResult("singular-3x3-dependence", True)
    sign = make_algebra("sign")
    dom = exact_domain(sign)
    t0 = (sign.zero,) + sign.tangibles
    singular_count = 0
    for bits in itertools.product(t0, repeat=9):
        a = matrix(sign, [bits[0:3], bits[3:6], bits[6:9]])
        if is_singular(a):
            singular_count += 1
            w = find_dependence(list(a.entries), dom, sign)
            if w is None:
                res.require(False, f"singular sign matrix without witness: {bits}")
                return res
    rng = random.Random(seed)
    for _ in range(n_random):
        a = rand_singular_supertropical(rng, 3)
        domain = default_domain(a.alg, list(a.entries))
        w = find_dependence(list(a.entries), domain, a.alg)
        if w is None:
            res.require(False, f"no default-domain witness for {a.entries}")
            return res
    res.note(
        f"{singular_count} singular tangible sign 3x3 + {n_random} forced "
        "supertropical cases, witnesses found"
    )
    return res


@costs(1000)  # dependent-by-construction matrices
def suite_a1_dependent_implies_singular(seed=DEFAULT_SEED, n_random=1000):
    res = SuiteResult("a1-dependence-singularity", True)
    rng = random.Random(seed)
    st = make_algebra("supertropical")
    db = make_algebra("doubled:boolean")
    half = n_random // 2
    for case in range(n_random):
        n = rng.choice((2, 3))
        if case < half:
            alg = st
            rows = [
                [_rand_st_tangible(rng) for _ in range(n)] for _ in range(n - 1)
            ]
            coeffs = [_rand_st_tangible(rng) for _ in range(n - 1)]
        else:
            alg = db
            rows = [
                [rng.choice(alg.carrier) for _ in range(n)] for _ in range(n - 1)
            ]
            coeffs = [rng.choice(alg.tangibles) for _ in range(n - 1)]
        combo = [
            alg.sum(alg.mul(c, row[j]) for c, row in zip(coeffs, rows))
            for j in range(n)
        ]
        if alg.negation is not None:
            last = [alg.negation(e) for e in combo]
        else:
            last = combo
        a = matrix(alg, rows + [last])
        res.require(is_singular(a), f"dependent-by-construction not singular: {a.entries}")
        if not res.passed:
            return res
    res.note(f"{n_random} dependent constructions over supertropical and doubled Boolean")
    return res


@costs(3 ** 4 + 3 ** 4)  # zero and two cosets, 2x2, in F5 and F7
def suite_krasner(seed=DEFAULT_SEED):
    res = SuiteResult("krasner-2x2", True)
    alg5 = make_algebra("krasner:5:4")
    dom5 = exact_domain(alg5)
    t0 = (alg5.zero,) + alg5.tangibles
    both = 0
    for quad in itertools.product(t0, repeat=4):
        a = matrix(alg5, [quad[0:2], quad[2:4]])
        dep = find_dependence(list(a.entries), dom5, alg5) is not None
        dz = krasner_det_contains_zero(a)
        res.require(dep == dz, f"F5 mismatch at {quad}: dep={dep} det0={dz}")
        res.require(
            is_singular(a) == dz,
            f"F5 singularity disagrees with representative determinant at {quad}",
        )
        if not res.passed:
            return res
        both += 1
    alg7 = make_algebra("krasner:7:2")
    dom7 = exact_domain(alg7)
    t0 = (alg7.zero,) + alg7.tangibles
    a1_checked = 0
    for quad in itertools.product(t0, repeat=4):
        a = matrix(alg7, [quad[0:2], quad[2:4]])
        if find_dependence(list(a.entries), dom7, alg7) is not None:
            res.require(
                krasner_det_contains_zero(a),
                f"F7 dependence without vanishing determinant at {quad}",
            )
            if not res.passed:
                return res
        a1_checked += 1
    res.note(f"F5/{{1,4}}: {both} matrices both directions; F7/{{1,2,4}}: A1 direction")
    return res


@costs(16 + 1)  # the registered pairs' audits and the supertropical one
def suite_structure(seed=DEFAULT_SEED):
    res = SuiteResult("structure-audit", True)
    from .core import axiom_audit

    expectations = {
        "sign": {"a0_bipotent": True, "strict_second_kind": True,
                 "almost_regular": True, "second_kind": True},
        "superboolean": {"first_kind": True, "tropical_type": True},
        "counting:5": {"admissible": True},
        "npq:2:3": {"admissible": True},
        "minimal:first:2": {"a0_bipotent": True, "first_kind": True},
        "minimal:second:2": {"a0_bipotent": True, "idempotent_addition": True},
        "minimal:second:3": {"a0_bipotent": True, "idempotent_addition": True},
        "doubled:boolean": {"second_kind": True, "uniquely_negated": True,
                            "metatangible": True},
        "boolean": {"admissible": True},
        "powerset-symdiff:2": {"first_kind": True, "admissible": True},
    }
    for alg in registered_instances():
        rep = axiom_audit(alg)
        res.require(rep.flags["admissible"], f"{alg.id} fails admissibility: "
                    f"{rep.witnesses.get('admissible')}")
        for flag, want in expectations.get(alg.spec_string, {}).items():
            res.require(
                rep.flags.get(flag) == want,
                f"{alg.id}: {flag} = {rep.flags.get(flag)}, expected {want}",
            )
    st = make_algebra("supertropical")
    rep = axiom_audit(st)
    res.require(rep.sample_only, "supertropical audit should be sample-only")
    for flag in ("first_kind", "tropical_type", "a0_bipotent"):
        res.require(rep.flags.get(flag), f"supertropical: {flag} false")
    # characteristics asserted by the structure suite
    for spec, want in (
        ("npq:2:3", (2, 3, 4)),
        ("superboolean", (1, 2, 2)),
        ("sign", (1, 1, 1)),
        ("supertropical", (1, 2, 2)),
    ):
        prof = characteristic(make_algebra(spec))
        got = (prof.p, prof.q, prof.period)
        res.require(got == want, f"characteristic({spec}) = {got}, want {want}")
    # uniform presentation round-trips on every finite metatangible pair
    for alg in registered_instances():
        rep = axiom_audit(alg)
        if not rep.flags.get("metatangible") or alg.carrier is None:
            continue
        for c in alg.carrier:
            if c == alg.zero:
                continue
            up = uniform_presentation(alg, c)
            if up.form == "tangible":
                back = up.base
            elif up.form == "quasizero":
                back = circ(alg, up.base)
            else:
                back = alg.scale_int(up.multiplicity, up.base)
            res.require(back == c, f"{alg.id}: presentation of {c!r} round-trips to {back!r}")
    # sign pair vs doubled Boolean isomorphism, by full table comparison
    sign = make_algebra("sign")
    db = make_algebra("doubled:boolean")
    b0, b1 = db.base.zero, db.base.one
    iso = {
        "-1": db.el((b0, b1)),
        "0": db.el((b0, b0)),
        "1": db.el((b1, b0)),
        "inf": db.el((b1, b1)),
    }
    for x in sign.carrier:
        res.require(
            sign.is_tangible(x) == db.is_tangible(iso[x.payload]),
            f"isomorphism breaks tangibility at {x!r}",
        )
        res.require(
            sign.is_null(x) == db.is_null(iso[x.payload]),
            f"isomorphism breaks nullity at {x!r}",
        )
        for y in sign.carrier:
            res.require(
                iso[sign.add(x, y).payload] == db.add(iso[x.payload], iso[y.payload]),
                f"isomorphism breaks addition at {x!r},{y!r}",
            )
            res.require(
                iso[sign.mul(x, y).payload] == db.mul(iso[x.payload], iso[y.payload]),
                f"isomorphism breaks multiplication at {x!r},{y!r}",
            )
    res.note("audits, characteristics, presentations, and the sign/doubled-Boolean "
             "isomorphism all verified")
    return res


@costs(3 ** 6 + 4 ** 6)  # every tangible-or-zero 3x2 over hex1-c2 and hex1-c3
def suite_hyperfield_a2prime(seed=DEFAULT_SEED):
    res = SuiteResult("hyperfield-a2prime", True)
    for order in (2, 3):
        alg = make_algebra(f"hyper:hex1-c{order}")
        dom = exact_domain(alg)
        t0 = (alg.zero,) + alg.tangibles
        checked = 0
        for entries in itertools.product(t0, repeat=6):
            vecs = [entries[0:2], entries[2:4], entries[4:6]]
            w = find_dependence(vecs, dom, alg)
            if w is None:
                res.require(False, f"independent 3x2 over hex1-c{order}: {entries}")
                return res
            checked += 1
        res.note(f"hex1-c{order}: {checked} tangible 3x2 matrices all dependent")
    return res


ALL_SUITES = [
    suite_sign_counterexample,
    suite_doubled_boolean,
    suite_truncated,
    suite_powerset_symdiff,
    suite_laplace,
    suite_cayley_hamilton,
    suite_cramer,
    suite_jacobi,
    suite_singular_3x3_dependence,
    suite_a1_dependent_implies_singular,
    suite_krasner,
    suite_structure,
    suite_hyperfield_a2prime,
]
