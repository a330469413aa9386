"""The benchmark's workloads: seeded inputs, the operations run on them, and
the check of each operation's output.

An operation is a timed call into pairlin; its check runs after it, outside
the timed region, and returns a description of what is wrong or None.
Inputs are drawn from ``random.Random(f"{seed}:{round}")``, so a seed fixes
every round's inputs and two rounds of one run see different matrices.
"""

from __future__ import annotations

import contextlib
import io
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

import reference as ref

# ---------------------------------------------------------------------------
# the pairs each workload builds during set-up

KERNEL_PAIRS = ("supertropical", "sign", "hyper:hex1-c3", "hyper:weaksign-c2")
FINITE_QUERY_PAIRS = (
    "sign",
    "doubled:boolean",
    "hyper:hex1-c3",
    "hyper:weaksign-c2",
    "krasner:7:2",
    "krasner:17:1",
)
QUERY_PAIRS = FINITE_QUERY_PAIRS + ("supertropical",)
# every pair `verify all` builds: the structure suite's catalogue plus the
# supertropical pair
VERIFY_PAIRS = (
    "sign",
    "boolean",
    "superboolean",
    "counting:5",
    "npq:2:3",
    "minimal:first:2",
    "minimal:second:2",
    "minimal:second:3",
    "doubled:boolean",
    "krasner:5:4",
    "krasner:7:2",
    "hyper:hex1-c2",
    "hyper:hex1-c3",
    "hyper:hex2-c4",
    "hyper:weaksign-c2",
    "powerset-symdiff:2",
    "supertropical",
)
# pairs whose doubled pair the kernels build on first use (adjoints, Cramer,
# characteristic polynomials)
DOUBLED_BASES = {
    "kernels": KERNEL_PAIRS,
    "cli-queries": QUERY_PAIRS,
    "verify-all": ("supertropical", "sign"),
}
SETUP_PAIRS = {
    "kernels": KERNEL_PAIRS,
    "cli-queries": QUERY_PAIRS,
    "verify-all": VERIFY_PAIRS,
}


def import_pairlin(workload):
    """Import what the workload calls: the package, and the command layer
    unless the workload calls only library functions."""
    import pairlin  # noqa: F401

    if workload != "kernels":
        import pairlin.cli  # noqa: F401


def build_pairs(workload):
    """Build every pair the workload uses."""
    import pairlin

    for spec in SETUP_PAIRS[workload]:
        pairlin.make_algebra(spec)
    for spec in DOUBLED_BASES[workload]:
        pairlin.make_doubled(pairlin.make_algebra(spec))


@dataclass
class Op:
    label: str
    run: Callable[[], object]
    check: Callable[[object], Optional[str]]


def rng_for(seed, round_index):
    """The round's random stream.  It draws the inputs, then shuffles the
    order the operations run in, so that every kind of operation is spread
    over the round instead of meeting one stretch of the machine's drifting
    speed."""
    return random.Random(f"{seed}:{round_index}")


# ---------------------------------------------------------------------------
# seeded matrices, as element literals


def st_value(rng):
    return Fraction(rng.randint(-12, 12), rng.choice((1, 1, 2, 3)))


def st_literal(rng, tangible=False):
    """A supertropical literal: 15% zero and 20% ghost unless tangible."""
    r = 1.0 if tangible else rng.random()
    if r < 0.15:
        return "-inf"
    if r < 0.35:
        return f"{rng.randint(-12, 12)}g"
    return str(st_value(rng))


def st_rows(rng, m, n, tangible=False):
    return [[st_literal(rng, tangible) for _ in range(n)] for _ in range(m)]


def dominant_rows(rng, n):
    """Tangible rows whose diagonal dominates every other track strictly."""
    return [
        [str(100 + rng.randint(0, 5)) if i == j else str(st_value(rng)) for j in range(n)]
        for i in range(n)
    ]


def sign_rows(rng, n):
    return [[rng.choice(("1", "-1", "1", "-1", "0", "inf")) for _ in range(n)] for _ in range(n)]


def finite_rows(rng, alg, m, n):
    """Rows of tangible-or-zero literals of a finite pair."""
    t0 = [alg.format_literal(e) for e in (alg.zero,) + tuple(alg.tangibles)]
    return [[rng.choice(t0) for _ in range(n)] for _ in range(m)]


def parse_rows(alg, rows):
    from pairlin import matrix

    return matrix(alg, [[alg.parse_literal(t) for t in row] for row in rows])


def st_ref(rows):
    return [[ref.st_parse(t) for t in row] for row in rows]


# ---------------------------------------------------------------------------
# kernels: library calls at desk scale, no searches

# (kernel, pair, n, count per round).  A "det3" instance is three timed
# determinants: of A, of its transpose, and of A with rows 1 and 2 swapped.
# The plan is listed from cheap to dear.  This machine's speed drifts by up to
# half between stretches of seconds, so the kernels near the median and the
# 90th percentile step up in cost by at most about 1.5 times: a percentile
# then slides with the share of slow stretches instead of jumping between
# two kernels.
KERNEL_PLAN = (
    ("laplace", "sign", 4, 6),
    ("laplace", "supertropical", 4, 6),
    ("laplace", "sign", 5, 6),
    ("det", "sign", 5, 8),
    ("laplace", "supertropical", 5, 6),
    ("det", "supertropical", 5, 8),
    ("det3", "hyper:hex1-c3", 5, 4),
    ("ch", "supertropical", 4, 8),
    ("ch", "sign", 4, 8),
    ("det", "sign", 6, 8),
    ("cramer", "supertropical", 5, 6),
    ("ch", "supertropical", 5, 6),
    ("det", "supertropical", 6, 6),
    ("det3", "hyper:hex1-c3", 6, 3),
    ("ch", "sign", 5, 6),
    ("det", "sign", 7, 6),
    ("det", "supertropical", 7, 5),
    ("cramer", "supertropical", 6, 3),
    ("det3", "hyper:hex1-c3", 7, 3),
    ("cramer", "supertropical", 7, 1),
    ("det", "sign", 8, 1),
    ("det", "supertropical", 8, 1),
    ("det3", "hyper:weaksign-c2", 8, 1),
)


def _det_pair(d):
    alg = d.alg
    return alg.format_literal(d.det_plus), alg.format_literal(d.det_minus)


def _check_det(spec, rows):
    facts = MatrixFacts(spec, rows)
    want = tuple(facts.fmt(x) for x in facts.det())

    def check(d):
        got = _det_pair(d)
        return None if got == want else f"det {got} != reference {want}"

    return check


def kernel_ops(seed, round_index):
    import pairlin

    rng = rng_for(seed, round_index)
    ops = []
    for kernel, spec, n, count in KERNEL_PLAN:
        alg = pairlin.make_algebra(spec)
        for _ in range(count):
            label = f"{kernel}:{spec}:{n}"
            if spec == "supertropical":
                rows = st_rows(rng, n, n)
            elif spec == "sign":
                rows = sign_rows(rng, n)
            else:
                rows = finite_rows(rng, alg, n, n)
            a = parse_rows(alg, rows)
            if kernel == "det":
                ops.append(Op(label, lambda a=a: pairlin.det_doubled(a),
                              _check_det(spec, rows)))
            elif kernel == "det3":
                ops.extend(_det3_ops(label, alg, rows))
            elif kernel == "laplace":
                size = rng.randint(1, n - 1)
                row_set = tuple(sorted(rng.sample(range(n), size)))
                ops.append(Op(label, lambda a=a, s=row_set: pairlin.laplace_expand(a, s),
                              _check_det(spec, rows)))
            elif kernel == "ch":
                ops.append(Op(label, lambda a=a: pairlin.cayley_hamilton_check(a),
                              lambda ok: None if ok is True else "Cayley-Hamilton fails"))
            elif kernel == "cramer":
                v = [str(st_value(rng)) for _ in range(n)]
                vv = tuple(alg.parse_literal(t) for t in v)
                ops.append(Op(label, lambda a=a, vv=vv: pairlin.cramer_solve(a, vv),
                              _check_cramer(alg, rows, v)))
    rng.shuffle(ops)
    return ops


def _det3_ops(label, alg, rows):
    """det(A), det(A^T) and det(A with two rows swapped): the transpose
    keeps both parts and the swap exchanges them."""
    import pairlin

    swapped = [rows[1], rows[0]] + rows[2:]
    transposed = [list(col) for col in zip(*rows)]
    got = {}

    def run(key, r):
        a = parse_rows(alg, r)
        return lambda: got.setdefault(key, _det_pair(pairlin.det_doubled(a)))

    def check(_):
        # the three calls run in any order; the last of them compares
        if len(got) < 3:
            return None
        if got["T"] != got["A"]:
            return f"det(A^T) {got['T']} != det(A) {got['A']}"
        if got["S"] != got["A"][::-1]:
            return f"row swap gives {got['S']}, not the parts of {got['A']} exchanged"
        return None

    return [Op(label, run(key, r), check)
            for key, r in (("A", rows), ("T", transposed), ("S", swapped))]


def _check_cramer(alg, rows, v):
    from pairlin import make_doubled

    dalg = make_doubled(alg)
    a = st_ref(rows)
    vr = [ref.st_parse(t) for t in v]
    w_ref, balanced = ref.st_cramer(a, vr)
    want = ["|".join(ref.st_format(x) for x in e) for e in w_ref]

    def check(out):
        if not balanced:
            return "reference Cramer balance fails"
        if not out.balance_verified:
            return "balance_verified is false"
        got = [dalg.format_literal(e) for e in out.w]
        if got != want:
            return f"w {got} != reference {want}"
        if out.x is not None:
            x = [ref.st_parse(alg.format_literal(e)) for e in out.x]
            ax = ref.st_mat_vec(a, x)
            if not out.x_verified or not all(map(ref.st_balances, ax, vr)):
                return "A x does not balance v"
        return None

    return check


# ---------------------------------------------------------------------------
# cli-queries: run_command over generated matrix files

# Three tangible 4x3 supertropical matrices for `check a2p`: four vectors of
# length three, which the theory says are dependent.  Their witness lies on
# the full support, found by the depth-2 domain scan after 1-2.5 s.  They are
# fixed rather than seeded because that scan's cost ranges from 0.02 s to 13 s
# with the witness's position in the scan, and three seeded draws would move
# wall_s by half from one seed to the next.
FIXED_A2P = (
    (("-8", "-3", "-10"), ("-3", "3", "-7/2"), ("1", "-2", "6"), ("11/2", "7", "-11")),
    (("2", "0", "7"), ("0", "9", "5"), ("9", "-9/2", "11/2"), ("-12", "4", "3/2")),
    (("-11", "12", "7"), ("-9/2", "-6", "0"), ("-5/2", "11", "-2"), ("-10", "-11/2", "-9")),
)

FINITE_SQUARE = 2  # 3x3 matrices per finite pair and round
FINITE_TALL = 2  # 4x3 matrices per finite pair and round
ST_SQUARE = 8
ST_JACOBI = 4


def run_cli(argv):
    from pairlin.cli import run_command

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = run_command(argv)
    return rc, buf.getvalue()


def kv_lines(text):
    out = []
    for line in text.splitlines():
        k, _, v = line.partition(": ")
        out.append((k, v))
    return out


def write_matrix(path, spec, rows):
    body = "\n".join(" ".join(r) for r in rows)
    with open(path, "w") as fh:
        fh.write(f"pair {spec}\nrows {len(rows)}\ncols {len(rows[0])}\n{body}\n")


class MatrixFacts:
    """Independent facts about one matrix: determinants, singularity of
    every square submatrix, and null combinations of its rows."""

    def __init__(self, spec, rows):
        import pairlin

        self.spec = spec
        self.rows = rows
        self.alg = pairlin.make_algebra(spec)
        if spec == "supertropical":
            self.vals = st_ref(rows)
        elif spec == "sign":
            self.vals = rows
        else:
            self.vals = [[self.alg.parse_literal(t) for t in r] for r in rows]

    def det(self, idx_rows=None, idx_cols=None):
        m, n = len(self.rows), len(self.rows[0])
        idx_rows = range(m) if idx_rows is None else idx_rows
        idx_cols = range(n) if idx_cols is None else idx_cols
        sub = [[self.vals[i][j] for j in idx_cols] for i in idx_rows]
        if self.spec == "supertropical":
            return ref.st_det(sub)
        if self.spec == "sign":
            return ref.sign_det(sub)
        return ref.generic_det(self.alg, sub)

    def fmt(self, x):
        if self.spec == "supertropical":
            return ref.st_format(x)
        if self.spec == "sign":
            return x
        return self.alg.format_literal(x)

    def singular(self, idx_rows=None, idx_cols=None):
        p, q = self.det(idx_rows, idx_cols)
        if self.spec == "supertropical":
            return ref.st_balances(p, q)
        if self.spec == "sign":
            return ref.sign_balances(p, q)
        return ref.generic_balances(self.alg, p, q)

    def submatrix_rank(self):
        from itertools import combinations

        m, n = len(self.rows), len(self.rows[0])
        for k in range(min(m, n), 0, -1):
            for ri in combinations(range(m), k):
                for ci in combinations(range(n), k):
                    if not self.singular(ri, ci):
                        return k
        return 0

    def witness_problem(self, text):
        """What is wrong with a printed `support=[..] coeffs=[..]` witness."""
        sup_part, _, coef_part = text.partition(" coeffs=")
        support = [int(s) - 1 for s in sup_part.removeprefix("support=")[1:-1].split(",")]
        tokens = coef_part[1:-1].split(",")
        if len(tokens) != len(support) or not all(0 <= i < len(self.rows) for i in support):
            return f"malformed witness {text!r}"
        vecs = [self.vals[i] for i in support]
        if self.spec == "supertropical":
            coeffs = [ref.st_parse(t) for t in tokens]
            if any(c is None or c[0] for c in coeffs):
                return f"witness coefficients not tangible: {text!r}"
            ok = ref.st_combination_null(vecs, coeffs)
        else:
            coeffs = [self.alg.parse_literal(t) for t in tokens]
            if not all(self.alg.is_tangible(c) for c in coeffs):
                return f"witness coefficients not tangible: {text!r}"
            if self.spec == "sign":
                vecs = [[self.alg.parse_literal(t) for t in v] for v in vecs]
            ok = ref.generic_combination_null(self.alg, vecs, coeffs)
        return None if ok else f"witness {text!r} is not a null combination"


VERDICT_EXIT = {"HOLDS": 0, "FAILS": 1, "UNKNOWN": 3}


def _check_det_query(facts):
    def check(result):
        rc, text = result
        d = dict(kv_lines(text))
        if rc != 0:
            return f"det exit {rc}: {text.strip()}"
        p, q = facts.det()
        want = (facts.fmt(p), facts.fmt(q), str(facts.singular()).lower())
        got = (d.get("det_plus"), d.get("det_minus"), d.get("singular"))
        return None if got == want else f"det report {got} != reference {want}"

    return check


def _rank_problem(facts, lines, exact):
    d = dict(lines)
    m, n = len(facts.rows), len(facts.rows[0])
    try:
        rr, cr, sr = int(d["row_rank"]), int(d["col_rank"]), int(d["submatrix_rank"])
    except (KeyError, ValueError):
        return f"rank report incomplete: {d}"
    if sr != facts.submatrix_rank():
        return f"submatrix_rank {sr} != reference {facts.submatrix_rank()}"
    if not (0 <= rr <= m and 0 <= cr <= n):
        return f"ranks out of bounds: row {rr} col {cr} for {m}x{n}"
    if not exact and not (sr <= rr and sr <= cr):
        return f"heuristic ranks below submatrix rank: {rr}, {cr} < {sr}"
    if d.get("domain") != ("exact" if exact else "heuristic"):
        return f"domain {d.get('domain')!r}"
    if exact:
        want_a1 = "HOLDS" if sr <= min(rr, cr) else "FAILS"
        want_a2 = "HOLDS" if sr >= max(rr, cr) else "FAILS"
    else:
        want_a1 = "UNKNOWN"
        want_a2 = "HOLDS" if sr >= max(rr, cr) else "UNKNOWN"
    if (d.get("a1"), d.get("a2")) != (want_a1, want_a2):
        return f"a1/a2 {d.get('a1')}/{d.get('a2')} inconsistent with ranks {rr},{cr},{sr}"
    for k, v in lines:
        if k == "witness":
            problem = facts.witness_problem(v)
            if problem:
                return problem
            if exact and rr == m:
                return "a row witness with full row rank"
    return None


def _check_rank_query(facts, exact, seen):
    def check(result):
        rc, text = result
        if rc != 0:
            return f"rank exit {rc}: {text.strip()}"
        lines = kv_lines(text)
        seen["rank"] = d = dict(lines)
        for which in ("a1", "a2"):
            if which in seen and seen[which] != d.get(which):
                return f"rank says {which} {d.get(which)}, check says {seen[which]}"
        return _rank_problem(facts, lines, exact)

    return check


def _check_condition_query(which, seen):
    def check(result):
        rc, text = result
        d = dict(kv_lines(text))
        verdict = d.get(which)
        if rc != VERDICT_EXIT.get(verdict):
            return f"check {which}: verdict {verdict!r} with exit {rc}"
        seen[which] = verdict
        if "rank" in seen and verdict != seen["rank"].get(which):
            return f"check {which} says {verdict}, rank says {seen['rank'].get(which)}"
        return None

    return check


def _check_a2p_query(facts, must_hold):
    def check(result):
        rc, text = result
        lines = kv_lines(text)
        d = dict(lines)
        verdict = d.get("a2p")
        if rc != VERDICT_EXIT.get(verdict):
            return f"check a2p: verdict {verdict!r} with exit {rc}"
        if must_hold and verdict != "HOLDS":
            return f"a2p {verdict} on four vectors of length three"
        if verdict == "HOLDS":
            if "witness" not in d:
                return "a2p HOLDS without a witness"
            return facts.witness_problem(d["witness"])
        return None

    return check


def _check_cramer_query(facts, rhs):
    def check(result):
        rc, text = result
        d = dict(kv_lines(text))
        if rc != 0 or d.get("balance_verified") != "true":
            return f"solve cramer exit {rc}: {text.strip()}"
        if "x" in d and d.get("x_verified") != "true":
            return "cramer x not verified"
        if facts.spec == "supertropical":
            vr = [ref.st_parse(t) for t in rhs]
            w_ref, balanced = ref.st_cramer(facts.vals, vr)
            want = ",".join("|".join(ref.st_format(x) for x in e) for e in w_ref)
            if not balanced or d.get("w") != want:
                return f"cramer w {d.get('w')} != reference {want}"
        return None

    return check


def _check_jacobi_query(facts, rhs):
    def check(result):
        rc, text = result
        d = dict(kv_lines(text))
        if rc != 0 or d.get("balance_verified") != "true" or d.get("mu_verified") != "true":
            return f"solve jacobi exit {rc}: {text.strip()}"
        x = [ref.st_parse(t) for t in d["x"].split(",")]
        ax = ref.st_mat_vec(facts.vals, x)
        vr = [ref.st_parse(t) for t in rhs]
        if not all(map(ref.st_balances, ax, vr)):
            return f"jacobi x {d['x']} does not balance the right-hand side"
        return None

    return check


def _check_audit_query(alg):
    first_kind = str(alg.is_null(alg.add(alg.one, alg.one))).lower()

    def check(result):
        rc, text = result
        d = dict(kv_lines(text))
        if rc != 0 or d.get("admissible") != "true":
            return f"audit exit {rc}, admissible {d.get('admissible')!r}"
        if d.get("first_kind") != first_kind:
            return f"audit first_kind {d.get('first_kind')}, 1 + 1 says {first_kind}"
        return None

    return check


def query_ops(seed, round_index, workdir):
    """The round's queries; matrix files are written under workdir.  The
    `rank` report and the `check a1`/`check a2` verdicts on one matrix are
    compared by whichever of them runs last."""
    import pairlin

    rng = rng_for(seed, round_index)
    ops = []
    count = 0

    def new_file(spec, rows):
        nonlocal count
        count += 1
        path = os.path.join(workdir, f"m{count}.txt")
        write_matrix(path, spec, rows)
        return path, MatrixFacts(spec, rows)

    def square_queries(spec, rows, rhs, exact):
        path, facts = new_file(spec, rows)
        seen = {}
        ops.append(Op(f"det:{spec}", lambda: run_cli(["det", path]), _check_det_query(facts)))
        ops.append(Op(f"rank:{spec}", lambda: run_cli(["rank", path]),
                      _check_rank_query(facts, exact, seen)))
        for which in ("a1", "a2"):
            ops.append(Op(f"check-{which}:{spec}",
                          lambda w=which: run_cli(["check", w, path]),
                          _check_condition_query(which, seen)))
        argv = ["solve", "cramer", path, "--rhs=" + ",".join(rhs)]
        ops.append(Op(f"cramer:{spec}", lambda: run_cli(argv), _check_cramer_query(facts, rhs)))

    def a2p_query(spec, rows, must_hold):
        path, facts = new_file(spec, rows)
        ops.append(Op(f"check-a2p:{spec}", lambda: run_cli(["check", "a2p", path]),
                      _check_a2p_query(facts, must_hold)))

    for spec in FINITE_QUERY_PAIRS:
        alg = pairlin.make_algebra(spec)
        tangibles = [alg.format_literal(t) for t in alg.tangibles]
        for _ in range(FINITE_SQUARE):
            rows = finite_rows(rng, alg, 3, 3)
            square_queries(spec, rows, [rng.choice(tangibles) for _ in range(3)], True)
        for _ in range(FINITE_TALL):
            a2p_query(spec, finite_rows(rng, alg, 4, 3), False)
        ops.append(Op(f"audit:{spec}", lambda s=spec: run_cli(["audit", s]),
                      _check_audit_query(alg)))
    st = pairlin.make_algebra("supertropical")
    for _ in range(ST_SQUARE):
        rhs = [str(st_value(rng)) for _ in range(3)]
        square_queries("supertropical", st_rows(rng, 3, 3), rhs, False)
    for _ in range(ST_JACOBI):
        rows = dominant_rows(rng, 3)
        rhs = [str(st_value(rng)) for _ in range(3)]
        path, facts = new_file("supertropical", rows)
        argv = ["solve", "jacobi", path, "--rhs=" + ",".join(rhs)]
        ops.append(Op("jacobi:supertropical", lambda argv=argv: run_cli(argv),
                      _check_jacobi_query(facts, rhs)))
    ops.append(Op("audit:supertropical", lambda: run_cli(["audit", "supertropical"]),
                  _check_audit_query(st)))
    for rows in FIXED_A2P:
        a2p_query("supertropical", [list(r) for r in rows], True)
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# verify-all: the `pairlin verify all` process at its default seed


def verify_problem(rc, text):
    from tracer import SUITE_NAMES

    d = dict(kv_lines(text))
    if rc != 0:
        return f"verify all exit {rc}"
    missing = [s for s in SUITE_NAMES if d.get(s) != "PASS"]
    if missing:
        return f"no PASS line for {missing}"
    if d.get("failures") != "0":
        return f"failures: {d.get('failures')}"
    return None
