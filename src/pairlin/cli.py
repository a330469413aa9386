"""Command-line surface: parse matrices and algebras, run determinant, rank,
solve, and audit commands, and execute the registry of named reproductions.

Exit codes: 0 success/PASS, 1 claim FAIL or verdict Fails, 2 input or parse
error, 3 cap exceeded or undecidable.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import sys

from .core import CapExceeded, PairError, Undecidable, axiom_audit
from .instances import BadSpecifier, SPECIFIER_HELP, make_algebra, make_doubled
from .matrices import _singular_minors, det_doubled, det_method, matrix
from .rank import (
    UndecidableSurpassing,
    check_condition,
    exact_domain,
    heuristic_domain,
    rank_report,
)
from .solve import NoConvergence, cramer_solve, jacobi_solve
from . import suites as suites_mod
from .suites import ALL_SUITES, DEFAULT_SEED


class ParseFailure(PairError):
    pass


# The most k x k minors, k = min(m, n), that `det` reports on a non-square
# matrix: one line each, from one minor layer per column set.  A 2 x 100 file
# (4,950 minors) is under it; 2 x 101 (5,050) and 8 x 16 (12,870) are over
# it and exit 3 before any minor is computed.
DET_MINOR_CAP = 5000


def parse_matrix_text(text: str):
    """Matrix text format: `pair <spec>`, `rows <m>`, `cols <n>`, then m lines
    of n whitespace-separated element literals; `#` begins a comment."""
    lines = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            lines.append(line)
    if len(lines) < 3:
        raise ParseFailure("matrix file needs pair/rows/cols headers")
    header = {}
    for i, key in enumerate(("pair", "rows", "cols")):
        parts = lines[i].split(None, 1)
        if len(parts) != 2 or parts[0] != key:
            raise ParseFailure(f"expected `{key} <value>` on line {i + 1}")
        header[key] = parts[1].strip()
    try:
        m, n = int(header["rows"]), int(header["cols"])
    except ValueError:
        raise ParseFailure("rows/cols must be integers")
    alg = make_algebra(header["pair"])
    if alg.parse_literal is None:
        raise ParseFailure(f"{alg.id} has no element literal grammar")
    body = lines[3:]
    if len(body) != m:
        raise ParseFailure(f"expected {m} rows, found {len(body)}")
    rows = []
    for line in body:
        toks = line.split()
        if len(toks) != n:
            raise ParseFailure(f"expected {n} entries per row, got {len(toks)}")
        rows.append([alg.parse_literal(t) for t in toks])
    return alg, matrix(alg, rows)


def _read_matrix(path):
    """(pair, matrix) from the matrix file at path, closed once read."""
    with open(path) as f:
        text = f.read()
    return parse_matrix_text(text)


def parse_vector(alg, text: str):
    return tuple(alg.parse_literal(t.strip()) for t in text.split(","))


class Reporter:
    def __init__(self, fmt="kv"):
        self.fmt = fmt

    def emit(self, key, value):
        if self.fmt == "json-lines":
            print(json.dumps({"key": key, "value": value}))
        else:
            print(f"{key}: {value}")


def _domain_from_flag(alg, vectors, flag):
    if flag is None:
        return None
    if flag == "exact":
        return exact_domain(alg)
    name, colon, arg = flag.partition(":")
    if name == "heuristic":
        depth = 2
        if colon:
            if not arg.isdecimal():
                raise ParseFailure(f"heuristic depth {arg!r} is not a nonnegative integer")
            depth = int(arg)
        return heuristic_domain(alg, vectors, depth)
    raise ParseFailure(f"unknown domain flag {flag!r}")


def cmd_pairs(args, rep):
    for spec, desc in SPECIFIER_HELP:
        rep.emit(spec, desc)
    return 0


def cmd_det(args, rep):
    alg, a = _read_matrix(args.file)
    rep.emit("pair", alg.spec_string)
    rep.emit("rows", str(a.rows))
    rep.emit("cols", str(a.cols))
    if a.is_square:
        d = det_doubled(a)
        rep.emit("det_plus", alg.format_literal(d.det_plus))
        rep.emit("det_minus", alg.format_literal(d.det_minus))
        rep.emit("permanent", alg.format_literal(d.total()))
        rep.emit("singular", str(d.balanced()).lower())
        rep.emit("det_method", det_method(alg))
        rep.emit("det_products", str(d.products))
        return 0
    k = min(a.rows, a.cols)
    minors = _singular_minors(a, k)  # checks k, so the determinant cap wins
    count = math.comb(a.rows, k) * math.comb(a.cols, k)
    if count > DET_MINOR_CAP:
        raise CapExceeded(
            f"minor cap exceeded: {count} minors of size {k}, more than {DET_MINOR_CAP}"
        )
    singular = dict(minors)
    for ri in itertools.combinations(range(a.rows), k):
        s = sum(1 << i for i in ri)
        for ci in itertools.combinations(range(a.cols), k):
            label = (
                "rows=[" + ",".join(str(i + 1) for i in ri) + "]"
                " cols=[" + ",".join(str(j + 1) for j in ci) + "]"
            )
            rep.emit(f"minor {label} singular", str(singular[ci][s]).lower())
    return 0


def _search_stats():
    """The counts every dependence search of one command adds to (see
    rank.find_dependence), in the order they are reported."""
    return {"supports_tried": 0, "supports_scanned": 0}


def _emit_stats(rep, stats):
    for k, v in stats.items():
        rep.emit(k, str(v))


def cmd_rank(args, rep):
    alg, a = _read_matrix(args.file)
    dom = _domain_from_flag(alg, list(a.entries), args.domain)
    stats = _search_stats()
    r = rank_report(a, dom, stats)
    rep.emit("pair", alg.spec_string)
    for k, v in r.lines():
        rep.emit(k, v)
    _emit_stats(rep, stats)
    return 0


def cmd_check(args, rep):
    alg, a = _read_matrix(args.file)
    dom = _domain_from_flag(alg, list(a.entries), args.domain)
    stats = _search_stats()
    v = check_condition(a, args.condition, dom, stats)
    rep.emit(args.condition, v.verdict)
    if v.detail:
        rep.emit(f"{args.condition}_detail", v.detail)
    if v.witness is not None:
        rep.emit("witness", v.witness.kv(alg.format_literal))
    _emit_stats(rep, stats)
    if v.verdict == "FAILS":
        return 1
    if v.verdict == "UNKNOWN":
        return 3
    return 0


def cmd_solve(args, rep):
    alg, a = _read_matrix(args.file)
    v = parse_vector(alg, args.rhs)
    if args.method == "cramer":
        out = cramer_solve(a, v)
        rep.emit("w", ",".join(map(make_doubled(alg).format_literal, out.w)))
        rep.emit("balance_verified", str(out.balance_verified).lower())
        if out.x is not None:
            rep.emit("x", ",".join(alg.format_literal(e) for e in out.x))
            rep.emit("x_verified", str(out.x_verified).lower())
        return 0 if out.balance_verified else 1
    state = jacobi_solve(a, v, args.max_iter)
    for i, it in enumerate(state.iterates, start=1):
        rep.emit(f"x{i}", ",".join(alg.format_literal(e) for e in it))
    rep.emit("stabilized_at", str(state.stabilized_at))
    rep.emit("x", ",".join(alg.format_literal(e) for e in state.x))
    rep.emit("balance_verified", str(state.balance_verified).lower())
    rep.emit("mu_verified", str(state.mu_verified).lower())
    return 0 if state.balance_verified and state.mu_verified else 1


def cmd_audit(args, rep):
    alg = make_algebra(args.spec)
    report = axiom_audit(alg)
    rep.emit("pair", alg.spec_string)
    for k, v in report.lines():
        rep.emit(k, v)
    rep.emit("audit_elements", str(report.elements))
    return 0


EXAMPLES = {
    "sign-a2-counterexample": suites_mod.suite_sign_counterexample,
    "doubled-boolean-a2": suites_mod.suite_doubled_boolean,
    "truncated-quasiperiodic": suites_mod.suite_truncated,
    "powerset-symdiff-a2prime": suites_mod.suite_powerset_symdiff,
    "krasner-2x2": suites_mod.suite_krasner,
    "hex-a2prime": suites_mod.suite_hyperfield_a2prime,
}


class UnknownExample(PairError):
    pass


def cmd_example(args, rep):
    if args.name not in EXAMPLES:
        raise UnknownExample(
            f"unknown example {args.name!r}; known: {', '.join(sorted(EXAMPLES))}"
        )
    res = EXAMPLES[args.name](seed=args.seed)
    for line in res.detail:
        rep.emit("evidence", line)
    rep.emit(res.name, "PASS" if res.passed else "FAIL")
    return 0 if res.passed else 1


def _fork_suite_worker(pull, inherited):
    """Fork a child that runs `pull` and pickles each (index, result) it is
    handed onto a pipe of its own; returns (pid, read end of that pipe).  The
    child first closes the `inherited` read ends of earlier children's pipes,
    and it never returns."""
    import pickle

    r, w = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(r)
        os.close(w)
        raise
    if pid:
        os.close(w)
        return pid, r
    try:
        for fd in (r, *inherited):
            os.close(fd)
        with open(w, "wb") as out:

            def send(i, res):
                try:
                    data = pickle.dumps((i, res))
                except Exception:  # an exception that will not pickle: rerun
                    return
                out.write(data)
                out.flush()

            pull(send)
    finally:
        os._exit(0)


def _queue_order(suites) -> list:
    """The indices of suites in the order `verify all` starts them: by
    declared cost (suites.costs), largest first, then every suite that
    declares none; equal costs keep their list order."""

    def key(i):
        cost = getattr(suites[i], "cost", None)
        return cost is None, -(cost or 0)

    return sorted(range(len(suites)), key=key)


def _suite_results(seed):
    """Run every suite of ALL_SUITES once, here and on forked workers (see
    cmd_verify); returns {index: SuiteResult or the exception raised} for
    every suite whose result came back."""

    def pull(done):
        while index := os.read(queue, 1):
            try:
                res = ALL_SUITES[index[0]](seed=seed)
            except Exception as exc:
                res = exc
            done(index[0], res)

    # a forked child holds only the forking thread, and a lock another
    # thread held at the fork stays held in it: no fork beside other threads
    threading = sys.modules.get("threading")
    workers = 1
    if (
        hasattr(os, "fork")
        and hasattr(os, "sched_getaffinity")
        and (threading is None or threading.active_count() == 1)
    ):
        workers = min(len(ALL_SUITES), len(os.sched_getaffinity(0)))
    results = {}
    children = []
    queue, w = os.pipe()
    try:
        os.write(w, bytes(_queue_order(ALL_SUITES)))
    finally:
        os.close(w)
    try:
        for _ in range(workers - 1):
            try:
                children.append(_fork_suite_worker(pull, [r for _, r in children]))
            except OSError:  # no more processes: the ones started take the rest
                break
        pull(results.__setitem__)
    except BaseException:
        while os.read(queue, 64):  # leave the children nothing more to start
            pass
        raise
    finally:
        os.close(queue)
        for pid, r in children:
            import pickle

            try:
                with open(r, "rb") as f:
                    while True:
                        try:
                            i, res = pickle.load(f)
                        except Exception:  # the end, a record cut short, or
                            break  # one that will not unpickle: the rest rerun
                        results[i] = res
            finally:
                os.waitpid(pid, 0)
    return results


def cmd_verify(args, rep):
    """Run every suite of ALL_SUITES and report them in its order.

    The suites run at once on every CPU this process may use: the process
    forks one worker per further CPU, and every process takes the index of
    its next suite from one pipe, one byte per suite written before the
    fork in _queue_order, costliest first, until the pipe is empty.  The
    costliest start first so that no process is left running a long suite
    alone at the end.  A 1-byte read is atomic, so each suite runs once,
    and a process that finishes early takes the next suite.  Each
    child pickles its results onto a pipe of its own; this process reads
    them, reaps every child on every path, and reruns here any suite whose
    result did not come back (a child that died, or an exception that would
    not pickle).  A suite's exception is raised again at its place in the
    order, so the lines before it and the exit code are those of a serial
    run.  Children end with os._exit: they never return into the caller
    (a test runner, a benchmark's in-process run), never flush stdout
    buffered before the fork, and exit if their result pipe breaks.  With
    one CPU, without os.fork, or beside other threads of this process,
    everything runs here with no child.
    """
    rep.emit("seed", str(args.seed))
    results = _suite_results(args.seed)
    failures = 0
    for i, suite in enumerate(ALL_SUITES):
        res = results[i] if i in results else suite(seed=args.seed)
        if isinstance(res, Exception):
            raise res
        rep.emit(res.name, "PASS" if res.passed else "FAIL")
        if not res.passed:
            failures += 1
            for line in res.detail:
                rep.emit(f"{res.name}_detail", line)
    rep.emit("failures", str(failures))
    return 0 if failures == 0 else 1


def build_parser():
    p = argparse.ArgumentParser(
        prog="pairlin",
        description="linear algebra over semiring pairs",
    )
    p.add_argument("--format", choices=("kv", "json-lines"), default="kv")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("pairs", help="list registered pair families")
    sp.add_argument("action", choices=("list",))

    sp = sub.add_parser("det", help="determinant report for a matrix file")
    sp.add_argument("file")

    sp = sub.add_parser("rank", help="rank report for a matrix file")
    sp.add_argument("file")
    sp.add_argument("--domain", default=None)

    sp = sub.add_parser("check", help="check condition a1|a2|a2p")
    sp.add_argument("condition", choices=("a1", "a2", "a2p"))
    sp.add_argument("file")
    sp.add_argument("--domain", default=None)

    sp = sub.add_parser("solve", help="cramer or jacobi solve")
    sp.add_argument("method", choices=("cramer", "jacobi"))
    sp.add_argument("file")
    sp.add_argument("--rhs", required=True)
    sp.add_argument("--max-iter", type=int, default=None)

    sp = sub.add_parser("audit", help="axiom audit of a pair specifier")
    sp.add_argument("spec")

    sp = sub.add_parser("example", help="run a named reproduction")
    sp.add_argument("name")

    sp = sub.add_parser("verify", help="run all reproductions and suites")
    sp.add_argument("what", choices=("all",))
    return p


COMMANDS = {
    "pairs": cmd_pairs,
    "det": cmd_det,
    "rank": cmd_rank,
    "check": cmd_check,
    "solve": cmd_solve,
    "audit": cmd_audit,
    "example": cmd_example,
    "verify": cmd_verify,
}


def _glue_rhs(argv):
    """`--rhs -1,1` -> `--rhs=-1,1`: argparse reads a separate value that
    starts with `-` as an option, and the sign pair's tangible -1 does."""
    argv = list(argv)
    if "--rhs" in argv:
        i = argv.index("--rhs")
        argv[i : i + 2] = ["=".join(argv[i : i + 2])]
    return argv


_PARSER = None  # built by the first run_command, not at import; parse_args
# keeps no state between calls, so one parser serves every command


def run_command(argv) -> int:
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    parser = _PARSER
    try:
        args = parser.parse_args(_glue_rhs(argv))
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    rep = Reporter(args.format)
    try:
        return COMMANDS[args.command](args, rep)
    except (CapExceeded, Undecidable, NoConvergence, UndecidableSurpassing) as exc:
        rep.emit("error", str(exc))
        return 3
    except (BadSpecifier, ParseFailure, UnknownExample, OSError, UnicodeDecodeError) as exc:
        rep.emit("error", str(exc))
        return 2
    except PairError as exc:
        rep.emit("error", str(exc))
        return 2


def main():
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
