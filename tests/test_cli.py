"""Command-line surface: parsing, reports, exit codes."""

import json
import math
import os
import subprocess
import sys
import time

import pytest

from pairlin.cli import (
    DET_MINOR_CAP,
    parse_matrix_text,
    run_command,
)
from pairlin.core import PairError
from pairlin.instances import BadSpecifier
from pairlin.matrices import CapExceeded
from pairlin.rank import rank_report


def format_matrix_text(a) -> str:
    """a in the matrix text format that parse_matrix_text reads."""
    alg = a.alg
    out = [f"pair {alg.spec_string}", f"rows {a.rows}", f"cols {a.cols}"]
    for row in a.entries:
        out.append(" ".join(alg.format_literal(e) for e in row))
    return "\n".join(out) + "\n"


RANK_GAP = """\
# sign-pair counterexample fixture
pair sign
rows 3
cols 4
1 1 -1 1
1 -1 1 1
-1 1 1 1
"""

ST_FIX = """\
pair supertropical
rows 2
cols 2
2 0
1 3
"""


DOMINANT_2X2 = """\
pair supertropical
rows 2
cols 2
100 2
3 100
"""


@pytest.fixture
def rank_gap_file(tmp_path):
    f = tmp_path / "rank_gap.txt"
    f.write_text(RANK_GAP)
    return str(f)


@pytest.fixture
def st_file(tmp_path):
    f = tmp_path / "st.txt"
    f.write_text(ST_FIX)
    return str(f)


def kv(out):
    d = {}
    for line in out.strip().splitlines():
        k, _, v = line.partition(": ")
        d[k] = v
    return d


class TestParserReuse:
    def test_reused_parser_matches_a_fresh_one(self, tmp_path, capsys, monkeypatch):
        from pairlin import cli

        sign = tmp_path / "sign2.txt"
        sign.write_text("pair sign\nrows 2\ncols 2\n1 0\n0 -1\n")
        st = tmp_path / "st.txt"
        st.write_text(ST_FIX)
        argvs = [
            ["transpose", str(st)],
            ["solve", "cramer", str(st)],
            ["--format", "xml", "det", str(st)],
            ["--format", "json-lines", "det", str(st)],
            ["solve", "cramer", str(sign), "--rhs", "-1,1"],
            ["--help"],
            ["det", str(st)],
            ["--format", "json-lines", "rank", str(sign)],
            ["check", "a2", str(sign), "--domain", "exact"],
            ["solve", "jacobi", str(st), "--rhs", "4,4", "--max-iter", "3"],
            ["audit", "sign"],
        ]

        def run(argv):
            code = run_command(argv)
            out = capsys.readouterr()
            return code, out.out, out.err

        fresh = []
        for argv in argvs:
            monkeypatch.setattr(cli, "_PARSER", None)
            fresh.append(run(argv))
        # the first command builds the parser, and every later one reuses it
        monkeypatch.setattr(cli, "_PARSER", None)
        builds = []
        real_build = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda: builds.append(1) or real_build())
        reused = [run(argv) for argv in argvs]
        assert builds == [1]
        assert reused == fresh
        codes = [code for code, _, _ in fresh]
        assert codes == [2, 2, 2, 0, 0, 0, 0, 0, 0, 0, 0]
        assert "usage: pairlin" in fresh[0][2] and "--rhs" in fresh[1][2]
        assert "pairlin" in fresh[5][1]


class TestParsing:
    def test_round_trip_canonical_form(self):
        alg, a = parse_matrix_text(RANK_GAP)
        text = format_matrix_text(a)
        alg2, b = parse_matrix_text(text)
        assert a.entries == b.entries
        assert format_matrix_text(b) == text

    def test_comments_and_blank_lines_ignored(self):
        alg, a = parse_matrix_text("# lead\n\npair sign\nrows 1\ncols 1\n1 # trail\n")
        assert a.rows == 1

    def test_bad_header(self):
        from pairlin.cli import ParseFailure

        with pytest.raises(ParseFailure):
            parse_matrix_text("rows 1\ncols 1\npair sign\n1\n")


class TestCommands:
    def test_pairs_list(self, capsys):
        assert run_command(["pairs", "list"]) == 0
        out = capsys.readouterr().out
        assert "sign" in out and "supertropical" in out

    def test_det_square(self, st_file, capsys):
        assert run_command(["det", st_file]) == 0
        d = kv(capsys.readouterr().out)
        assert d["det_plus"] == "5"
        assert d["det_minus"] == "1"
        assert d["singular"] == "false"

    def test_det_nonsquare_prints_minor_verdicts(self, rank_gap_file, capsys):
        assert run_command(["det", rank_gap_file]) == 0
        out = capsys.readouterr().out
        assert out.count("singular: true") == 4  # all four 3x3 minors

    def test_rank_report(self, rank_gap_file, capsys):
        assert run_command(["rank", rank_gap_file]) == 0
        d = kv(capsys.readouterr().out)
        assert d["row_rank"] == "3"
        assert d["submatrix_rank"] == "2"
        assert d["a2"] == "FAILS"

    def test_check_a2_fails_exit_1(self, rank_gap_file, capsys):
        assert run_command(["check", "a2", rank_gap_file]) == 1
        assert kv(capsys.readouterr().out)["a2"] == "FAILS"

    def test_check_a1_holds_exit_0(self, rank_gap_file, capsys):
        assert run_command(["check", "a1", rank_gap_file]) == 0

    def test_rank_and_check_end_with_search_counts(self, rank_gap_file, capsys):
        # summed over every dependence search of the command; a finite pair
        # scans every support it tries
        alg, a = parse_matrix_text(RANK_GAP)
        stats = {"supports_tried": 0, "supports_scanned": 0}
        report = rank_report(a, None, stats)
        assert stats["supports_tried"] == stats["supports_scanned"] > 0
        counts = [f"supports_tried: {stats['supports_tried']}",
                  f"supports_scanned: {stats['supports_scanned']}"]
        assert run_command(["rank", rank_gap_file]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines == ["pair: sign"] + [f"{k}: {v}" for k, v in report.lines()] + counts
        assert run_command(["--format", "json-lines", "check", "a2", rank_gap_file]) == 1
        recs = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert [r["key"] for r in recs] == ["a2", "a2_detail", "supports_tried", "supports_scanned"]
        assert int(recs[-2]["value"]) == int(recs[-1]["value"]) > 0

    def test_a2p_counts_tie_solved_supports(self, tmp_path, capsys):
        # four tangible vectors of length three: the minors decide all 15
        # supports, and none scans
        f = tmp_path / "tall.txt"
        f.write_text("pair supertropical\nrows 4\ncols 3\n"
                     "-8 -3 -10\n-3 3 -7/2\n1 -2 6\n11/2 7 -11\n")
        assert run_command(["check", "a2p", str(f)]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "a2p: HOLDS",
            "a2p_detail: rows dependent",
            "witness: support=[1,2,3,4] coeffs=[0,-6,-31/2,-27/2]",
            "supports_tried: 15",
            "supports_scanned: 0",
        ]
        f.write_text("pair supertropical\nrows 2\ncols 2\n2 0\n1 3\n")
        assert run_command(["check", "a2p", str(f)]) == 0
        assert capsys.readouterr().out.splitlines()[-2:] == [
            "supports_tried: 0",
            "supports_scanned: 0",
        ]

    def test_solve_cramer(self, st_file, capsys):
        assert run_command(["solve", "cramer", st_file, "--rhs", "4,4"]) == 0
        d = kv(capsys.readouterr().out)
        assert d["x"] == "2,1"
        assert d["balance_verified"] == "true"

    def test_solve_cramer_negative_rhs(self, tmp_path, capsys):
        f = tmp_path / "sign3.txt"
        f.write_text("pair sign\nrows 3\ncols 3\n1 0 0\n0 -1 0\n0 0 1\n")
        assert run_command(["solve", "cramer", str(f), "--rhs", "-1,1,1"]) == 0
        d = kv(capsys.readouterr().out)
        assert d["balance_verified"] == "true"
        assert d["x"] == "-1,-1,1"

    def test_solve_jacobi(self, st_file, capsys):
        assert run_command(["solve", "jacobi", st_file, "--rhs", "4,4"]) == 0
        d = kv(capsys.readouterr().out)
        assert d["stabilized_at"] == "1"
        assert d["x"] == "2,1"
        assert d["mu_verified"] == "true"

    @pytest.mark.parametrize("max_iter", ["-1", "0", "1"])
    def test_jacobi_max_iter_below_one_exit_2(self, tmp_path, capsys, max_iter):
        # stabilization compares two iterates, so one iteration never succeeds
        f = tmp_path / "dom.txt"
        f.write_text(DOMINANT_2X2)
        argv = ["solve", "jacobi", str(f), "--rhs", "1,2", "--max-iter", max_iter]
        assert run_command(argv) == 2
        assert kv(capsys.readouterr().out)["error"] == (
            "max_iter must be at least 2, since stabilization compares two iterates, "
            f"got {max_iter}"
        )

    @pytest.mark.parametrize("max_iter, code", [("2", 3), ("2", 0)])
    def test_jacobi_iteration_cap(self, tmp_path, capsys, max_iter, code):
        # with the right-hand side 1,2, x1 = x2, so stabilization needs a
        # second iterate; with 1,-inf the second entry of x1 is still zero
        # and changes in x2, so it needs a third
        f = tmp_path / "dom.txt"
        f.write_text(DOMINANT_2X2)
        rhs = "1,-inf" if code == 3 else "1,2"
        argv = ["solve", "jacobi", str(f), "--rhs", rhs, "--max-iter", max_iter]
        assert run_command(argv) == code
        d = kv(capsys.readouterr().out)
        if code == 3:
            assert d["error"] == "no stabilization within 2 iterations"
        else:
            assert d["stabilized_at"] == "1"
            assert d["mu_verified"] == "true"

    def test_audit(self, capsys):
        assert run_command(["audit", "sign"]) == 0
        d = kv(capsys.readouterr().out)
        assert d["strict_second_kind"] == "true"
        assert d["a0_bipotent"] == "true"

    @pytest.mark.parametrize("spec, elements", [
        ("sign", 4),  # a closed carrier
        ("hyper:hex2-c4", 31),  # 25 elements and 6 off-carrier results
        ("supertropical", 38),  # a sample of 9 and 29 results off it
    ])
    def test_audit_ends_with_interned_elements(self, capsys, spec, elements):
        assert run_command(["audit", spec]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[-1] == f"audit_elements: {elements}"
        assert sum(line.startswith("audit_elements:") for line in lines) == 1
        assert run_command(["--format", "json-lines", "audit", spec]) == 0
        recs = [json.loads(x) for x in capsys.readouterr().out.strip().splitlines()]
        assert recs[-1] == {"key": "audit_elements", "value": str(elements)}
        assert [f"{r['key']}: {r['value']}" for r in recs] == lines

    @pytest.mark.parametrize("spec", ["counting:32", "counting:255", "doubled:krasner:13:3"])
    def test_audit_over_the_carrier_cap_exit_3(self, capsys, spec):
        start = time.perf_counter()
        assert run_command(["audit", spec]) == 3
        assert time.perf_counter() - start < 1.0
        assert "more than 32" in kv(capsys.readouterr().out)["error"]

    def test_example_pass(self, capsys):
        assert run_command(["example", "sign-a2-counterexample"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out

    def test_unknown_example_exit_2(self, capsys):
        assert run_command(["example", "not-a-thing"]) == 2

    def test_missing_file_exit_2(self, capsys):
        assert run_command(["det", "/nonexistent/file.txt"]) == 2

    def test_bad_specifier_exit_2(self, tmp_path, capsys):
        f = tmp_path / "bad.txt"
        f.write_text("pair mystery\nrows 1\ncols 1\n1\n")
        assert run_command(["det", str(f)]) == 2

    def test_cap_exit_3(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("PAIRLIN_CAP_N", "1")
        f = tmp_path / "two.txt"
        f.write_text("pair supertropical\nrows 2\ncols 2\n0 0\n0 0\n")
        assert run_command(["det", str(f)]) == 3

    @pytest.mark.parametrize("value", ["x", "-1", "2.5"])
    def test_bad_cap_env_exit_2(self, st_file, capsys, monkeypatch, value):
        monkeypatch.setenv("PAIRLIN_CAP_N", value)
        assert run_command(["det", st_file]) == 2
        assert "PAIRLIN_CAP_N" in kv(capsys.readouterr().out)["error"]

    def test_det_method_reported(self, st_file, tmp_path, capsys):
        assert run_command(["det", st_file]) == 0
        assert kv(capsys.readouterr().out)["det_method"] == "dp"
        f = tmp_path / "hex.txt"
        f.write_text("pair hyper:hex1-c3\nrows 2\ncols 2\ng0 g1\ng2 g0\n")
        assert run_command(["--format", "json-lines", "det", str(f)]) == 0
        recs = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert {"key": "det_method", "value": "tracks"} in recs

    def test_det_products_reported_after_det_method(self, st_file, capsys):
        # the 2x2 subset DP makes 2 * n * 2^(n-1) = 8 code products
        assert run_command(["det", st_file]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[-2:] == ["det_method: dp", "det_products: 8"]
        assert run_command(["--format", "json-lines", "det", st_file]) == 0
        recs = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert recs[-1] == {"key": "det_products", "value": "8"}

    def test_det_nonsquare_minor_cap_exit_3(self, tmp_path, capsys):
        # C(m, k) * C(n, k) minors for k = min(m, n): 2 x 100 is under the
        # cap, 2 x 101 and 8 x 16 over it
        assert math.comb(100, 2) <= DET_MINOR_CAP < math.comb(101, 2)
        f = tmp_path / "wide.txt"
        for m, n in ((2, 100), (2, 101), (8, 16)):
            rows = "\n".join(" ".join("1" if (i + j) % 3 else "-1" for j in range(n)) for i in range(m))
            f.write_text(f"pair sign\nrows {m}\ncols {n}\n{rows}\n")
            start = time.perf_counter()
            rc = run_command(["det", str(f)])
            out = capsys.readouterr().out
            if (m, n) == (2, 100):
                assert rc == 0
                assert out.count(" singular: ") == math.comb(100, 2)
            else:
                assert rc == 3
                assert time.perf_counter() - start < 1.0  # refused before any minor
                count = math.comb(m, min(m, n)) * math.comb(n, min(m, n))
                assert kv(out)["error"] == (
                    f"minor cap exceeded: {count} minors of size {min(m, n)},"
                    f" more than {DET_MINOR_CAP}"
                )

    def test_json_lines_format(self, st_file, capsys):
        assert run_command(["--format", "json-lines", "det", st_file]) == 0
        for line in capsys.readouterr().out.strip().splitlines():
            rec = json.loads(line)
            assert set(rec) == {"key", "value"}

    def test_rank_domain_flag(self, st_file, capsys):
        assert run_command(["rank", st_file, "--domain", "heuristic:2"]) == 0
        d = kv(capsys.readouterr().out)
        assert d["domain"] == "heuristic"

    @pytest.mark.parametrize(
        "flag", ["heuristic:x", "heuristic:-1", "heuristic:", "heuristics"]
    )
    def test_bad_domain_flag_exit_2(self, st_file, capsys, flag):
        assert run_command(["rank", st_file, "--domain", flag]) == 2
        assert "error" in kv(capsys.readouterr().out)

    def test_heuristic_depth_cap_exit_3(self, st_file, capsys):
        start = time.perf_counter()
        assert run_command(["rank", st_file, "--domain", "heuristic:1000"]) == 3
        assert time.perf_counter() - start < 1.0  # refused before the sum set
        assert "heuristic depth 1000" in kv(capsys.readouterr().out)["error"]
        assert run_command(["rank", st_file, "--domain", "heuristic:2"]) == 0
        assert run_command(["rank", st_file]) == 0
        with_flag, default = capsys.readouterr().out.split("pair: ")[1:]
        assert with_flag == default  # depth 2 is the default domain

    @pytest.mark.parametrize(
        "entry", ["abc", "1/0", "g", "1/0g", "1e5000", "1e-5000", "1e9999999", "1e9999999g"]
    )
    def test_bad_supertropical_literal_exit_2(self, tmp_path, capsys, entry):
        # a value beyond the int-to-str digit limit could not be printed, and
        # is refused before its Fraction is built
        f = tmp_path / "bad.txt"
        f.write_text(f"pair supertropical\nrows 2\ncols 2\n2 {entry}\n1 3\n")
        start = time.perf_counter()
        assert run_command(["det", str(f)]) == 2
        assert time.perf_counter() - start < 1.0
        assert entry in kv(capsys.readouterr().out)["error"]

    def test_bad_rhs_literal_exit_2(self, st_file, capsys):
        assert run_command(["solve", "cramer", st_file, "--rhs", "4,zz"]) == 2
        assert "zz" in kv(capsys.readouterr().out)["error"]

    def test_unprintable_determinant_exit_3(self, tmp_path, capsys):
        # each literal prints, but their sum has a 4401-digit denominator
        a, b = f"1/{10 ** 2200 + 1}", f"1/{10 ** 2200 + 3}"
        f = tmp_path / "digits.txt"
        f.write_text(f"pair supertropical\nrows 2\ncols 2\n{a} -inf\n-inf {b}\n")
        start = time.perf_counter()
        assert run_command(["det", str(f)]) == 3
        assert time.perf_counter() - start < 1.0
        out = capsys.readouterr().out
        assert [line for line in out.splitlines() if line.startswith("error:")] == [
            "error: supertropical: value exceeds the int-to-str digit limit"
        ]

    @pytest.mark.parametrize("entry", ["zz", "{g0", "{g0,zz}"])
    def test_bad_powerset_literal_exit_2(self, tmp_path, capsys, entry):
        f = tmp_path / "bad.txt"
        f.write_text(f"pair powerset-symdiff:2\nrows 1\ncols 2\ng0 {entry}\n")
        assert run_command(["det", str(f)]) == 2
        assert "powerset-symdiff:2" in kv(capsys.readouterr().out)["error"]

    @pytest.mark.parametrize("spec", ["krasner:61:60", "counting:2000"])
    def test_oversized_pair_exit_2(self, tmp_path, capsys, spec):
        start = time.perf_counter()
        assert run_command(["audit", spec]) == 2
        assert time.perf_counter() - start < 1.0
        assert "more than 256 elements" in kv(capsys.readouterr().out)["error"]
        f = tmp_path / "big.txt"
        f.write_text(f"pair {spec}\nrows 1\ncols 1\n0\n")
        assert run_command(["det", str(f)]) == 2


class TestDoubledLiterals:
    def test_doubled_boolean_matrix_file(self, tmp_path, capsys):
        f = tmp_path / "db.txt"
        f.write_text(
            "pair doubled:boolean\nrows 4\ncols 4\n"
            "1|0 0|0 0|0 1|0\n0|0 1|0 1|0 0|0\n1|0 0|0 1|0 0|0\n0|0 0|1 0|0 1|0\n"
        )
        assert run_command(["det", str(f)]) == 0
        d = kv(capsys.readouterr().out)
        assert d["permanent"] == "1|1"
        assert d["singular"] == "false"  # tracks have opposite parity

    def test_hyper_vector_literals(self, tmp_path, capsys):
        f = tmp_path / "kr.txt"
        f.write_text("pair krasner:5:4\nrows 2\ncols 2\nc1 c1\nc1 c1\n")
        assert run_command(["det", str(f)]) == 0
        d = kv(capsys.readouterr().out)
        assert d["singular"] == "true"


class TestCapPrecedence:
    """Where two bounds refuse one query, the determinant cap wins."""

    def test_det_cap_before_the_minor_count(self, tmp_path, capsys, monkeypatch):
        f = tmp_path / "wide.txt"
        rows = "\n".join(" ".join(str((7 * i + j) % 5) for j in range(101)) for i in range(2))
        f.write_text(f"pair supertropical\nrows 2\ncols 101\n{rows}\n")
        assert run_command(["det", str(f)]) == 3
        assert kv(capsys.readouterr().out)["error"] == (
            "minor cap exceeded: 5050 minors of size 2, more than 5000"
        )
        monkeypatch.setenv("PAIRLIN_CAP_N", "1")
        assert run_command(["det", str(f)]) == 3
        assert kv(capsys.readouterr().out)["error"] == "determinant cap exceeded at n = 2"

    def test_cramer_det_cap_before_the_doubling_cap(self, tmp_path, capsys, monkeypatch):
        f = tmp_path / "dc.txt"
        f.write_text("pair doubled:counting:30\nrows 2\ncols 2\n1|0 0|1\n0|0 1|0\n")
        argv = ["solve", "cramer", str(f), "--rhs", "1|0,0|1"]
        assert run_command(argv) == 3
        assert kv(capsys.readouterr().out)["error"] == (
            "doubling cap exceeded: doubled:doubled:counting:30 has 923521 elements,"
            " more than 262144"
        )
        monkeypatch.setenv("PAIRLIN_CAP_N", "1")
        assert run_command(argv) == 3
        assert kv(capsys.readouterr().out)["error"] == "determinant cap exceeded at n = 2"


def serial_verify(args, rep):
    """`cmd_verify` as it was before the suites ran in parallel: the oracle."""
    from pairlin import cli

    rep.emit("seed", str(args.seed))
    failures = 0
    for suite in cli.ALL_SUITES:
        res = suite(seed=args.seed)
        rep.emit(res.name, "PASS" if res.passed else "FAIL")
        if not res.passed:
            failures += 1
            for line in res.detail:
                rep.emit(f"{res.name}_detail", line)
    rep.emit("failures", str(failures))
    return 0 if failures == 0 else 1


class TwoPartError(PairError):
    """Pickles, but will not unpickle: its arguments are not its message's."""

    def __init__(self, a, b):
        super().__init__(f"{a} and {b}")


# the suites that take milliseconds, in ALL_SUITES order
QUICK_SUITES = (
    "suite_sign_counterexample",
    "suite_doubled_boolean",
    "suite_truncated",
    "suite_powerset_symdiff",
    "suite_a1_dependent_implies_singular",
    "suite_krasner",
    "suite_structure",
)


class TestParallelVerify:
    """`verify all` on forked workers against the serial loop."""

    @pytest.fixture(autouse=True)
    def setup(self, monkeypatch, capsys, tmp_path):
        from pairlin import cli

        self.cli, self.monkeypatch, self.capsys = cli, monkeypatch, capsys
        self.marker = tmp_path / "child"
        self.parent = os.getpid()

    def run(self, argv):
        code = run_command(argv)
        out = self.capsys.readouterr().out
        with pytest.raises(ChildProcessError):  # every child was reaped
            os.waitpid(-1, os.WNOHANG)
        return code, out

    def both(self, argv):
        """(parallel run, serial oracle) of `argv`, each (exit code, stdout)."""
        parallel = self.run(argv)
        with self.monkeypatch.context() as m:
            m.setitem(self.cli.COMMANDS, "verify", serial_verify)
            serial = self.run(argv)
        return parallel, serial

    def quick(self, workers=2):
        """Run the quick suites, on `workers` processes whatever the CPUs."""
        from pairlin import suites as suites_mod

        self.monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(workers)))
        suites = [getattr(suites_mod, name) for name in QUICK_SUITES]
        assert all(s in suites_mod.ALL_SUITES for s in suites)
        self.monkeypatch.setattr(self.cli, "ALL_SUITES", suites)
        return suites

    def taken_by(self, side, index, body):
        """Replace quick suite `index` by one that records its process and
        then runs `body(seed)`.  After the fork, the other side ("parent" or
        "child") waits until `side` has started it, so `side` takes it."""
        suites = self.quick()

        def suite(seed):
            try:  # the first process to run it, not the oracle or a rerun
                with open(self.marker, "x") as f:
                    f.write(str(os.getpid()))
            except FileExistsError:
                pass
            return body(seed)

        suites[index] = suite
        real_fork = os.fork

        def fork():
            pid = real_fork()
            deadline = time.monotonic() + 60
            waits = (pid != 0) == (side == "child")
            while waits and not self.marker.exists() and time.monotonic() < deadline:
                time.sleep(0.002)
            return pid

        self.monkeypatch.setattr(os, "fork", fork)
        return suites

    def ran_in(self):
        return "parent" if int(self.marker.read_text()) == self.parent else "child"

    @pytest.mark.parametrize("seed", [[], ["--seed", "1"]])
    def test_every_suite_byte_identical(self, seed):
        results = {}  # the oracle runs each suite once for both formats

        def remembered(suite):
            def run(seed):
                if suite not in results:
                    results[suite] = suite(seed=seed)
                return results[suite]

            return run

        for fmt in ("kv", "json-lines"):
            argv = ["--format", fmt, *seed, "verify", "all"]
            parallel = self.run(argv)
            with self.monkeypatch.context() as m:
                m.setitem(self.cli.COMMANDS, "verify", serial_verify)
                m.setattr(self.cli, "ALL_SUITES", [remembered(s) for s in self.cli.ALL_SUITES])
                serial = self.run(argv)
            assert parallel == serial
            assert parallel[0] == 0 and len(parallel[1].splitlines()) == 15

    def test_failed_suite_reports_as_serial(self):
        from pairlin.suites import SuiteResult

        def failing(seed):
            return SuiteResult("doubled-boolean-a2", False, ["note", "FAIL: a claim"])

        self.taken_by("child", 1, failing)
        parallel, serial = self.both(["verify", "all"])
        assert self.ran_in() == "child"
        assert parallel == serial
        assert parallel[0] == 1
        assert "doubled-boolean-a2_detail: FAIL: a claim" in parallel[1]
        assert parallel[1].endswith("failures: 1\n")

    @pytest.mark.parametrize("side", ["child", "parent"])
    @pytest.mark.parametrize("exc, code", [(CapExceeded, 3), (BadSpecifier, 2)])
    def test_raising_suite_reports_as_serial(self, side, exc, code):
        def raising(seed):
            raise exc("a test")

        self.taken_by(side, 4, raising)
        parallel, serial = self.both(["verify", "all"])
        assert self.ran_in() == side
        assert parallel == serial
        lines = parallel[1].splitlines()
        assert parallel[0] == code and len(lines) == 6
        assert lines[-1] == "error: a test"

    @pytest.mark.parametrize("kind", ["will not pickle", "will not unpickle"])
    def test_exception_that_does_not_come_back_reruns(self, kind):
        class Local(TwoPartError):  # pickle names a class by its import path,
            pass  # and a local class has none

        exc = Local if kind == "will not pickle" else TwoPartError
        reruns = []

        def raising(seed):
            reruns.append(os.getpid())
            raise exc("one", "two")

        self.taken_by("child", 2, raising)
        parallel = self.run(["verify", "all"])
        assert self.ran_in() == "child"
        assert reruns == [self.parent]  # the child's run left no trace here
        assert parallel[0] == 2
        assert parallel[1].splitlines()[-1] == "error: one and two"

    def test_child_that_dies_is_rerun(self):
        real = self.quick()[3]

        def dying(seed):
            if os.getpid() != self.parent:
                os._exit(9)
            return real(seed=seed)

        self.taken_by("child", 3, dying)
        parallel, serial = self.both(["verify", "all"])
        assert self.ran_in() == "child"
        assert parallel == serial
        assert parallel[0] == 0

    def test_one_cpu_never_forks(self):
        self.quick(workers=1)

        self.monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked on one CPU"))
        parallel, serial = self.both(["verify", "all"])
        assert parallel == serial
        assert parallel[0] == 0

    def test_other_threads_never_fork(self):
        import threading

        self.quick()
        self.monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked beside a thread"))
        release = threading.Event()
        thread = threading.Thread(target=release.wait, args=(60,))
        thread.start()
        try:
            parallel, serial = self.both(["verify", "all"])
        finally:
            release.set()
            thread.join(timeout=60)
        assert not thread.is_alive()
        assert parallel == serial

    def test_more_workers_than_cpus_asked_for(self):
        self.quick(workers=64)  # one process per suite at most
        forks = []
        real_fork = os.fork
        self.monkeypatch.setattr(os, "fork", lambda: forks.append(1) or real_fork())
        parallel, serial = self.both(["verify", "all"])
        assert parallel == serial
        assert len(forks) == len(QUICK_SUITES) - 1

    def test_import_leaves_pickle_out(self):
        src = os.path.dirname(os.path.dirname(self.cli.__file__))
        probe = "import sys, pairlin.cli; print('pickle' in sys.modules)"
        proc = subprocess.run(
            [sys.executable, "-c", probe],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src},
        )
        assert proc.stdout == "False\n"


class TestQueueOrder:
    """`verify all` starts its suites by their declared cost, largest first."""

    def test_every_suite_declares_a_cost(self):
        from pairlin.suites import ALL_SUITES

        for suite in ALL_SUITES:
            assert isinstance(suite.cost, int) and suite.cost > 0, suite.__name__

    def test_the_two_longest_suites_start_first(self):
        from pairlin.cli import _queue_order
        from pairlin.suites import ALL_SUITES

        first = [ALL_SUITES[i].__name__ for i in _queue_order(ALL_SUITES)[:2]]
        assert first == ["suite_singular_3x3_dependence", "suite_laplace"]

    def test_undeclared_suites_follow_in_list_order(self):
        from pairlin.cli import _queue_order
        from pairlin.suites import costs

        def undeclared(seed):
            pass

        suites = [undeclared, costs(5)(lambda seed: None), undeclared,
                  costs(9)(lambda seed: None), costs(5)(lambda seed: None)]
        assert _queue_order(suites) == [3, 1, 4, 0, 2]

    def test_one_worker_runs_in_the_declared_order(self, monkeypatch, capsys):
        import functools

        from pairlin import cli
        from pairlin.suites import ALL_SUITES, SuiteResult

        ran = []

        def stand_in(suite):
            # the real suite's name and cost, without its work
            @functools.wraps(suite)
            def run(seed):
                ran.append(suite)
                return SuiteResult(suite.__name__, True)

            return run

        def undeclared(seed):
            ran.append(undeclared)
            return SuiteResult("undeclared", True)

        suites = [stand_in(s) for s in ALL_SUITES]
        suites.insert(2, undeclared)
        monkeypatch.setattr(cli, "ALL_SUITES", suites)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked on one CPU"))
        assert run_command(["verify", "all"]) == 0
        by_cost = sorted(ALL_SUITES, key=lambda s: -s.cost)
        assert ran == by_cost + [undeclared]
        lines = capsys.readouterr().out.splitlines()
        names = [s.__name__ for s in ALL_SUITES]
        assert lines[1:-1] == [f"{n}: PASS" for n in names[:2] + ["undeclared"] + names[2:]]
