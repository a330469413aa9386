"""Golden transcripts: the stdout and exit code of `det`, `rank`, `check` and
`solve` on fixed matrix files, compared byte for byte with the recorded
ones in golden_transcripts.json.

The files cover size-2 supertropical supports with ghost and zero entries,
a size-4 support that scans, a full-rank 4 x 4 file with a ghost whose
size-4 supports its minors decide, a 5 x 4 file with ghosts whose
5-vector row support its minors decide, and that scans under --domain
heuristic:1, the hyperpair without tangible inverses
(hyper:weaksign-c2), a heuristic domain flag, and the determinant cap set
by PAIRLIN_CAP_N.  The finite-pair files pin the dependence search's
witnesses and its supports_tried / supports_scanned counts: 4 x 3 files
over krasner:17:1, hyper:weaksign-c2 (every candidate leads), sign (with a
zero row) and doubled:boolean, and a 3 x 3 hyper:hex1-c3 file with a
set-valued entry.  To record the transcripts of the current code, run

    PYTHONPATH=src python tests/test_golden.py

which rewrites golden_transcripts.json; the test then compares against it.
"""

import contextlib
import io
import json
import os
import pathlib
import sys

import pytest

GOLDEN = pathlib.Path(__file__).with_name("golden_transcripts.json")

# name -> (matrix file, right-hand side for `solve cramer` or None)
FILES = {
    "sign_gap": ("pair sign\nrows 3\ncols 4\n1 1 -1 1\n1 -1 1 1\n-1 1 1 1\n", None),
    # two rows with ghosts and zeros: every support has at most 2 vectors
    "st_ghost_pair": ("pair supertropical\nrows 2\ncols 3\n0 5g -inf\n0g 0 -inf\n", None),
    "st_ghost_3x2": ("pair supertropical\nrows 3\ncols 2\n1/2g -3/2\n-2 -2g\n-inf 1\n", None),
    "st_ghost_4x3": (
        "pair supertropical\nrows 4\ncols 3\n-6 3 4\n-4 0 4\n1g 6 5\n2 -1 2\n", None
    ),
    "st_a2p_4x3": (
        "pair supertropical\nrows 4\ncols 3\n-8 -3 -10\n-3 3 -7/2\n1 -2 6\n11/2 7 -11\n",
        None,
    ),
    "st_4x4": (
        "pair supertropical\nrows 4\ncols 4\n3 0 1 -1\n0 4 -2 1\n2 1 5 0\n-1 2 0 6\n",
        "1,0,2,-1",
    ),
    "st_dominant_3x3": (
        "pair supertropical\nrows 3\ncols 3\n9 1 2\n0 8 -1\n3 2 10\n", "1,2,0"
    ),
    "weaksign_3x2": (
        "pair hyper:weaksign-c2\nrows 3\ncols 2\ng0+ g1-\ng1+ g0-\ng0- g0+\n", None
    ),
    "weaksign_3x3": (
        "pair hyper:weaksign-c2\nrows 3\ncols 3\ng0+ g1- 0\n{0,g1+,g1-} g0- g1+\ng1- g0+ g0-\n",
        "g0+,g1-,g0-",
    ),
    "krasner_3x3": (
        "pair krasner:5:4\nrows 3\ncols 3\nc1 c2 0\nc2 c1 c1\n0 {0,c1} c2\n", "c1,c2,c1"
    ),
    "doubled_boolean_3x3": (
        "pair doubled:boolean\nrows 3\ncols 3\n1|0 0|1 1|0\n0|1 1|0 0|0\n1|0 1|0 0|1\n",
        "1|0,0|1,1|0",
    ),
    "st_wide_2x3": ("pair supertropical\nrows 2\ncols 3\n1 2g 0\n3 -inf 4\n", None),
    # five rows with ghosts and zeros whose row search reaches the 5-vector
    # support: its minors decide it, and --domain heuristic:1 scans it
    "st_ghost_5x4": (
        "pair supertropical\nrows 5\ncols 4\n"
        "-3 -inf -inf -1\n-1/2 2 -3 -inf\n2 1 1 2\n2 -inf 0g 2\n-3/2 -3 1 3\n",
        None,
    ),
    # four rows with a ghost and a nonsingular 4 x 4 minor: no support of
    # the rows or of the columns scans
    "st_ghost_full_4x4": (
        "pair supertropical\nrows 4\ncols 4\n"
        "8 -inf 12 2\n-11/3 6 5/3 -inf\n-8 -inf -4 5/2\n-inf 10 1g -inf\n",
        None,
    ),
    # finite pairs whose 4 x 3 files reach a search over supports of 4 vectors
    "krasner17_4x3": (
        "pair krasner:17:1\nrows 4\ncols 3\nc7 c14 c1\nc8 c12 0\nc1 c14 c4\nc11 c3 c7\n",
        None,
    ),
    "hex1_3x3": (
        "pair hyper:hex1-c3\nrows 3\ncols 3\ng0 g1 {g0,g1}\ng2 0 g1\ng1 g2 g0\n", None
    ),
    "weaksign_4x3": (
        "pair hyper:weaksign-c2\nrows 4\ncols 3\n"
        "g0+ g1- g0-\ng1+ g0- g1+\ng0- g0+ g1-\ng1- g1+ g0+\n",
        None,
    ),
    "sign_zero_row_4x3": ("pair sign\nrows 4\ncols 3\n1 -1 1\n0 0 0\n-1 1 inf\n1 1 -1\n", None),
    "doubled_boolean_4x3": (
        "pair doubled:boolean\nrows 4\ncols 3\n1|0 0|1 1|0\n0|1 1|0 0|0\n1|0 1|0 0|1\n1|1 0|1 1|0\n",
        None,
    ),
}

def queries():
    """(name, argv with FILE for the file, PAIRLIN_CAP_N or None)."""
    out = []
    for name, (_, rhs) in FILES.items():
        out.append((name, ["det", "FILE"], None))
        out.append((name, ["rank", "FILE"], None))
        for cond in ("a1", "a2", "a2p"):
            out.append((name, ["check", cond, "FILE"], None))
        if rhs is not None:
            out.append((name, ["solve", "cramer", "FILE", "--rhs", rhs], None))
    for name in ("st_ghost_3x2", "st_ghost_4x3", "st_4x4", "st_ghost_5x4"):
        out.append((name, ["rank", "FILE", "--domain", "heuristic:1"], None))
        out.append((name, ["check", "a2p", "FILE", "--domain", "heuristic:1"], None))
    out.append(("weaksign_3x3", ["rank", "FILE", "--domain", "heuristic:1"], None))
    out.append(("st_dominant_3x3", ["solve", "jacobi", "FILE", "--rhs", "1,2,0"], None))
    out.append(("st_4x4", ["--format", "json-lines", "rank", "FILE"], None))
    # the determinant cap: det at n = 3 and 4, Cramer at n = 4 (its adjoint's
    # 3 x 3 minors are checked first), Jacobi's adjugate pass at n = 3,
    # the rank of a 4 x 3 file, and the non-square det at k = 2 under cap 1
    out.append(("krasner_3x3", ["det", "FILE"], "2"))
    out.append(("st_4x4", ["det", "FILE"], "2"))
    out.append(("st_4x4", ["solve", "cramer", "FILE", "--rhs", "1,0,2,-1"], "2"))
    out.append(("st_4x4", ["solve", "cramer", "FILE", "--rhs", "1,0,2,-1"], "3"))
    out.append(("st_dominant_3x3", ["solve", "jacobi", "FILE", "--rhs", "1,2,0"], "2"))
    out.append(("st_ghost_4x3", ["rank", "FILE"], "2"))
    out.append(("st_wide_2x3", ["det", "FILE"], "1"))
    return out


def key(name, argv, cap):
    return " ".join([f"PAIRLIN_CAP_N={cap}"] * (cap is not None) + [name] + argv)


def transcript(tmp, name, argv, cap):
    """'exit <code>' and the stdout of one query, run in this process."""
    from pairlin.cli import run_command

    path = pathlib.Path(tmp) / f"{name}.txt"
    path.write_text(FILES[name][0])
    argv = [str(path) if a == "FILE" else a for a in argv]
    saved = os.environ.pop("PAIRLIN_CAP_N", None)
    if cap is not None:
        os.environ["PAIRLIN_CAP_N"] = cap
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            code = run_command(argv)
    finally:
        os.environ.pop("PAIRLIN_CAP_N", None)
        if saved is not None:
            os.environ["PAIRLIN_CAP_N"] = saved
    return f"exit {code}\n{buf.getvalue()}"


@pytest.mark.parametrize("name, argv, cap", queries(), ids=[key(*q) for q in queries()])
def test_transcript_matches_the_recorded_one(tmp_path, name, argv, cap):
    recorded = json.loads(GOLDEN.read_text())
    assert transcript(tmp_path, name, argv, cap) == recorded[key(name, argv, cap)]


def test_every_recorded_transcript_is_a_query():
    recorded = json.loads(GOLDEN.read_text())
    assert sorted(recorded) == sorted(key(*q) for q in queries())


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        got = {key(*q): transcript(tmp, *q) for q in queries()}
    GOLDEN.write_text(json.dumps(got, indent=1, sort_keys=True) + "\n")
    sys.stdout.write(f"{len(got)} transcripts written to {GOLDEN.name}\n")
