"""Garbled matrix files through `det`, `rank` and `solve cramer`: every run
ends in exit 0, 2 or 3 with an `error:` line for 2 and 3, never in a
traceback or in exit 1 (which reports a failed mathematical claim)."""

import contextlib
import io
import os
import tempfile

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as strat

from pairlin.cli import run_command

PAIRS = ("sign", "supertropical")

LITERALS = {
    "sign": ("0", "1", "-1", "inf"),
    "supertropical": ("-inf", "0", "2", "-3", "1/2", "5g", "-7/3g"),
}

STRAY = (
    "", "#", "|", "x", "1/0", "0/0", "nan", "inf", "-", "g", "gg", "1|0",
    "{", "{g0}", "٣", "\x00", "1e5", "1e-5", "½", "--1", "+1",
    "9" * 5000, "1/" + "7" * 4000, "-" + "9" * 4400, "1e99999999", "9" * 300 + "g",
)

HEADER_VALUES = (
    "0", "1", "2", "3", "-1", "+2", "2.0", "1_0", "٢", "", "x",
    "9" * 30, "9" * 5000, "2 2",
)


def _one_in(draw, k):
    return draw(strat.integers(0, k - 1)) == 0


@strat.composite
def matrix_texts(draw):
    """Mostly well-formed files, each line garbled with a small probability,
    so that most runs reach the kernels and the rest cover every parse
    failure."""
    pair = draw(strat.sampled_from(PAIRS))
    m = draw(strat.integers(0, 3) if _one_in(draw, 8) else strat.integers(1, 3))
    n = m if draw(strat.booleans()) else draw(strat.integers(1, 3))

    def header(value):
        return draw(strat.sampled_from(HEADER_VALUES)) if _one_in(draw, 8) else str(value)

    def token():
        if _one_in(draw, 30):
            return draw(strat.one_of(strat.sampled_from(STRAY), strat.text(max_size=6)))
        return draw(strat.sampled_from(LITERALS[pair]))

    lines = [
        "pair " + (draw(strat.sampled_from(("", "sign x", "doubled:", "Sign"))) if _one_in(draw, 12) else pair),
        "rows " + header(m),
        "cols " + header(n),
    ]
    for _ in range(m):
        # ragged rows: a row may be short or long by one
        width = n + (draw(strat.sampled_from((-1, 1))) if _one_in(draw, 8) else 0)
        lines.append(" ".join(token() for _ in range(max(0, width))))
    if _one_in(draw, 8):
        # a stray line, a comment or a repeated header
        k = draw(strat.integers(0, len(lines)))
        lines.insert(k, draw(strat.sampled_from(("# note", "junk", "rows 2", "", "pair sign"))))
    if _one_in(draw, 12):
        del lines[draw(strat.integers(0, len(lines) - 1))]
    text = "\n".join(lines) + draw(strat.sampled_from(("\n", "", "\r\n", "\n\n")))
    rhs = ",".join(token() for _ in range(m + (draw(strat.sampled_from((-1, 1))) if _one_in(draw, 8) else 0)))
    return text, rhs


@strat.composite
def files(draw):
    """(file bytes, right-hand side): garbled text, text with undecodable
    bytes, near-empty files and raw bytes."""
    text, rhs = draw(matrix_texts())
    form = draw(strat.integers(0, 9))
    if form < 7:
        return text.encode("utf-8"), rhs
    if form == 7:
        return text.encode("utf-8") + b"\xff\xfe", rhs
    if form == 8:
        return draw(strat.sampled_from((b"", b"\n", b"#", b"\x00"))), rhs
    return draw(strat.binary(max_size=40)), rhs


def run_quiet(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = run_command(argv)
    return rc, out.getvalue()


@settings(
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(file=files(), command=strat.sampled_from(("det", "rank", "cramer")))
def test_garbled_matrix_files_exit_0_2_or_3(file, command):
    body, rhs = file
    fd, path = tempfile.mkstemp(suffix=".txt")
    try:
        with os.fdopen(fd, "wb") as f:
            f.write(body)
        argv = ["solve", "cramer", path, "--rhs", rhs] if command == "cramer" else [command, path]
        rc, out = run_quiet(argv)
    finally:
        os.unlink(path)
    assert rc in (0, 2, 3), (rc, out)
    if rc:
        assert "error: " in out, (rc, out)


def test_undecodable_file_exit_2(tmp_path):
    f = tmp_path / "bytes.txt"
    f.write_bytes(b"pair sign\nrows 1\ncols 1\n\xff\n")
    rc, out = run_quiet(["det", str(f)])
    assert rc == 2
    assert out.startswith("error: ")
