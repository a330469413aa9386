"""Dependence search, ranks, conditions, rank defect, surpassing spans."""

import collections
import itertools
import os
import pathlib
import random
import subprocess
import sys
import time
from fractions import Fraction
from functools import partial

import pytest

from pairlin import (
    CapExceeded,
    check_condition,
    col_rank,
    entry_ratio_domain,
    exact_domain,
    find_dependence,
    identity,
    make_algebra,
    matrix,
    preceq_spans,
    rank_defect,
    rank_report,
    registered_instances,
    row_rank,
    st_tan,
    submatrix_rank,
)
from pairlin.cli import parse_matrix_text, run_command
from pairlin.core import PairError
from pairlin.instances import ST_ZERO, st_ghost, st_value
import pairlin.rank as rank_mod
from pairlin.rank import (
    HEURISTIC_DEPTH_CAP, CoefficientDomain, DependenceWitness, DomainEmpty, default_domain,
)
from pairlin.suites import (
    DEFAULT_SEED,
    two_track_doubled_matrix,
    clipped_counting_matrix,
    symdiff_independent_vectors,
    sign_rank_gap_matrix,
    rand_singular_supertropical,
    rand_supertropical_matrix,
)
from test_oracles import _combo_null, _forbidden

sign = make_algebra("sign")
st = make_algebra("supertropical")


def fraction_domain_candidates(vectors, depth=2):
    """Reference entry-ratio domain: the depth-d sum set built over Fractions."""
    vals = sorted({st_value(e) for vec in vectors for e in vec if e.payload is not None})
    level = {0} | set(vals)
    for a in vals:
        for b in vals:
            level.add(a - b)
    gen = sorted(level)
    out = set(gen)
    current = set(gen)
    for _ in range(depth - 1):
        current = {a + b for a in current for b in gen}
        out |= current
    return tuple(st_tan(v) for v in sorted(out))


def naive_first_witness(alg, vectors, domain):
    """Reference search: supports by size then lexicographically, coefficient
    tuples lexicographically in domain order with the leading one 1."""
    m = len(vectors)
    for size in range(1, m + 1):
        for support in itertools.combinations(range(m), size):
            for tail in itertools.product(domain.candidates, repeat=size - 1):
                coeffs = (alg.one,) + tail
                if _combo_null(alg, vectors, support, coeffs):
                    return DependenceWitness(support, coeffs)
    return None


def search_stats(rows, domain):
    """(witness, supports tried, supports scanned) of one search."""
    stats = {"supports_tried": 0, "supports_scanned": 0}
    w = find_dependence(rows, domain, st, stats=stats)
    return w, stats["supports_tried"], stats["supports_scanned"]


def parse_rows(rows):
    return [tuple(st.parse_literal(t) for t in row) for row in rows]


def half_integer_rows(rng, m, n, bound=3):
    return [
        tuple(st_tan(Fraction(rng.randint(-2 * bound, 2 * bound), 2)) for _ in range(n))
        for _ in range(m)
    ]


def assert_null_witness(rows, w):
    for j in range(len(rows[0])):
        acc = st.zero
        for i, c in zip(w.support, w.coeffs):
            acc = st.add(acc, st.mul(c, rows[i][j]))
        assert st.is_null(acc)


class TestFindDependence:
    def test_rank_gap_rows_independent(self):
        a = sign_rank_gap_matrix()
        assert find_dependence(list(a.entries), exact_domain(sign), sign) is None

    def test_two_track_rows_independent(self):
        a = two_track_doubled_matrix()
        assert find_dependence(list(a.entries), exact_domain(a.alg), a.alg) is None

    def test_duplicate_row_dependent_second_kind(self):
        v = (sign.parse_literal("1"), sign.parse_literal("-1"))
        w = find_dependence([v, v], exact_domain(sign), sign)
        assert w is not None
        assert w.support == (0, 1)

    def test_witness_is_verified_combination(self):
        a = sign_rank_gap_matrix()
        rows = list(a.entries) + [a.entries[0]]  # duplicated first row
        w = find_dependence(rows, exact_domain(sign), sign)
        assert w is not None
        for j in range(a.cols):
            acc = sign.zero
            for i, c in zip(w.support, w.coeffs):
                acc = sign.add(acc, sign.mul(c, rows[i][j]))
            assert sign.is_null(acc)

    def test_counting_duplicate_row_stays_independent(self):
        # with T = {1} a duplicated row does not balance: 1 + 1 = 2 is not null
        a = clipped_counting_matrix()
        rows = list(a.entries) + [a.entries[0]]
        assert find_dependence(rows, exact_domain(a.alg), a.alg) is None

    def test_empty_domain_rejected(self):
        with pytest.raises(DomainEmpty):
            find_dependence(
                [(sign.one,)], CoefficientDomain((), "exact"), sign
            )

    def test_supertropical_pair_ratio(self):
        v1 = (st_tan(0), st_tan(1))
        v2 = (st_tan(3), st_tan(4))  # v2 = 3 * v1, so 1*v1 + r*v2 ghosts out
        dom = entry_ratio_domain(st, [v1, v2])
        w = find_dependence([v1, v2], dom, st)
        assert w is not None
        assert w.coeffs[0] == st.one and w.coeffs[1] == st_tan(-3)

    def test_supertropical_triple_search_matches_slow_scan(self):
        # every forced-singular matrix has a null witness in its domain;
        # test_supertropical_search_equals_naive_scan compares witnesses
        rng = random.Random(11)
        for _ in range(40):
            a = rand_singular_supertropical(rng, 3)
            rows = list(a.entries)
            dom = entry_ratio_domain(st, rows)
            w = find_dependence(rows, dom, st)
            assert w is not None
            assert_null_witness(rows, w)

    def test_singular_3x3_suite_draws_have_entry_ratio_witnesses(self):
        # the singular-3x3-dependence suite searches its forced-singular
        # draws over the default domain; the explicit depth-2 entry-ratio
        # domain's scan finds a witness on them too
        rng = random.Random(DEFAULT_SEED)
        for _ in range(100):
            rows = list(rand_singular_supertropical(rng, 3).entries)
            w, _, scanned = search_stats(rows, entry_ratio_domain(st, rows))
            assert w is not None and scanned == (len(w.support) == 3)
            assert_null_witness(rows, w)

    def test_supertropical_search_equals_naive_scan(self):
        # tangible rows: the scan (k = 2, 3, 4) returns exactly the naive
        # scan's first witness, over the entry-ratio domain and over a
        # hand-built domain in shuffled order
        rng = random.Random(17)
        reached = set()
        cases = [(2, 3, 2)] * 25 + [(3, 2, 2)] * 15 + [(3, 3, 2)] * 15
        # the naive scan is cubic in the domain at k = 4: depth 1 keeps it short
        cases += [(4, 3, 1)] * 12
        for m, n, depth in cases:
            rows = half_integer_rows(rng, m, n)
            dom = entry_ratio_domain(st, rows, depth)
            w = find_dependence(rows, dom, st)
            assert w == naive_first_witness(st, rows, dom), rows
            if w is not None:
                reached.add(len(w.support))
            if m < 4:
                shuffled = list(dom.candidates)
                rng.shuffle(shuffled)
                listed = CoefficientDomain(tuple(shuffled), "heuristic")
                # a domain built from other vectors, on another denominator
                thirds = (st_tan(Fraction(rng.randint(-9, 9), 3)),) * n
                other = entry_ratio_domain(st, [rows[0], thirds], depth)
                for d in (listed, other):
                    assert find_dependence(rows, d, st) == naive_first_witness(
                        st, rows, d
                    ), rows
        assert {2, 3, 4} <= reached

    def test_size4_line_witness_follows_domain_order(self):
        # the first witness ties rows {1, 2} and rows {3, 4} apart: a line
        # of points, of which an explicit domain's scan takes the first in
        # domain order; the 4 supports of 3 vectors and the 4-vector one scan
        rows = parse_rows((("-inf", "2"), ("-3", "-inf"), ("0", "-5/2"), ("-1/2", "3")))
        dom = entry_ratio_domain(st, rows, 1)
        rev = CoefficientDomain(tuple(reversed(dom.candidates)), "heuristic")
        for d, expected in ((dom, "0,2,-1,-1"), (rev, "0,6,3,-1")):
            w, tried, scanned = search_stats(rows, d)
            assert ",".join(st.format_literal(c) for c in w.coeffs) == expected
            assert (tried, scanned) == (15, 5)
            assert w == naive_first_witness(st, rows, d)

    def test_size3_ties_need_the_tie_values_in_the_domain(self):
        # rows 2 and 3 tie at u2 - u3 = 3, a size-2 witness only when 3 is
        # a member; here it is not, and the scan of the size-3 support finds
        # u2 = 5, u3 = 2
        rows = [(st_tan(-100),) * 3, (st_tan(0),) * 3, (st_tan(3),) * 3]
        dom = entry_ratio_domain(st, [(st_tan(2), st_tan(7))], 1)
        assert [st_value(c) for c in dom.candidates] == [-5, 0, 2, 5, 7]
        listed = CoefficientDomain(dom.candidates, "heuristic")
        for d in (dom, listed):
            w = find_dependence(rows, d, st)
            assert w.kv(st.format_literal) == "support=[1,2,3] coeffs=[0,5,2]"
            assert w == naive_first_witness(st, rows, d)

    def test_size3_ties_accept_a_column_a_ghost_dominates(self):
        # the tie point (0, 0, 0) leaves the third column to the ghost 5g
        # alone, which makes it null; no smaller support has a witness.  The
        # explicit domain scans the 3-vector support, the default domain's
        # cofactors give the same point
        rows = parse_rows((("0", "0", "5g"), ("0", "-inf", "-inf"), ("-inf", "0", "-inf")))
        dom = entry_ratio_domain(st, rows)
        w, tried, scanned = search_stats(rows, dom)
        assert w.kv(st.format_literal) == "support=[1,2,3] coeffs=[0,0,0]"
        assert (tried, scanned) == (7, 1)
        assert w == naive_first_witness(st, rows, dom)
        assert search_stats(rows, default_domain(st, rows)) == (w, 7, 0)

    def test_leading_one_need_not_be_a_member(self):
        # the leading coefficient is normalized to 1 whether or not the
        # domain holds it; the tie values -1 and -2 are members here
        rows = parse_rows((("0", "0"), ("1", "-inf"), ("-inf", "2")))
        dom = CoefficientDomain((st_tan(-1), st_tan(-2)), "heuristic")
        w, tried, scanned = search_stats(rows, dom)
        assert w.kv(st.format_literal) == "support=[1,2,3] coeffs=[0,-1,-2]"
        assert (tried, scanned) == (7, 1)
        assert w == naive_first_witness(st, rows, dom)

    # `check a2p`'s three fixed 4x3 matrices in the cli-queries benchmark
    FIXED_A2P = [
        (
            (("-8", "-3", "-10"), ("-3", "3", "-7/2"), ("1", "-2", "6"), ("11/2", "7", "-11")),
            "support=[1,2,3,4] coeffs=[0,-6,-31/2,-27/2]",
        ),
        (
            (("2", "0", "7"), ("0", "9", "5"), ("9", "-9/2", "11/2"), ("-12", "4", "3/2")),
            "support=[1,2,3,4] coeffs=[0,1/2,-7,11/2]",
        ),
        (
            (("-11", "12", "7"), ("-9/2", "-6", "0"), ("-5/2", "11", "-2"), ("-10", "-11/2", "-9")),
            "support=[1,2,3,4] coeffs=[0,7,1,25/2]",
        ),
    ]

    @pytest.mark.parametrize("rows, expected", FIXED_A2P)
    def test_fixed_a2p_witnesses_from_tie_patterns(self, rows, expected):
        # each witness ties every column's maximum: the default domain's
        # cofactors give it with no support scanned, and the explicit
        # depth-2 domain's scan gives the same point first in domain order
        rows = parse_rows(rows)
        w, tried, scanned = search_stats(rows, default_domain(st, rows))
        assert w.kv(st.format_literal) == expected
        assert (tried, scanned) == (15, 0)
        assert search_stats(rows, entry_ratio_domain(st, rows)) == (w, 15, 5)

    def test_size4_scan_keeps_ghost_rows(self):
        # the ghost 1g leaves the first column null alone, so the first
        # witness lies on three rows: the explicit domain scans its 3-vector
        # supports to it, and the default domain's cofactors give the same
        # point with no scan
        rows = parse_rows(
            (("-6", "3", "4"), ("-4", "0", "4"), ("1g", "6", "5"), ("2", "-1", "2"))
        )
        w, tried, scanned = search_stats(rows, entry_ratio_domain(st, rows))
        assert w.kv(st.format_literal) == "support=[1,2,3] coeffs=[0,0,-3]"
        assert (tried, scanned) == (11, 1)
        assert search_stats(rows, default_domain(st, rows)) == (w, 11, 0)

    def test_size4_ties_solve_wide_small_domains(self):
        # entries in {0, 1, 2}, a domain of 9 members: the scan walks at
        # most |D|^2 = 81 middle pairs on the 4-vector support
        rows = parse_rows((("2", "0", "2"), ("0", "1", "1"), ("2", "0", "1"), ("0", "2", "0")))
        dom = entry_ratio_domain(st, rows)
        w, tried, scanned = search_stats(rows, dom)
        assert w.kv(st.format_literal) == "support=[1,2,3,4] coeffs=[0,1,0,0]"
        assert (tried, scanned) == (15, 5)
        assert w == naive_first_witness(st, rows, dom)

    def test_search_stats_accumulate(self):
        sign_rows = list(sign_rank_gap_matrix().entries)
        stats = {"supports_tried": 0, "supports_scanned": 0}
        assert find_dependence(sign_rows, exact_domain(sign), sign, stats=stats) is None
        # a finite pair scans every support: 3 rows have 7 nonempty subsets
        assert stats == {"supports_tried": 7, "supports_scanned": 7}
        # an explicit supertropical domain scans every support of 3 or more
        # vectors: 4 of size 3 and 1 of size 4
        rows = parse_rows(self.FIXED_A2P[0][0])
        find_dependence(rows, entry_ratio_domain(st, rows), st, stats=stats)
        assert stats == {"supports_tried": 22, "supports_scanned": 12}

    @pytest.mark.parametrize(
        "rows, depth, ascending, descending",
        [
            (["1/2g -3/2", "-2 -2g"], 2, "0,1/2", "0,5/2"),
            (
                ["-3/2 0 -3/2g", "-3/2g -3/2g 1/2", "3/2 1/2g -1/2", "0 -3/2 3/2"],
                1,
                "0,3/2,-1,1/2",
                "0,3,1/2,2",
            ),
        ],
    )
    def test_supertropical_witness_follows_domain_order(
        self, rows, depth, ascending, descending
    ):
        # ghost rows with several witnesses on the full support (k = 2, 4):
        # the first in domain order wins, ascending value for the entry-ratio
        # domain and tuple order for a hand-built one
        rows = [tuple(st.parse_literal(t) for t in r.split()) for r in rows]
        dom = entry_ratio_domain(st, rows, depth)
        rev = CoefficientDomain(tuple(reversed(dom.candidates)), "heuristic")
        for domain, expected in ((dom, ascending), (rev, descending)):
            w = find_dependence(rows, domain, st)
            assert w.support == tuple(range(len(rows)))
            assert ",".join(st.format_literal(c) for c in w.coeffs) == expected

    def test_supertropical_ghost_rows_witness_is_null(self):
        # with ghost entries the search is heuristic and may miss a witness;
        # a witness it returns must still be null
        rng = random.Random(19)
        found = 0
        for _ in range(60):
            rows = list(rand_supertropical_matrix(rng, 3, tangible=False).entries)
            w = find_dependence(rows, entry_ratio_domain(st, rows), st)
            if w is not None:
                found += 1
                assert_null_witness(rows, w)
        assert found > 0

    def test_five_vector_scan_equals_the_naive_scan(self):
        # 5 x n rows (n = 3, 4) with ghost and zero entries on {-1, 0, 1},
        # over the depth-1 entry-ratio domain of five members: on the draws
        # whose search reaches the 5-vector support, every support of 3 or
        # more vectors scans, and the search gives the naive scan's first
        # witness.
        rng = random.Random(61)

        def entry():
            r = rng.random()
            if r < 0.1:
                return ST_ZERO
            return (st_ghost if r < 0.2 else st_tan)(rng.randint(-1, 1))

        reached = witnesses = 0
        for t in range(3000):
            rows = [tuple(entry() for _ in range(3 + (t % 4 > 0))) for _ in range(5)]
            dom = entry_ratio_domain(st, rows, 1)
            w, tried, scanned = search_stats(rows, dom)
            if tried != 31:
                continue
            assert scanned == 16
            reached += 1
            assert w == naive_first_witness(st, rows, dom), rows
            witnesses += w is not None
        assert reached >= 40 and witnesses >= 30, (reached, witnesses)


def _small_ghost_matrix(rng, m, n, ghosts=True):
    """An m x n supertropical matrix on {-3, ..., 3}: 10% zeros, and 20%
    ghosts unless not ghosts."""
    def entry():
        r = rng.random()
        if r < 0.1:
            return ST_ZERO
        return (st_ghost if ghosts and r < 0.3 else st_tan)(rng.randint(-3, 3))

    return matrix(st, [[entry() for _ in range(n)] for _ in range(m)])


def _report_facts(rep):
    """A report's lines with its witness down to the support: the
    coefficients are the cofactors' under the default domain and the scan's
    first in domain order under an explicit one, which can differ where a
    support has several witnesses."""
    return [(k, v.split(" coeffs=")[0]) if k == "witness" else (k, v) for k, v in rep.lines()]


def forced_scan(domain):
    """The default domain's members as an explicit domain, on which every
    support of 3 or more vectors scans."""
    return rank_mod.EntryRatioDomain(domain.coding, domain.members, domain.depth)


def naive_rank(vectors, domain, budget):
    """The rank by `naive_first_witness`: the most vectors on which it
    finds no witness, or None when a search over all of them could walk
    more than budget coefficient tuples."""
    m = len(vectors)
    if len(domain) ** (m - 1) > budget:
        return None
    for k in range(m, 0, -1):
        for subset in itertools.combinations(range(m), k):
            if naive_first_witness(st, [vectors[i] for i in subset], domain) is None:
                return k
    return 0


def st_rows_matrix(rng, m, n, tangible=False):
    """An m x n matrix of literals on -12..12 over denominators 1, 2 and 3:
    15% zeros and 20% ghosts unless tangible."""
    def entry():
        r = 1.0 if tangible else rng.random()
        if r < 0.15:
            return ST_ZERO
        if r < 0.35:
            return st_ghost(rng.randint(-12, 12))
        return st_tan(Fraction(rng.randint(-12, 12), rng.choice((1, 1, 2, 3))))

    return matrix(st, [[entry() for _ in range(n)] for _ in range(m)])


def searched_support(monkeypatch):
    """Outcomes of `_minor_search`, recorded as it runs."""
    outcomes = []
    inner = rank_mod._minor_search

    def recorded(alg, w, support):
        got = inner(alg, w, support)
        outcomes.append(got)
        return got

    monkeypatch.setattr(rank_mod, "_minor_search", recorded)
    return outcomes


class TestMinorCertificate:
    def test_certificate_equals_the_scan_on_ghost_supports(self, monkeypatch):
        # on random ghost 4 x 4 and 4 x 5 files, the ranks, verdicts and
        # witness support the minors give equal those where every support
        # of 3 or more vectors scans the same members; many supports are
        # certified independent by a nonsingular minor
        rng = random.Random(83)
        outcomes = searched_support(monkeypatch)
        for t in range(60):
            a = _small_ghost_matrix(rng, 4, 4 + t % 2)
            got = rank_report(a)
            for w in got.row_witnesses:
                assert_null_witness(list(a.entries), w)
            scan = rank_report(a, forced_scan(default_domain(st, list(a.entries))))
            assert _report_facts(got) == _report_facts(scan), a
        assert all(decided for decided, _ in outcomes)
        assert sum(codes is None for _, codes in outcomes) >= 40

    def test_default_domain_ranks_equal_the_naive_scan(self):
        # the naive scan over the depth-2 domain is the oracle: on random
        # files up to 4 x 5 on {-3, ..., 3}, with ghosts and tangible only,
        # the default domain's ranks equal its ranks wherever its search
        # stays within 20,000 tuples, and every witness is a null tangible
        # combination
        rng = random.Random(89)
        shapes = [(3, 3), (3, 4), (4, 3), (4, 4), (4, 5), (3, 5)]
        compared = 0
        for t in range(36):
            m, n = shapes[t % len(shapes)]
            a = _small_ghost_matrix(rng, m, n, ghosts=t % 3 != 2)
            rep = rank_report(a)
            for w in rep.row_witnesses:
                assert all(map(st.is_tangible, w.coeffs))
                assert_null_witness(list(a.entries), w)
            cols = [a.col(j) for j in range(n)]
            for vectors, got in ((list(a.entries), rep.row_rank), (cols, rep.col_rank)):
                want = naive_rank(vectors, default_domain(st, vectors), 20_000)
                if want is not None:
                    assert got == want, a
                    compared += 1
        assert compared >= 50, compared

    def test_st_rows_ranks_equal_the_submatrix_rank(self):
        # on cli-queries-like files, with ghosts and tangible only, the row
        # and column ranks equal the submatrix rank, and a forced scan of
        # the same members finds no witness the minors miss: a scan rank is
        # never below theirs (it can be above, where the cofactors' witness
        # needs a coefficient outside the depth-2 domain)
        rng = random.Random(5)
        for t in range(40):
            m, n = ((3, 3), (3, 4), (4, 3))[t % 3]
            a = st_rows_matrix(rng, m, n, tangible=t % 4 == 3)
            rep = rank_report(a)
            assert rep.row_rank == rep.col_rank == rep.submatrix_rank, a
            for w in rep.row_witnesses:
                assert all(map(st.is_tangible, w.coeffs))
                assert_null_witness(list(a.entries), w)
            if t % 3 == 0:
                rows = list(a.entries)
                scanned = rank_mod._rank_of(st, rows, forced_scan(default_domain(st, rows)))[0]
                assert scanned >= rep.row_rank

    def test_a_tampered_cofactor_falls_back_to_the_scan(self, monkeypatch):
        # one cofactor off by 1/S: the column tests reject the point, the
        # 4-vector support scans, and the scan gives the same witness
        rows = parse_rows(TestFindDependence.FIXED_A2P[0][0])
        dom = default_domain(st, rows)
        w, tried, scanned = search_stats(rows, dom)
        assert (tried, scanned) == (15, 0)
        inner = rank_mod._permanent_minors

        def tampered(alg, codes, k, coding):
            for cols, per in inner(alg, codes, k, coding):
                if k < len(codes):
                    s = min(per)
                    per[s] = per[s] if per[s] is None else per[s] + 2
                yield cols, per

        monkeypatch.setattr(rank_mod, "_permanent_minors", tampered)
        walk = rank_mod._coded_walk(st, rows, dom)
        assert rank_mod._minor_search(st, walk, (0, 1, 2, 3)) == (False, None)
        assert search_stats(rows, dom) == (w, 15, 1)

    def test_the_baseline_hang_files_scan_no_support(self, tmp_path, capsys):
        # supports of 5 vectors, and 4 x 12 files, once scanned |D|^3 tuples
        # or more per support: the minors decide every support
        path = tmp_path / "m.txt"
        path.write_text("pair supertropical\nrows 5\ncols 4\n6 -1 -5 -7/3\n"
                        "12 5/2 -2/3 -4\n-5/3 0 0 0\n4 -9/2 11 -1/3\n0 -2 0 3\n")
        assert run_command(["check", "a2p", str(path)]) == 0
        out = capsys.readouterr().out.splitlines()
        assert "a2p: HOLDS" in out and out[-1] == "supports_scanned: 0"
        rng = random.Random(5)
        for a in (
            parse_matrix_text(path.read_text())[1],
            st_rows_matrix(rng, 5, 5, tangible=True),
            st_rows_matrix(rng, 4, 12),
            st_rows_matrix(rng, 4, 12, tangible=True),
        ):
            stats = {"supports_tried": 0, "supports_scanned": 0}
            rep = rank_report(a, None, stats)
            assert rep.row_rank == rep.col_rank == rep.submatrix_rank
            assert stats["supports_scanned"] == 0 < stats["supports_tried"]

    def test_unknown_condition_is_refused_before_any_work(self, monkeypatch):
        a = matrix(st, [[st_tan(0), st_ghost(1)], [st_tan(2), st_tan(3)]])
        monkeypatch.setattr(rank_mod, "default_domain", _forbidden)
        with pytest.raises(PairError, match="^unknown condition 'a3'$"):
            check_condition(a, "a3")


def _ghost_zero_pair(rng, n):
    """Two supertropical rows of length n with tangible, ghost and zero
    entries on half-integers."""
    def entry():
        r = rng.random()
        if r < 0.2:
            return ST_ZERO
        v = Fraction(rng.randint(-6, 6), 2)
        return st_ghost(v) if r < 0.5 else st_tan(v)

    return [tuple(entry() for _ in range(n)) for _ in range(2)]


def brute_force_witness(alg, vectors):
    """Reference search over T^k: supports by size then lexicographically,
    coefficient tuples in lexicographic order of the tangible tuple."""
    m = len(vectors)
    for size in range(1, m + 1):
        for support in itertools.combinations(range(m), size):
            for coeffs in itertools.product(alg.tangibles, repeat=size):
                if _combo_null(alg, vectors, support, coeffs):
                    return DependenceWitness(support, coeffs)
    return None


class TestSearchOracles:
    """The size-2 supertropical search and the finite search without
    tangible inverses against plain references."""

    def test_size2_supports_with_ghosts_and_zeros(self):
        # Over two rows a null combination's coefficient lies in a closed
        # interval whose ends are tie values v1 - v2; the search tries 0 and
        # the tie values in domain order.  That is the naive scan over the
        # domain cut to those values, and over the ascending entry-ratio
        # domain the naive scan itself: its first member in the interval
        # is the lower end, a tie value.
        rng = random.Random(41)
        found = ghost_found = 0
        for t in range(150):
            rows = _ghost_zero_pair(rng, 1 + t % 4)
            dom = entry_ratio_domain(st, rows, 1 + t % 2)
            shuffled = list(dom.candidates)
            rng.shuffle(shuffled)
            listed = CoefficientDomain(tuple(shuffled), "heuristic")
            no_one = CoefficientDomain(
                tuple(c for c in shuffled if c != st.one), "heuristic"
            )
            ties = {0} | {
                st_value(x) - st_value(y)
                for x, y in zip(*rows)
                if x.payload is not None and y.payload is not None
            }
            for d in (dom, listed, no_one) if len(no_one) else (dom, listed):
                w, tried, scanned = search_stats(rows, d)
                supports = [(0,), (1,), (0, 1)]
                assert (tried, scanned) == (supports.index(w.support) + 1 if w else 3, 0)
                cut = CoefficientDomain(
                    tuple(c for c in d.candidates if st_value(c) in ties), "heuristic"
                )
                assert w == naive_first_witness(st, rows, cut), (rows, d)
                assert (w is None) == (naive_first_witness(st, rows, d) is None), rows
                if d is dom:
                    assert w == naive_first_witness(st, rows, d), rows
                if w is not None:
                    assert_null_witness(rows, w)
                    found += len(w.support) == 2
                    ghost_found += len(w.support) == 2 and any(
                        e.payload is not None and e.payload[0] == "g"
                        for row in rows for e in row
                    )
        assert found > 50 and ghost_found > 20

    def test_size2_tries_one_inside_the_interval(self):
        # the null coefficients of row 2 form [-1, 1], whose ends are tie
        # values; 1 (value 0) lies inside it and is tried in domain order too
        rows = parse_rows((("0", "0g"), ("1g", "-1")))
        listed = CoefficientDomain((st.one, st_tan(-1), st_tan(1)), "heuristic")
        ascending = entry_ratio_domain(st, rows, 1)
        for d, expected in ((listed, "0,0"), (ascending, "0,-1")):
            w, tried, scanned = search_stats(rows, d)
            assert ",".join(st.format_literal(c) for c in w.coeffs) == expected
            assert (w.support, tried, scanned) == ((0, 1), 3, 0)
            assert w == naive_first_witness(st, rows, d)

    def test_weaksign_search_equals_brute_force(self):
        # hyper:weaksign-c2 is the one registered finite pair whose
        # tangibles have no inverses, so no coefficient is normalized
        finite = [a for a in registered_instances() if a.tangibles is not None]
        assert [a.spec_string for a in finite if a.tangible_inverse is None] == [
            "hyper:weaksign-c2"
        ]
        alg = make_algebra("hyper:weaksign-c2")
        rng = random.Random(43)
        pool = (alg.zero,) + alg.tangibles * 3 + alg.carrier
        sizes = collections.Counter()
        for t in range(80):
            m, n = 2 + t % 3, 1 + t % 4
            rows = [tuple(rng.choice(pool) for _ in range(n)) for _ in range(m)]
            stats = {"supports_tried": 0, "supports_scanned": 0}
            w = find_dependence(rows, exact_domain(alg), alg, stats=stats)
            assert w == brute_force_witness(alg, rows), rows
            assert stats["supports_tried"] == stats["supports_scanned"]
            sizes[w and len(w.support)] += 1
        assert sizes[None] > 5 and sizes[2] > 5 and sizes[3] > 5, sizes


# full-rank files over krasner:17:1 on either side of SEARCH_WORK_CAP
K6 = """pair krasner:17:1
rows 6
cols 6
c7 c14 c1 c8 c15 c16
c8 c12 c8 c8 c15 c10
c1 c14 c4 c6 c10 c4
c11 c14 c7 c10 c10 c16
c13 c2 c16 c8 c13 c14
c6 c12 c12 c3 c15 c4
"""

K7 = """pair krasner:17:1
rows 7
cols 7
c7 c14 c1 c8 c15 c16 c3
c8 c12 c8 c8 c15 c10 c5
c1 c14 c4 c6 c10 c4 c9
c11 c14 c7 c10 c10 c16 c2
c13 c2 c16 c8 c13 c14 c11
c6 c12 c12 c3 c15 c4 c1
c5 c9 c2 c13 c7 c11 c6
"""


def run_pairlin(*argv):
    src = str(pathlib.Path(rank_mod.__file__).resolve().parent.parent)
    return subprocess.run(
        [sys.executable, "-m", "pairlin.cli", *argv],
        capture_output=True,
        text=True,
        timeout=120,
        env=dict(os.environ, PYTHONPATH=src),
    )


class TestSearchWorkBound:
    def test_work_counts_every_coefficient_tuple(self):
        # 6 and 7 vectors over the 16 tangibles of krasner:17:1, leading 1
        assert rank_mod._search_work(6, 1, 16) == (17**6 - 1) // 16 == 1_508_598
        assert rank_mod._search_work(7, 1, 16) == (17**7 - 1) // 16 == 25_646_167
        # weaksign's 4 tangibles have no inverses: 4^k tuples per support
        assert rank_mod._search_work(4, 4, 4) == 5**4 - 1
        assert rank_mod.SEARCH_WORK_CAP == 2_000_000

    def test_search_above_the_bound_raises_before_any_work(self, monkeypatch):
        alg = make_algebra("sign")
        rows = [[alg.zero] * 2] * 4  # a zero row is the first witness
        stats = {"supports_tried": 0, "supports_scanned": 0}
        # sum over k of C(4, k) * 2^(k-1) = (3^4 - 1) / 2 = 40 tuples
        monkeypatch.setattr(rank_mod, "SEARCH_WORK_CAP", 40)
        assert find_dependence(rows, exact_domain(alg), alg, stats=stats).support == (0,)
        monkeypatch.setattr(rank_mod, "SEARCH_WORK_CAP", 39)
        with pytest.raises(CapExceeded, match="4 vectors need up to 40 coefficient tuples"):
            find_dependence(rows, exact_domain(alg), alg, stats=stats)
        assert stats == {"supports_tried": 1, "supports_scanned": 1}

    def test_full_rank_6x6_krasner_is_admitted(self, tmp_path):
        path = tmp_path / "k6.txt"
        path.write_text(K6)
        proc = run_pairlin("rank", str(path))
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout == (
            "pair: krasner:17:1\nrow_rank: 6\ncol_rank: 6\nsubmatrix_rank: 6\n"
            "a1: HOLDS\na1_detail: submatrix 6 <= min(6,6)\n"
            "a2: HOLDS\na2_detail: submatrix 6 >= max(6,6)\n"
            "a2prime: HOLDS\na2prime_detail: m <= n: nothing to check\n"
            "domain: exact\nsupports_tried: 126\nsupports_scanned: 126\n"
        )

    def test_7x7_krasner_exits_3_at_once(self, tmp_path):
        path = tmp_path / "k7.txt"
        path.write_text(K7)
        start = time.perf_counter()
        proc = run_pairlin("rank", str(path))
        assert time.perf_counter() - start < 1
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            3,
            "error: dependence search cap exceeded: 7 vectors need up to 25646167 "
            "coefficient tuples, more than 2000000\n",
            "",
        )

    def test_explicit_supertropical_domain_on_both_sides_of_the_bound(self, monkeypatch):
        # an explicit domain scans each support of k >= 3 vectors at
        # |D|^(k-2): over 4 vectors, 4 |D| + |D|^2 tuples, checked before
        # any work
        rows = parse_rows(TestFindDependence.FIXED_A2P[0][0])
        dom = entry_ratio_domain(st, rows)
        d = len(dom)
        work = rank_mod._scan_work(4, d)
        assert work == 4 * d + d * d
        monkeypatch.setattr(rank_mod, "SEARCH_WORK_CAP", work)
        w = find_dependence(rows, dom, st)
        assert w.kv(st.format_literal) == TestFindDependence.FIXED_A2P[0][1]
        monkeypatch.setattr(rank_mod, "SEARCH_WORK_CAP", work - 1)
        monkeypatch.setattr(rank_mod, "_coded_walk", _forbidden)
        with pytest.raises(CapExceeded, match=f"^dependence search cap exceeded: 4 vectors "
                           f"need up to {work} coefficient tuples, more than {work - 1}$"):
            find_dependence(rows, dom, st)

    def test_explicit_domain_on_the_3x12_file_exits_3_at_once(self, tmp_path):
        # the 12 columns over a depth-2 domain of 333 members: about 333^10
        # tuples in the worst case, refused before the column search
        path = tmp_path / "m.txt"
        path.write_text(ST_3X12)
        work = rank_mod._scan_work(12, 333)
        assert work > 10**25
        start = time.perf_counter()
        proc = run_pairlin("rank", str(path), "--domain", "heuristic")
        assert time.perf_counter() - start < 1
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            3,
            f"error: dependence search cap exceeded: 12 vectors need up to {work} "
            "coefficient tuples, more than 2000000\n",
            "",
        )

    def test_default_domain_fallback_on_both_sides_of_the_bound(self, monkeypatch):
        # a support its minors leave undecided scans once its |D|^(k-2)
        # tuples pass the check, each support on its own
        rows = parse_rows(TestFindDependence.FIXED_A2P[0][0])
        dom = default_domain(st, rows)
        d = len(dom)
        monkeypatch.setattr(rank_mod, "_minor_search", lambda *args: (False, None))
        monkeypatch.setattr(rank_mod, "SEARCH_WORK_CAP", d * d)
        w, tried, scanned = search_stats(rows, dom)
        assert w.kv(st.format_literal) == TestFindDependence.FIXED_A2P[0][1]
        assert (tried, scanned) == (15, 5)
        monkeypatch.setattr(rank_mod, "SEARCH_WORK_CAP", d * d - 1)
        stats = {"supports_tried": 0, "supports_scanned": 0}
        with pytest.raises(CapExceeded, match=f"^dependence search cap exceeded: 4 vectors "
                           f"need up to {d * d} coefficient tuples, more than {d * d - 1}$"):
            find_dependence(rows, dom, st, stats=stats)
        # the four 3-vector supports scanned before the 4-vector one was refused
        assert stats == {"supports_tried": 15, "supports_scanned": 4}


# a random 3 x 12 supertropical file (entries -9..9 over denominators 1-3):
# the nested rank search tried 199,573 supports on it, the walk 791
ST_3X12 = """pair supertropical
rows 3
cols 12
3 7/3 2 3 1 -1/3 5/3 -2/3 -3 -5/2 2 1
-8/3 -3 7/3 1/3 3 -9 7 -7/2 5 4 4 8
-8/3 -4/3 -7/2 4/3 3 1 -3 -7 -1/2 2/3 1 0
"""


class TestWalkOverSupports:
    def test_3x12_rank_searches_at_most_1000_supports(self):
        _, a = parse_matrix_text(ST_3X12)
        counts = []
        for query in (rank_report, partial(check_condition, which="a1"),
                      partial(check_condition, which="a2")):
            stats = {"supports_tried": 0, "supports_scanned": 0}
            query(a, domain=None, stats=stats)
            counts.append(stats)
        # rank and check a1/a2 make the same two walks
        assert counts == [{"supports_tried": 791, "supports_scanned": 0}] * 3
        assert counts[0]["supports_tried"] <= 1000

    @pytest.mark.parametrize(
        "text, cap, n", [(ST_3X12, "2", 3), (K7, "6", 7)], ids=["st-3x12", "k7"]
    )
    def test_rank_takes_the_determinant_cap_before_the_searches(
        self, tmp_path, capsys, monkeypatch, text, cap, n
    ):
        # K7's row search alone would pass the search cap
        path = tmp_path / "m.txt"
        path.write_text(text)
        monkeypatch.setenv("PAIRLIN_CAP_N", cap)
        for argv in (["rank", str(path)], ["check", "a1", str(path)]):
            assert run_command(argv) == 3
            assert capsys.readouterr().out == f"error: determinant cap exceeded at n = {n}\n"
        stats = {"supports_tried": 0, "supports_scanned": 0}
        with pytest.raises(CapExceeded, match=f"^determinant cap exceeded at n = {n}$"):
            rank_report(parse_matrix_text(text)[1], None, stats)
        assert stats == {"supports_tried": 0, "supports_scanned": 0}


class TestEntryRatioDomain:
    VECTOR_SETS = [
        [(st_tan(0), st_tan(1)), (st_tan(3), st_tan(4))],
        # denominators 2, 3, 5 and 7: none divides another
        [
            (st_tan(Fraction(1, 2)), st_tan(Fraction(-2, 3)), ST_ZERO),
            (st_ghost(Fraction(3, 5)), st_tan(Fraction(5, 7)), st_tan(2)),
        ],
        [(ST_ZERO, ST_ZERO), (ST_ZERO, ST_ZERO)],
        [],
        [(st_ghost(Fraction(-7, 4)),), (st_tan(Fraction(5, 6)),)],
    ]

    def test_candidates_equal_fraction_builder(self):
        for vectors in self.VECTOR_SETS:
            for depth in range(4):
                dom = entry_ratio_domain(st, vectors, depth)
                ref = fraction_domain_candidates(vectors, depth)
                assert dom.candidates == ref, (vectors, depth)
                assert len(dom) == len(dom.candidates) == len(ref)
                assert (dom.completeness, dom.depth, dom.exact) == (
                    "heuristic",
                    depth,
                    False,
                )

    def test_random_vectors_equal_fraction_builder(self):
        rng = random.Random(23)
        for _ in range(20):
            rows = list(rand_supertropical_matrix(rng, 3, tangible=False).entries)
            assert entry_ratio_domain(st, rows).candidates == (
                fraction_domain_candidates(rows)
            )

    def test_depth_cap(self):
        vectors = self.VECTOR_SETS[0]
        assert len(entry_ratio_domain(st, vectors, HEURISTIC_DEPTH_CAP)) > 0
        with pytest.raises(CapExceeded):
            entry_ratio_domain(st, vectors, HEURISTIC_DEPTH_CAP + 1)


class TestRanks:
    def test_rank_gap_ranks(self):
        a = sign_rank_gap_matrix()
        dom = exact_domain(sign)
        assert row_rank(a, dom) == 3
        assert submatrix_rank(a) == 2
        assert col_rank(a, dom) == 2

    def test_identity_ranks(self):
        for alg in (sign, make_algebra("superboolean")):
            a = identity(alg, 3)
            dom = exact_domain(alg)
            assert row_rank(a, dom) == 3
            assert submatrix_rank(a) == 3

    def test_zero_matrix(self):
        a = matrix(sign, [[sign.zero, sign.zero], [sign.zero, sign.zero]])
        assert row_rank(a, exact_domain(sign)) == 0
        assert submatrix_rank(a) == 0

    def test_clipped_counting_submatrix_rank(self):
        assert submatrix_rank(clipped_counting_matrix()) == 3

    def test_supertropical_4x4_rank_report(self):
        # no dependence among the 4 rows: the size-4 support of the depth-2
        # domain of 16 entries on denominators 1, 2 and 3 is decided by its
        # nonsingular 4 x 4 minor, where the domain scan took over a second
        rep = rank_report(rand_supertropical_matrix(random.Random(7), 4))
        assert rep.lines() == [
            ("row_rank", "4"),
            ("col_rank", "4"),
            ("submatrix_rank", "4"),
            ("a1", "UNKNOWN"),
            ("a1_detail", "ranks rest on heuristic independence"),
            ("a2", "HOLDS"),
            ("a2_detail", "submatrix 4 >= max(4,4)"),
            ("a2prime", "HOLDS"),
            ("a2prime_detail", "m <= n: nothing to check"),
            ("domain", "heuristic"),
        ]


class TestConditions:
    def test_rank_gap_a2_fails(self):
        v = check_condition(sign_rank_gap_matrix(), "a2", exact_domain(sign))
        assert v.verdict == "FAILS"

    def test_rank_gap_a1_holds(self):
        v = check_condition(sign_rank_gap_matrix(), "a1", exact_domain(sign))
        assert v.verdict == "HOLDS"

    def test_identity_a1_a2_hold(self):
        for alg in (sign, make_algebra("doubled:boolean")):
            a = identity(alg, 2)
            dom = exact_domain(alg)
            assert check_condition(a, "a1", dom).verdict == "HOLDS"
            assert check_condition(a, "a2", dom).verdict == "HOLDS"

    def test_symdiff_a2prime_fails(self):
        alg, vecs = symdiff_independent_vectors()
        v = check_condition(matrix(alg, vecs), "a2p", exact_domain(alg))
        assert v.verdict == "FAILS"

    def test_a2prime_vacuous_for_wide(self):
        v = check_condition(sign_rank_gap_matrix(), "a2p", exact_domain(sign))
        assert v.verdict == "HOLDS"

    def test_heuristic_unknown_on_no_witness(self):
        # independence claims over heuristic domains must stay Unknown
        rows = [(st_tan(0), st_tan(1)), (st_tan(5), st_tan(2)), (st_tan(1), st_tan(9))]
        dom = CoefficientDomain((st.one,), "heuristic", 0)
        v = check_condition(matrix(st, rows), "a2p", dom)
        assert v.verdict == "UNKNOWN"

    def test_rank_report_computes_ranks_once(self, monkeypatch):
        import pairlin.rank as rank_mod

        calls = []
        inner = rank_mod.submatrix_rank

        def counted(a):
            calls.append(a)
            return inner(a)

        monkeypatch.setattr(rank_mod, "submatrix_rank", counted)
        rank_report(sign_rank_gap_matrix(), exact_domain(sign))
        assert len(calls) == 1

    def test_rank_report_verdicts_match_check_condition(self):
        fixtures = [
            (sign_rank_gap_matrix(), exact_domain(sign)),
            (matrix(sign, [r[:3] for r in sign_rank_gap_matrix().entries]), None),
            (identity(sign, 3), None),
            (clipped_counting_matrix(), None),
            (two_track_doubled_matrix(), None),
            (matrix(sign, [[sign.one] * 2] * 3), None),
            (matrix(st, [[st_tan(0), st_tan(1)], [st_tan(2), st_tan(3)]]), None),
        ]
        for a, dom in fixtures:
            rep = rank_report(a, dom)
            for name, which in (("a1", "a1"), ("a2", "a2"), ("a2prime", "a2p")):
                assert getattr(rep, name) == check_condition(a, which, dom), (a, name)

    def test_rank_report_lines(self):
        rep = rank_report(sign_rank_gap_matrix(), exact_domain(sign))
        d = dict(rep.lines())
        assert d["row_rank"] == "3"
        assert d["submatrix_rank"] == "2"
        assert d["a2"] == "FAILS"
        assert d["domain"] == "exact"


class TestRankDefect:
    def test_shared_zero_column(self):
        a = matrix(
            sign,
            [
                [sign.one, sign.zero],
                [sign.one, sign.zero],
            ],
        )
        hits = rank_defect(a)
        assert hits == [((0, 1), (1,))]
        # defect forces the full determinant to be exactly zero
        from pairlin import det_doubled

        d = det_doubled(a)
        assert d.det_plus == sign.zero and d.det_minus == sign.zero

    def test_identity_no_defect(self):
        assert rank_defect(identity(sign, 3)) == []

    def test_rank_gap_no_defect(self):
        assert rank_defect(sign_rank_gap_matrix()) == []


class TestPreceqSpans:
    def test_trivial_self_span(self):
        v = (st_tan(1), st_tan(2))
        out = preceq_spans([v], v, alg=st)
        assert out is not None
        coeffs, _ = out
        assert coeffs == (st.one,)

    def test_superboolean_example(self):
        sb = make_algebra("superboolean")
        l = sb.parse_literal
        target = (l("1"), l("e"))
        out = preceq_spans([(l("1"), l("1"))], target, exact_domain(sb), alg=sb)
        assert out is not None
        coeffs, witness = out
        assert coeffs == (sb.one,)
        assert witness is not None  # induced dependence via Property N

    def test_supertropical_tangible_target_forces_equality(self):
        rng = random.Random(13)
        for _ in range(30):
            vecs = [
                tuple(st_tan(rng.randint(-5, 5)) for _ in range(3)) for _ in range(2)
            ]
            target = tuple(st_tan(rng.randint(-5, 5)) for _ in range(3))
            dom = entry_ratio_domain(st, vecs + [target])
            out = preceq_spans(vecs, target, dom, alg=st)
            if out is None:
                continue
            coeffs, _ = out
            combo = tuple(
                st.sum(st.mul(c, v[j]) for c, v in zip(coeffs, vecs) if c != st.zero)
                for j in range(3)
            )
            assert combo == target
