"""Dependence search, ranks, conditions, rank defect, surpassing spans."""

import random

import pytest

from pairlin import (
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
    row_rank,
    st_tan,
    submatrix_rank,
)
from pairlin.rank import DomainEmpty, CoefficientDomain
from pairlin.suites import (
    two_track_doubled_matrix,
    clipped_counting_matrix,
    symdiff_independent_vectors,
    sign_rank_gap_matrix,
    rand_singular_supertropical,
)

sign = make_algebra("sign")
st = make_algebra("supertropical")


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
        # the tie-pattern solver must agree with the naive domain scan
        rng = random.Random(11)
        for _ in range(40):
            a = rand_singular_supertropical(rng, 3)
            rows = list(a.entries)
            dom = entry_ratio_domain(st, rows)
            w = find_dependence(rows, dom, st)
            assert w is not None
            for j in range(3):
                acc = st.zero
                for i, c in zip(w.support, w.coeffs):
                    acc = st.add(acc, st.mul(c, rows[i][j]))
                assert st.is_null(acc)


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
