"""Acceptance gate: every criterion at its stated size, tolerance, and budget.

Each test runs one suite at full size, prints a PASS/FAIL line, and asserts
both the verdict and the runtime bound.  Tolerances are exact (rational
arithmetic end to end); randomized suites use the fixed default seed.
"""

import time

from pairlin import suites
from pairlin.cli import run_command
from pairlin.suites import DEFAULT_SEED


def _run(suite_fn, budget, **kw):
    t0 = time.perf_counter()
    res = suite_fn(seed=DEFAULT_SEED, **kw)
    dt = time.perf_counter() - t0
    status = "PASS" if res.passed else "FAIL"
    print(f"[acceptance] {res.name}: {status} ({dt:.1f}s / {budget}s)")
    for line in res.detail:
        print(f"[acceptance]   {line}")
    assert res.passed, res.detail
    assert dt < budget, f"{res.name} took {dt:.1f}s, budget {budget}s"


def test_criterion_01_sign_pair_counterexample():
    # row rank 3, submatrix rank 2, all 3x3 minors singular with track sum
    # inf, and `check a2` reporting FAILS
    _run(suites.suite_sign_counterexample, budget=1)


def test_criterion_02_doubled_boolean_counterexample():
    # null doubled determinant yet no dependence witness under T-hat
    _run(suites.suite_doubled_boolean, budget=1)


def test_criterion_03_truncated_counterexample():
    # 11 nonzero tracks clip to the null 5, yet T = {1} finds no dependence
    _run(suites.suite_truncated, budget=1)


def test_criterion_04_powerset_a2prime_counterexample():
    _run(suites.suite_powerset_symdiff, budget=1)


def test_criterion_05_laplace_identity():
    # exact equality for all 1- and 2-row sets: 1000 supertropical 4x4 plus
    # the 512 tangible sign 3x3 matrices
    _run(suites.suite_laplace, budget=30, n_random=1000)


def test_criterion_06_cayley_hamilton():
    _run(suites.suite_cayley_hamilton, budget=60, n_random=1000)


def test_criterion_07_cramer_balance():
    _run(suites.suite_cramer, budget=60, n_random=1000)


def test_criterion_08_jacobi_convergence():
    # stabilization within n iterations, balance, and the exact mu identity
    _run(suites.suite_jacobi, budget=60, n_random=1000)


def test_criterion_09_singular_3x3_witnesses():
    # exhaustive singular tangible sign 3x3 + 500 forced supertropical cases
    _run(suites.suite_singular_3x3_dependence, budget=120, n_random=500)


def test_criterion_10_dependence_implies_singular():
    _run(suites.suite_a1_dependent_implies_singular, budget=60, n_random=1000)


def test_criterion_11_krasner_suite():
    _run(suites.suite_krasner, budget=60)


def test_criterion_12_structure_suite():
    _run(suites.suite_structure, budget=10)


def test_criterion_13_hyperfield_a2prime():
    _run(suites.suite_hyperfield_a2prime, budget=60)


def test_verify_all_exits_zero(capsys):
    code = run_command(["verify", "all"])
    out = capsys.readouterr().out
    with capsys.disabled():
        print()
        for line in out.strip().splitlines():
            print(f"[verify all] {line}")
    assert code == 0
    assert "FAIL" not in out
