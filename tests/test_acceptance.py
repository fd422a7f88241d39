"""Acceptance criteria, one test per criterion.

Every check is exact integer equality (no tolerances anywhere); the stated
runtime budgets are asserted too. Run with ``pytest tests/test_acceptance.py
-v -s`` to see one pass/fail line per criterion.
"""
import subprocess
import sys

import pytest

from metacommute.geometry import conic_points, conic_to_prime, trace_zero_rep
from metacommute.metacomm import MetaQuery, order_counts, pgl2_order_census
from metacommute.quatcore import elements_of_norm, primes_of_norm
from metacommute.verify import (
    odd_primes_up_to,
    primes_up_to,
    sweep_queries,
    verify_counting,
    verify_cycles,
    verify_fixed,
    verify_oracle,
    verify_phi,
    verify_signs,
)

SWEEP_P_MAX = 13
SWEEP_Q_MAX = 13


def _norm_q_count(q: int) -> int:
    # lattice points of norm q: 24 * (sum of odd divisors of q)
    return 24 if q == 2 else 24 * (q + 1)


def _expected_queries() -> int:
    return sum(
        _norm_q_count(q)
        for p in odd_primes_up_to(SWEEP_P_MAX)
        for q in primes_up_to(SWEEP_Q_MAX)
        if q != p
    )


def _report(number: int, label: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {number}] {status}: {label}{detail}")
    assert ok, f"criterion {number} failed: {label}{detail}"


def test_criterion_1_counting():
    report = verify_counting(p_max=53)
    counts_ok = report.passed
    # spot-check the counts directly as well
    for p in odd_primes_up_to(53):
        counts_ok = counts_ok and len(primes_of_norm(p)) == p + 1
        counts_ok = counts_ok and len(conic_points(p)) == p + 1
    bijection_ok = all(
        sorted(trace_zero_rep(P) for P in primes_of_norm(p)) == list(conic_points(p))
        and all(conic_to_prime(trace_zero_rep(P)) == P for P in primes_of_norm(p))
        for p in odd_primes_up_to(13)
    )
    ok = counts_ok and bijection_ok and report.elapsed < 10.0
    _report(
        1,
        "class and conic counts are p+1 for p <= 53; trace-zero bijection for p <= 13",
        ok,
        f" ({report.cases_run} cases, {report.elapsed:.2f}s)",
    )


def test_criterion_2_isomorphism():
    report = verify_phi(p_max=13, seed=0)
    # 1000 pairs for each p in {3,5,7,11,13}, plus one relations case per p
    ok = report.passed and report.cases_run == 5 * 1001 and report.elapsed < 5.0
    _report(
        2,
        "matrix splitting preserves products, sums, norm=det, trace=trace, relations",
        ok,
        f" ({report.cases_run} cases, {report.elapsed:.2f}s)",
    )


def test_criterion_3_triple_oracle():
    report = verify_oracle(p_max=SWEEP_P_MAX, q_max=SWEEP_Q_MAX, seed=0)
    expected = sum(
        (p + 1) * _norm_q_count(q)
        for p in odd_primes_up_to(SWEEP_P_MAX)
        for q in primes_up_to(SWEEP_Q_MAX)
        if q != p
    )
    ok = report.passed and report.cases_run == expected and report.elapsed < 60.0
    _report(
        3,
        "divide, conjugation and projective routes agree; P Q = Q' P' exactly",
        ok,
        f" ({report.cases_run} cases, {report.elapsed:.2f}s)",
    )


def test_criterion_4_sign_theorem():
    report = verify_signs(p_max=SWEEP_P_MAX, q_max=SWEEP_Q_MAX)
    ok = report.passed and report.cases_run == _expected_queries()
    _report(
        4,
        "permutation sign equals the quadratic character of q mod p in 100% of cases",
        ok,
        f" ({report.cases_run} cases, {report.elapsed:.2f}s)",
    )


def test_criterion_5_fixed_point_theorem():
    report = verify_fixed(p_max=SWEEP_P_MAX, q_max=SWEEP_Q_MAX)
    central = noncentral = 0
    contains_named_case = False
    for p, Q in sweep_queries(SWEEP_P_MAX, SWEEP_Q_MAX):
        query = MetaQuery.create(p, Q)
        if query.central:
            central += 1
            if p == 3 and Q.coeffs == (4, 6, 0, 0):
                contains_named_case = True
        else:
            noncentral += 1
    ok = (
        report.passed
        and report.cases_run == central + noncentral == _expected_queries()
        and central > 0
        and noncentral > 0
        and contains_named_case
    )
    _report(
        5,
        "fixed points match 1 + legendre(tr(Q)^2-4q, p) with the central exception",
        ok,
        f" ({report.cases_run} cases, {central} central, {report.elapsed:.2f}s)",
    )


def test_criterion_6_cycle_theorem():
    report = verify_cycles(p_max=SWEEP_P_MAX, q_max=SWEEP_Q_MAX)
    ok = report.passed and report.cases_run == _expected_queries()
    _report(
        6,
        "every non-fixed cycle has the predicted length, the order of Q mod p",
        ok,
        f" ({report.cases_run} cases, {report.elapsed:.2f}s)",
    )


def test_criterion_7_order_census():
    import time

    start = time.perf_counter()
    ok = pgl2_order_census(3) == {1: 1, 2: 9, 3: 8, 4: 6}
    for p in (3, 5, 7):
        census = pgl2_order_census(p)
        ok = ok and sum(census.values()) == p * (p - 1) * (p + 1)
        ok = ok and census.get(1) == 1
        table = order_counts(p)
        for k in range(2, p + 2):
            ok = ok and census.get(k, 0) == table.get(k, 0)
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 10.0
    _report(
        7,
        "full projective-group census matches the order-count formula for p in {3,5,7}",
        ok,
        f" ({elapsed:.2f}s)",
    )


def test_criterion_8_byte_identical_verify():
    args = [
        sys.executable, "-m", "metacommute",
        "verify", "oracle", "--p-max", "13", "--q-max", "13",
        "--format", "json", "--seed", "0",
    ]
    first = subprocess.run(args, capture_output=True, check=False)
    second = subprocess.run(args, capture_output=True, check=False)
    ok = (
        first.returncode == 0
        and second.returncode == 0
        and first.stdout == second.stdout
        and len(first.stdout) > 0
    )
    _report(
        8,
        "two verify-oracle runs produce byte-identical JSON",
        ok,
        f" ({len(first.stdout)} bytes)",
    )


@pytest.fixture(scope="module", autouse=True)
def _sweep_size_sanity():
    # the sweep enumerates every Q of each prime norm; make sure the ground
    # truth sizes hold before trusting the case counts above
    for q in primes_up_to(SWEEP_Q_MAX):
        assert len(elements_of_norm(q)) == _norm_q_count(q)
    yield
