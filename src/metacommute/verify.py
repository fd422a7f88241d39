"""Exhaustive verification sweeps behind the CLI ``verify`` subcommands.

Every check is exact integer equality; a sweep fails only if some identity
breaks. Failure descriptions are collected in sorted (p, q, Q) order so
reports are deterministic.
"""
from __future__ import annotations

import random
import time
from dataclasses import dataclass, field

from metacommute.errors import ScaleLimit
from metacommute.geometry import conic_points, conic_to_prime, trace_zero_rep
from metacommute.metacomm import (
    _CENSUS_MAX_P,
    MetaQuery,
    analyze,
    meta_conj,
    meta_divide,
    meta_permutation,
    order_count,
    pgl2_order_census,
    predict,
    proj_table,
)
from metacommute.modp import QuotQuat, legendre, mat2_det, mat2_trace, phi, phi_inv, two_square_rep
from metacommute.quatcore import (
    HurwitzInt,
    _is_rational_prime,
    elements_of_norm,
    primes_of_norm,
)

MAX_FAILURES_KEPT = 10


@dataclass
class VerifyReport:
    """Outcome of one sweep. cases_failed == 0 iff every identity held."""

    scope: dict
    cases_run: int = 0
    cases_failed: int = 0
    first_failures: list[str] = field(default_factory=list)
    elapsed: float = 0.0

    def record(self, ok: bool, describe) -> None:
        self.cases_run += 1
        if not ok:
            self.cases_failed += 1
            if len(self.first_failures) < MAX_FAILURES_KEPT:
                self.first_failures.append(describe())

    @property
    def passed(self) -> bool:
        return self.cases_failed == 0


def primes_up_to(n: int) -> list[int]:
    return [k for k in range(2, n + 1) if _is_rational_prime(k)]


def odd_primes_up_to(n: int) -> list[int]:
    return [k for k in primes_up_to(n) if k != 2]


def sweep_queries(p_max: int, q_max: int):
    """Yield (p, Q) over odd primes p <= p_max, primes q <= q_max with
    q != p, and every Q of norm q, in sorted order."""
    for p in odd_primes_up_to(p_max):
        for q in primes_up_to(q_max):
            if q == p:
                continue
            for Q in elements_of_norm(q):
                yield p, Q


def _timed(fn):
    """Time a sweep, and reject a scope that holds no case: an empty sweep
    would otherwise pass vacuously."""
    def wrapper(*args, **kwargs) -> VerifyReport:
        start = time.perf_counter()
        report = fn(*args, **kwargs)
        report.elapsed = time.perf_counter() - start
        if not report.cases_run:
            scope = ", ".join(f"{k}={v}" for k, v in report.scope.items())
            raise ScaleLimit(f"{fn.__name__}: no case in scope {scope}")
        return report

    wrapper.__name__ = fn.__name__
    wrapper.__doc__ = fn.__doc__
    return wrapper


@_timed
def verify_signs(p_max: int = 13, q_max: int = 13) -> VerifyReport:
    """Permutation sign equals the quadratic character of q mod p."""
    report = VerifyReport(scope={"p_max": p_max, "q_max": q_max})
    for p, Q in sweep_queries(p_max, q_max):
        query = MetaQuery.create(p, Q)
        got = analyze(meta_permutation(query)).sign
        want = legendre(query.q, p)
        report.record(
            got == want,
            lambda p=p, Q=Q, got=got, want=want:
                f"sign mismatch p={p} Q={list(Q.coeffs)}: got {got}, predicted {want}",
        )
    return report


@_timed
def verify_fixed(p_max: int = 13, q_max: int = 13) -> VerifyReport:
    """Fixed-point count matches the discriminant prediction, with the
    central-reduction exception fixing all p+1 points."""
    report = VerifyReport(scope={"p_max": p_max, "q_max": q_max})
    for p, Q in sweep_queries(p_max, q_max):
        query = MetaQuery.create(p, Q)
        got = analyze(meta_permutation(query)).fixed_count
        _, want = predict(query)
        report.record(
            got == want,
            lambda p=p, Q=Q, got=got, want=want:
                f"fixed-point mismatch p={p} Q={list(Q.coeffs)}: got {got}, predicted {want}",
        )
    return report


@_timed
def verify_cycles(p_max: int = 13, q_max: int = 13) -> VerifyReport:
    """All non-fixed cycles share one length; that length divides p+1, p or
    p-1 according to fixed-point count 0, 1 or 2."""
    report = VerifyReport(scope={"p_max": p_max, "q_max": q_max})
    for p, Q in sweep_queries(p_max, q_max):
        query = MetaQuery.create(p, Q)
        rep = analyze(meta_permutation(query))
        ok = rep.uniform_length
        if ok and rep.cycle_lengths:
            divisor_of = {0: p + 1, 1: p, 2: p - 1}
            ok = rep.fixed_count in divisor_of and (
                divisor_of[rep.fixed_count] % rep.cycle_lengths[0] == 0
            )
        report.record(
            ok,
            lambda p=p, Q=Q, rep=rep:
                f"cycle-structure failure p={p} Q={list(Q.coeffs)}: "
                f"fixed={rep.fixed_count} lengths={list(rep.cycle_lengths)}",
        )
    return report


def _scalar_div(h: HurwitzInt, n: int) -> HurwitzInt | None:
    if any(c % n for c in h.coeffs):
        return None
    return HurwitzInt(*(c // n for c in h.coeffs))


@_timed
def verify_oracle(p_max: int = 13, q_max: int = 13, seed: int = 0) -> VerifyReport:
    """Triple-route agreement plus the exact product identity.

    For every class P and every Q in the sweep: the gcrd route, the
    conjugation route and the projective-action route give the same partner
    class P'; and Q' = P Q conj(P') / p is a Hurwitz integer of norm q with
    P Q = Q' P' exactly. (seed is accepted for interface symmetry; the sweep
    is exhaustive and uses no randomness.)
    """
    report = VerifyReport(scope={"p_max": p_max, "q_max": q_max, "seed": seed})
    for p in odd_primes_up_to(p_max):
        ground = proj_table(p).ground
        classes = primes_of_norm(p)
        index_of = {c: i for i, c in enumerate(ground)}
        class_pos = {P: index_of[trace_zero_rep(P)] for P in classes}
        for q in primes_up_to(q_max):
            if q == p:
                continue
            for Q in elements_of_norm(q):
                perm = meta_permutation(MetaQuery.create(p, Q))
                for P in classes:
                    p_div = meta_divide(P, Q)
                    p_conj = meta_conj(P, Q)
                    p_perm = conic_to_prime(ground[perm.images[class_pos[P]]])
                    ok = p_div == p_conj == p_perm
                    if ok:
                        pq = P.rep * Q
                        qprime = _scalar_div(pq * p_div.rep.conjugate(), p)
                        ok = (
                            qprime is not None
                            and qprime.norm() == q
                            and qprime * p_div.rep == pq
                        )
                    report.record(
                        ok,
                        lambda p=p, Q=Q, P=P, a=p_div, b=p_conj, c=p_perm:
                            f"oracle failure p={p} Q={list(Q.coeffs)} "
                            f"P={list(P.rep.coeffs)}: divide={list(a.rep.coeffs)} "
                            f"conj={list(b.rep.coeffs)} perm={list(c.rep.coeffs)} "
                            "(routes disagree or the product identity broke)",
                    )
    return report


@_timed
def verify_phi(p_max: int = 13, seed: int = 0, pairs: int = 1000) -> VerifyReport:
    """The splitting map is a ring homomorphism transporting norm to det and
    trace to trace, satisfies the defining relations, and round-trips."""
    report = VerifyReport(scope={"p_max": p_max, "seed": seed, "pairs": pairs})
    for p in odd_primes_up_to(p_max):
        rep = two_square_rep(p)
        one = QuotQuat(p, 1, 0, 0, 0)
        qi = QuotQuat(p, 0, 1, 0, 0)
        qj = QuotQuat(p, 0, 0, 1, 0)
        qk = QuotQuat(p, 0, 0, 0, 1)
        mi, mj, mk = phi(qi, rep), phi(qj, rep), phi(qk, rep)
        minus_one = phi(one.scale(-1), rep)
        relations_ok = (
            mi * mi == minus_one
            and mj * mj == minus_one
            and mk * mk == minus_one
            and mi * mj * mk == minus_one
        )
        report.record(relations_ok, lambda p=p: f"defining relations fail at p={p}")

        rng = random.Random(seed * 1_000_003 + p)
        for _ in range(pairs):
            g = QuotQuat(p, *(rng.randrange(p) for _ in range(4)))
            d = QuotQuat(p, *(rng.randrange(p) for _ in range(4)))
            mg, md = phi(g, rep), phi(d, rep)
            ok = (
                phi(g * d, rep) == mg * md
                and phi(g + d, rep) == mg + md
                and mat2_det(mg) == g.norm()
                and mat2_trace(mg) == g.trace()
                and phi_inv(mg, rep) == g
            )
            report.record(
                ok,
                lambda p=p, g=g, d=d:
                    f"phi identity fails p={p} gamma={g.coords} delta={d.coords}",
            )
    return report


@_timed
def verify_orders(p_max: int = 13) -> VerifyReport:
    """Brute-force element-order census of the projective group matches the
    closed-form count for every order k."""
    if p_max > _CENSUS_MAX_P:
        raise ScaleLimit(
            f"census enumerates the full group only for p_max <= {_CENSUS_MAX_P}"
        )
    report = VerifyReport(scope={"p_max": p_max})
    for p in odd_primes_up_to(p_max):
        census = pgl2_order_census(p)
        report.record(
            census.get(1) == 1,
            lambda p=p, census=census: f"census p={p}: identity count {census.get(1)}",
        )
        # element orders in the projective group never exceed p+1
        for k in range(2, p + 2):
            want = order_count(k, p)
            got = census.get(k, 0)
            report.record(
                got == want,
                lambda p=p, k=k, got=got, want=want:
                    f"order census p={p} k={k}: census {got}, formula {want}",
            )
    return report


@_timed
def verify_counting(p_max: int = 53, bijection_p_max: int = 13) -> VerifyReport:
    """Class and conic counts are both p+1; the trace-zero map is a bijection
    inverted by the gcrd lift (checked exhaustively up to bijection_p_max)."""
    report = VerifyReport(scope={"p_max": p_max, "bijection_p_max": bijection_p_max})
    for p in odd_primes_up_to(p_max):
        classes = primes_of_norm(p)
        points = conic_points(p)
        report.record(
            len(classes) == p + 1 == len(points),
            lambda p=p, a=len(classes), b=len(points):
                f"count mismatch p={p}: {a} classes, {b} conic points",
        )
        if p <= bijection_p_max:
            mapped = [trace_zero_rep(P) for P in classes]
            ok = sorted(mapped) == list(points) and all(
                conic_to_prime(c) == P for P, c in zip(classes, mapped)
            )
            report.record(
                ok,
                lambda p=p: f"trace-zero map is not a bijection with inverse at p={p}",
            )
    return report
