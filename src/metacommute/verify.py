"""Exhaustive verification sweeps behind the CLI ``verify`` subcommands.

Every check is exact integer equality; a sweep fails only if some identity
breaks. Each check is a stream of cases, each None when its identity holds
and its failure message when it does not, that one runner, ``_run``, times
and records. Failures are collected in sorted (q, p, Q) order so reports
are deterministic.
"""
from __future__ import annotations

import random
import time
from dataclasses import dataclass, field

from metacommute import _kernels
from metacommute._kernels import mul, norm
from metacommute.errors import DomainError, ScaleLimit
from metacommute.geometry import conic_points, conic_to_prime, trace_zero_rep
from metacommute.metacomm import (
    _CENSUS_MAX_P,
    MetaQuery,
    analyze,
    cycle_length,
    meta_conj,
    meta_permutation,
    order_counts,
    pgl2_order_census,
    predict,
)
from metacommute.modp import _phi_entries, _phi_inverse, two_square_rep
from metacommute.quatcore import (
    _P_MAX,
    _PRIMES_MAX_P,
    _is_rational_prime,
    _norm_p_factor,
    elements_of_norm,
    primes_of_norm,
)

MAX_FAILURES_KEPT = 10

# random (gamma, delta) pairs per p in verify_phi
_PHI_PAIRS = 1000

# verify_counting checks the trace-zero bijection exhaustively up to this p
_BIJECTION_P_MAX = 13

# the most cases one oracle or theorem sweep may hold; p, q <= 97, the
# largest scope run in full, holds 26,492,976
_SWEEP_MAX_CASES = 30_000_000


@dataclass
class VerifyReport:
    """Outcome of one sweep. cases_failed == 0 iff every identity held."""

    scope: dict
    cases_run: int = 0
    cases_failed: int = 0
    first_failures: list[str] = field(default_factory=list)
    elapsed: float = 0.0

    def record(self, failure: str | None) -> None:
        """Count one case: None if it held, else its failure message."""
        self.cases_run += 1
        if failure is not None:
            self.cases_failed += 1
            if len(self.first_failures) < MAX_FAILURES_KEPT:
                self.first_failures.append(failure)

    @property
    def passed(self) -> bool:
        return self.cases_failed == 0


def primes_up_to(n: int) -> list[int]:
    return [k for k in range(2, n + 1) if _is_rational_prime(k)]


def odd_primes_up_to(n: int) -> list[int]:
    return [k for k in primes_up_to(n) if k != 2]


def sweep_queries(p_max: int, q_max: int):
    """Yield (p, Q) over primes q <= q_max, odd primes p <= p_max with
    p != q, and every Q of norm q, in sorted (q, p, Q) order. It lists one
    norm's elements at a time, so a sweep holds only those."""
    odd_primes = odd_primes_up_to(p_max)
    for q in primes_up_to(q_max):
        elements = elements_of_norm(q)
        for p in odd_primes:
            if p == q:
                continue
            for Q in elements:
                yield p, Q


def _require_int(flag: str, value) -> None:
    if not isinstance(value, int) or isinstance(value, bool):
        raise DomainError(f"{flag} is an int, got {value!r}")


def _bound(flag: str, value: int, limit: int, what: str) -> None:
    """Reject a scope flag that is not an int, or beyond the limit of the
    per-p or per-q build it drives, before any prime is listed."""
    _require_int(flag, value)
    if value > limit:
        raise ScaleLimit(f"{what} only for {flag} <= {limit}")


def _bound_sweep(p_max: int, q_max: int) -> int:
    """Return the number of cases in the sweep over sweep_queries(p_max,
    q_max), rejecting before it starts a flag above _PRIMES_MAX_P or a sweep
    above _SWEEP_MAX_CASES.

    The count is the sum of (p+1) n(q) over odd primes p <= p_max and primes
    q <= q_max with q != p, where n(q) = #elements_of_norm(q) is 24 for
    q = 2 and 24(q+1) otherwise. It is the oracle's case count and the
    number of permutation images a theorem sweep computes.
    """
    _bound("p_max", p_max, _PRIMES_MAX_P, "a sweep runs")
    _bound("q_max", q_max, _PRIMES_MAX_P, "elements of norm q are enumerated")
    per_q = {q: 24 if q == 2 else 24 * (q + 1) for q in primes_up_to(q_max)}
    every_q = sum(per_q.values())
    size = sum((p + 1) * (every_q - per_q.get(p, 0)) for p in odd_primes_up_to(p_max))
    if size > _SWEEP_MAX_CASES:
        raise ScaleLimit(
            f"p_max={p_max}, q_max={q_max} holds {size} cases; "
            f"a sweep runs at most {_SWEEP_MAX_CASES}"
        )
    return size


def _run(name: str, scope: dict, cases) -> VerifyReport:
    """Time a sweep and record each of its cases, a failure message or None.

    A scope that holds no case is rejected: an empty sweep would otherwise
    pass vacuously.
    """
    start = time.perf_counter()
    report = VerifyReport(scope=scope)
    for failure in cases:
        report.record(failure)
    report.elapsed = time.perf_counter() - start
    if not report.cases_run:
        shown = ", ".join(f"{k}={v}" for k, v in scope.items())
        raise ScaleLimit(f"{name}: no case in scope {shown}")
    return report


def _permutations(p_max: int, q_max: int):
    """Yield (query, meta_permutation(query)) over sweep_queries."""
    for p, Q in sweep_queries(p_max, q_max):
        query = MetaQuery.create(p, Q)
        yield query, meta_permutation(query)


def _theorem(name: str, p_max: int, q_max: int, check) -> VerifyReport:
    """Run check(query, analyze(perm)) -> failure or None over the sweep."""
    _bound_sweep(p_max, q_max)
    cases = (check(query, analyze(perm)) for query, perm in _permutations(p_max, q_max))
    return _run(name, {"p_max": p_max, "q_max": q_max}, cases)


def _sign_case(query, rep):
    want, _ = predict(query)
    return None if rep.sign == want else (
        f"sign mismatch p={query.p} Q={list(query.Q.coeffs)}: "
        f"got {rep.sign}, predicted {want}"
    )


def _fixed_case(query, rep):
    _, want = predict(query)
    return None if rep.fixed_count == want else (
        f"fixed-point mismatch p={query.p} Q={list(query.Q.coeffs)}: "
        f"got {rep.fixed_count}, predicted {want}"
    )


def _cycle_case(query, rep):
    k = cycle_length(query)
    moving = query.p + 1 - rep.fixed_count
    # every moving point lies on a k-cycle, and only the identity moves none
    ok = rep.cycle_lengths == (k,) * (moving // k) if moving else k == 1
    return None if ok else (
        f"cycle-structure failure p={query.p} Q={list(query.Q.coeffs)}: "
        f"fixed={rep.fixed_count} lengths={list(rep.cycle_lengths)}, predicted length {k}"
    )


def verify_signs(p_max: int = 13, q_max: int = 13) -> VerifyReport:
    """Permutation sign equals the quadratic character of q mod p."""
    return _theorem("verify_signs", p_max, q_max, _sign_case)


def verify_fixed(p_max: int = 13, q_max: int = 13) -> VerifyReport:
    """Fixed-point count matches the discriminant prediction, with the
    central-reduction exception fixing all p+1 points."""
    return _theorem("verify_fixed", p_max, q_max, _fixed_case)


def verify_cycles(p_max: int = 13, q_max: int = 13) -> VerifyReport:
    """Every non-fixed cycle has the predicted length cycle_length(query),
    the order of Q's image in the projective group."""
    return _theorem("verify_cycles", p_max, q_max, _cycle_case)


def _oracle_cases(p_max: int, q_max: int):
    """One case per class P and query (p, Q), on doubled-coordinate tuples.

    Per p it holds each class's canonical rep and the canonical rep of each
    conic point's class. The gcrd route runs on tuples through the public
    kernels; the conjugation route is meta_conj itself; the projective
    route reads the class rep of P's image point.
    """
    p = None
    for query, perm in _permutations(p_max, q_max):
        if query.p != p:
            p = query.p
            classes = primes_of_norm(p)
            reps = [P.rep.coeffs for P in classes]
            ground = perm.ground
            index_of = {c: i for i, c in enumerate(ground)}
            class_pos = [index_of[trace_zero_rep(P)] for P in classes]
            point_rep = [conic_to_prime(c).rep.coeffs for c in ground]
        Q, q, images = query.Q, query.q, perm.images
        qt = Q.coeffs
        for P, P_t, i in zip(classes, reps, class_pos):
            pq = mul(P_t, qt)
            d = _norm_p_factor(pq, p)
            c = meta_conj(P, Q).rep.coeffs
            r = point_rep[images[i]]
            ok = d == c == r
            if ok:
                # Q' = P Q conj(P') / p is integral, of norm q, and Q' P' = P Q
                num = mul(pq, (d[0], -d[1], -d[2], -d[3]))
                ok = not (num[0] % p or num[1] % p or num[2] % p or num[3] % p)
                if ok:
                    qprime = (num[0] // p, num[1] // p, num[2] // p, num[3] // p)
                    ok = norm(qprime) == q and mul(qprime, d) == pq
            yield None if ok else (
                f"oracle failure p={p} Q={list(qt)} "
                f"P={list(P_t)}: divide={list(d)} "
                f"conj={list(c)} perm={list(r)} "
                "(routes disagree or the product identity broke)"
            )


def verify_oracle(p_max: int = 13, q_max: int = 13, seed: int = 0) -> VerifyReport:
    """Triple-route agreement plus the exact product identity.

    For every class P and every Q in the sweep: the gcrd route, the
    conjugation route and the projective-action route give the same partner
    class P'; and Q' = P Q conj(P') / p is a Hurwitz integer of norm q with
    P Q = Q' P' exactly. (seed is accepted for interface symmetry; the sweep
    is exhaustive and uses no randomness.)
    """
    _bound_sweep(p_max, q_max)
    _require_int("seed", seed)
    scope = {"p_max": p_max, "q_max": q_max, "seed": seed}
    return _run("verify_oracle", scope, _oracle_cases(p_max, q_max))


def _mat_mul(p: int, m, n) -> tuple[int, int, int, int]:
    """The product mod p of two row-major 2x2 matrices."""
    m1, m2, m3, m4 = m
    n1, n2, n3, n4 = n
    return ((m1 * n1 + m2 * n3) % p, (m1 * n2 + m2 * n4) % p,
            (m3 * n1 + m4 * n3) % p, (m3 * n2 + m4 * n4) % p)


def _phi_cases(p_max: int, seed: int):
    """The splitting on residue 4-tuples, against the routes' own product and
    norm: _kernels.mul and _kernels.norm on doubled coordinates."""
    for p in odd_primes_up_to(p_max):
        rep = two_square_rep(p)
        a, b = rep.a, rep.b
        mi, mj, mk, minus_one = (_phi_entries(p, a, b, *e) for e in (
            (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1), (-1, 0, 0, 0)))
        relations_ok = (
            _mat_mul(p, mi, mi) == _mat_mul(p, mj, mj) == _mat_mul(p, mk, mk)
            == _mat_mul(p, _mat_mul(p, mi, mj), mk) == minus_one
        )
        yield None if relations_ok else f"defining relations fail at p={p}"

        rng = random.Random(seed * 1_000_003 + p)
        for _ in range(_PHI_PAIRS):
            g = tuple(rng.randrange(p) for _ in range(4))
            d = tuple(rng.randrange(p) for _ in range(4))
            g2 = tuple(2 * v for v in g)
            mg, md = _phi_entries(p, a, b, *g), _phi_entries(p, a, b, *d)
            gd = _kernels.mul(g2, tuple(2 * v for v in d))
            ok = (
                _phi_entries(p, a, b, *(v >> 1 for v in gd)) == _mat_mul(p, mg, md)
                and _phi_entries(p, a, b, *(x + y for x, y in zip(g, d)))
                == tuple((x + y) % p for x, y in zip(mg, md))
                and (mg[0] * mg[3] - mg[1] * mg[2]) % p == _kernels.norm(g2) % p
                and (mg[0] + mg[3]) % p == 2 * g[0] % p
                and _phi_inverse(p, a, b, *mg) == g
            )
            yield None if ok else f"phi identity fails p={p} gamma={g} delta={d}"


def verify_phi(p_max: int = 13, seed: int = 0) -> VerifyReport:
    """The splitting _phi_entries satisfies the defining relations of i, j
    and k, and on seeded random pairs it carries the routes' product to the
    matrix product, sum to sum, norm to det and trace to trace, and is
    inverted by _phi_inverse."""
    _bound("p_max", p_max, _P_MAX, "splittings are built")
    _require_int("seed", seed)
    scope = {"p_max": p_max, "seed": seed, "pairs": _PHI_PAIRS}
    return _run("verify_phi", scope, _phi_cases(p_max, seed))


def _order_cases(p_max: int):
    for p in odd_primes_up_to(p_max):
        census = pgl2_order_census(p)
        identity = census.get(1)
        yield None if identity == 1 else f"census p={p}: identity count {identity}"
        table = order_counts(p)
        # element orders in the projective group never exceed p+1
        for k in range(2, p + 2):
            want = table.get(k, 0)
            got = census.get(k, 0)
            yield None if got == want else (
                f"order census p={p} k={k}: census {got}, formula {want}"
            )


def verify_orders(p_max: int = 13) -> VerifyReport:
    """Brute-force element-order census of the projective group matches
    order_counts, the count by maximal cyclic subgroup, for every order k."""
    _bound("p_max", p_max, _CENSUS_MAX_P, "census enumerates the full group")
    return _run("verify_orders", {"p_max": p_max}, _order_cases(p_max))


def _counting_cases(p_max: int):
    for p in odd_primes_up_to(p_max):
        classes = primes_of_norm(p)
        points = conic_points(p)
        yield None if len(classes) == p + 1 == len(points) else (
            f"count mismatch p={p}: {len(classes)} classes, {len(points)} conic points"
        )
        if p <= _BIJECTION_P_MAX:
            mapped = [trace_zero_rep(P) for P in classes]
            ok = sorted(mapped) == list(points) and all(
                conic_to_prime(c) == P for P, c in zip(classes, mapped)
            )
            yield None if ok else f"trace-zero map is not a bijection with inverse at p={p}"


def verify_counting(p_max: int = 13) -> VerifyReport:
    """Class and conic counts are both p+1; the trace-zero map is a bijection
    inverted by the gcrd lift (checked exhaustively up to _BIJECTION_P_MAX)."""
    _bound("p_max", p_max, _PRIMES_MAX_P, "prime classes are enumerated")
    scope = {"p_max": p_max, "bijection_p_max": _BIJECTION_P_MAX}
    return _run("verify_counting", scope, _counting_cases(p_max))


# the verify checks, in CLI order; the parameters of verify_<check> are its flags
CHECKS = ("signs", "fixed", "cycles", "phi", "oracle", "orders", "counting")
