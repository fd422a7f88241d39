"""One repetition of one workload, in the fresh interpreter that run.py starts.

Usage (from the repository root):

    python3 perfbench/workload.py --workload oracle|theorems|queries \
        --seed N --scope full|tiny [--trace FILE]

It imports ``metacommute`` from ``src/``, runs the workload once, checks every
output, and prints one JSON line: wall time, cases attempted and failed, the
gate failures, per-request latencies, peak RSS and the kernel backend. With
``--trace`` the layer wrappers of tracer.py are installed around the run, the
per-layer metrics are added to the line and the aggregates and spans are
written to FILE.
"""
from __future__ import annotations

import argparse
import bisect
import contextlib
import io
import json
import os
import random
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(1, os.path.dirname(os.path.abspath(__file__)))

import metacommute  # noqa: E402
from metacommute import cli, geometry, metacomm, quatcore, verify  # noqa: E402

from tracer import Tracer  # noqa: E402

# Workload scopes. "full" is what the benchmark measures; "tiny" exists for
# the benchmark's own smoke tests.
SCOPES = {
    "full": {
        "oracle": {"p_max": 13, "q_max": 13},
        "theorems": {"p_max": 19, "q_max": 19},
        "queries": {"p_lo": 100, "p_hi": 500, "primes": 40, "per_p": 25, "q_max": 13},
    },
    "tiny": {
        "oracle": {"p_max": 5, "q_max": 5},
        "theorems": {"p_max": 5, "q_max": 5},
        "queries": {"p_lo": 20, "p_hi": 60, "primes": 4, "per_p": 5, "q_max": 13},
    },
}


# --- closed forms and an independent quaternion product, for the gates ---

def _is_prime(n):
    return n >= 2 and all(n % f for f in range(2, int(n ** 0.5) + 1))


def _primes(lo, hi):
    return [n for n in range(lo, hi + 1) if _is_prime(n)]


def norm_count(q):
    """Hurwitz integers of prime norm q: 24 times the sum of odd divisors."""
    return 24 if q == 2 else 24 * (q + 1)


def sweep_pairs(p_max, q_max):
    """(p, q) over odd primes p <= p_max and primes q <= q_max, q != p."""
    return [(p, q) for p in _primes(3, p_max) for q in _primes(2, q_max) if q != p]


def _mul(x, y):
    """Hamilton product in doubled coordinates: (x/2)(y/2) = z/2."""
    a, b, c, d = x
    e, f, g, h = y
    t = (a * e - b * f - c * g - d * h, a * f + b * e + c * h - d * g,
         a * g - b * h + c * e + d * f, a * h + b * g - c * f + d * e)
    if any(v % 2 for v in t):
        raise ValueError(f"{x} or {y} is not a Hurwitz integer")
    return tuple(v // 2 for v in t)


def _norm(x):
    return sum(v * v for v in x) // 4


def _norm_elements(q):
    """Doubled-coordinate quadruples of norm q, all entries of one parity."""
    lim = 2 * int(q ** 0.5) + 1
    rng = range(-lim, lim + 1)
    return [(a, b, c, d) for a in rng for b in rng for c in rng for d in rng
            if a * a + b * b + c * c + d * d == 4 * q
            and (a - b) % 2 == 0 and (a - c) % 2 == 0 and (a - d) % 2 == 0]


# --- the workloads -------------------------------------------------------
# Each returns (attempted, failed, gate failures, request latencies, queries),
# where queries counts the (p, Q) pairs the workload poses.
# ``timed`` opens and closes the measured section; correctness is checked
# after it closes, so the checks cost nothing in the timings or the trace.

def expected_oracle_stdout(scope):
    cases = sum((p + 1) * norm_count(q) for p, q in sweep_pairs(scope["p_max"], scope["q_max"]))
    payload = {
        "check": "oracle",
        "scope": {"p_max": scope["p_max"], "q_max": scope["q_max"], "seed": 0},
        "cases_run": cases,
        "cases_failed": 0,
        "first_failures": [],
        "passed": True,
    }
    return cases, json.dumps(payload, indent=2, sort_keys=True) + "\n"


def run_oracle(scope, seed, timed, tracer):
    argv = ["verify", "oracle", "--format", "json"]
    if scope != SCOPES["full"]["oracle"]:
        argv += ["--p-max", str(scope["p_max"]), "--q-max", str(scope["q_max"])]
    out = io.StringIO()
    with timed() as lat, contextlib.redirect_stdout(out):
        t0 = time.perf_counter()
        try:
            code = cli.main(argv)
        except Exception as exc:  # a sweep that raises fails all its cases
            code = repr(exc)
        lat.append(time.perf_counter() - t0)

    cases, want = expected_oracle_stdout(scope)
    got = out.getvalue()
    gates = []
    if code != 0:
        gates.append(f"verify oracle ended with {code}")
    if got != want:
        gates.append("verify oracle JSON differs from the expected payload")
    try:
        failed = json.loads(got)["cases_failed"]
    except (ValueError, KeyError, TypeError):
        failed = cases
    if gates and not failed:
        failed = cases
    queries = sum(norm_count(q) for _, q in sweep_pairs(scope["p_max"], scope["q_max"]))
    return cases, failed, gates, lat, queries


def run_theorems(scope, seed, timed, tracer):
    # the module attributes are read inside ``timed`` so traced wrappers apply
    names = ("verify_signs", "verify_fixed", "verify_cycles")
    reports = []
    with timed() as lat:
        for name in names:
            t0 = time.perf_counter()
            try:
                reports.append(getattr(verify, name)(scope["p_max"], scope["q_max"]))
            except Exception as exc:  # a sweep that raises fails all its cases
                reports.append(exc)
            lat.append(time.perf_counter() - t0)

    want = sum(norm_count(q) for _, q in sweep_pairs(scope["p_max"], scope["q_max"]))
    gates = []
    attempted = failed = 0
    for name, report in zip(names, reports):
        attempted += want
        if isinstance(report, Exception):
            gates.append(f"{name} raised {report!r}")
            failed += want
            continue
        failed += report.cases_failed
        if not report.passed:
            gates.append(f"{name} failed {report.cases_failed} cases: {report.first_failures[:1]}")
        if report.cases_run != want:
            gates.append(f"{name} ran {report.cases_run} cases, expected {want}")
            failed += abs(want - report.cases_run)
    return attempted, min(failed, attempted), gates, lat, 3 * want


def make_queries(scope, seed):
    """Seeded (p, Q, class index) triples, grouped by p.

    The p values are stratified: the primes in [p_lo, p_hi) are cut into
    ``primes`` consecutive strata and one is drawn from each, so every seed
    covers the whole range and the slow, cold first query at each p sits at
    a similar set of sizes.
    """
    rng = random.Random(seed)
    pool = _primes(scope["p_lo"], scope["p_hi"] - 1)
    k = scope["primes"]
    strata = [pool[i * len(pool) // k:(i + 1) * len(pool) // k] for i in range(k)]
    ps = [rng.choice(s) for s in strata]
    rng.shuffle(ps)
    qs = _primes(2, scope["q_max"])
    elements = {q: _norm_elements(q) for q in qs}
    queries = []
    for p in ps:
        for _ in range(scope["per_p"]):
            q = rng.choice(qs)
            queries.append((p, rng.choice(elements[q]), rng.randrange(p + 1)))
    return queries


def run_queries(scope, seed, timed, tracer):
    inputs = [(p, quatcore.HurwitzInt(*Q), i) for p, Q, i in make_queries(scope, seed)]
    results = []
    clock = time.perf_counter
    with timed() as lat:
        for n, (p, Q, i) in enumerate(inputs):
            if tracer:
                tracer.query = n
            t0 = clock()
            try:
                P = quatcore.primes_of_norm(p)[i]
                query = metacomm.MetaQuery.create(p, Q)
                perm = metacomm.meta_permutation(query)
                report = metacomm.analyze(perm)
                prediction = metacomm.predict(query)
                p_div = metacomm.meta_divide(P, Q)
                p_conj = metacomm.meta_conj(P, Q)
                pos = bisect.bisect_left(perm.ground, geometry.trace_zero_rep(P))
                p_perm = geometry.conic_to_prime(perm.ground[perm.images[pos]])
            except Exception as exc:  # a query that raises is a failed case
                results.append((p, Q, exc))
                continue
            finally:
                t1 = clock()
                lat.append(t1 - t0)
                if tracer:
                    tracer.record("bench.query", t0, t1)
            results.append((p, Q, (P, query.q, report, prediction, p_div, p_conj, p_perm)))

    gates = []
    failed = 0
    for n, (p, Q, outcome) in enumerate(results):
        problems = check_query(p, Q, outcome)
        if problems:
            failed += 1
            if len(gates) < 10:
                gates.append(f"query {n} p={p} Q={list(Q.coeffs)}: " + "; ".join(problems))
    return len(results), failed, gates, lat, len(results)


def check_query(p, Q, outcome):
    """What is wrong with one query's outputs; empty when all three gates hold."""
    if isinstance(outcome, Exception):
        return [f"raised {outcome!r}"]
    P, q, report, prediction, p_div, p_conj, p_perm = outcome
    problems = []
    if not (p_div == p_conj == p_perm):
        problems.append(f"routes disagree for P={list(P.rep.coeffs)}")
    rep = p_div.rep.coeffs
    try:
        # Q' = P Q conj(P') / p must be integral, of norm q, with Q' P' = P Q
        pq = _mul(P.rep.coeffs, Q.coeffs)
        num = _mul(pq, (rep[0], -rep[1], -rep[2], -rep[3]))
        if _norm(rep) != p or any(v % p for v in num):
            problems.append("Q' = P Q conj(P') / p is not integral")
        else:
            qprime = tuple(v // p for v in num)
            if _norm(qprime) != q or _mul(qprime, rep) != pq:
                problems.append("P Q != Q' P'")
    except ValueError as exc:
        problems.append(str(exc))
    if (report.sign, report.fixed_count) != prediction:
        problems.append(f"analyze gives {(report.sign, report.fixed_count)}, "
                        f"predict gives {prediction}")
    return problems


WORKLOADS = {"oracle": run_oracle, "theorems": run_theorems, "queries": run_queries}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scope", choices=sorted(SCOPES), default="full")
    parser.add_argument("--trace", metavar="FILE")
    args = parser.parse_args(argv)

    src = os.path.join(ROOT, "src", "metacommute")
    if os.path.dirname(os.path.abspath(metacommute.__file__)) != src:
        sys.exit(f"metacommute was imported from {metacommute.__file__}, not {src}")
    scope = SCOPES[args.scope][args.workload]
    tracer = Tracer() if args.trace else None
    wall = []

    @contextlib.contextmanager
    def timed():
        lat = []
        if tracer:
            tracer.install()
            tracer.start()
        t0 = time.perf_counter()
        try:
            yield lat
        finally:
            wall.append(time.perf_counter() - t0)
            if tracer:
                tracer.stop()
                tracer.uninstall()

    attempted, failed, gates, latencies, queries = WORKLOADS[args.workload](
        scope, args.seed, timed, tracer)
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "scope": scope,
        "backend": metacommute.kernel_backend(),
        "python": sys.version.split()[0],
        "wall_s": wall[0],
        "attempted": attempted,
        "failed": failed,
        "gates": gates,
        "latencies_s": latencies,
        "queries": queries,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer:
        layers = tracer.layer_metrics(queries)
        result["layers"] = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
        with open(args.trace, "w") as fh:
            json.dump({"result": {k: v for k, v in result.items() if k != "latencies_s"},
                       **tracer.dump()}, fh)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
