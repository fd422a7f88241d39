#!/usr/bin/env python3
"""The repository benchmark: one command for the oracle, theorems and queries
workloads.

    python3 perfbench/run.py [--workload oracle|theorems|queries|all]
                             [--seed N] [--seconds S] [--trace 0|1]

Run it from the repository root. Each repetition of a workload runs in a
fresh single-threaded interpreter (perfbench/workload.py) that imports
``metacommute`` from ``src/`` with whatever kernel backend it selects.
Repetitions start until ``--seconds`` have passed. Every output is checked;
the command prints each metric by name with its unit and sample count, then
one JSON line, and exits 1 if any correctness gate failed.

With ``--trace 0`` the metrics are the end-to-end ones. With ``--trace 1``
the workload runs once more with the layer wrappers of tracer.py installed,
and the metrics are the per-layer ones plus the tracing overhead. A record
of each run (environment, metrics, samples) goes to perfbench/out/.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
WORKLOADS = ("oracle", "theorems", "queries")
SETUP_PER_REP = 5
DEADLINE_S = 170  # a run of one workload must end within 180 s

IMPORT_SNIPPET = """\
import sys, time
sys.path.insert(0, "src")
t0 = time.perf_counter()
import metacommute
print(time.perf_counter() - t0)
"""

# what one latency sample is on each workload
REQUEST = {
    "oracle": "one `verify oracle` call",
    "theorems": "one verify_signs/fixed/cycles sweep",
    "queries": "one query",
}


class BenchError(Exception):
    """A child process failed to produce a result."""


def _child(cmd, deadline):
    env = dict(os.environ, PYTHONHASHSEED="0")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{' '.join(cmd[1:3])} did not finish before the deadline") from None
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"{' '.join(cmd[1:])} exited {proc.returncode}:\n{proc.stderr.strip()}")
    return proc.stdout.strip().splitlines()[-1]


def import_seconds(deadline):
    """Time for one fresh interpreter to import metacommute."""
    return float(_child([sys.executable, "-c", IMPORT_SNIPPET], deadline))


def run_rep(workload, seed, scope, deadline, trace_file=None):
    cmd = [sys.executable, os.path.join(HERE, "workload.py"), "--workload", workload,
           "--seed", str(seed), "--scope", scope]
    if trace_file:
        cmd += ["--trace", trace_file]
    return json.loads(_child(cmd, deadline))


def git_rev():
    """The checked-out commit, read from .git without running git; None
    outside a git checkout."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(ROOT, ".git", ref)) as fh:
                return fh.read().strip()
        except FileNotFoundError:
            with open(os.path.join(ROOT, ".git", "packed-refs")) as fh:
                for line in fh:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return None


def percentile(sorted_values, q):
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def run_workload(workload, args, deadline):
    """Run, check and report one workload; returns True when every gate held."""
    os.makedirs(OUT, exist_ok=True)
    setup = []
    if not args.trace:
        import_seconds(deadline)  # the first import may compile bytecode; not counted
    reps = []
    start = time.monotonic()
    while not reps or time.monotonic() - start < args.seconds:
        # set-up samples are spread over the run, like the repetitions
        if not args.trace:
            setup += [import_seconds(deadline) for _ in range(SETUP_PER_REP)]
        reps.append(run_rep(workload, args.seed, args.scope, deadline))
    traced = None
    if args.trace:
        trace_file = os.path.join(OUT, f"trace-{workload}-seed{args.seed}.json")
        traced = run_rep(workload, args.seed, args.scope, deadline, trace_file)

    runs = reps + ([traced] if traced else [])
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    gates = [g for r in runs for g in r["gates"]]
    correct = not gates and failed == 0
    first = reps[0]
    env = {
        "workload": workload,
        "seed": args.seed,
        "scope": first["scope"],
        "cases_per_run": first["attempted"],
        "queries_per_run": first["queries"],
        "backend": first["backend"],
        "python": first["python"],
        "nproc": os.cpu_count(),
        "git_rev": git_rev(),
        "seconds": args.seconds,
        "trace": args.trace,
    }
    print("env: " + json.dumps(env, sort_keys=True))

    latencies = sorted(x for r in reps for x in r["latencies_s"])
    n = len(latencies)
    beyond = n - math.ceil(0.99 * n)
    metrics = {}
    notes = {}
    if not args.trace:
        metrics = {
            "cases_per_s": (statistics.median(r["attempted"] / r["wall_s"] for r in reps), "1/s"),
            "query_p50_ms": (1e3 * percentile(latencies, 0.50), "ms"),
            "query_p99_ms": (1e3 * percentile(latencies, 0.99), "ms"),
            "setup_s": (statistics.median(setup), "s"),
            "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in reps), "MB"),
        }
        notes = {
            "cases_per_s": f"median of {len(reps)} runs, {first['attempted']} cases each",
            "query_p50_ms": f"n={n}, a sample is {REQUEST[workload]}",
            "query_p99_ms": f"n={n}, {beyond} samples beyond"
                            + (" (fewer than 10)" if beyond < 10 else ""),
            "setup_s": f"median of {len(setup)} fresh interpreters, {SETUP_PER_REP} before each run",
            "peak_rss_mb": f"median of {len(reps)} runs",
        }
    else:
        untraced = statistics.median(r["wall_s"] for r in reps)
        metrics = {k: (v["value"], v["unit"]) for k, v in traced["layers"].items()}
        metrics["trace.untraced_wall_s"] = (untraced, "s")
        metrics["trace.overhead_s"] = (traced["wall_s"] - untraced, "s")
        accounted = sum(v for k, (v, _) in metrics.items()
                        if k.count(".") == 1 and k.endswith(".self_s")) + metrics["cli.main.self_s"][0]
        notes["trace.wall_s"] = f"layer and bench self times account for {accounted:.6f} s"
        notes["trace.untraced_wall_s"] = f"median of {len(reps)} untraced runs"
    for name, (value, unit) in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name:<42} {value:>16.6f} {unit}{note}")
    print(f"{'fail_ratio':<42} {failed / attempted:>16.6f} failed/attempted"
          f"  ({failed} of {attempted} cases over {len(runs)} runs)")
    for g in gates[:10]:
        print(f"GATE FAILED: {g}")

    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    with open(os.path.join(OUT, f"{workload}-seed{args.seed}-trace{args.trace}.json"), "w") as fh:
        json.dump({"env": env, "result": result, "gates": gates, "notes": notes,
                   "runs": [{k: v for k, v in r.items() if k not in ("latencies_s", "layers")}
                            for r in runs]}, fh, indent=1)
    print(json.dumps(result))
    return correct


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scope", choices=("full", "tiny"), default="full",
                        help="tiny is a seconds-long smoke scope for the benchmark's tests")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "metacommute", "__init__.py")):
        print(f"perfbench: no package at {os.path.join(ROOT, 'src', 'metacommute')}; "
              "run from a full checkout", file=sys.stderr)
        return 2
    ok = True
    for workload in (WORKLOADS if args.workload == "all" else (args.workload,)):
        try:
            ok &= run_workload(workload, args, time.monotonic() + DEADLINE_S)
        except BenchError as exc:
            print(f"perfbench: {workload}: {exc}", file=sys.stderr)
            return 1
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
