"""The benchmark's own tests: tiny-scope smoke runs and an injected fault.

    python -m pytest perfbench/test_perfbench.py -q
"""
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)

WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(*args, root=ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--scope", "tiny", "--seconds", "0", *args],
        cwd=root, capture_output=True, text=True, timeout=170,
    )
    last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
    return proc, last


def expected(kind):
    return {m["name"]: m["unit"] for m in SPEC[kind]}


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_prints_every_metric_with_its_unit(workload, trace):
    proc, last = run_bench("--workload", workload, "--seed", "3", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(last)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    want = expected("per_layer" if trace else "end_to_end")
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    for name, unit in want.items():
        assert f"{name} " in proc.stdout and f" {unit}" in proc.stdout
    assert "fail_ratio" in proc.stdout and "env: " in proc.stdout
    if trace:
        m = {k: v["value"] for k, v in result["metrics"].items()}
        layers = sum(v for k, v in m.items() if k.count(".") == 1 and k.endswith(".self_s"))
        assert layers + m["cli.main.self_s"] == pytest.approx(m["trace.wall_s"], rel=1e-6)
    else:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_sweep_case_counts_follow_the_closed_form():
    sys.path.insert(0, HERE)
    import workload

    oracle = workload.SCOPES["full"]["oracle"]
    assert workload.expected_oracle_stdout(oracle)[0] == 36576
    theorems = workload.SCOPES["full"]["theorems"]
    pairs = workload.sweep_pairs(theorems["p_max"], theorems["q_max"])
    assert sum(workload.norm_count(q) for _, q in pairs) == 11976


FAULT = '''
_correct_meta_conj = meta_conj


def meta_conj(P, Q):
    """Injected fault: a wrong partner class."""
    from metacommute.quatcore import primes_of_norm

    right = _correct_meta_conj(P, Q)
    return next(c for c in primes_of_norm(P.p) if c != right)
'''


@pytest.fixture
def faulty_checkout(tmp_path):
    shutil.copytree(os.path.join(ROOT, "src"), tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    with open(tmp_path / "src" / "metacommute" / "metacomm.py", "a") as fh:
        fh.write(FAULT)
    return tmp_path


@pytest.mark.parametrize("workload", ["oracle", "queries"])
def test_wrong_meta_conj_raises_fail_ratio_and_exits_nonzero(faulty_checkout, workload):
    proc, last = run_bench("--workload", workload, root=faulty_checkout)
    assert proc.returncode != 0
    result = json.loads(last)
    assert result["correct"] is False
    assert result["failed"] > 0
    ratio = [line for line in proc.stdout.splitlines() if line.startswith("fail_ratio")]
    assert ratio and float(ratio[0].split()[1]) > 0
    assert "GATE FAILED" in proc.stdout


def test_without_the_package_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "oracle", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
