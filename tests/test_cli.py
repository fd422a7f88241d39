"""CLI surface: parsing, schemas, exit codes and output determinism."""
import json
import os
import re
import subprocess
import sys

import pytest

from metacommute import cli
from metacommute import verify as verify_mod
from metacommute.cli import _P_MAX, main, parse_quat
from metacommute.errors import (
    InternalInvariantViolation,
    MetacommuteError,
    ParityError,
    ParseError,
)
from metacommute.quatcore import _PRIMES_MAX_P, OMEGA, ONE, _is_rational_prime


# -------------------------------------------------------------------- parsing

def test_parse_quat_one():
    assert parse_quat("[2,0,0,0]") == ONE


def test_parse_quat_omega():
    assert parse_quat("[1, 1, 1, 1]") == OMEGA


def test_parse_quat_parity_violation():
    with pytest.raises(ParityError) as err:
        parse_quat("[1,0,0,0]")
    assert "parity" in str(err.value).lower() or "mod 2" in str(err.value)


# more digits than Python converts from a string by default (4300)
HUGE_LITERAL = "[1" + "0" * 5000 + ",0,0,0]"


@pytest.mark.parametrize("bad", ["", "1,2,3,4", "[1,2,3]", "[1,2,3,4,5]",
                                 '["a",2,3,4]', "[1.5,2,3,4]", "[true,1,1,1]",
                                 pytest.param(HUGE_LITERAL, id="5001-digit")])
def test_parse_quat_rejects_garbage(bad):
    with pytest.raises((ParseError, ParityError)):
        parse_quat(bad)


# ----------------------------------------------------------------- exit codes

def run_cli(*argv, capsys=None):
    return main(list(argv))


def test_permute_ok(capsys):
    assert main(["permute", "--p", "3", "--Q", "[2,2,0,0]", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["sign"] == -1
    assert payload["fixed"] == 0
    assert payload["cycle_lengths"] == [4]
    assert payload["pass"] is True
    assert sorted(payload["images"]) == [0, 1, 2, 3]
    assert payload["cycles"].count("(") == 1
    # acting matrix serializes as a row-major 4-tuple over F_p
    assert len(payload["matrix"]) == 4
    assert all(0 <= v < 3 for v in payload["matrix"])


def test_permute_requires_odd_prime_p():
    with pytest.raises(SystemExit) as exc:
        main(["permute", "--p", "4", "--Q", "[2,0,0,0]"])
    assert exc.value.code == 2


def test_permute_parity_error_is_usage_error(capsys):
    assert main(["permute", "--p", "3", "--Q", "[1,0,0,0]"]) == 2
    assert "error" in capsys.readouterr().err


def test_permute_coprimality_is_usage_error(capsys):
    assert main(["permute", "--p", "3", "--Q", "[0,6,0,0]"]) == 2


def test_predict_composite_norm_prints_the_prediction(capsys):
    # N(Q) = 4 is coprime to p = 3, which is all the predictions need
    assert main(["predict", "--p", "3", "--Q", "[2,2,2,2]"]) == 0
    assert capsys.readouterr().out.endswith(": sign=1 fixed=1\n")


@pytest.mark.parametrize("command", ["permute", "predict"])
@pytest.mark.parametrize("literal", ["[40000,0,0,0]", "[0,0,0,-16386]"])
def test_out_of_range_literal_is_usage_error(capsys, command, literal):
    assert main([command, "--p", "3", "--Q", literal]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:")
    assert "supported range" in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""


def test_huge_literal_is_usage_error(capsys):
    assert main(["permute", "--p", "13", "--Q", HUGE_LITERAL]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:")
    # the error echoes the start of the literal, not all of it
    assert len(captured.err) < 300
    assert "Traceback" not in captured.err
    assert captured.out == ""


def test_parse_quat_accepts_the_range_limit():
    assert parse_quat("[16384,0,0,0]").coeffs == (16384, 0, 0, 0)


def test_primes_schema(capsys):
    assert main(["primes", "--p", "5", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload) == 6
    assert all(set(entry) == {"class_rep", "p"} for entry in payload)
    assert all(entry["p"] == 5 and len(entry["class_rep"]) == 4 for entry in payload)


def test_conic_schema(capsys):
    assert main(["conic", "--p", "13", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload) == 14
    assert all(len(s.split(":")) == 3 for s in payload)


# --------------------------------------------------------------- exact output

# JSON is pinned as the exact text json.dumps gives with indent=2 and sorted keys
EXACT_OUTPUT = {
    "primes": (
        ["primes", "--p", "3"],
        "p=3: 4 left-associate classes of norm-3 primes\n"
        "  [-3, -1, -1, -1]  ((-3-i-j-k)/2)\n"
        "  [-3, -1, -1, 1]  ((-3-i-j+k)/2)\n"
        "  [-3, -1, 1, -1]  ((-3-i+j-k)/2)\n"
        "  [-3, -1, 1, 1]  ((-3-i+j+k)/2)\n",
        [{"class_rep": [-3, -1, -1, -1], "p": 3}, {"class_rep": [-3, -1, -1, 1], "p": 3},
         {"class_rep": [-3, -1, 1, -1], "p": 3}, {"class_rep": [-3, -1, 1, 1], "p": 3}],
    ),
    "conic": (
        ["conic", "--p", "3"],
        "p=3: 4 points on x^2+y^2+z^2=0 in P^2(F_3)\n"
        "  1:1:1\n  1:1:2\n  1:2:1\n  1:2:2\n",
        ["1:1:1", "1:1:2", "1:2:1", "1:2:2"],
    ),
    "permute": (
        ["permute", "--p", "3", "--Q", "[2,2,0,0]"],
        "p=3 q=2 Q=[2, 2, 0, 0] central=no\n"
        "ground:  1:1:1  1:1:2  1:2:1  1:2:2\n"
        "images:  [1, 3, 0, 2]\n"
        "cycles:  (0 1 3 2)\n"
        "sign=-1 fixed=0 cycle_lengths=[4]  (predicted sign=-1 fixed=0; match)\n",
        {"Q": [2, 2, 0, 0], "central": False, "cycle_lengths": [4], "cycles": "(0 1 3 2)",
         "fixed": 0, "ground": ["1:1:1", "1:1:2", "1:2:1", "1:2:2"], "images": [1, 3, 0, 2],
         "matrix": [2, 2, 2, 0], "p": 3, "pass": True, "predicted_fixed": 0,
         "predicted_sign": -1, "q": 2, "sign": -1, "uniform_length": True},
    ),
    "predict": (
        ["predict", "--p", "5", "--Q", "[2,2,0,0]"],
        "p=5 q=2 Q=[2, 2, 0, 0] central=no: sign=-1 fixed=2\n",
        {"Q": [2, 2, 0, 0], "central": False, "p": 5, "predicted_fixed": 2,
         "predicted_sign": -1, "q": 2},
    ),
    "orders": (
        ["orders", "--p", "5"],
        "p=5: element orders in the projective group (order 120)\n"
        "  order   1: 1\n"
        "  order   2: 25\n"
        "  order   3: 20\n"
        "  order   4: 30\n"
        "  order   5: 24\n"
        "  order   6: 20\n"
        "  total: 120\n",
        {"counts": {"1": 1, "2": 25, "3": 20, "4": 30, "5": 24, "6": 20},
         "group_order": 120, "p": 5, "total": 120},
    ),
}


@pytest.mark.parametrize("command", EXACT_OUTPUT)
def test_text_output_is_exact(capsys, command):
    argv, text, _ = EXACT_OUTPUT[command]
    assert main(argv) == 0
    assert capsys.readouterr().out == text


@pytest.mark.parametrize("command", EXACT_OUTPUT)
def test_json_output_is_exact(capsys, command):
    argv, _, payload = EXACT_OUTPUT[command]
    assert main(argv + ["--format", "json"]) == 0
    assert capsys.readouterr().out == json.dumps(payload, indent=2, sort_keys=True) + "\n"


_FAILURES = [
    "order census p=3 k=2: census 9, formula 10",
    "order census p=3 k=3: census 8, formula 9",
    "order census p=3 k=4: census 6, formula 7",
]


def test_a_failing_verify_prints_each_failure(capsys, monkeypatch):
    order_counts = verify_mod.order_counts
    monkeypatch.setattr(verify_mod, "order_counts",
                        lambda p: {k: n + 1 for k, n in order_counts(p).items()})
    assert main(["verify", "orders", "--p-max", "3"]) == 1
    out = re.sub(r", \d+\.\d\ds\)$", ", X.XXs)", capsys.readouterr().out, flags=re.M)
    assert out == "verify orders: FAIL  (4 cases, 3 failed, X.XXs)\n" + "".join(
        f"  {line}\n" for line in _FAILURES
    )
    assert main(["verify", "orders", "--p-max", "3", "--format", "json"]) == 1
    payload = {"cases_failed": 3, "cases_run": 4, "check": "orders",
               "first_failures": _FAILURES, "passed": False, "scope": {"p_max": 3}}
    assert capsys.readouterr().out == json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


@pytest.mark.parametrize("error", sorted(set(_subclasses(MetacommuteError)),
                                         key=lambda cls: cls.__name__),
                         ids=lambda cls: cls.__name__)
def test_only_an_internal_defect_exits_1(capsys, monkeypatch, error):
    def raise_it(p):
        raise error("injected")

    monkeypatch.setattr(cli, "primes_of_norm", raise_it)
    code = main(["primes", "--p", "3"])
    captured = capsys.readouterr()
    assert captured.out == ""
    if error is InternalInvariantViolation:
        assert (code, captured.err) == (1, "internal error: injected\n")
    else:
        assert (code, captured.err) == (2, "error: injected\n")


def test_orders_totals(capsys):
    assert main(["orders", "--p", "11", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["total"] == payload["group_order"] == 11 * 10 * 12


def test_orders_at_the_largest_prime_below_the_bound_is_quick(capsys, deadline):
    # the table is counted by subgroup and proves p prime once
    with deadline(0.3):
        assert main(["orders", "--p", "99991", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["total"] == 99991 * 99990 * 99992


def test_verify_small_sweep_passes(capsys):
    assert main(["verify", "signs", "--p-max", "5", "--q-max", "5",
                 "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["passed"] is True
    assert payload["cases_failed"] == 0
    assert payload["cases_run"] > 0
    assert "elapsed" not in payload  # deterministic output carries no timings


def test_verify_counting(capsys):
    assert main(["verify", "counting", "--p-max", "13"]) == 0


@pytest.mark.parametrize("argv", [
    ["verify", "oracle", "--p-max", "2"],  # no odd prime p
    ["verify", "signs", "--q-max", "1"],  # no prime q
    ["verify", "phi", "--p-max", "2"],
    ["verify", "orders", "--p-max", "2"],
    ["verify", "counting", "--p-max", "2"],
])
def test_verify_empty_scope_is_usage_error(capsys, argv):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert "no case in scope" in captured.err
    assert "PASS" not in captured.out


@pytest.mark.parametrize("argv", [
    ["verify", "counting", "--q-max", "5"],
    ["verify", "signs", "--seed", "1"],
    ["verify", "phi", "--q-max", "5"],
    ["verify", "orders", "--seed", "1"],
])
def test_verify_rejects_a_flag_the_check_does_not_take(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_verify_flag_reaches_its_check(capsys):
    assert main(["verify", "phi", "--p-max", "5", "--seed", "3", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["scope"]["seed"] == 3


@pytest.mark.parametrize("check,scope", [
    ("signs", {"p_max": 13, "q_max": 13}),
    ("fixed", {"p_max": 13, "q_max": 13}),
    ("cycles", {"p_max": 13, "q_max": 13}),
    ("phi", {"p_max": 13, "seed": 0, "pairs": 1000}),
    ("oracle", {"p_max": 13, "q_max": 13, "seed": 0}),
    ("orders", {"p_max": 13}),
    ("counting", {"p_max": 13, "bijection_p_max": 13}),
])
def test_verify_default_scope_is_the_library_default(capsys, monkeypatch, check, scope):
    # only the resolved scope is compared, so the sweep itself is not run
    monkeypatch.setattr(verify_mod, "_run",
                        lambda name, scope, cases: verify_mod.VerifyReport(scope=scope))
    assert main(["verify", check, "--format", "json"]) == 0
    printed = json.loads(capsys.readouterr().out)["scope"]
    assert printed == getattr(verify_mod, "verify_" + check)().scope == scope


def test_verify_orders_beyond_census_limit_is_usage_error(capsys):
    assert main(["verify", "orders", "--p-max", "50"]) == 2
    captured = capsys.readouterr()
    assert "p_max <= 13" in captured.err
    assert captured.out == ""


def test_permute_composite_norm_matches_its_prediction(capsys):
    assert main(["permute", "--p", "3", "--Q", "[2,2,2,2]", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["q"] == 4
    assert payload["predicted_sign"] == payload["sign"] == 1
    assert payload["predicted_fixed"] == payload["fixed"] == 1
    assert payload["pass"] is True
    assert main(["permute", "--p", "3", "--Q", "[2,2,2,2]"]) == 0
    assert "(predicted sign=1 fixed=1; match)" in capsys.readouterr().out


def _next_prime(n):
    n += 1
    while not _is_rational_prime(n):
        n += 1
    return n


@pytest.mark.parametrize("args", [
    ["primes", "--p", "1000000000000000003"],
    ["permute", "--p", "2305843009213693951", "--Q", "[2,2,0,0]"],
    ["conic", "--p", str(_next_prime(_P_MAX))],
    ["primes", "--p", str(_next_prime(_PRIMES_MAX_P))],
    ["verify", "oracle", "--p-max", str(_next_prime(_PRIMES_MAX_P))],
    ["verify", "counting", "--p-max", str(_next_prime(_PRIMES_MAX_P))],
    # more digits than Python converts from a string
    ["primes", "--p", "1" + "0" * 5000],
    ["verify", "signs", "--p-max", str(_next_prime(_P_MAX))],
    ["verify", "phi", "--p-max", str(_next_prime(_P_MAX))],
    ["verify", "oracle", "--q-max", str(_next_prime(_PRIMES_MAX_P))],
    ["verify", "signs", "--q-max", str(_next_prime(_PRIMES_MAX_P))],
    ["verify", "oracle", "--p-max", "1" + "0" * 5000],
    # each flag in range, but the sweep holds over 30 million cases
    ["verify", "oracle", "--p-max", "3", "--q-max", "3000"],
    ["verify", "signs", "--p-max", "99991", "--q-max", "13"],
])
def test_p_above_its_bound_is_a_quick_usage_error(args):
    # a huge p or q, or a sweep of too many cases, must be refused before any
    # per-p or per-q work, which at 10^18 would never end; a cold
    # primes_of_norm near the CLI bound takes about 0.05 s
    result = _run_subprocess(args, timeout=10)
    assert result.returncode == 2
    assert result.stdout == b""
    assert b"Traceback" not in result.stderr
    assert b"error:" in result.stderr
    # the error echoes the start of p, not all of it
    assert len(result.stderr) < 300


def test_a_reader_that_quits_early_gets_no_traceback(deadline):
    # the JSON listing at p = 4999 is far larger than a pipe buffer, so the
    # CLI is still writing when the reader closes its end
    proc = subprocess.Popen(
        [sys.executable, "-m", "metacommute", "primes", "--p", "4999", "--format", "json"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    try:
        with deadline(30):
            assert proc.stdout.readline() == b"[\n"
            proc.stdout.close()
            stderr = proc.stderr.read()
            returncode = proc.wait()
    finally:
        proc.kill()
        proc.stderr.close()
    assert b"Traceback" not in stderr
    assert stderr == b""
    assert returncode == 141


def test_a_reader_gone_before_the_flush_gets_no_traceback():
    # stdout to a pipe is block-buffered, so the short listing at p = 13 is
    # first written when the CLI flushes it, after the reader has gone
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    try:
        result = subprocess.run(
            [sys.executable, "-m", "metacommute", "primes", "--p", "13"],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env=env,
            timeout=30,
        )
    finally:
        os.close(write_end)
    assert result.stderr == b""
    assert result.returncode == 141


# -------------------------------------------------------------- determinism

def _run_subprocess(args, timeout=None):
    return subprocess.run(
        [sys.executable, "-m", "metacommute", *args],
        capture_output=True,
        check=False,
        timeout=timeout,
    )


def test_verify_json_output_is_byte_identical():
    args = ["verify", "oracle", "--p-max", "5", "--q-max", "5",
            "--format", "json", "--seed", "0"]
    first = _run_subprocess(args)
    second = _run_subprocess(args)
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout
    assert first.stdout  # nonempty
