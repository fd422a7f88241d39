"""CLI surface: parsing, schemas, exit codes and output determinism."""
import json
import subprocess
import sys

import pytest

from metacommute.cli import main, parse_quat
from metacommute.errors import ParityError, ParseError
from metacommute.quatcore import OMEGA, ONE


# -------------------------------------------------------------------- parsing

def test_parse_quat_one():
    assert parse_quat("[2,0,0,0]") == ONE


def test_parse_quat_omega():
    assert parse_quat("[1, 1, 1, 1]") == OMEGA


def test_parse_quat_parity_violation():
    with pytest.raises(ParityError) as err:
        parse_quat("[1,0,0,0]")
    assert "parity" in str(err.value).lower() or "mod 2" in str(err.value)


@pytest.mark.parametrize("bad", ["", "1,2,3,4", "[1,2,3]", "[1,2,3,4,5]",
                                 '["a",2,3,4]', "[1.5,2,3,4]", "[true,1,1,1]"])
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


def test_predict_composite_norm_is_usage_error(capsys):
    assert main(["predict", "--p", "3", "--Q", "[2,2,2,2]"]) == 2


@pytest.mark.parametrize("command", ["permute", "predict"])
@pytest.mark.parametrize("literal", ["[40000,0,0,0]", "[0,0,0,-16386]"])
def test_out_of_range_literal_is_usage_error(capsys, command, literal):
    assert main([command, "--p", "3", "--Q", literal]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:")
    assert "supported range" in captured.err
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


def test_orders_totals(capsys):
    assert main(["orders", "--p", "11", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["total"] == payload["group_order"] == 11 * 10 * 12


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


def test_verify_orders_beyond_census_limit_is_usage_error(capsys):
    assert main(["verify", "orders", "--p-max", "50"]) == 2
    captured = capsys.readouterr()
    assert "p_max <= 13" in captured.err
    assert captured.out == ""


def test_permute_composite_norm_reports_null_predictions(capsys):
    assert main(["permute", "--p", "3", "--Q", "[2,2,2,2]", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["q"] == 4
    assert payload["predicted_sign"] is None
    assert payload["pass"] is None


# -------------------------------------------------------------- determinism

def _run_subprocess(args):
    return subprocess.run(
        [sys.executable, "-m", "metacommute", *args],
        capture_output=True,
        check=False,
    )


def test_verify_json_output_is_byte_identical():
    args = ["verify", "oracle", "--p-max", "5", "--q-max", "5",
            "--format", "json", "--seed", "0"]
    first = _run_subprocess(args)
    second = _run_subprocess(args)
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout
    assert first.stdout  # nonempty
