"""Command-line surface.

Quaternions are written as doubled-coordinate 4-tuples "[A,B,C,D]", meaning
(A + Bi + Cj + Dk)/2; the four entries must share parity. JSON output is
byte-stable for identical inputs and --seed. Each cmd_* returns its exit
code, its JSON payload and its text lines; main prints one of the two.

Exit codes: 0 success / everything verified, 1 verification failures or an
internal defect, 2 usage errors, 141 stdout closed early (a reader such as
`head` quit).
"""
from __future__ import annotations

import argparse
import inspect
import json
import os
import sys

from metacommute import verify as verify_mod
from metacommute.errors import (
    InternalInvariantViolation,
    MetacommuteError,
    ParseError,
    UnsupportedPrime,
)
from metacommute.geometry import conic_points
from metacommute.metacomm import (
    MetaQuery,
    analyze,
    cycle_decomposition,
    meta_permutation,
    order_counts,
    predict,
)
from metacommute.modp import _phi_entries, two_square_rep
from metacommute.quatcore import (
    _P_MAX,
    HurwitzInt,
    _require_odd_prime,
    primes_of_norm,
)

# the largest |doubled coordinate| of a --Q literal: it keeps N(Q) <= 2^28,
# so the coprimality gcd, predict's Legendre symbols and the reduction mod p
# work on small ints
_COORD_LIMIT = 1 << 14


# the most characters of an input that an error message echoes
_ECHO_MAX = 40


def _echo(text: str) -> str:
    """text as an error message quotes it: cut to _ECHO_MAX characters and
    "..." when longer, so a huge input gives a short error line."""
    return text if len(text) <= _ECHO_MAX else text[:_ECHO_MAX] + "..."


def parse_quat(text: str) -> HurwitzInt:
    """Parse a doubled-coordinate literal "[A,B,C,D]" into a quaternion."""
    try:
        raw = json.loads(text)
    # JSONDecodeError is a ValueError; so is an int literal above Python's
    # int-string conversion limit
    except ValueError as exc:
        raise ParseError(f"not a quaternion literal {_echo(text)!r}: {exc}") from None
    if (
        not isinstance(raw, list)
        or len(raw) != 4
        or not all(isinstance(v, int) and not isinstance(v, bool) for v in raw)
    ):
        raise ParseError(
            f"quaternion literal must be a list of 4 integers, got {_echo(text)!r}"
        )
    if any(abs(v) > _COORD_LIMIT for v in raw):
        raise ParseError(
            f"quaternion literal {_echo(text)!r} has a doubled coordinate outside "
            f"the supported range +-{_COORD_LIMIT}"
        )
    return HurwitzInt(*raw)


def _cycle_notation(images: tuple[int, ...]) -> str:
    cycles = [c for c in cycle_decomposition(images) if len(c) > 1]
    if not cycles:
        return "()"
    return "".join("(" + " ".join(str(i) for i in c) + ")" for c in cycles)


def _int(value: str) -> int:
    try:
        return int(value)
    except ValueError:
        # argparse's own message for a failed conversion, with the value cut
        raise argparse.ArgumentTypeError(f"invalid int value: {_echo(value)!r}") from None


def _odd_prime(value: str) -> int:
    p = _int(value)
    if p > _P_MAX:
        raise argparse.ArgumentTypeError(
            f"{_echo(str(p))} is above the largest supported p, {_P_MAX}"
        )
    try:
        _require_odd_prime(p)
    except UnsupportedPrime:
        raise argparse.ArgumentTypeError(f"{_echo(str(p))} is not an odd prime") from None
    return p


def cmd_primes(args):
    classes = primes_of_norm(args.p)
    payload = [{"class_rep": list(P.rep.coeffs), "p": P.p} for P in classes]
    lines = [f"p={args.p}: {len(classes)} left-associate classes of norm-{args.p} primes"]
    lines += [f"  {list(P.rep.coeffs)}  ({P.rep})" for P in classes]
    return 0, payload, lines


def cmd_conic(args):
    payload = [str(c) for c in conic_points(args.p)]
    lines = [f"p={args.p}: {len(payload)} points on x^2+y^2+z^2=0 in P^2(F_{args.p})"]
    lines += [f"  {c}" for c in payload]
    return 0, payload, lines


def _query(args):
    """The query that --p and --Q name, with the fields that permute and
    predict both print, and the head of their first text line."""
    query = MetaQuery.create(args.p, parse_quat(args.Q))
    sign, fixed = predict(query)
    fields = {
        "p": query.p,
        "q": query.q,
        "Q": list(query.Q.coeffs),
        "central": query.central,
        "predicted_sign": sign,
        "predicted_fixed": fixed,
    }
    head = (f"p={query.p} q={query.q} Q={fields['Q']} "
            f"central={'yes' if query.central else 'no'}")
    return query, fields, head


def cmd_permute(args):
    query, payload, head = _query(args)
    perm = meta_permutation(query)
    report = analyze(perm)
    p, rep = query.p, two_square_rep(query.p)
    # the doubled coordinates give the matrix of 2Q, halved here to Q's
    matrix = [v * (p + 1) // 2 % p for v in _phi_entries(p, rep.a, rep.b, *query.Q.coeffs)]
    psign, pfixed = payload["predicted_sign"], payload["predicted_fixed"]
    ok = report.sign == psign and report.fixed_count == pfixed
    payload |= {
        "matrix": matrix,  # row-major image of Q mod p
        "ground": [str(c) for c in perm.ground],
        "images": list(perm.images),
        "cycles": _cycle_notation(perm.images),
        "sign": report.sign,
        "fixed": report.fixed_count,
        "cycle_lengths": list(report.cycle_lengths),
        "uniform_length": report.uniform_length,
        "pass": ok,
    }
    lines = [
        head,
        f"ground:  {'  '.join(payload['ground'])}",
        f"images:  {payload['images']}",
        f"cycles:  {payload['cycles']}",
        f"sign={report.sign} fixed={report.fixed_count} "
        f"cycle_lengths={payload['cycle_lengths']}  "
        f"(predicted sign={psign} fixed={pfixed}; {'match' if ok else 'MISMATCH'})",
    ]
    return (0 if ok else 1), payload, lines


def cmd_predict(args):
    _, payload, head = _query(args)
    line = f"{head}: sign={payload['predicted_sign']} fixed={payload['predicted_fixed']}"
    return 0, payload, [line]


def cmd_orders(args):
    p = args.p
    counts = order_counts(p)
    group_order = p * (p - 1) * (p + 1)
    total = sum(counts.values())
    payload = {
        "p": p,
        "group_order": group_order,
        "counts": {str(k): v for k, v in counts.items()},
        "total": total,
    }
    lines = [f"p={p}: element orders in the projective group (order {group_order})"]
    lines += [f"  order {k:3d}: {v}" for k, v in counts.items()]
    lines.append(f"  total: {total}")
    return 0, payload, lines


# each verify check's flags: the parameters of verify_<check>, whose
# signature alone gives their defaults. They are read once, here: a wrapper
# installed on the module later need not keep the signature.
_VERIFY_FLAGS = {
    check: tuple(inspect.signature(getattr(verify_mod, "verify_" + check)).parameters)
    for check in verify_mod.CHECKS
}


def cmd_verify(args):
    # resolved by name on every run, so a wrapper installed on the module applies
    run = getattr(verify_mod, "verify_" + args.check)
    given = {name: getattr(args, name) for name in _VERIFY_FLAGS[args.check]
             if hasattr(args, name)}
    report = run(**given)
    # elapsed is deliberately left out of the payload: JSON output is byte-stable
    payload = {
        "check": args.check,
        "scope": report.scope,
        "cases_run": report.cases_run,
        "cases_failed": report.cases_failed,
        "first_failures": report.first_failures,
        "passed": report.passed,
    }
    status = "PASS" if report.passed else "FAIL"
    lines = [f"verify {args.check}: {status}  "
             f"({report.cases_run} cases, {report.cases_failed} failed, "
             f"{report.elapsed:.2f}s)"]
    lines += [f"  {line}" for line in report.first_failures]
    return (0 if report.passed else 1), payload, lines


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="metacommute",
        description="Hurwitz quaternion arithmetic and the metacommutation "
                    "permutation on norm-p prime classes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(sp):
        sp.add_argument("--format", choices=("text", "json"), default="text")

    commands = (
        ("primes", cmd_primes, "list the prime classes of norm p"),
        ("conic", cmd_conic, "list the conic points mod p"),
        ("permute", cmd_permute, "the permutation induced by Q on norm-p classes"),
        ("predict", cmd_predict, "predicted sign and fixed points (N(Q) coprime to p)"),
        ("orders", cmd_orders, "element-order counts in the projective group"),
    )
    for name, func, text in commands:
        sp = sub.add_parser(name, help=text)
        sp.add_argument("--p", type=_odd_prime, required=True)
        if func in (cmd_permute, cmd_predict):
            sp.add_argument("--Q", required=True, metavar="[A,B,C,D]",
                            help="doubled-coordinate quaternion literal")
        add_format(sp)
        sp.set_defaults(func=func)

    sp = sub.add_parser("verify", help="run an exhaustive verification sweep")
    checks = sp.add_subparsers(dest="check", required=True)
    for check, params in _VERIFY_FLAGS.items():
        csp = checks.add_parser(check)
        for name in params:
            # an absent flag sets no attribute, so verify_<check> applies its default
            csp.add_argument("--" + name.replace("_", "-"), type=_int,
                             default=argparse.SUPPRESS, dest=name)
        add_format(csp)
        csp.set_defaults(func=cmd_verify)

    return parser


# the status a shell reports for a process ended by SIGPIPE (128 + 13)
_EXIT_BROKEN_PIPE = 141


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code, payload, lines = args.func(args)
        if args.format == "json":
            print(json.dumps(payload, indent=2, sort_keys=True))
        else:
            print("\n".join(lines))
        # a reader that quit early shows up here, not at interpreter exit
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the interpreter flushes stdout again at exit; point it at devnull
        # so that flush cannot fail a second time
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return _EXIT_BROKEN_PIPE
    except InternalInvariantViolation as exc:  # the one defect type
        print(f"internal error: {exc}", file=sys.stderr)
        return 1
    except MetacommuteError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
