"""Command-line surface.

Quaternions are written as doubled-coordinate 4-tuples "[A,B,C,D]", meaning
(A + Bi + Cj + Dk)/2; the four entries must share parity. JSON output is
byte-stable for identical inputs and --seed.

Exit codes: 0 success / everything verified, 1 verification failures,
2 usage errors.
"""
from __future__ import annotations

import argparse
import json
import sys

from metacommute import verify as verify_mod
from metacommute._kernels import COORD_LIMIT
from metacommute.errors import (
    CoprimalityError,
    MetacommuteError,
    NonPrimeNorm,
    ParityError,
    ParseError,
    ScaleLimit,
    UnsupportedPrime,
)
from metacommute.geometry import conic_points
from metacommute.metacomm import (
    MetaQuery,
    analyze,
    cycle_decomposition,
    meta_permutation,
    order_count,
    predict,
)
from metacommute.modp import phi, reduce_mod, two_square_rep
from metacommute.quatcore import (
    HurwitzInt,
    _is_rational_prime,
    _require_odd_prime,
    primes_of_norm,
)


def parse_quat(text: str) -> HurwitzInt:
    """Parse a doubled-coordinate literal "[A,B,C,D]" into a quaternion."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"not a quaternion literal {text!r}: {exc}") from None
    if (
        not isinstance(raw, list)
        or len(raw) != 4
        or not all(isinstance(v, int) and not isinstance(v, bool) for v in raw)
    ):
        raise ParseError(
            f"quaternion literal must be a list of 4 integers, got {text!r}"
        )
    if any(abs(v) > COORD_LIMIT for v in raw):
        raise ParseError(
            f"quaternion literal {text!r} has a doubled coordinate outside "
            f"the supported range +-{COORD_LIMIT}"
        )
    return HurwitzInt(*raw)


def _emit_json(payload) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True))


def _cycle_notation(images: tuple[int, ...]) -> str:
    cycles = [c for c in cycle_decomposition(images) if len(c) > 1]
    if not cycles:
        return "()"
    return "".join("(" + " ".join(str(i) for i in c) + ")" for c in cycles)


def _odd_prime(value: str) -> int:
    p = int(value)
    try:
        _require_odd_prime(p)
    except UnsupportedPrime:
        raise argparse.ArgumentTypeError(f"{p} is not an odd prime") from None
    return p


def cmd_primes(args) -> int:
    classes = primes_of_norm(args.p)
    if args.format == "json":
        _emit_json([{"class_rep": list(P.rep.coeffs), "p": P.p} for P in classes])
    else:
        print(f"p={args.p}: {len(classes)} left-associate classes of norm-{args.p} primes")
        for P in classes:
            print(f"  {list(P.rep.coeffs)}  ({P.rep})")
    return 0


def cmd_conic(args) -> int:
    points = conic_points(args.p)
    if args.format == "json":
        _emit_json([str(c) for c in points])
    else:
        print(f"p={args.p}: {len(points)} points on x^2+y^2+z^2=0 in P^2(F_{args.p})")
        for c in points:
            print(f"  {c}")
    return 0


def _permute_payload(args) -> dict:
    query = MetaQuery.create(args.p, parse_quat(args.Q))
    perm = meta_permutation(query)
    report = analyze(perm)
    acting = phi(reduce_mod(query.Q, query.p), two_square_rep(query.p))
    payload = {
        "p": query.p,
        "q": query.q,
        "Q": list(query.Q.coeffs),
        "central": query.central,
        "matrix": list(acting.entries),  # row-major image of Q mod p
        "ground": [str(c) for c in perm.ground],
        "images": list(perm.images),
        "cycles": _cycle_notation(perm.images),
        "sign": report.sign,
        "fixed": report.fixed_count,
        "cycle_lengths": list(report.cycle_lengths),
        "uniform_length": report.uniform_length,
    }
    if _is_rational_prime(query.q):
        psign, pfixed = predict(query)
        payload["predicted_sign"] = psign
        payload["predicted_fixed"] = pfixed
        payload["pass"] = report.sign == psign and report.fixed_count == pfixed
    else:
        payload["predicted_sign"] = None
        payload["predicted_fixed"] = None
        payload["pass"] = None
    return payload


def cmd_permute(args) -> int:
    payload = _permute_payload(args)
    if args.format == "json":
        _emit_json(payload)
    else:
        print(f"p={payload['p']} q={payload['q']} Q={payload['Q']} "
              f"central={'yes' if payload['central'] else 'no'}")
        print(f"ground:  {'  '.join(payload['ground'])}")
        print(f"images:  {payload['images']}")
        print(f"cycles:  {payload['cycles']}")
        line = (f"sign={payload['sign']} fixed={payload['fixed']} "
                f"cycle_lengths={payload['cycle_lengths']}")
        if payload["pass"] is not None:
            line += (f"  (predicted sign={payload['predicted_sign']} "
                     f"fixed={payload['predicted_fixed']}; "
                     f"{'match' if payload['pass'] else 'MISMATCH'})")
        print(line)
    return 0 if payload["pass"] in (True, None) else 1


def cmd_predict(args) -> int:
    query = MetaQuery.create(args.p, parse_quat(args.Q))
    sign, fixed = predict(query)
    payload = {
        "p": query.p,
        "q": query.q,
        "Q": list(query.Q.coeffs),
        "central": query.central,
        "predicted_sign": sign,
        "predicted_fixed": fixed,
    }
    if args.format == "json":
        _emit_json(payload)
    else:
        print(f"p={query.p} q={query.q} Q={payload['Q']} "
              f"central={'yes' if query.central else 'no'}: "
              f"sign={sign} fixed={fixed}")
    return 0


def cmd_orders(args) -> int:
    p = args.p
    counts = {1: 1}
    for k in range(2, p + 2):
        n = order_count(k, p)
        if n:
            counts[k] = n
    group_order = p * (p - 1) * (p + 1)
    payload = {
        "p": p,
        "group_order": group_order,
        "counts": {str(k): v for k, v in counts.items()},
        "total": sum(counts.values()),
    }
    if args.format == "json":
        _emit_json(payload)
    else:
        print(f"p={p}: element orders in the projective group "
              f"(order {group_order})")
        for k, v in counts.items():
            print(f"  order {k:3d}: {v}")
        print(f"  total: {payload['total']}")
    return 0


# the parameters each verify check takes; each one is a --flag of the check
_VERIFY_PARAMS = {
    "signs": ("p_max", "q_max"),
    "fixed": ("p_max", "q_max"),
    "cycles": ("p_max", "q_max"),
    "phi": ("p_max", "seed"),
    "oracle": ("p_max", "q_max", "seed"),
    "orders": ("p_max",),
    "counting": ("p_max",),
}
_VERIFY_DEFAULTS = {"p_max": 13, "q_max": 13, "seed": 0}


def cmd_verify(args) -> int:
    # resolved by name on every run, so a wrapper installed on the module applies
    run = getattr(verify_mod, "verify_" + args.check)
    report = run(**{name: getattr(args, name) for name in _VERIFY_PARAMS[args.check]})
    payload = {
        "check": args.check,
        "scope": report.scope,
        "cases_run": report.cases_run,
        "cases_failed": report.cases_failed,
        "first_failures": report.first_failures,
        "passed": report.passed,
    }
    if args.format == "json":
        # elapsed is deliberately left out: JSON output is byte-stable
        _emit_json(payload)
    else:
        status = "PASS" if report.passed else "FAIL"
        print(f"verify {args.check}: {status}  "
              f"({report.cases_run} cases, {report.cases_failed} failed, "
              f"{report.elapsed:.2f}s)")
        for line in report.first_failures:
            print(f"  {line}")
    return 0 if report.passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="metacommute",
        description="Hurwitz quaternion arithmetic and the metacommutation "
                    "permutation on norm-p prime classes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(sp):
        sp.add_argument("--format", choices=("text", "json"), default="text")

    sp = sub.add_parser("primes", help="list the prime classes of norm p")
    sp.add_argument("--p", type=_odd_prime, required=True)
    add_format(sp)
    sp.set_defaults(func=cmd_primes)

    sp = sub.add_parser("conic", help="list the conic points mod p")
    sp.add_argument("--p", type=_odd_prime, required=True)
    add_format(sp)
    sp.set_defaults(func=cmd_conic)

    sp = sub.add_parser("permute", help="the permutation induced by Q on norm-p classes")
    sp.add_argument("--p", type=_odd_prime, required=True)
    sp.add_argument("--Q", required=True, metavar="[A,B,C,D]",
                    help="doubled-coordinate quaternion literal")
    add_format(sp)
    sp.set_defaults(func=cmd_permute)

    sp = sub.add_parser("predict", help="predicted sign and fixed points (prime N(Q))")
    sp.add_argument("--p", type=_odd_prime, required=True)
    sp.add_argument("--Q", required=True, metavar="[A,B,C,D]")
    add_format(sp)
    sp.set_defaults(func=cmd_predict)

    sp = sub.add_parser("orders", help="element-order counts in the projective group")
    sp.add_argument("--p", type=_odd_prime, required=True)
    add_format(sp)
    sp.set_defaults(func=cmd_orders)

    sp = sub.add_parser("verify", help="run an exhaustive verification sweep")
    checks = sp.add_subparsers(dest="check", required=True)
    for check, params in _VERIFY_PARAMS.items():
        csp = checks.add_parser(check)
        for name in params:
            csp.add_argument("--" + name.replace("_", "-"), type=int,
                             default=_VERIFY_DEFAULTS[name], dest=name)
        add_format(csp)
        csp.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, ParityError, UnsupportedPrime, CoprimalityError,
            NonPrimeNorm, ScaleLimit) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MetacommuteError as exc:  # internal defect, not a usage problem
        print(f"internal error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
