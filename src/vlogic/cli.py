"""Command-line front end.

Subcommands: basis, op, sqrt-not, diagnose, euler, verify.
Compact JSON goes to stdout (or --out FILE); diagnostics to stderr. Exit
codes: 0 success / named verdict, 1 usage or input error, 2 verified
failure or UNKNOWN verdict. Each command imports only the modules it runs
and reads its defaults from the library when it runs.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from itertools import count
from math import isfinite

from .errors import VectorLogicError


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; this tool reserves 2 for verified
    # failures, so usage errors exit 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _csv(text: str, convert) -> tuple:
    values = tuple(convert(x) for x in text.split(",") if x.strip())
    if not values:
        raise argparse.ArgumentTypeError(f"needs at least one value, got {text!r}")
    return values


def _csv_floats(text: str) -> tuple[float, ...]:
    return _csv(text, float)


def _csv_ints(text: str) -> tuple[int, ...]:
    return _csv(text, int)


def _tolerance(text: str) -> float:
    value = float(text)
    if not (isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"must be a finite positive number, got {text!r}")
    return value


def cmd_basis(args) -> int:
    from .basis import canonical_basis, random_basis
    from .serialize import basis_to_dict, dump_json

    if args.canonical:
        if args.epsilon is not None or args.seed is not None:
            raise VectorLogicError("--epsilon and --seed apply to a random basis (--dim) only")
        b = canonical_basis(args.canonical)
    else:
        b = random_basis(args.dim, args.epsilon or 0.0, args.seed or 0)
    dump_json(basis_to_dict(b), args.out)
    return 0


def cmd_op(args) -> int:
    from .operators import gate_operator
    from .scalar_logic import gate
    from .serialize import _load, basis_from_dict, dump_json, matrix_to_dict

    b = _load(args.basis, basis_from_dict)
    dump_json(matrix_to_dict(gate_operator(b, gate(args.gate))), args.out)
    return 0


def cmd_sqrt_not(args) -> int:
    from . import matfun, verify
    from .serialize import _load, basis_from_dict, dump_json, matrix_to_dict
    from .srn import identity_report, sqrt_not

    b = _load(args.basis, basis_from_dict)
    pair = sqrt_not(b)
    report = identity_report(pair, b)
    payload = {
        "A": matrix_to_dict(pair.A),
        "B": matrix_to_dict(pair.B),
        "report": report,
        "pass": matfun.IdentityReport(report, args.tol or verify.RESIDUAL_TOL).passed,
    }
    dump_json(payload, args.out)
    return 0 if payload["pass"] else 2


def cmd_diagnose(args) -> int:
    from . import diagnosis
    from .serialize import _load, basis_from_dict, dump_json, matrix_from_dict

    b = _load(args.basis, basis_from_dict)
    oracle = _load(args.oracle, matrix_from_dict)
    # the k of a Q x Q^k oracle; probe rejects any other shape
    arity = next(k for k in count(1) if b.dim**k >= oracle.shape[1])
    sig = diagnosis.probe(oracle, b, arity)
    result = diagnosis.classify(sig, arity, tol=args.tol or diagnosis.DEFAULT_CLASSIFY_TOL)
    payload = {
        "verdict": result.verdict,
        "distance": result.distance,
        "runner_up": result.runner_up,
        "runner_up_distance": result.runner_up_distance,
        "signature": dataclasses.asdict(sig),
        "arity": arity,
    }
    dump_json(payload, args.out)
    return 0 if result.verdict not in (diagnosis.UNKNOWN, diagnosis.AMBIGUOUS) else 2


def cmd_euler(args) -> int:
    from . import matfun
    from .serialize import _load, basis_from_dict, dump_json

    ctx = matfun.make_context(_load(args.basis, basis_from_dict))
    # an absent flag is None, and a given one is never empty or zero
    v, ks, tol = args.v or matfun.EULER_V_SAMPLES, args.k or matfun.EULER_KS, args.tol or matfun.IDENTITY_TOL
    report = matfun.verify_euler_suite(ctx, v, ks=ks, tol=tol)
    payload = {"identities": report.entries(), "pass": report.passed, **report.metadata}
    dump_json(payload, args.out)
    return 0 if report.passed else 2


def cmd_verify(args) -> int:
    from . import matfun, verify
    from .serialize import dump_json

    report = verify.run_full_verification(dim=args.dim, seed=args.seed, tol=args.tol or matfun.IDENTITY_TOL)
    dump_json(report, args.out)
    return 0 if report["pass"] else 2


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="vlogic", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, tol=None):
        # tol names the library constant the command reads when --tol is absent
        if tol is not None:
            p.add_argument("--tol", type=_tolerance, help=f"default {tol}")
        p.add_argument("--out", default=None, help="write JSON here instead of stdout")

    p = sub.add_parser("basis", help="create a canonical or seeded random basis")
    which = p.add_mutually_exclusive_group(required=True)
    which.add_argument("--canonical", choices=["SET1", "SET2", "DIM4"], type=str.upper)
    which.add_argument("--dim", type=int)
    p.add_argument("--epsilon", type=float, help="overlap <s,n> of a random basis (default 0)")
    p.add_argument("--seed", type=int, help="seed of a random basis (default 0)")
    common(p)
    p.set_defaults(func=cmd_basis)

    p = sub.add_parser("op", help="emit a named gate's operator matrix")
    p.add_argument("--basis", required=True)
    p.add_argument("--gate", required=True)
    common(p)
    p.set_defaults(func=cmd_op)

    p = sub.add_parser("sqrt-not", help="emit both square roots of NOT plus residuals")
    p.add_argument("--basis", required=True)
    common(p, "verify.RESIDUAL_TOL")
    p.set_defaults(func=cmd_sqrt_not)

    p = sub.add_parser("diagnose", help="identify a hidden gate from one probe")
    p.add_argument("--oracle", required=True)
    p.add_argument("--basis", required=True)
    common(p, "diagnosis.DEFAULT_CLASSIFY_TOL")
    p.set_defaults(func=cmd_diagnose)

    p = sub.add_parser("euler", help="run the matrix Euler identity suite")
    p.add_argument("--basis", required=True)
    p.add_argument("--v", type=_csv_floats, help="comma-separated scalar parameters (default matfun.EULER_V_SAMPLES)")
    p.add_argument("--k", type=_csv_ints, help="comma-separated integer powers (default matfun.EULER_KS)")
    common(p, "matfun.IDENTITY_TOL")
    p.set_defaults(func=cmd_euler)

    p = sub.add_parser("verify", help="run every invariant suite and aggregate")
    p.add_argument("--dim", type=int, default=4)
    p.add_argument("--seed", type=int, default=1)
    common(p, "matfun.IDENTITY_TOL")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (VectorLogicError, OSError, ValueError) as exc:
        print(f"vlogic: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
