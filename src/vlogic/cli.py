"""Command-line front end.

Subcommands: basis, op, sqrt-not, diagnose, euler, verify.
JSON goes to stdout (or --out FILE); diagnostics to stderr. Exit codes:
0 success / named verdict, 1 usage or input error, 2 verified failure or
UNKNOWN verdict.
"""

from __future__ import annotations

import argparse
import sys
from itertools import count
from math import isfinite

from . import diagnosis, matfun, scalar_logic, verify
from .basis import canonical_basis, random_basis
from .errors import VectorLogicError
from .operators import gate_operator
from .serialize import (
    basis_from_dict,
    basis_to_dict,
    dump_json,
    load_json,
    matrix_from_dict,
    matrix_to_dict,
)
from .srn import identity_report, sqrt_not


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; this tool reserves 2 for verified
    # failures, so usage errors exit 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _load_basis(path: str):
    return basis_from_dict(load_json(path))


def _csv_floats(text: str) -> list[float]:
    return [float(x) for x in text.split(",") if x.strip()]


def _tolerance(text: str) -> float:
    value = float(text)
    if not (isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"must be a finite positive number, got {text!r}")
    return value


def _csv_ints(text: str) -> list[int]:
    return [int(x) for x in text.split(",") if x.strip()]


def cmd_basis(args) -> int:
    if args.canonical:
        b = canonical_basis(args.canonical)
    else:
        if args.dim is None:
            raise VectorLogicError("either --canonical or --dim is required")
        b = random_basis(args.dim, args.epsilon, args.seed)
    dump_json(basis_to_dict(b, include_duals=True), args.out)
    return 0


def cmd_op(args) -> int:
    b = _load_basis(args.basis)
    dump_json(matrix_to_dict(gate_operator(b, scalar_logic.gate(args.gate))), args.out)
    return 0


def cmd_sqrt_not(args) -> int:
    b = _load_basis(args.basis)
    pair = sqrt_not(b)
    report = identity_report(pair, b)
    payload = {
        "A": matrix_to_dict(pair.A),
        "B": matrix_to_dict(pair.B),
        "report": report,
        "pass": all(r < args.tol for r in report.values()),
    }
    dump_json(payload, args.out)
    return 0 if payload["pass"] else 2


def cmd_diagnose(args) -> int:
    b = _load_basis(args.basis)
    oracle = matrix_from_dict(load_json(args.oracle))
    # without --arity, the k of a Q x Q^k oracle; probe rejects any other shape
    arity = args.arity or next(k for k in count(1) if b.dim**k >= oracle.shape[1])
    sig = diagnosis.probe(oracle, b, arity)
    result = diagnosis.classify(sig, arity, tol=args.tol)
    payload = {
        "verdict": result.verdict,
        "distance": result.distance,
        "runner_up": result.runner_up,
        "runner_up_distance": result.runner_up_distance,
        "signature": {
            "re_s": sig.re_s,
            "re_n": sig.re_n,
            "im_s": sig.im_s,
            "im_n": sig.im_n,
            "residual": sig.residual,
        },
        "arity": arity,
    }
    dump_json(payload, args.out)
    return 0 if result.verdict not in (diagnosis.UNKNOWN, diagnosis.AMBIGUOUS) else 2


def cmd_euler(args) -> int:
    b = _load_basis(args.basis)
    ctx = matfun.make_context(b)
    report = matfun.verify_euler_suite(
        ctx, _csv_floats(args.v), ks=_csv_ints(args.k), tol=args.tol
    )
    payload = {"identities": report.entries(), "pass": report.passed, **report.metadata}
    dump_json(payload, args.out)
    return 0 if report.passed else 2


def cmd_verify(args) -> int:
    report = verify.run_full_verification(dim=args.dim, seed=args.seed, tol=args.tol)
    dump_json(report, args.out)
    return 0 if report["pass"] else 2


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="vlogic", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, tol_default=None):
        if tol_default is not None:
            p.add_argument("--tol", type=_tolerance, default=tol_default)
        p.add_argument("--out", default=None, help="write JSON here instead of stdout")

    p = sub.add_parser("basis", help="create a canonical or seeded random basis")
    p.add_argument("--canonical", choices=["SET1", "SET2", "DIM4"], type=str.upper)
    p.add_argument("--dim", type=int)
    p.add_argument("--epsilon", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0)
    common(p)
    p.set_defaults(func=cmd_basis)

    p = sub.add_parser("op", help="emit a named gate's operator matrix")
    p.add_argument("--basis", required=True)
    p.add_argument("--gate", required=True)
    common(p)
    p.set_defaults(func=cmd_op)

    p = sub.add_parser("sqrt-not", help="emit both square roots of NOT plus residuals")
    p.add_argument("--basis", required=True)
    common(p, 1e-10)
    p.set_defaults(func=cmd_sqrt_not)

    p = sub.add_parser("diagnose", help="identify a hidden gate from one probe")
    p.add_argument("--oracle", required=True)
    p.add_argument("--basis", required=True)
    p.add_argument("--arity", type=int, choices=[1, 2])
    common(p, diagnosis.DEFAULT_CLASSIFY_TOL)
    p.set_defaults(func=cmd_diagnose)

    p = sub.add_parser("euler", help="run the matrix Euler identity suite")
    p.add_argument("--basis", required=True)
    p.add_argument("--v", default="0,0.25,0.5,1,1.5,-0.75", help="comma-separated scalar parameters")
    p.add_argument("--k", default="2,3,5", help="comma-separated integer powers")
    common(p, 1e-8)
    p.set_defaults(func=cmd_euler)

    p = sub.add_parser("verify", help="run every invariant suite and aggregate")
    p.add_argument("--dim", type=int, default=4)
    p.add_argument("--seed", type=int, default=1)
    common(p, 1e-8)
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
