#!/usr/bin/env python3
"""Probe every gate of one arity and print its one-probe signature classes.

Each class is one signature (re_s, re_n, im_s, im_n) with the gates that
share it: one probe tells the classes apart, never the gates inside one.
Named gates are marked with *; the others are named by their truth-table
pattern in input order (TT, TF, FT, FF for arity 2). Each gate is followed
by the residual of its probe output off span{s, n}.

Usage: python scripts/enumerate_signatures.py [--arity K] [--dim Q] [--seed S] [--canonical NAME]

The gates of the arity are probed as one stack, with one application of the
probe vector. A usage error (an unknown --canonical name, --dim below 2)
exits 1.
"""

import argparse

from vlogic import canonical_basis, random_basis
from vlogic.cli import _Parser  # a usage error exits 1, as in the CLI
from vlogic.diagnosis import enumerate_signatures
from vlogic.errors import UnknownName
from vlogic.scalar_logic import NAMED_GATES, all_tables


def _dim(text: str) -> int:
    dim = int(text)
    if dim < 2:
        raise argparse.ArgumentTypeError(f"truth vectors need dimension >= 2, got {text!r}")
    return dim


def _canonical(name: str):
    try:
        return canonical_basis(name)
    except UnknownName as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def main():
    parser = _Parser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--arity", type=int, choices=(1, 2, 3), default=2)
    parser.add_argument("--dim", type=_dim, default=4)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--canonical", type=_canonical, default=None)
    args = parser.parse_args()

    b = args.canonical if args.canonical is not None else random_basis(args.dim, 0.0, args.seed)
    signatures, classes = enumerate_signatures(b, all_tables(args.arity))

    print(
        f"arity {args.arity}, Q={b.dim}: {len(signatures)} gates, {len(classes)} signature classes, "
        f"largest {len(classes[0])}, worst residual {max(s.residual for s in signatures.values()):.1e}"
    )
    print(f"{'re_s':>7} {'re_n':>7} {'im_s':>7} {'im_n':>7}  {'size':>4}  gates")
    for cls in classes:
        coefficients = " ".join(f"{round(c, 3) + 0.0:7.3f}" for c in signatures[cls[0]].coefficients)
        names = ", ".join(
            f"{name}{'*' if name in NAMED_GATES else ''}({signatures[name].residual:.1e})"
            for name in cls
        )
        print(f"{coefficients}  {len(cls):4d}  {names}")


if __name__ == "__main__":
    main()
