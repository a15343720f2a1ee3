#!/usr/bin/env python3
"""Sweep the full verification report over dimensions and seeds.

Usage: python scripts/run_verification.py [--dims 2,4,8,16] [--seeds 3]

Each line gives the worst residual of that (dim, seed) run, the section
that holds it, and the wall-clock seconds, so a sweep shows how the cost
grows with the dimension. Exit codes: 0 every run passes, 1 usage error
(an empty sweep included), 2 some run fails.
"""

import argparse
import sys
import time

from vlogic.cli import _Parser  # a usage error exits 1: 2 means a run failed
from vlogic.verify import run_full_verification


def _dims(text: str) -> list[int]:
    try:
        dims = [int(d) for d in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"needs comma-separated whole numbers, got {text!r}") from None
    if min(dims) < 2:
        raise argparse.ArgumentTypeError(f"every dimension must be at least 2, got {text!r}")
    return dims


def _seeds(text: str) -> int:
    seeds = int(text)
    if seeds < 1:
        # range(seeds) would run nothing and pass
        raise argparse.ArgumentTypeError(f"needs at least one seed, got {text!r}")
    return seeds


def main():
    parser = _Parser(description=__doc__)
    parser.add_argument("--dims", type=_dims, default="2,4,8,16")
    parser.add_argument("--seeds", type=_seeds, default=3)
    args = parser.parse_args()

    all_ok = True
    for dim in args.dims:
        for seed in range(args.seeds):
            start = time.perf_counter()
            report = run_full_verification(dim=dim, seed=seed)
            elapsed = time.perf_counter() - start
            status = "PASS" if report["pass"] else "FAIL"
            worst, section = max(
                (max(sec["residuals"].values(), default=0.0), name)
                for name, sec in report["sections"].items()
                if "residuals" in sec
            )
            print(f"[{status}] dim={dim} seed={seed} worst residual {worst:.2e} ({section}) {elapsed:.3f} s")
            all_ok = all_ok and report["pass"]
    return 0 if all_ok else 2


if __name__ == "__main__":
    sys.exit(main())
