#!/usr/bin/env python3
"""Sweep the full verification report over dimensions and seeds.

Usage: python scripts/run_verification.py [--dims 2,4,8,16] [--seeds 3]

Each line gives the worst residual of that (dim, seed) run, the section
that holds it, and the wall-clock seconds, so a sweep shows how the cost
grows with the dimension.
"""

import argparse
import sys
import time

from vlogic.verify import run_full_verification


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--dims", default="2,4,8,16")
    parser.add_argument("--seeds", type=int, default=3)
    args = parser.parse_args()

    all_ok = True
    for dim in (int(d) for d in args.dims.split(",")):
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
