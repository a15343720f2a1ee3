#!/usr/bin/env python3
"""Count what one `run_full_verification` costs, by counters that the
host's speed does not move.

Usage: PYTHONPATH=src python scripts/count_calls.py [Q ...]

Q defaults to 4 16 32, the dims of the benchmark's `verify` workload. For
each Q it makes one warm-up run, which fills the per-process caches, and
then one run per counter, all with seed 1. It prints one JSON object per
line, {"dim": Q, "calls": ..., "peak_bytes": ..., "allocated_bytes": ...}:

- calls: cProfile's total, every call of a Python or built-in function;
- peak_bytes: the tracemalloc peak, above the traced memory at the start;
- allocated_bytes: the sum of every rise of the traced memory from one
  profiler event (a call or return of a Python or built-in function) to
  the next, so the bytes that the run's calls allocate and still hold at
  their next call or return.

A change in any of them is a change in the code or in numpy, never the
host's speed. Standard library and numpy only.
"""

import cProfile
import json
import pstats
import sys
import tracemalloc
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from vlogic.verify import run_full_verification  # noqa: E402

DIMS = (4, 16, 32)
SEED = 1


def calls(dim: int) -> int:
    profile = cProfile.Profile()
    profile.runcall(run_full_verification, dim=dim, seed=SEED)
    return pstats.Stats(profile).total_calls


def peak_bytes(dim: int) -> int:
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        run_full_verification(dim=dim, seed=SEED)
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


def allocated_bytes(dim: int) -> int:
    rises = [0, 0]  # total, traced memory at the last event

    def on_event(frame, event, arg):
        current = tracemalloc.get_traced_memory()[0]
        if current > rises[1]:
            rises[0] += current - rises[1]
        rises[1] = current

    tracemalloc.start()
    try:
        rises[1] = tracemalloc.get_traced_memory()[0]
        sys.setprofile(on_event)
        try:
            run_full_verification(dim=dim, seed=SEED)
        finally:
            sys.setprofile(None)
        return rises[0]
    finally:
        tracemalloc.stop()


def main(argv: list[str]) -> int:
    try:
        dims = [int(a) for a in argv] or list(DIMS)
    except ValueError:
        print(f"count_calls.py: each Q must be a whole number, got {argv}", file=sys.stderr)
        return 1
    for dim in dims:
        run_full_verification(dim=dim, seed=SEED)
        print(json.dumps({"dim": dim, "calls": calls(dim), "peak_bytes": peak_bytes(dim),
                          "allocated_bytes": allocated_bytes(dim)}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
