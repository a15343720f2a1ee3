#!/usr/bin/env python3
"""Count what one `run_full_verification` and one diagnosis cost, by
counters that the host's speed does not move.

Usage: PYTHONPATH=src python scripts/count_calls.py [Q ...]

Two operations are counted at each Q, all with seed 1:

- verify: `run_full_verification(Q)`, at Q = 4 16 32 by default, the dims
  of the benchmark's `verify` workload;
- diagnose: `classify(probe(gate_operator(b, t), b, k), k)` on
  `random_basis(Q)` for the monadic NOT and the dyadic AND, at Q = 8 32
  64 by default, the dims of the benchmark's `diagnose` workload;
- diagnose_dense: `classify(probe(m, b, k), k)` on the same basis and
  gates, where the dense matrix m = np.asarray(gate_operator(b, t)) is
  built outside the count, as the CLI's JSON oracles are.

Given Qs replace both defaults. Each operation makes one warm-up run,
which fills the per-process caches, and then one run per counter. It
prints one JSON object per line, {"op": ..., "dim": Q, "gate": ...,
"calls": ..., "peak_bytes": ..., "allocated_bytes": ...} ("gate" only for
the diagnoses):

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

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from vlogic import AND, NOT, classify, gate_operator, probe, random_basis  # noqa: E402
from vlogic.verify import run_full_verification  # noqa: E402

VERIFY_DIMS = (4, 16, 32)
DIAGNOSE_DIMS = (8, 32, 64)
SEED = 1


def diagnose(b, table):
    return classify(probe(gate_operator(b, table), b, table.arity), table.arity)


def diagnose_dense(b, oracle, arity):
    return classify(probe(oracle, b, arity), arity)


def operations(verify_dims, diagnose_dims):
    """(label, function, args) of each counted operation. The args are
    positional, so that calling the function allocates nothing more."""
    for dim in verify_dims:
        yield {"op": "verify", "dim": dim}, run_full_verification, (dim, SEED)
    for dim in diagnose_dims:
        b = random_basis(dim, 0.0, SEED)
        for table in (NOT, AND):
            yield {"op": "diagnose", "dim": dim, "gate": table.name}, diagnose, (b, table)
        for table in (NOT, AND):
            oracle = np.asarray(gate_operator(b, table))
            yield {"op": "diagnose_dense", "dim": dim, "gate": table.name}, diagnose_dense, (b, oracle, table.arity)


def calls(fn, args) -> int:
    profile = cProfile.Profile()
    profile.runcall(fn, *args)
    return pstats.Stats(profile).total_calls


def peak_bytes(fn, args) -> int:
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        fn(*args)
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


def allocated_bytes(fn, args) -> int:
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
            fn(*args)
        finally:
            sys.setprofile(None)
        return rises[0]
    finally:
        tracemalloc.stop()


def main(argv: list[str]) -> int:
    try:
        dims = [int(a) for a in argv]
    except ValueError:
        print(f"count_calls.py: each Q must be a whole number, got {argv}", file=sys.stderr)
        return 1
    for label, fn, args in operations(dims or VERIFY_DIMS, dims or DIAGNOSE_DIMS):
        fn(*args)
        print(json.dumps({**label, "calls": calls(fn, args), "peak_bytes": peak_bytes(fn, args),
                          "allocated_bytes": allocated_bytes(fn, args)}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
