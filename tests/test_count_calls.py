"""scripts/count_calls.py: deterministic counters of a verification run and of a diagnosis."""

import json
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "count_calls.py"


def count_calls(*argv):
    done = subprocess.run([sys.executable, str(SCRIPT), *argv], capture_output=True, text=True, timeout=120)
    return done.returncode, done.stdout, done.stderr


def test_count_calls_prints_the_counters_of_each_dim():
    code, out, err = count_calls("2", "4")
    assert code == 0, err
    rows = [json.loads(line) for line in out.splitlines()]
    counters = ["calls", "peak_bytes", "allocated_bytes"]
    assert [list(row) for row in rows] == [["op", "dim", *counters]] * 2 + [["op", "dim", "gate", *counters]] * 8
    diagnoses = [(op, gate) for op in ("diagnose", "diagnose_dense") for gate in ("NOT", "AND")]
    assert [(row["op"], row["dim"], row.get("gate")) for row in rows] == [
        ("verify", 2, None), ("verify", 4, None), *[(op, dim, gate) for dim in (2, 4) for op, gate in diagnoses]
    ]
    for row in rows:
        assert all(isinstance(row[key], int) and row[key] > 0 for key in counters)
    # no operation's calls depend on Q
    assert rows[0]["calls"] == rows[1]["calls"]
    assert [row["calls"] for row in rows[2:6]] == [row["calls"] for row in rows[6:]]


def test_count_calls_rejects_a_dim_that_is_no_number():
    code, out, err = count_calls("4", "x")
    assert code == 1 and out == "" and "whole number" in err


def test_a_gate_diagnosis_makes_no_more_calls_than_a_dense_one():
    # the matrix-free probe is the lean path: it skips Gate.on_product's
    # checks, and the dense oracle's matrix is built outside the count
    code, out, err = count_calls("8")
    assert code == 0, err
    calls = {(row["op"], row["gate"]): row["calls"] for row in map(json.loads, out.splitlines()) if "gate" in row}
    for gate in ("NOT", "AND"):
        assert calls["diagnose", gate] <= calls["diagnose_dense", gate], calls
