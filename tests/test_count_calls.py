"""scripts/count_calls.py: deterministic counters of a verification run."""

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
    assert [list(row) for row in rows] == [["dim", "calls", "peak_bytes", "allocated_bytes"]] * 2
    assert [row["dim"] for row in rows] == [2, 4]
    for row in rows:
        assert all(isinstance(row[key], int) and row[key] > 0 for key in ("calls", "peak_bytes", "allocated_bytes"))
    # the run's calls do not depend on Q
    assert rows[0]["calls"] == rows[1]["calls"]


def test_count_calls_rejects_a_dim_that_is_no_number():
    code, out, err = count_calls("4", "x")
    assert code == 1 and out == "" and "whole number" in err
