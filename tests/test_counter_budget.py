"""scripts/count_calls.py stays within the counter budget, tests/counter_budget.json.

The budget holds the calls and the tracemalloc peak of every row that the
script prints at its default dims, taken under the numpy and Python versions
it names. Its figures may only be lowered: a change that makes fewer calls or
a lower peak lowers them to its own counts, and no change raises them. numpy's
Python-level wrappers count as calls, and so do CPython's own, so under another
numpy or Python version the test skips and names both versions.
"""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
BUDGET = json.loads((ROOT / "tests" / "counter_budget.json").read_text())


def _key(row):
    return row["op"], row["dim"], row.get("gate")


def test_count_calls_stays_within_the_counter_budget():
    versions = {"numpy": np.__version__, "python": "%d.%d" % sys.version_info[:2]}
    if any(BUDGET[name] != version for name, version in versions.items()):
        pytest.skip(f"budget taken under numpy {BUDGET['numpy']} / Python {BUDGET['python']}, "
                    f"running numpy {versions['numpy']} / Python {versions['python']}")
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / "count_calls.py")],
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    rows = {_key(row): row for row in map(json.loads, done.stdout.splitlines())}
    budget = {_key(row): row for row in BUDGET["rows"]}
    assert list(rows) == list(budget)
    over = [(key, counter, rows[key][counter], limit)
            for key, row in budget.items() for counter, limit in row.items()
            if counter in ("calls", "peak_bytes") and rows[key][counter] > limit]
    assert not over, f"counters over budget (row, counter, count, budget): {over}"
