"""scripts/count_lines.py: the line counts of the package by one rule."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "count_lines.py"

SAMPLE = '''"""Module docstring,
two lines."""

# a comment

X = """a string that is
no docstring"""


def f():
    """Docstring."""
    return (1 +
            2)  # trailing comment
'''


def count_lines(*argv):
    done = subprocess.run([sys.executable, str(SCRIPT), *argv], capture_output=True, text=True, timeout=60)
    return done.returncode, done.stdout, done.stderr


def test_count_lines_script_prints_three_counts():
    code, out, err = count_lines()
    assert code == 0, err
    counts = json.loads(out)
    assert list(counts) == ["raw", "code", "docstring"]
    raw = sum(len(p.read_text().splitlines()) for p in (ROOT / "src" / "vlogic").rglob("*.py"))
    assert counts["raw"] == raw
    assert 0 < counts["docstring"] and 0 < counts["code"] and counts["code"] + counts["docstring"] < raw


def test_count_lines_rule(tmp_path):
    # code: X's two lines, def, return's two lines; docstrings: three lines
    (tmp_path / "sample.py").write_text(SAMPLE)
    code, out, err = count_lines(str(tmp_path))
    assert code == 0, err
    assert json.loads(out) == {"raw": 13, "code": 5, "docstring": 3}
    code, out, err = count_lines(str(tmp_path / "missing"))
    assert code == 1 and out == "" and "no *.py files" in err
