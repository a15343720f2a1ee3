"""scripts/output_digest.py: one sha256 digest per output family."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FAMILIES = ["verify", "gates", "signatures", "bases", "context", "closed_forms", "series"]


def test_output_digest_prints_one_digest_per_family():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "output_digest.py")], capture_output=True, text=True, env=env, timeout=120
    )
    assert done.returncode == 0, done.stderr
    (line,) = done.stdout.splitlines()
    digests = json.loads(line)
    assert list(digests) == FAMILIES
    assert all(re.fullmatch("[0-9a-f]{64}", d) for d in digests.values())
