"""A basis stack's members are their bases bit for bit on another BLAS kernel.

numpy's OpenBLAS, when built with DYNAMIC_ARCH, picks its kernel at run time
and honours OPENBLAS_CORETYPE in the process environment. Under the Prescott
kernel a 2-D (1, Q) @ (Q, 1) product and a batched (B, 1, Q) @ (B, Q, 1) one
can round differently, so the bit-identity tests of tests/test_basis_stacks.py
hold on every kernel only if each product has one call shape for a single
basis and for a stack. They run here in one child process under Prescott.
"""

import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent


def _dynamic_arch_openblas() -> bool:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return "openblas" in blas.get("name", "") and "DYNAMIC_ARCH" in blas.get("openblas configuration", "")


def test_basis_stacks_are_bit_for_bit_under_the_prescott_kernel():
    if platform.machine() not in ("x86_64", "AMD64") or not _dynamic_arch_openblas():
        pytest.skip("needs numpy on an x86-64 DYNAMIC_ARCH OpenBLAS, whose kernel OPENBLAS_CORETYPE picks")
    env = {**os.environ, "OPENBLAS_CORETYPE": "Prescott",
           "PYTHONPATH": os.pathsep.join(filter(None, (str(ROOT / "src"), os.environ.get("PYTHONPATH"))))}
    done = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "tests/test_basis_stacks.py"],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout[-4000:] + done.stderr[-2000:]
