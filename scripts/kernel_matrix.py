#!/usr/bin/env python3
"""Run tier-1 and the output digests under each BLAS kernel and SIMD level the CPU can execute.

Usage: python scripts/kernel_matrix.py [CHECKOUT]

CHECKOUT defaults to this script's checkout. For each setting it runs, in
child processes with PYTHONPATH=CHECKOUT/src:

- tier-1, `python -m pytest -q --continue-on-collection-errors`, in CHECKOUT;
- `scripts/output_digest.py` of CHECKOUT.

The settings are the default environment; OPENBLAS_CORETYPE set to each
kernel of the Intel line of OpenBLAS's DYNAMIC_ARCH build from Prescott up
to the kernel it picks on this host; and NPY_DISABLE_CPU_FEATURES set to
X86_V4 and to X86_V3,X86_V4, which turn off numpy's dispatch to those levels.
A kernel or level whose instructions the CPU lacks, judged from the flags of
/proc/cpuinfo, is skipped, so that no run stops on an illegal instruction,
and so is a kernel that OpenBLAS runs as one already measured (a build may
run Prescott, Core2 and Penryn all as Katmai). The variables are set on the
child processes only.

Prints one JSON object per setting on one line: {"setting", "kernel" (the
OpenBLAS kernel the child reports, or null), "passed", "failed", "errors",
"skipped", "digests"}, or {"setting", "skipped_setting": reason}. Two runs
agree bit for bit on a family when its digest is equal. Standard library only.
"""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

# OPENBLAS_CORETYPE values, oldest first, each with the /proc/cpuinfo flags it
# needs beyond those of the kernels before it (pni is SSE3)
KERNELS = (
    ("Prescott", {"pni"}),
    ("Core2", {"ssse3"}),
    ("Penryn", {"sse4_1"}),
    ("Nehalem", {"sse4_2"}),
    ("Sandybridge", {"avx"}),
    ("Haswell", {"avx2", "fma"}),
    ("SkylakeX", {"avx512f", "avx512bw", "avx512dq", "avx512vl", "avx512cd"}),
    ("Cooperlake", {"avx512_bf16"}),
    ("SapphireRapids", {"avx512_fp16", "amx_tile"}),
)
# NPY_DISABLE_CPU_FEATURES values, each with the flags of the lowest level it turns off
NUMPY_LEVELS = (
    ("X86_V4", {"avx512f", "avx512bw", "avx512dq", "avx512vl", "avx512cd"}),
    ("X86_V3,X86_V4", {"avx2", "fma"}),
)
# the kernel of the OpenBLAS that numpy loaded, through its exported name function
_CORENAME = """
import ctypes, numpy
paths = sorted({line.split()[-1] for line in open("/proc/self/maps") if "openblas" in line})
for path in paths:
    for name in ("scipy_openblas_get_corename64_", "scipy_openblas_get_corename", "openblas_get_corename"):
        f = getattr(ctypes.CDLL(path), name, None)
        if f is not None:
            f.argtypes, f.restype = [], ctypes.c_char_p
            print(f().decode())
            raise SystemExit
"""
_COUNTS = re.compile(r"(\d+) (passed|failed|errors?|skipped)")


def cpu_flags() -> set[str]:
    try:
        text = Path("/proc/cpuinfo").read_text()
    except OSError:
        return set()
    return {flag for line in text.splitlines() if line.startswith("flags") for flag in line.split(":", 1)[1].split()}


def run(root: Path, env: dict, args: list[str], timeout: float) -> subprocess.CompletedProcess:
    child = {**os.environ, **env, "PYTHONPATH": str(root / "src")}
    return subprocess.run([sys.executable, *args], cwd=root, env=child, capture_output=True, text=True,
                          timeout=timeout)


def kernel(root: Path, env: dict):
    done = run(root, env, ["-c", _CORENAME], 60)
    return (done.stdout.strip() or None) if done.returncode == 0 else None


def measure(root: Path, setting: str, env: dict, kernel_name) -> dict:
    tests = run(root, env, ["-m", "pytest", "-q", "-p", "no:cacheprovider", "--continue-on-collection-errors"], 1800)
    summary = tests.stdout.strip().splitlines()[-1:] or [""]
    counts = {"passed": 0, "failed": 0, "errors": 0, "skipped": 0}
    for n, kind in _COUNTS.findall(summary[0]):
        counts["errors" if kind.startswith("error") else kind] += int(n)
    digest = run(root, env, ["scripts/output_digest.py"], 600)
    digests = json.loads(digest.stdout) if digest.returncode == 0 else {"error": digest.stderr.strip()[-500:]}
    return {"setting": setting, "kernel": kernel_name, **counts, "digests": digests}


def settings(flags: set[str], host_kernel):
    """(setting, child environment, reason to skip or None) for each setting, in order."""
    yield "default", {}, None
    needed = set()
    for name, extra in KERNELS:
        needed |= extra
        missing = sorted(needed - flags)
        yield f"OPENBLAS_CORETYPE={name}", {"OPENBLAS_CORETYPE": name}, f"the CPU lacks {missing}" if missing else None
        if name == host_kernel:
            break
    for level, turned_off in NUMPY_LEVELS:
        missing = sorted(turned_off - flags)
        reason = f"the CPU lacks {missing}, so there is nothing to turn off" if missing else None
        yield f"NPY_DISABLE_CPU_FEATURES={level}", {"NPY_DISABLE_CPU_FEATURES": level}, reason


def main(argv: list[str]) -> int:
    if argv[:1] in (["-h"], ["--help"]):
        print(__doc__)
        return 0
    root = Path(argv[0]).resolve() if argv else Path(__file__).resolve().parent.parent
    if not (root / "scripts" / "output_digest.py").is_file():
        print(f"kernel_matrix.py: {root} holds no scripts/output_digest.py", file=sys.stderr)
        return 1
    seen = {}  # OpenBLAS kernel -> the setting that measured it, with numpy's dispatch on
    for setting, env, reason in settings(cpu_flags(), kernel(root, {})):
        name = None if reason else kernel(root, env)
        blas_only = "NPY_DISABLE_CPU_FEATURES" not in env
        if not reason and blas_only and name in seen:
            reason = f"OpenBLAS runs it as {name}, as under {seen[name]}"
        elif not reason and blas_only and name:
            seen[name] = setting
        row = {"setting": setting, "skipped_setting": reason} if reason else measure(root, setting, env, name)
        print(json.dumps(row), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
