"""vlogic benchmark: one workload, one run, every metric by name with its unit.

Run from the root of a checkout of the repository:

    python3 perfbench/run.py --workload {verify,diagnose,cli} --seed N --seconds S --trace {0,1} [--smoke]

With --trace 0 the last stdout line carries the end-to-end metrics of
BENCHMARK.json; with --trace 1 it carries the per-layer metrics of a traced
run. The line before it is a report with every figure, the sample counts,
the failures and the environment. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKER = HERE / "worker.py"

# set-up is timed this many times per run (the last one is the measuring
# worker's) and reported as the median
SETUPS = 5
SETUP_TIMEOUT_S = 60
# beyond --seconds: the last cycle, set-up and the traced run's fresh imports
RUN_SLACK_S = 120

# Figures a run reports besides BENCHMARK.json's metrics: a ratio that is
# 0 whenever the run is correct, and a tail percentile that exists only
# when at least 10 samples lie beyond it.
REPORT_ONLY = ("fail_ratio", "latency_p90_ms")


def worker_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    # one client, one operation in flight: BLAS stays on one thread
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def start_worker(args, env, setup_only: bool) -> tuple[subprocess.Popen, float]:
    """Start a worker and wait until it is set up; returns it and the set-up time."""
    cmd = [
        sys.executable, str(WORKER),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    cmd += ["--smoke"] * args.smoke + ["--setup-only"] * setup_only
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    setup = time.perf_counter() - t0
    if line.strip() != "ready":
        proc.kill()
        proc.wait()
        raise RuntimeError(f"worker did not get ready (exit code {proc.returncode})")
    return proc, setup


def finish(proc: subprocess.Popen, timeout: float) -> str:
    """The rest of a worker's stdout; the worker is killed if it overruns."""
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RuntimeError("worker did not finish in time") from None
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return out


def run(args) -> dict:
    root = Path.cwd()
    if not (root / "src" / "vlogic" / "__init__.py").is_file():
        raise RuntimeError(f"no vlogic package under {root / 'src'}; run from the root of a checkout")
    env = worker_env(root)
    setups = []
    for _ in range(SETUPS - 1):
        proc, setup = start_worker(args, env, setup_only=True)
        finish(proc, SETUP_TIMEOUT_S)
        setups.append(setup)
    proc, setup = start_worker(args, env, setup_only=False)
    setups.append(setup)
    out = finish(proc, args.seconds + RUN_SLACK_S)
    result = json.loads(out.strip().splitlines()[-1])
    if not args.trace:
        result["metrics"]["setup_s"] = (statistics.median(setups), "s")
        result["setup_samples_s"] = setups
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=["verify", "diagnose", "cli"], required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    parser.add_argument("--smoke", action="store_true", help="two cycles of each workload at small Q")
    args = parser.parse_args(argv)
    try:
        result = run(args)
    except (RuntimeError, OSError, subprocess.SubprocessError, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in result.pop("metrics").items()}
    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace}
    report.update(result, metrics=metrics)
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: v for k, v in metrics.items() if k not in REPORT_ONLY},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
