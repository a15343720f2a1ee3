"""One benchmark worker: set up a workload, say so, then run it in a closed loop.

run.py starts it in a fresh interpreter, from the root of the checkout
under test:

    python3 perfbench/worker.py --workload verify --seed 7 --seconds 30 --trace 0

It imports vlogic from the checkout's src/ and refuses any other copy. It
builds the seeded inputs of the first cycle, prints "ready", and then
(unless --setup-only) runs whole cycles of operations, one in flight,
until --seconds have passed. Its last stdout line is a JSON object with
the measurements and the environment they were taken in.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
SPANS_DIR = ROOT / ".perfbench-out"
WORK_DIR = ROOT / ".perfbench-work"

SMOKE_CYCLES = 2
SPAWN_IMPORT_SAMPLES = 5
CHILD_TIMEOUT_S = 60

if not (SRC / "vlogic" / "__init__.py").is_file():
    sys.exit(f"perfbench: no vlogic package under {SRC}; run from the root of a checkout")
sys.path.insert(0, str(SRC))
import vlogic  # noqa: E402
from vlogic import basis, diagnosis, operators, scalar_logic, verify  # noqa: E402

if not Path(vlogic.__file__).resolve().is_relative_to(SRC.resolve()):
    sys.exit(f"perfbench: vlogic imported from {vlogic.__file__}, not from {SRC}")

import tracer as tracing  # noqa: E402


class Mismatch(Exception):
    """An operation returned a wrong or malformed result."""


def _reject_constant(token):
    raise ValueError(f"non-strict JSON token {token}")


def strict_json(text: str):
    """Parse JSON, refusing NaN and Infinity, which strict JSON lacks."""
    return json.loads(text, parse_constant=_reject_constant)


def expect(cond: bool, message: str):
    if not cond:
        raise Mismatch(message)


@dataclass
class Op:
    """One timed operation: `run` is timed, `check` raises Mismatch on a wrong result."""

    label: str
    run: Callable[[], Any]
    check: Callable[[Any], None]
    argv: list[str] | None = None  # CLI arguments, for subprocess operations


# ---------------------------------------------------------------- workloads


class InProcessWorkload:
    """A workload whose operations are calls into vlogic in this process."""

    def traced(self, op, op_id, tracer):
        with tracer.operation(op_id):
            return op.run()

    def close(self):
        pass


class VerifyWorkload(InProcessWorkload):
    """run_full_verification at Q cycling through QS, seeds from the workload seed."""

    QS = (4, 16, 32)
    SMOKE_QS = (2, 4)

    def __init__(self, rng, smoke):
        self.rng = rng
        self.qs = self.SMOKE_QS if smoke else self.QS

    def cycle(self) -> list[Op]:
        return [self._op(int(q), int(self.rng.integers(0, 2**31 - 2))) for q in self.rng.permutation(self.qs)]

    @staticmethod
    def _op(q, seed):
        def check(report):
            expect(report["pass"] is True, f"report for dim={q} seed={seed} does not pass")
            expect(report["dim"] == q, f"report is for dim {report['dim']}, not {q}")

        return Op(f"verify dim={q} seed={seed}", lambda: verify.run_full_verification(dim=q, seed=seed), check)


def expected_verdicts() -> dict[str, str]:
    """Verdict one probe must give for each gate, derived without matrices.

    Monadic and named dyadic gates must be recognised by name. Each unnamed
    dyadic gate must get the verdict of the named gate whose symbolic probe
    signature it shares, or UNKNOWN if it shares none.
    """
    out = {name: name for name in scalar_logic.MONADIC_GATES}
    named = {
        name: diagnosis.symbolic_dyadic_signature(t) for name, t in scalar_logic.NAMED_DYADIC_GATES.items()
    }
    for table in scalar_logic.ALL_DYADIC_TABLES:
        if table.name in named:
            out[table.name] = table.name
            continue
        sig = diagnosis.symbolic_dyadic_signature(table)
        twins = [name for name, ref in named.items() if max(abs(a - b) for a, b in zip(sig, ref)) < 1e-12]
        out[table.name] = twins[0] if len(twins) == 1 else (diagnosis.AMBIGUOUS if twins else diagnosis.UNKNOWN)
    return out


class DiagnoseWorkload(InProcessWorkload):
    """One probe + classify per (Q, gate) pair, each with its own fresh basis."""

    QS = (8, 32, 64)
    SMOKE_QS = (4,)

    def __init__(self, rng, smoke):
        self.rng = rng
        self.qs = self.SMOKE_QS if smoke else self.QS
        self.expected = expected_verdicts()
        self.gates = [(t, False) for t in scalar_logic.MONADIC_GATES.values()]
        self.gates += [(t, True) for t in scalar_logic.ALL_DYADIC_TABLES]

    def cycle(self) -> list[Op]:
        pairs = [(q, g) for q in self.qs for g in self.gates]
        return [self._op(*pairs[i]) for i in self.rng.permutation(len(pairs))]

    def _op(self, q, gate):
        table, dyadic = gate
        b = basis.random_basis(q, 0.0, int(self.rng.integers(0, 2**31)))
        if dyadic:
            oracle = operators.dyadic_operator(b, table)

            def run():
                return diagnosis.classify_dyadic(diagnosis.probe_dyadic(oracle, b))
        else:
            oracle = operators.monadic_operator(b, table)

            def run():
                return diagnosis.classify_monadic(diagnosis.probe_monadic(oracle, b))

        want = self.expected[table.name]

        def check(result):
            expect(result.verdict == want, f"{table.name} at Q={q} diagnosed as {result.verdict}, want {want}")

        return Op(f"diagnose {table.name} Q={q}", run, check)


class CliWorkload:
    """basis -> op -> diagnose -> verify, each one `python -m vlogic.cli` process."""

    DIM = 32
    SMOKE_DIM = 4

    def __init__(self, rng, smoke):
        self.rng = rng
        self.dim = self.SMOKE_DIM if smoke else self.DIM
        self.env = child_env()
        self.gates = list(scalar_logic.NAMED_DYADIC_GATES)
        self.order: list[str] = []
        self.workdir = WORK_DIR / str(os.getpid())
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.spans_file = self.workdir / "spans.json"

    def cycle(self) -> list[Op]:
        if not self.order:
            self.order = [self.gates[i] for i in self.rng.permutation(len(self.gates))]
        gate = self.order.pop()
        seed = str(int(self.rng.integers(0, 2**31 - 2)))
        q = self.dim
        b_json, o_json = self.workdir / "b.json", self.workdir / "o.json"

        def exited_ok(proc):
            expect(proc.returncode == 0, f"exit code {proc.returncode}: {proc.stderr.strip()[-300:]}")

        def wrote(path, proc):
            exited_ok(proc)
            expect(proc.stdout == "", "printed to stdout despite --out")
            return strict_json(path.read_text())

        def check_basis(proc):
            b = wrote(b_json, proc)
            expect(b["dim"] == q and len(b["s"]) == q and len(b["n"]) == q, "basis JSON has the wrong size")

        def check_op(proc):
            m = wrote(o_json, proc)
            expect((m["rows"], m["cols"]) == (q, q * q), f"operator JSON is {m['rows']}x{m['cols']}")

        def check_diagnose(proc):
            exited_ok(proc)
            out = strict_json(proc.stdout)
            expect(out["verdict"] == gate, f"{gate} diagnosed as {out['verdict']}")

        def check_verify(proc):
            exited_ok(proc)
            out = strict_json(proc.stdout)
            expect(out["pass"] is True and out["dim"] == 4, "verify --dim 4 report does not pass")

        commands = [
            ("basis", ["basis", "--dim", str(q), "--seed", seed, "--out", b_json.name], check_basis),
            ("op", ["op", "--basis", b_json.name, "--gate", gate, "--out", o_json.name], check_op),
            ("diagnose", ["diagnose", "--basis", b_json.name, "--oracle", o_json.name], check_diagnose),
            ("verify", ["verify", "--dim", "4", "--seed", seed], check_verify),
        ]
        return [Op(f"cli {label}", self._cli(argv), check, argv) for label, argv, check in commands]

    def _cli(self, argv):
        return lambda: self._spawn([sys.executable, "-m", "vlogic.cli", *argv])

    def _spawn(self, cmd):
        return subprocess.run(
            cmd, cwd=self.workdir, env=self.env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
        )

    def traced(self, op, op_id, tracer):
        script = HERE / "trace_cli.py"
        proc = self._spawn([sys.executable, str(script), str(self.spans_file), str(op_id), *op.argv])
        if self.spans_file.exists():
            tracing.merge(tracer.spans, json.loads(self.spans_file.read_text()))
            self.spans_file.unlink()
        return proc

    def close(self):
        for path in self.workdir.iterdir():
            path.unlink()
        self.workdir.rmdir()
        if not any(WORK_DIR.iterdir()):
            WORK_DIR.rmdir()


WORKLOADS = {"verify": VerifyWorkload, "diagnose": DiagnoseWorkload, "cli": CliWorkload}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


# ---------------------------------------------------------------- environment


def _blas_threads() -> int | None:
    """Threads of the OpenBLAS library loaded in this process, if it is one."""
    import ctypes

    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower() and "/" in line}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("openblas_get_num_threads", "scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str | None:
    try:
        top = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT.resolve():
        return None
    return lines[1]


def _src_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "vlogic").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    nproc = len(os.sched_getaffinity(0))
    threads = _blas_threads()
    if threads is not None and threads > nproc:
        sys.exit(f"perfbench: BLAS uses {threads} threads but only {nproc} CPUs are available")
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "nproc": nproc,
        "cpu_model": _cpu_model(),
        "longdouble_precision": int(np.finfo(np.longdouble).precision),
        "vlogic_file": str(Path(vlogic.__file__).resolve()),
        "git_commit": _git_commit(),
        "src_sha256": _src_digest(),
    }


# ---------------------------------------------------------------- measuring


def run_loop(workload, seconds: float, smoke: bool, tracer=None, first=None) -> dict:
    """Run whole cycles, one operation in flight, until `seconds` have passed.

    With a tracer, each operation runs once untraced and then once traced,
    so the two wall times compare like with like.
    """
    latencies, traced_walls, failures = [], {}, []
    ops = first if first is not None else workload.cycle()
    deadline = time.perf_counter() + seconds
    cycles = 0
    while True:
        for op in ops:
            op_id = len(latencies)
            elapsed, error = _timed(op, op.run)
            if tracer is not None:
                traced_wall, traced_error = _timed(op, lambda: workload.traced(op, op_id, tracer))
                traced_walls[op_id] = traced_wall
                error = error or traced_error
            latencies.append(elapsed)
            if error:
                failures.append(f"{op.label}: {error}")
        cycles += 1
        if cycles >= SMOKE_CYCLES if smoke else time.perf_counter() >= deadline:
            break
        ops = workload.cycle()
    return {"latencies": latencies, "traced_walls": traced_walls, "failures": failures, "cycles": cycles}


def _timed(op, call) -> tuple[float, str | None]:
    t0 = time.perf_counter()
    try:
        out = call()
        elapsed = time.perf_counter() - t0
        op.check(out)
    except Exception as exc:  # a failed operation is counted, never fatal
        elapsed = time.perf_counter() - t0
        traceback.print_exc(file=sys.stderr)
        return elapsed, f"{type(exc).__name__}: {exc}"
    return elapsed, None


def p90_with_tail(values: list[float]) -> float | None:
    """The 90th percentile, or None unless at least 10 samples lie above it."""
    ordered = sorted(values)
    idx = math.ceil(0.9 * len(ordered)) - 1
    if len(ordered) - 1 - idx < 10:
        return None
    return ordered[idx]


def end_to_end(loop: dict, workload_name: str) -> dict:
    lat = loop["latencies"]
    attempted, failed = len(lat), len(loop["failures"])
    who = resource.RUSAGE_CHILDREN if workload_name == "cli" else resource.RUSAGE_SELF
    metrics = {
        "ops_per_s": ((attempted - failed) / sum(lat), "1/s"),
        "latency_p50_ms": (1e3 * statistics.median(lat), "ms"),
        "fail_ratio": (failed / attempted, "ratio"),
        # ru_maxrss is in KiB on Linux
        "peak_rss_mib": (resource.getrusage(who).ru_maxrss / 1024, "MiB"),
    }
    p90 = p90_with_tail(lat)
    if p90 is not None:
        metrics["latency_p90_ms"] = (1e3 * p90, "ms")
    return metrics


def spawn_import_ms() -> float:
    """Median time of a fresh `import vlogic.cli` in a new interpreter."""
    code = "import time; t = time.perf_counter(); import vlogic.cli; print(time.perf_counter() - t)"
    samples = []
    for _ in range(SPAWN_IMPORT_SAMPLES):
        out = subprocess.run(
            [sys.executable, "-c", code], env=child_env(), capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
            check=True,
        )
        samples.append(1e3 * float(out.stdout))
    return statistics.median(samples)


def traced_metrics(loop: dict, tracer, workload_name: str, seed: int) -> tuple[dict, str]:
    n = len(loop["latencies"])
    metrics = tracing.layer_metrics(tracer.spans, n)
    walls = loop["traced_walls"]
    metrics["cli.spawn_import_ms"] = (spawn_import_ms(), "ms")
    metrics["trace.other_ms"] = (1e3 * tracing.uncovered_seconds(tracer.spans, walls) / n, "ms")
    untraced = sum(loop["latencies"])
    metrics["trace.overhead_pct"] = (100.0 * (sum(walls.values()) - untraced) / untraced, "%")
    SPANS_DIR.mkdir(exist_ok=True)
    path = SPANS_DIR / f"spans-{workload_name}-seed{seed}.json"
    path.write_text(json.dumps(tracer.records()))
    return metrics, str(path.relative_to(ROOT))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    parser.add_argument("--smoke", action="store_true", help="two cycles at small Q")
    parser.add_argument("--setup-only", action="store_true", help="exit once set up")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload](np.random.default_rng(args.seed), args.smoke)
    try:
        first = workload.cycle()
        print("ready", flush=True)
        if args.setup_only:
            return 0
        tracer = None
        if args.trace:
            tracer = tracing.Tracer()
            tracer.install()
        loop = run_loop(workload, args.seconds, args.smoke, tracer, first)
    finally:
        workload.close()

    result = {
        "attempted": len(loop["latencies"]),
        "failed": len(loop["failures"]),
        "cycles": loop["cycles"],
        "failures": loop["failures"][:5],
        "environment": environment(),
    }
    if tracer is None:
        result["metrics"] = end_to_end(loop, args.workload)
    else:
        tracer.uninstall()
        result["metrics"], result["spans_file"] = traced_metrics(loop, tracer, args.workload, args.seed)
        result["waits"] = "none recorded: no layer waits on a queue or lock"
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
