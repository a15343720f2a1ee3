"""Checks of the benchmark itself. Run from the root of the checkout:

    python3 perfbench/selftest.py

The correctness gate: a wrong expected verdict, a failing report, a bad
exit code or non-strict JSON must show up in fail_ratio. The smoke runs:
every workload runs two short cycles at small Q, traced and untraced, and
must print every metric of BENCHMARK.json with its unit. The file is named
so that the repository's pytest run does not collect it.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

import numpy as np

import tracer as tracing
import worker

ROOT = worker.ROOT
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


class CorrectnessGate(unittest.TestCase):
    def test_wrong_expected_verdict_is_a_failure(self):
        wl = worker.DiagnoseWorkload(np.random.default_rng(0), smoke=True)
        wl.expected["AND"] = "OR"
        loop = worker.run_loop(wl, 0, smoke=True)
        metrics = worker.end_to_end(loop, "diagnose")
        # AND runs once per cycle, at the one smoke Q
        self.assertEqual(len(loop["failures"]), worker.SMOKE_CYCLES)
        self.assertIn("diagnosed as AND, want OR", loop["failures"][0])
        self.assertAlmostEqual(metrics["fail_ratio"][0], worker.SMOKE_CYCLES / len(loop["latencies"]))

    def test_failing_report_is_a_failure(self):
        real = worker.verify.run_full_verification
        worker.verify.run_full_verification = lambda dim, seed: {**real(dim=dim, seed=seed), "pass": False}
        try:
            loop = worker.run_loop(worker.VerifyWorkload(np.random.default_rng(0), smoke=True), 0, smoke=True)
        finally:
            worker.verify.run_full_verification = real
        metrics = worker.end_to_end(loop, "verify")
        self.assertEqual(metrics["fail_ratio"], (1.0, "ratio"))
        self.assertEqual(metrics["ops_per_s"][0], 0.0)

    def test_cli_exit_code_and_strict_json(self):
        wl = worker.CliWorkload(np.random.default_rng(0), smoke=True)
        try:
            diagnose = wl.cycle()[2]
            bad_exit = subprocess.CompletedProcess([], 2, stdout="{}", stderr="")
            with self.assertRaises(worker.Mismatch):
                diagnose.check(bad_exit)
            nan = subprocess.CompletedProcess([], 0, stdout='{"verdict": NaN}', stderr="")
            with self.assertRaises(ValueError):
                diagnose.check(nan)
        finally:
            wl.close()

    def test_p90_needs_ten_samples_beyond_it(self):
        self.assertIsNone(worker.p90_with_tail([float(i) for i in range(99)]))
        self.assertEqual(worker.p90_with_tail([float(i) for i in range(100)]), 89.0)


class TracerWrapping(unittest.TestCase):
    def test_wraps_every_binding_and_restores_them(self):
        from vlogic import diagnosis, operators, srn, verify

        originals = (srn.sqrt_not, diagnosis.sqrt_not, verify.dyadic_operator, operators.max_norm)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            self.assertIsNot(diagnosis.sqrt_not, originals[1])
            self.assertIs(diagnosis.sqrt_not, srn.sqrt_not)
            self.assertIsNot(verify.dyadic_operator, originals[2])
            self.assertIs(operators.max_norm, originals[3])
            b = worker.basis.random_basis(4, 0.0, 1)
            oracle = originals[2](b, worker.scalar_logic.AND)
            with tracer.operation(7):
                diagnosis.probe_dyadic(oracle, b)
        finally:
            tracer.uninstall()
        self.assertEqual((srn.sqrt_not, diagnosis.sqrt_not, verify.dyadic_operator, operators.max_norm), originals)
        names = [s.name for s in tracer.spans]
        self.assertEqual(names[0], "diagnosis.probe_dyadic")
        self.assertIn("srn.sqrt_not", names)
        self.assertTrue(all(s.op == 7 for s in tracer.spans))
        self.assertTrue(all(s.parent is not None for s in tracer.spans[1:]))
        self.assertTrue(all(t >= 0 for t in tracing.self_times(tracer.spans)))
        # kron(A, A) at Q=4 is 16x16 complex: 4 KiB
        self.assertGreaterEqual(tracer.spans[0].peak_bytes, 16 * 16 * 16)


def run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


class Smoke(unittest.TestCase):
    def check_run(self, workload: str, trace: int):
        proc = run_bench(ROOT, "--workload", workload, "--seed", "5", "--seconds", "1", "--trace", str(trace), "--smoke")
        self.assertEqual(proc.returncode, 0, proc.stderr)
        report_line, last_line = proc.stdout.strip().splitlines()[-2:]
        result = json.loads(last_line)
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        wanted = BENCHMARK["per_layer" if trace else "end_to_end"]
        self.assertEqual(
            {name: m["unit"] for name, m in result["metrics"].items()},
            {m["name"]: m["unit"] for m in wanted},
        )
        report = json.loads(report_line)["report"]
        self.assertEqual(report["environment"]["vlogic_file"], str(ROOT / "src" / "vlogic" / "__init__.py"))
        if not trace:
            self.assertEqual(report["metrics"]["fail_ratio"], {"value": 0.0, "unit": "ratio"})

    def test_verify(self):
        for trace in (0, 1):
            with self.subTest(trace=trace):
                self.check_run("verify", trace)

    def test_diagnose(self):
        for trace in (0, 1):
            with self.subTest(trace=trace):
                self.check_run("diagnose", trace)

    def test_cli(self):
        for trace in (0, 1):
            with self.subTest(trace=trace):
                self.check_run("cli", trace)

    def test_refuses_without_a_checkout(self):
        with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
            bare = Path(tmp)
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            shutil.copytree(ROOT / "perfbench", bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
            proc = run_bench(bare, "--workload", "verify", "--seed", "1", "--seconds", "1", "--trace", "0")
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
