"""Layer spans for the traced benchmark run.

`Tracer.install` wraps every public function of each timed layer of
vlogic, in every `vlogic.*` namespace that binds it (verify and diagnosis
import `dyadic_operator` and `sqrt_not` by name, so patching the defining
module alone would miss those calls). Spans are recorded only inside
`Tracer.operation`, kept in memory, and summarised by `layer_metrics`.
Nothing under `src/` is changed: the wrappers live here and are removed by
`Tracer.uninstall`.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import os
import sys
import time
import tracemalloc
from contextlib import contextmanager
from dataclasses import asdict, dataclass

import numpy as np

LAYERS = ("basis", "operators", "srn", "diagnosis", "matfun", "verify", "serialize", "cli")

# Per-element helpers: their cost stays in the caller's self time.
SKIPPED = frozenset({"max_norm", "kron"})

MIB = 1024 * 1024


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    op: int | None = None
    peak_bytes: int = 0
    failed: bool = False
    # bytes returned (operators), written or read (serialize), or the
    # margin in digits of an Euler-suite report (matfun.verify_euler_suite)
    extra: float | None = None


def _returned_bytes(args, kwargs, result, printed):
    return float(result.nbytes) if isinstance(result, np.ndarray) else None


def _euler_margin(args, kwargs, report, printed):
    worst = max(report.residuals.values(), default=0.0)
    return math.log10(report.tolerance / max(worst, sys.float_info.min))


def _file_size(path):
    return float(os.path.getsize(path))


def _bytes_loaded(args, kwargs, result, printed):
    return _file_size(args[0] if args else kwargs["path"])


def _bytes_dumped(args, kwargs, result, printed):
    path = args[1] if len(args) > 1 else kwargs.get("path")
    return _file_size(path) if path is not None else float(printed)


def _stdout_written() -> int:
    # trace_cli counts what the CLI prints; elsewhere nothing is printed
    return getattr(sys.stdout, "written", 0)


_EXTRAS = {
    "matfun.verify_euler_suite": _euler_margin,
    "serialize.load_json": _bytes_loaded,
    "serialize.dump_json": _bytes_dumped,
}


def _extra_for(name):
    if name.startswith("operators."):
        return _returned_bytes
    return _EXTRAS.get(name)


class Tracer:
    """Records a span around each call into a vlogic layer during an operation."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op: int | None = None
        # [span index, traced bytes at entry, highest traced bytes seen]
        self._stack: list[list] = []
        self._patched: list[tuple] = []

    def install(self):
        originals = {}
        for layer in LAYERS:
            module = importlib.import_module(f"vlogic.{layer}")
            for name, fn in vars(module).items():
                if (
                    inspect.isfunction(fn)
                    and fn.__module__ == module.__name__
                    and not name.startswith("_")
                    and name not in SKIPPED
                ):
                    originals[id(fn)] = (fn, self._wrap(f"{layer}.{name}", fn))
        for modname, module in list(sys.modules.items()):
            if modname != "vlogic" and not modname.startswith("vlogic."):
                continue
            for attr, value in list(vars(module).items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, hit[1])

    def uninstall(self):
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()

    @contextmanager
    def operation(self, op_id: int):
        """Record spans, with tracemalloc peaks, for the calls made inside."""
        tracemalloc.start()
        self.op = op_id
        try:
            yield
        finally:
            self.op = None
            tracemalloc.stop()

    def _wrap(self, name, fn):
        measure = _extra_for(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            printed = _stdout_written() if measure is not None else 0
            idx = self._enter(name)
            failed = True
            try:
                result = fn(*args, **kwargs)
                failed = False
            finally:
                self._exit(idx, failed)
            if measure is not None:
                printed = _stdout_written() - printed
                self.spans[idx].extra = measure(args, kwargs, result, printed)
            return result

        return traced

    def _enter(self, name) -> int:
        current, peak = tracemalloc.get_traced_memory()
        parent = None
        if self._stack:
            frame = self._stack[-1]
            frame[2] = max(frame[2], peak)
            parent = frame[0]
        tracemalloc.reset_peak()
        self.spans.append(Span(name, 0.0, parent=parent, op=self.op))
        idx = len(self.spans) - 1
        self._stack.append([idx, current, current])
        self.spans[idx].start = time.perf_counter()
        return idx

    def _exit(self, idx, failed):
        end = time.perf_counter()
        _, peak = tracemalloc.get_traced_memory()
        _, at_entry, seen = self._stack.pop()
        seen = max(seen, peak)
        span = self.spans[idx]
        span.end, span.failed, span.peak_bytes = end, failed, seen - at_entry
        if self._stack:
            self._stack[-1][2] = max(self._stack[-1][2], seen)
        tracemalloc.reset_peak()

    def records(self) -> list[dict]:
        return [asdict(s) for s in self.spans]


def merge(spans: list[Span], records: list[dict]):
    """Append spans recorded by another process, rebasing parent indices."""
    base = len(spans)
    for rec in records:
        span = Span(**rec)
        if span.parent is not None:
            span.parent += base
        spans.append(span)


def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus the time its child spans cover (seconds).

    Children of one span run one after another on one thread, so the time
    they cover is the sum of their durations.
    """
    own = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.end - s.start
    return own


SERIES = {"matfun.logical_exp", "matfun.C_of", "matfun.S_of"}
PROBES = {"diagnosis.probe_monadic", "diagnosis.probe_dyadic"}
CLASSIFY = {"diagnosis.classify_monadic", "diagnosis.classify_dyadic"}
VERIFY_SECTIONS = {
    "verify.basis_residuals",
    "verify.truth_table_residuals",
    "verify.diagnosis_roundtrip_failures",
    "verify.scalar_oracle_residual",
}
SERIALIZE_DUMP = {"serialize.matrix_to_dict", "serialize.basis_to_dict", "serialize.dump_json"}
SERIALIZE_LOAD = {"serialize.load_json", "serialize.matrix_from_dict", "serialize.basis_from_dict"}


def layer_metrics(spans: list[Span], n_ops: int) -> dict[str, tuple[float, str]]:
    """Per-layer figures, as (value, unit). Times, counts and volumes are
    means per operation; peaks are the highest seen in the run."""
    own = self_times(spans)

    def picked(match):
        return [i for i, s in enumerate(spans) if match(s.name)]

    def names(wanted):
        return picked(wanted.__contains__)

    def layer(prefix):
        return picked(lambda n: n.startswith(prefix + "."))

    def ms(idx):
        return (1e3 * sum(own[i] for i in idx) / n_ops, "ms")

    def calls(idx):
        return (len(idx) / n_ops, "count")

    def peak_mib(idx):
        return (max((spans[i].peak_bytes for i in idx), default=0) / MIB, "MiB")

    def per_op(idx, scale, unit):
        return (sum(spans[i].extra or 0.0 for i in idx) / scale / n_ops, unit)

    series = names(SERIES)
    probes = names(PROBES)
    euler = names({"matfun.verify_euler_suite"})
    operators = layer("operators")
    # nested operator calls (identity_operator -> monadic_operator) return
    # the same matrix, so count each result once, at the outermost call
    outer_operators = [
        i for i in operators
        if spans[i].parent is None or not spans[spans[i].parent].name.startswith("operators.")
    ]
    margins = [spans[i].extra for i in euler if spans[i].extra is not None]
    return {
        "matfun.context_self_ms": ms(names({"matfun.make_context"})),
        "matfun.series_calls": calls(series),
        "matfun.series_self_ms": ms(series),
        "matfun.euler_suite_self_ms": ms(euler),
        "matfun.series_peak_mib": peak_mib(series),
        "matfun.series_failures": (float(sum(spans[i].failed for i in series)), "count"),
        # 0 when no Euler suite ran in the workload
        "matfun.euler_margin_digits": (min(margins, default=0.0), "digits"),
        "diagnosis.probe_calls": calls(probes),
        "diagnosis.probe_self_ms": ms(probes),
        "diagnosis.probe_peak_mib": peak_mib(probes),
        "diagnosis.classify_self_ms": ms(names(CLASSIFY)),
        "diagnosis.enumerate_self_ms": ms(names({"diagnosis.enumerate_dyadic_signatures"})),
        "operators.calls": calls(operators),
        "operators.self_ms": ms(operators),
        "operators.dense_out_mib": per_op(outer_operators, MIB, "MiB"),
        "verify.tautologies_self_ms": ms(names({"verify.tautology_residuals"})),
        "verify.sections_self_ms": ms(names(VERIFY_SECTIONS)),
        "verify.report_self_ms": ms(names({"verify.run_full_verification"})),
        "serialize.dump_self_ms": ms(names(SERIALIZE_DUMP)),
        "serialize.load_self_ms": ms(names(SERIALIZE_LOAD)),
        "serialize.bytes_written": per_op(names({"serialize.dump_json"}), 1, "B"),
        "serialize.bytes_read": per_op(names({"serialize.load_json"}), 1, "B"),
        "cli.command_self_ms": ms(layer("cli")),
        "basis.calls": calls(layer("basis")),
        "basis.self_ms": ms(layer("basis")),
        "srn.calls": calls(layer("srn")),
        "srn.self_ms": ms(layer("srn")),
    }


def uncovered_seconds(spans: list[Span], op_walls: dict[int, float]) -> float:
    """Traced wall time of the operations not covered by any top-level span."""
    covered = {}
    for s in spans:
        if s.parent is None:
            covered[s.op] = covered.get(s.op, 0.0) + (s.end - s.start)
    return sum(wall - covered.get(op, 0.0) for op, wall in op_walls.items())
