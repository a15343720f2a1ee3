"""The library names the benchmark under perfbench/ relies on.

perfbench/ is read here, never changed: its worker calls layer functions
by attribute, and its tracer sums spans by dotted function name, so a
renamed or removed function would break the benchmark without failing any
other test.
"""

import ast
import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
WORKER_LAYERS = ("verify", "diagnosis", "operators", "scalar_logic", "basis")
TRACER_SETS = ("SERIES", "PROBES", "CLASSIFY", "VERIFY_SECTIONS", "SERIALIZE_DUMP", "SERIALIZE_LOAD")


def _worker_reads():
    tree = ast.parse((PERFBENCH / "worker.py").read_text())
    return sorted(
        {
            (node.value.id, node.attr)
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in WORKER_LAYERS
        }
    )


def _tracer_names():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", PERFBENCH / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = tracer  # dataclasses look their module up here
    try:
        spec.loader.exec_module(tracer)
    finally:
        del sys.modules[spec.name]
    return sorted(name for attr in TRACER_SETS for name in getattr(tracer, attr))


def test_worker_reads_something_from_every_layer():
    assert {layer for layer, _ in _worker_reads()} == set(WORKER_LAYERS)


@pytest.mark.parametrize("layer,attr", _worker_reads())
def test_worker_attribute_exists(layer, attr):
    module = importlib.import_module(f"vlogic.{layer}")
    assert hasattr(module, attr), f"perfbench/worker.py reads vlogic.{layer}.{attr}"


@pytest.mark.parametrize("dotted", _tracer_names())
def test_traced_name_is_public_layer_function(dotted):
    # the tracer wraps only public functions defined in the layer's own module
    layer, name = dotted.split(".")
    module = importlib.import_module(f"vlogic.{layer}")
    fn = getattr(module, name, None)
    assert inspect.isfunction(fn), f"perfbench/tracer.py sums spans of {dotted}"
    assert fn.__module__ == module.__name__ and not name.startswith("_")
