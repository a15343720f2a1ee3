"""The package's lazy exports: every name in __all__ resolves on first use."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import vlogic


def test_all_has_forty_names_and_each_resolves_to_its_module():
    assert len(vlogic.__all__) == len(set(vlogic.__all__)) == 40
    for name in vlogic.__all__:
        value = getattr(vlogic, name)
        module = importlib.import_module(f"vlogic.{vlogic._EXPORTS[name]}")
        assert value is getattr(module, name), name


def test_dir_lists_every_exported_name():
    assert set(vlogic.__all__) <= set(dir(vlogic))


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from vlogic import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(vlogic.__all__)
    assert namespace["probe"] is vlogic.diagnosis.probe


def test_a_submodule_imports_by_name():
    from vlogic import cli, serialize

    assert cli.main and serialize.dump_json


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'frobnicate'"):
        vlogic.frobnicate
    with pytest.raises(ImportError):
        from vlogic import frobnicate  # noqa: F401


def test_importing_the_package_loads_no_module():
    # a fresh process: the names load their modules on first use
    src = str(Path(vlogic.__file__).resolve().parents[1])
    code = (
        "import sys, vlogic; before = sorted(m for m in sys.modules if m.startswith('vlogic.'));"
        "vlogic.probe; print(before, 'vlogic.diagnosis' in sys.modules, 'vlogic.matfun' in sys.modules)"
    )
    done = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=60)
    assert done.stdout.split() == ["[]", "True", "False"], done.stderr
