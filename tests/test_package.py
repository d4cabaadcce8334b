"""The package namespace: each library module's `__all__`, and only that."""

import importlib
import os
import pkgutil
import subprocess
import sys
import types
from pathlib import Path

import chordalbounds

LIBRARY = ("bounds", "errors", "events", "graphs", "optimize", "poly", "reliability", "values")
SRC = Path(__file__).parent.parent / "src"


def _modules():
    return [importlib.import_module(f"chordalbounds.{name}") for name in LIBRARY]


def test_library_is_every_module_but_the_command_line():
    found = {info.name for info in pkgutil.iter_modules(chordalbounds.__path__)}
    assert found - {"cli", "__main__"} == set(LIBRARY)


def test_every_listed_name_is_a_package_attribute():
    missing = [
        f"{module.__name__}.{name}"
        for module in _modules()
        for name in module.__all__
        if getattr(chordalbounds, name, None) is not getattr(module, name)
    ]
    assert missing == []


def test_no_name_is_listed_twice():
    names = [name for module in _modules() for name in module.__all__]
    assert len(names) == len(set(names))


def test_package_exports_nothing_else():
    listed = {name for module in _modules() for name in module.__all__}
    public = {
        name
        for name, value in vars(chordalbounds).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == listed
    assert not hasattr(chordalbounds, "ParseError") and not hasattr(chordalbounds, "main")


def test_import_leaves_the_command_line_out():
    code = "import sys, chordalbounds; print(sorted({'argparse', 'json', 'chordalbounds.cli'} & set(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60)
    assert (done.returncode, done.stdout, done.stderr) == (0, "[]\n", "")
