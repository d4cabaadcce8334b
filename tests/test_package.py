"""The package namespace: each library module's `__all__`, and only that;
and a source that imports only the standard library."""

import ast
import importlib
import importlib.util
import os
import pkgutil
import subprocess
import sys
import types
from pathlib import Path

import chordalbounds

LIBRARY = ("bounds", "errors", "events", "graphs", "optimize", "poly", "reliability", "values")
SRC = Path(__file__).parent.parent / "src"
LAYERS = Path(__file__).parent.parent / "perfbench" / "layers.py"


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


def test_every_traced_name_resolves():
    # The benchmark's tracer wraps these (module, attribute path) pairs by
    # name; a public function renamed or removed would leave its layer
    # unwrapped, or stop the traced run.
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    missing = []
    for module_name, path, _ in layers.TARGETS:
        owner = importlib.import_module(f"chordalbounds.{module_name}")
        for attr in path.split("."):
            owner = getattr(owner, attr, None)
        if not callable(owner):
            missing.append(f"{module_name}.{path}")
    assert layers.TARGETS
    assert missing == []


def test_source_imports_only_the_standard_library():
    # The package is pure standard-library Python: every absolute import
    # in its source names a standard-library module; relative imports stay
    # inside the package.
    imported = set()
    for path in sorted((SRC / "chordalbounds").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Import):
                imported |= {(path.name, alias.name) for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add((path.name, node.module))
    outside = sorted((name, module) for name, module in imported if module.split(".")[0] not in sys.stdlib_module_names)
    assert imported and outside == []
