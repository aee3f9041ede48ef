"""The benchmark under perfbench/ imports and traces package names; these
tests fail when one of those names is removed or renamed, so such a change
shows up in the suite rather than only when the benchmark runs."""

import ast
import importlib
import types
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _latgas_imports(path):
    """(module, name) for every `from latgas... import name` in a file."""
    tree = ast.parse(path.read_text())
    return [(node.module, alias.name) for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
            and (node.module or "").split(".")[0] == "latgas"
            for alias in node.names]


def test_tracer_installs_and_restores(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spans = importlib.import_module("spans")
    import latgas.thermo
    original = latgas.thermo.invert_parameters_grid
    tracer = spans.Tracer()
    try:
        tracer.install()
        assert latgas.thermo.invert_parameters_grid is not original
    finally:
        tracer.restore()
    assert latgas.thermo.invert_parameters_grid is original


@pytest.mark.parametrize("script", ["workloads.py", "selftest.py"])
def test_benchmark_imports_resolve(script):
    """Every imported name exists, and so does every attribute the script
    reads from an imported latgas module (`harness.run_eulerian`, ...)."""
    path = PERFBENCH / script
    modules = {}
    for module, name in _latgas_imports(path):
        owner = importlib.import_module(module)
        obj = (getattr(owner, name) if hasattr(owner, name)
               else importlib.import_module(f"{module}.{name}"))
        if isinstance(obj, types.ModuleType):
            modules[name] = obj
    missing = [f"{node.value.id}.{node.attr}"
               for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, ast.Attribute)
               and isinstance(node.value, ast.Name)
               and node.value.id in modules
               and not hasattr(modules[node.value.id], node.attr)]
    assert not missing
