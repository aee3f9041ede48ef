"""The kernel records: fallback to the Python twin, and one way to a kernel.

Every compiled kernel is a `native.Kernel`.  A module that called
`native.load` itself, or kept its own module-level `_kernel`, would repeat
the build, fallback and reporting that the record holds once.
"""

import ast
import dataclasses
from pathlib import Path

import pytest

from latgas import entropy, sim, thermo

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "latgas"
RECORDS = [sim.EVENTS, entropy.MARCH, thermo.TILT, sim.SITES]


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: r.name)
def test_record_falls_back_to_twin(without_compiler, record):
    fresh = dataclasses.replace(record)     # not yet resolved
    assert fresh.backend == "python"
    assert fresh.impl is record.python
    assert not list(without_compiler.rglob("*.so"))


def kernel_glue(source):
    """Lines of `source` that call `native.load` (or a `load` imported
    from `native`) or bind a module-level `_kernel`."""
    tree = ast.parse(source)
    loads = {"load"} & {a.asname or a.name for node in ast.walk(tree)
                        if isinstance(node, ast.ImportFrom)
                        and (node.module or "").split(".")[-1] == "native"
                        for a in node.names}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            f = node.func
            if (isinstance(f, ast.Attribute) and f.attr == "load"
                    and isinstance(f.value, ast.Name)
                    and f.value.id == "native") or \
                    (isinstance(f, ast.Name) and f.id in loads):
                found.append(node.lineno)
    for node in tree.body:
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target] if isinstance(node, ast.AnnAssign)
                   else [])
        if any(isinstance(t, ast.Name) and t.id == "_kernel" for t in targets):
            found.append(node.lineno)
    return found


def test_guard_sees_kernel_glue():
    assert kernel_glue("from . import native\nlib = native.load('x', s)\n")
    assert kernel_glue("from .native import load\nlib = load('x', s)\n")
    assert kernel_glue("_kernel = None\n")
    assert not kernel_glue("import json\ndata = json.load(fh)\n")


def test_only_native_loads_kernels():
    glue = {path.name: kernel_glue(path.read_text())
            for path in sorted(PACKAGE.glob("*.py"))
            if path.name != "native.py"}
    glue = {name: lines for name, lines in glue.items() if lines}
    assert not glue, f"use a native.Kernel record instead: {glue}"
