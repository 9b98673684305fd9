"""Every name a package module or a test module imports is used in that module."""

import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "fluidbandit"
# imported only so that bench/tracing.py can patch them on this module
TRACER_ONLY = {"oracle.py": {"classify", "fluid_priority_allocate", "q_recursion"}}


def _unused_imports(path: Path) -> set[str]:
    tree = ast.parse(path.read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return imported - used


# __init__.py imports the public surface in order to export it; no file
# name occurs in both directories, so the names alone identify the cases
@pytest.mark.parametrize("path", sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
                         + sorted(TESTS.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert _unused_imports(path) == TRACER_ONLY.get(path.name, set())


def _imports(tree: ast.AST):
    return [n for n in ast.walk(tree) if isinstance(n, (ast.Import, ast.ImportFrom))]


# the layering is one-way: a module that needs another imports it once, at
# the top, so an import cycle fails at import time instead of hiding in a call
@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_import_inside_a_function(path):
    tree = ast.parse(path.read_text())
    inner = [f"{fn.name}:{node.lineno}" for fn in ast.walk(tree)
             if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)) for node in _imports(fn)]
    assert inner == []


def test_priority_imports_neither_lp_nor_occupancy():
    # lp and occupancy build on the priority rule, not the other way round
    words = set()
    for node in _imports(ast.parse((SRC / "priority.py").read_text())):
        words |= set((getattr(node, "module", None) or "").split("."))
        words |= {part for a in node.names for part in a.name.split(".")}
    assert not words & {"lp", "occupancy"}
