"""Every name a package module or a test module imports is used in that
module, the package imports one way, and no private helper is left unused."""

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


def _names(node: ast.AST) -> set[str]:
    return ({n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
            | {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)})


# a private helper that no package module uses is dead code, however many
# tests still call it; tests check the package, they do not keep it alive
def test_every_private_helper_is_used_in_the_package():
    trees = {p.name: ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))}
    used = set()
    for tree in trees.values():
        used |= _names(tree)
    orphans = [f"{name}:{node.name}" for name, tree in trees.items() for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
               and node.name.startswith("_") and not node.name.startswith("__")
               and node.name not in used]
    assert orphans == []


def _members(cls: ast.ClassDef):
    """Names of the methods, properties and annotated fields of a class;
    dunder methods are called by Python itself and are left out."""
    for node in cls.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if not (node.name.startswith("__") and node.name.endswith("__")):
                yield node.name
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            yield node.target.id


# a method, property or field that no code reads as `.name` is dead
# surface: a class member that outlives its last reader, or a field that
# only copies what its callers already hold
def test_every_class_member_is_read():
    reads = set()
    for path in sorted(SRC.glob("*.py")) + sorted(TESTS.glob("*.py")):
        reads |= {n.attr for n in ast.walk(ast.parse(path.read_text()))
                  if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}
    unread = [f"{path.name}:{cls.name}.{name}" for path in sorted(SRC.glob("*.py"))
              for cls in ast.parse(path.read_text()).body if isinstance(cls, ast.ClassDef)
              for name in _members(cls) if name not in reads]
    assert unread == []


# a reference helper is there to check a package form against; once no
# test and no other helper of its file calls it, the check it served is gone
def test_every_reference_helper_is_used_by_a_test():
    trees = {p.name: ast.parse(p.read_text()) for p in sorted(TESTS.glob("*.py"))}
    orphans = []
    for name, tree in trees.items():
        if not name.startswith("reference_"):
            continue
        used = set().union(*(_names(t) for other, t in trees.items() if other != name))
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            in_file = set().union(*(_names(h) for h in tree.body if h is not node))
            if node.name not in used | in_file:
                orphans.append(f"{name}:{node.name}")
    assert orphans == []
