"""Source hygiene: no package module imports a name it never uses, and
no private name is defined that the package never reads."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "plasma_cash"
# ``__init__`` imports names to re-export them
MODULES = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str):
    """Names ``source`` imports and never reads, quoted annotations included."""
    tree = ast.parse(source)
    imported = set()
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
        elif isinstance(node, (ast.arg, ast.AnnAssign)):
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for note in annotations:
        if isinstance(note, ast.Constant) and isinstance(note.value, str):
            used |= {n.id for n in ast.walk(ast.parse(note.value, mode="eval"))
                     if isinstance(n, ast.Name)}
    return sorted(imported - used)


def test_unused_imports_are_found():
    source = (
        "from __future__ import annotations\n"
        "import os, os.path as osp\n"
        "from typing import Dict, List as L, Optional\n"
        "def f(x: 'Dict[int, int]') -> None:\n"
        "    return os.sep\n"
    )
    assert unused_imports(source) == ["L", "Optional", "osp"]


@pytest.mark.parametrize("module", MODULES)
def test_no_module_imports_a_name_it_never_uses(module):
    assert unused_imports((PACKAGE / module).read_text()) == []


def private_definitions(source: str):
    """Private module-level functions, classes and constants ``source``
    defines, and the private methods of its classes."""
    names = set()
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        if isinstance(node, ast.ClassDef):
            names.update(n.name for n in node.body if isinstance(n, ast.FunctionDef))
    return {n for n in names if n.startswith("_") and not n.startswith("__")}


def names_read(source: str):
    """Every name and attribute ``source`` loads."""
    read = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            read.add(node.attr)
    return read


def test_unread_private_names_are_found():
    source = (
        "_LIMIT = 3\n"
        "_unused: int = 4\n"
        "def _helper(): return _LIMIT\n"
        "class _Gone:\n"
        "    def _stale(self): pass\n"
        "    def _live(self): return _helper()\n"
        "    def __repr__(self): return self._live()\n"
    )
    assert private_definitions(source) - names_read(source) == {"_unused", "_Gone", "_stale"}


PACKAGE_READS = set().union(*(names_read(p.read_text()) for p in PACKAGE.glob("*.py")))


@pytest.mark.parametrize("module", MODULES)
def test_no_module_defines_a_private_name_the_package_never_reads(module):
    assert sorted(private_definitions((PACKAGE / module).read_text()) - PACKAGE_READS) == []
