"""Source hygiene: no package module imports a name it never uses."""

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
