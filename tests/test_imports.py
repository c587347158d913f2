"""Source hygiene: no package module imports a name it never uses, no
private name is defined that the package never reads, no coin state is
written outside the contract's one move, no client module reads the
contract's event log, and no module asserts."""

import ast
from dataclasses import fields
from pathlib import Path

import pytest

from plasma_cash.rootchain import Event

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


def state_writes(source: str):
    """The qualified names of the functions (``""`` for module level) that
    store or delete an attribute named ``state``, or set it by name."""
    found = set()

    def visit(node, scope):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = f"{scope}.{node.name}".lstrip(".")
        if isinstance(node, ast.Attribute) and node.attr == "state":
            if not isinstance(node.ctx, ast.Load):
                found.add(scope)
        elif isinstance(node, ast.Call) and len(node.args) > 1:
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            if name in ("setattr", "__setattr__") and getattr(node.args[1], "value", None) == "state":
                found.add(scope)
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), "")
    return found


def test_state_writes_are_found():
    source = (
        "class C:\n"
        "    def _move(self, coin): coin.state = 1\n"
        "    def swap(self, a, b): a.state, b.state = b.state, a.state\n"
        "    def bump(self, coin): coin.state += 1\n"
        "def forced(coin): object.__setattr__(coin, 'state', 2)\n"
        "def read(coin): return coin.state\n"
        "del C.state\n"
    )
    assert state_writes(source) == {"C._move", "C.swap", "C.bump", "forced", ""}


def test_only_the_contract_move_writes_a_coin_state():
    writers = {(p.name, scope) for p in PACKAGE.glob("*.py") for scope in state_writes(p.read_text())}
    assert writers == {("rootchain.py", "PlasmaContract._move")}


EVENT_NAMES = {"events"} | {f.name for f in fields(Event)}


def event_log_reads(source: str):
    """The names by which ``source`` reaches the contract's event log: the
    ``events`` attribute, an ``Event`` field, or the ``Event`` class itself."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr in EVENT_NAMES:
            found.add(node.attr)
        elif isinstance(node, ast.Name) and node.id == "Event":
            found.add("Event")
    return found


def test_event_log_reads_are_found():
    source = (
        "def scan(contract):\n"
        "    return [(e.kind, e.data['slot']) for e in contract.events if isinstance(e, Event)]\n"
        "def live(contract): return contract.exits\n"
    )
    assert event_log_reads(source) == {"Event", "events", "kind", "data"}


@pytest.mark.parametrize("module", ["wallet.py", "history.py"])
def test_the_client_reads_contract_state_not_its_event_log(module):
    assert event_log_reads((PACKAGE / module).read_text()) == set()


def test_only_the_contract_and_the_report_makers_touch_the_event_log():
    """``rootchain`` writes the log; ``driver`` and ``scenarios`` read it for reports."""
    touching = {p.name for p in PACKAGE.glob("*.py") if "events" in event_log_reads(p.read_text())}
    assert touching == {"rootchain.py", "driver.py", "scenarios.py"}


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_no_module_asserts(module):
    """``python -O`` drops asserts: every check must be a raise."""
    tree = ast.parse((PACKAGE / module).read_text())
    assert not [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
