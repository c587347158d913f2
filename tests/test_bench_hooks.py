"""The benchmark's tracer wraps package functions by name; a rename must
fail here, not only in a benchmark run."""

import sys
from pathlib import Path

import plasma_cash  # noqa: F401  -- loads every module the tracer patches

REPO_ROOT = Path(__file__).resolve().parents[1]


def package_namespaces():
    """Snapshot of every package module's and package class's attributes."""
    state = {}
    for name, module in list(sys.modules.items()):
        if name != "plasma_cash" and not name.startswith("plasma_cash."):
            continue
        state[name] = dict(vars(module))
        for attr, value in vars(module).items():
            if isinstance(value, type) and value.__module__ == name:
                state[f"{name}.{attr}"] = dict(vars(value))
    return state


def test_tracer_installs_and_restores_every_hook(monkeypatch):
    monkeypatch.syspath_prepend(str(REPO_ROOT))
    from perfbench.tracing import Tracer

    before = package_namespaces()
    tracer = Tracer()
    try:
        tracer.install()
        assert package_namespaces() != before
    finally:
        tracer.uninstall()
    assert package_namespaces() == before
