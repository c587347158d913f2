"""Error codes: each is its class's name, and each class is raised by name."""

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import plasma_cash
from plasma_cash import errors
from plasma_cash.errors import PlasmaError

SRC = Path(plasma_cash.__file__).parent


def subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from subclasses(sub)


def defined_classes():
    """Every class ``errors.py`` defines, by name."""
    return {
        name: cls for name, cls in vars(errors).items()
        if inspect.isclass(cls) and cls.__module__ == errors.__name__
    }


def test_every_error_code_is_its_class_name():
    """Once every module is imported, the refusals are exactly the
    ``PlasmaError`` subclasses ``errors.py`` defines: no module adds one."""
    for module in pkgutil.iter_modules(plasma_cash.__path__):
        importlib.import_module(f"plasma_cash.{module.name}")
    found = set(subclasses(PlasmaError))
    assert found == {
        cls for cls in defined_classes().values()
        if issubclass(cls, PlasmaError) and cls is not PlasmaError
    }
    for cls in [PlasmaError, *found]:
        assert cls.code == cls.__name__
        assert cls().code == str(cls()) == cls.__name__


def raised_names():
    """The name of every class a ``raise`` in ``src/`` names, called or bare."""
    names = set()
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name):
                    names.add(exc.id)
    return names


def test_every_error_class_is_raised_by_name():
    """Each class in ``errors.py`` but the base names the rule a ``raise``
    in ``src/`` breaks: none is only passed around as an argument."""
    unraised = set(defined_classes()) - {"PlasmaError"} - raised_names()
    assert not unraised, sorted(unraised)
