"""Error codes: each is its class's name."""

import importlib
import pkgutil

import plasma_cash
from plasma_cash.errors import PlasmaError


def subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from subclasses(sub)


def test_every_error_code_is_its_class_name():
    for module in pkgutil.iter_modules(plasma_cash.__path__):
        importlib.import_module(f"plasma_cash.{module.name}")
    errors = list(subclasses(PlasmaError))
    assert len(errors) >= 30
    for cls in [PlasmaError] + errors:
        assert cls.code == cls.__name__
        assert cls().code == str(cls()) == cls.__name__
