"""Every annotation in the package names something its module can resolve."""

import importlib
import inspect
import pkgutil
import typing

import pytest

import shascope

MODULES = [importlib.import_module(f"shascope.{m.name}") for m in pkgutil.iter_modules(shascope.__path__)]


def _defined_in(module):
    """The classes and functions a module defines, with the methods of its classes."""
    for obj in vars(module).values():
        if (inspect.isclass(obj) or inspect.isfunction(obj)) and obj.__module__ == module.__name__:
            yield obj
            if inspect.isclass(obj):
                yield from (f for f in vars(obj).values() if inspect.isfunction(f))


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_annotations_resolve(module):
    unresolved = []
    for obj in _defined_in(module):
        try:
            typing.get_type_hints(obj)
        except NameError as exc:
            unresolved.append(f"{obj.__qualname__}: {exc}")
    assert unresolved == []
