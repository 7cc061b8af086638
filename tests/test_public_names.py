"""Each public name has one home: a class or function listed in a module's
``__all__`` is defined in that module, and the package's ``__all__`` holds
only names it resolves."""
from __future__ import annotations

import importlib
import inspect
import pkgutil

import pytest

import mdbench

_MODULES = sorted(info.name for info in pkgutil.iter_modules(mdbench.__path__))


@pytest.mark.parametrize("name", _MODULES)
def test_module_lists_only_what_it_defines(name):
    module = importlib.import_module(f"mdbench.{name}")
    for public in getattr(module, "__all__", ()):
        obj = getattr(module, public)
        if inspect.isclass(obj) or inspect.isfunction(obj):
            assert obj.__module__ == module.__name__, (module.__name__, public)


def test_package_names_resolve():
    for public in mdbench.__all__:
        assert hasattr(mdbench, public), public


def test_bound_evaluators_are_reached_through_bounds_only():
    bounds = importlib.import_module("mdbench.bounds")
    solvers = importlib.import_module("mdbench.solvers")
    for public in bounds.__all__:
        assert not hasattr(solvers, public), public
        assert getattr(mdbench, public) is getattr(bounds, public), public
