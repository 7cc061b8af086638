"""Each public name has one home: a class or function listed in a module's
``__all__`` is defined in that module, and the package's ``__all__`` holds
only names it resolves. Every name a module imports is used in it, and
every name a module lists but the package does not is read by the program."""
from __future__ import annotations

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import pytest

import mdbench

_MODULES = sorted(info.name for info in pkgutil.iter_modules(mdbench.__path__))
_REPO = Path(__file__).resolve().parents[1]


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


def _unused_imports(path: Path) -> list:
    """The names ``path`` imports and neither uses, lists in ``__all__``
    nor marks with ``# noqa`` on the name's own line, as "line name"."""
    source = path.read_text()
    lines, tree = source.splitlines(), ast.parse(source)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    listed = {name for node in tree.body if isinstance(node, ast.Assign)
              and any(getattr(t, "id", None) == "__all__" for t in node.targets)
              for name in ast.literal_eval(node.value)}
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if getattr(node, "module", None) == "__future__":
            continue
        for alias in node.names:
            name = (alias.asname or alias.name).partition(".")[0]
            if name not in used | listed and "# noqa" not in lines[alias.lineno - 1]:
                unused.append(f"{alias.lineno} {name}")
    return unused


@pytest.mark.parametrize("path", sorted(Path(mdbench.__file__).parent.glob("*.py")),
                         ids=lambda path: path.name)
def test_every_import_is_used(path):
    assert _unused_imports(path) == []


def _names_read(paths) -> set:
    """Every name the files at ``paths`` read: a ``Name`` in load context
    or the attribute of an ``Attribute``."""
    read = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return read


def test_every_name_a_module_lists_beyond_the_package_has_a_caller():
    # the package's names are the library's API; any other listed name
    # must be read by the library, the benchmark or the scripts
    read = _names_read([*Path(mdbench.__file__).parent.glob("*.py"),
                        *(_REPO / "perfbench").glob("*.py"), *(_REPO / "scripts").glob("*.py")])
    uncalled = [f"{name}.{public}" for name in _MODULES
                for public in getattr(importlib.import_module(f"mdbench.{name}"), "__all__", ())
                if public not in mdbench.__all__ and public not in read]
    assert uncalled == []
