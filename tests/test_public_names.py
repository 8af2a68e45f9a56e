"""Each module's ``__all__`` against what the module defines and what the
package and the bench import from it."""

from __future__ import annotations

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import pytest

import attnconcolic

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(f"attnconcolic.{m.name}" for m in pkgutil.iter_modules(attnconcolic.__path__))
EXPORTING = [name for name in MODULES if hasattr(importlib.import_module(name), "__all__")]


def test_the_modules_with_public_lists():
    assert EXPORTING == ["attnconcolic.acdp", "attnconcolic.engine", "attnconcolic.influence",
                         "attnconcolic.semantics", "attnconcolic.smt", "attnconcolic.solver",
                         "attnconcolic.symexpr"]


@pytest.mark.parametrize("name", EXPORTING)
def test_every_listed_name_exists(name):
    module = importlib.import_module(name)
    assert len(set(module.__all__)) == len(module.__all__)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def imported_names(path: Path) -> list[tuple[str, str]]:
    """``(module, name)`` of each public name ``path`` imports from a module
    of the package, by ``from ... import``."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            module = f"attnconcolic.{node.module}" if node.level else node.module
            found += [(module, alias.name) for alias in node.names
                      if module in MODULES and not alias.name.startswith("_")]
    return found


def test_every_function_or_class_imported_across_modules_is_listed():
    # a function or class the package's other modules or the bench import
    # is public, so its module lists it
    sources = [*(ROOT / "src" / "attnconcolic").glob("*.py"), *(ROOT / "bench").glob("*.py")]
    unlisted = set()
    for path in sources:
        for name, attr in imported_names(path):
            module = importlib.import_module(name)
            obj = getattr(module, attr)
            if (name in EXPORTING and (inspect.isfunction(obj) or inspect.isclass(obj))
                    and obj.__module__ == name and attr not in module.__all__):
                unlisted.add(f"{name}.{attr}")
    assert sorted(unlisted) == []
