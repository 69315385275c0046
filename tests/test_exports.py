"""The package's exports agree: each module's __all__ names what it defines,
and powercrit/__init__.py re-exports only names its modules export."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import powercrit

MODULES = sorted(m.name for m in pkgutil.iter_modules(powercrit.__path__) if m.name != "__main__")


def star_names(module) -> set[str]:
    """The names `from module import *` binds: __all__, else every public name."""
    names = getattr(module, "__all__", None)
    return set(names) if names is not None else {n for n in vars(module) if not n.startswith("_")}


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(f"powercrit.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == [], f"powercrit.{name}.__all__ names undefined {missing}"


def test_package_reexports_only_exported_names():
    tree = ast.parse(Path(powercrit.__file__).read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom) and node.level == 1]
    assert imports
    for node in imports:
        exported = star_names(importlib.import_module(f"powercrit.{node.module}"))
        stray = [a.name for a in node.names if a.name not in exported]
        assert stray == [], f"powercrit re-exports {stray}, missing from powercrit.{node.module}.__all__"
