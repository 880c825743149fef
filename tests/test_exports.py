"""Every exported name exists, and the package exports only what its modules declare.

Nothing star-imports the cqlock modules, so a stale __all__ entry would
otherwise go unnoticed.
"""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import cqlock

# cli is the command-line entry point and exports nothing
MODULES = sorted(m.name for m in pkgutil.iter_modules(cqlock.__path__) if m.name != "cli")


def _package_imports():
    """(module, name) of each public name that cqlock/__init__.py imports from a submodule."""
    tree = ast.parse(Path(cqlock.__file__).read_text())
    return [
        (node.module, alias.name)
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
        if not alias.name.startswith("_")
    ]


@pytest.mark.parametrize("module", MODULES)
def test_every_all_entry_exists(module):
    mod = importlib.import_module(f"cqlock.{module}")
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing, f"cqlock.{module}.__all__ names {missing}, which the module does not define"


def test_package_imports_are_declared():
    imports = _package_imports()
    assert {module for module, _ in imports} == set(MODULES)
    undeclared = [f"{module}.{name}" for module, name in imports
                  if name not in importlib.import_module(f"cqlock.{module}").__all__]
    assert not undeclared, f"cqlock imports {undeclared}, which are not in their modules' __all__"
