"""Public names: every module's ``__all__`` and every package export resolve."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import testscope

MODULES = sorted(m.name for m in pkgutil.iter_modules(testscope.__path__) if m.name != "__main__")


@pytest.mark.parametrize("module", MODULES)
def test_a_star_import_binds_every_listed_name(module):
    # a stale ``__all__`` entry makes ``import *`` raise AttributeError
    namespace = {}
    exec(f"from testscope.{module} import *", namespace)
    listed = importlib.import_module(f"testscope.{module}").__all__
    assert len(set(listed)) == len(listed)
    assert set(listed) <= namespace.keys()


def test_every_package_export_is_a_listed_name_of_its_module():
    # each ``from .module import name`` in the package's ``__init__``
    tree = ast.parse(Path(testscope.__file__).read_text())
    exports = [
        (node.module, alias.name)
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]
    assert len(exports) > 50
    for module_name, name in exports:
        module = importlib.import_module(f"testscope.{module_name}")
        assert name in module.__all__, (module_name, name)
        assert getattr(testscope, name) is getattr(module, name), (module_name, name)
