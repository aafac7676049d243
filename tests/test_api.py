"""The public surface: every module's __all__ is real and re-exported.

Each name a module lists in __all__ must exist in it, and every such name
outside the CLI module must be importable from the package itself as the
same object, so deleting a helper cannot leave a stale export behind.
"""

import importlib
import pkgutil

import pytest

import compassmodel

MODULES = sorted(m.name for m in pkgutil.iter_modules(compassmodel.__path__))


def test_every_module_declares_all():
    assert MODULES
    for name in MODULES:
        assert hasattr(importlib.import_module(f"compassmodel.{name}"), "__all__"), name


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    module = importlib.import_module(f"compassmodel.{name}")
    assert len(set(module.__all__)) == len(module.__all__)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


@pytest.mark.parametrize("name", [m for m in MODULES if m != "cli"])
def test_all_names_are_reexported(name):
    module = importlib.import_module(f"compassmodel.{name}")
    assert [n for n in module.__all__
            if getattr(compassmodel, n, None) is not getattr(module, n)] == []
