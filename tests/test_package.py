"""Package surface: every exported name exists."""

import importlib
import pkgutil

import pytest

import gluecat

MODULES = ["gluecat"] + [f"gluecat.{m.name}" for m in pkgutil.iter_modules(gluecat.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    mod = importlib.import_module(name)
    missing = [n for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"
