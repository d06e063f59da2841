"""Package surface: every exported name exists, and every top-level
function and class of the library is used outside the tests."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import gluecat

MODULES = ["gluecat"] + [f"gluecat.{m.name}" for m in pkgutil.iter_modules(gluecat.__path__)]
ROOT = Path(__file__).resolve().parent.parent
USER_DIRS = ("src", "scripts", "perfbench")


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    mod = importlib.import_module(name)
    missing = [n for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"


def _top_level(tree):
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    return [n for n in tree.body if isinstance(n, kinds)]


def test_every_library_definition_is_referenced():
    # a name counts as used where it is read (a Name or an attribute),
    # outside its own definition; imports and __all__ strings do not count
    used = set()
    for d in USER_DIRS:
        for path in sorted((ROOT / d).rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            defined = _top_level(tree)
            for top in tree.body:
                own = top.name if top in defined else None
                for node in ast.walk(top):
                    name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
                    if isinstance(node, (ast.Name, ast.Attribute)) and name != own:
                        used.add(name)
    unused = [
        f"{path.stem}.{node.name}"
        for path in sorted((ROOT / "src" / "gluecat").glob("*.py"))
        for node in _top_level(ast.parse(path.read_text(encoding="utf-8")))
        if node.name not in used
    ]
    assert not unused, f"referenced by nothing in {', '.join(USER_DIRS)}: {unused}"
