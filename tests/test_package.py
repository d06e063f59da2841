"""Package surface: every exported name exists, and every top-level
function and class of the library, and every method of such a class, is
used outside the tests, every attribute a library class stores is read
somewhere, report cells are made in one place, and caches are built by
one memo type."""

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


KINDS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _definitions(tree):
    """``(qualified name, node)`` of each top-level definition and of each
    method of a top-level class, dunders excepted."""
    out = []
    for top in tree.body:
        if isinstance(top, KINDS):
            out.append((top.name, top))
        if isinstance(top, ast.ClassDef):
            out += [(f"{top.name}.{n.name}", n) for n in top.body
                    if isinstance(n, KINDS) and not n.name.startswith("__")]
    return out


def _reads(node, own=frozenset()):
    """Names read in ``node`` (a Name or an attribute), except those of
    the definitions they sit in."""
    if isinstance(node, KINDS):
        own = own | {node.name}
    name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
    if isinstance(node, (ast.Name, ast.Attribute)) and name not in own:
        yield name
    for child in ast.iter_child_nodes(node):
        yield from _reads(child, own)


def test_every_library_definition_is_referenced():
    # a function, class or method counts as used where its name is read
    # outside its own definition; imports and __all__ strings do not count
    used = set()
    for d in USER_DIRS:
        for path in sorted((ROOT / d).rglob("*.py")):
            used.update(_reads(ast.parse(path.read_text(encoding="utf-8"))))
    unused = [
        f"{path.stem}.{qual}"
        for path in sorted((ROOT / "src" / "gluecat").glob("*.py"))
        for qual, node in _definitions(ast.parse(path.read_text(encoding="utf-8")))
        if node.name not in used
    ]
    assert not unused, f"referenced by nothing in {', '.join(USER_DIRS)}: {unused}"


def _stored(cls):
    """Names of the attributes ``cls`` stores: its dataclass fields and
    every ``self.<name>`` assigned in its body."""
    fields = []
    if any("dataclass" in ast.unparse(d) for d in cls.decorator_list):
        fields = [n.target.id for n in cls.body
                  if isinstance(n, ast.AnnAssign) and isinstance(n.target, ast.Name)]
    assigned = [n.attr for n in ast.walk(cls)
                if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Store)
                and getattr(n.value, "id", None) == "self"]
    return dict.fromkeys(fields + assigned)


def test_every_stored_attribute_is_read():
    # state that is written but never read by name is dead weight
    read = {
        node.attr
        for d in USER_DIRS + ("tests",)
        for path in sorted((ROOT / d).rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    unread = [
        f"{path.stem}.{top.name}.{name}"
        for path in sorted((ROOT / "src" / "gluecat").glob("*.py"))
        for top in ast.parse(path.read_text(encoding="utf-8")).body
        if isinstance(top, ast.ClassDef)
        for name in _stored(top)
        if name not in read
    ]
    assert not unread, f"stored but read nowhere: {unread}"


def _call_scopes(node, name, scope=()):
    """The enclosing definitions, dotted, of each call of ``name`` in
    ``node``; a nested function is its own scope."""
    if isinstance(node, KINDS):
        scope = scope + (node.name,)
    if isinstance(node, ast.Call):
        called = getattr(node.func, "id", getattr(node.func, "attr", None))
        if called == name:
            yield ".".join(scope)
    for child in ast.iter_child_nodes(node):
        yield from _call_scopes(child, name, scope)


def test_report_cells_are_made_in_one_place():
    # every cell of every suite, error cells too, comes from the one
    # recorder, so no check can name its cell two ways
    makers = [
        f"{path.stem}.{scope}"
        for path in sorted((ROOT / "src" / "gluecat").glob("*.py"))
        for scope in _call_scopes(ast.parse(path.read_text(encoding="utf-8")), "Cell")
    ]
    assert makers == ["recollement._Cells.check.record"]


def _functions(node, scope=()):
    """``(dotted scope, node)`` of every function in ``node``."""
    for child in ast.iter_child_nodes(node):
        inner = scope + (child.name,) if isinstance(child, KINDS) else scope
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield ".".join(inner), child
        yield from _functions(child, inner)


def _memo_idiom(fn) -> bool:
    """Whether ``fn`` looks a key up in a table (``t.get(k)`` or ``k in
    t``) and fills the table under the same key (``t[k] = …`` or
    ``t.setdefault(k, …)``): the get-then-set idiom of a hand-written
    cache.  A table made inside ``fn`` outlives no call, and a constant
    key registers one entry; neither is a cache."""
    made = {n.id for n in ast.walk(fn) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)}
    looked, filled = set(), set()
    for node in ast.walk(fn):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.args:
            pair = (node.func.value, node.args[0])
            if node.func.attr == "get":
                looked.add(pair)
            elif node.func.attr == "setdefault":
                filled.add(pair)
        elif isinstance(node, ast.Compare) and isinstance(node.ops[0], (ast.In, ast.NotIn)):
            looked.add((node.comparators[0], node.left))
        elif isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Store):
            filled.add((node.value, node.slice))

    def tables(pairs):
        return {(ast.unparse(t), ast.unparse(k)) for t, k in pairs
                if not isinstance(k, ast.Constant) and getattr(t, "id", None) not in made}

    return bool(tables(looked) & tables(filled))


def test_the_memo_idiom_lives_in_the_memo_type():
    # every cache is an algebra._Memo, so no other function looks a key
    # up and then fills it in.  The one other table filled that way is
    # the key interning of _validate_once, which files a key only once
    # its validator has passed
    found = [
        f"{path.stem}.{scope}"
        for path in sorted((ROOT / "src" / "gluecat").glob("*.py"))
        for scope, fn in _functions(ast.parse(path.read_text(encoding="utf-8")))
        if _memo_idiom(fn)
    ]
    assert found == ["algebra._Memo.value", "modules._validate_once"]
