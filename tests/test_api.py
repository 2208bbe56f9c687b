"""The package surface: the public names resolve, no module keeps an
import it never uses, no private module-level name goes unused, and only
the stored form's hash writes into an object's ``__dict__``.

No linter is installed, so the checks walk the modules' syntax trees with
``ast``: a name counts as used when a module loads it anywhere (string
annotations included) or lists it in its ``__all__``.  An import must be
used by its own module; a private name (one underscore) that a module
defines at top level must be used by some module of the package.  Cached
views are ``cached_property``s that each object fills for itself; the one
hand-filled entry is the cached hash of ``linalg._stored_hash``.
"""
import ast
from collections import Counter
from pathlib import Path

import pytest

import lbxmod

SRC = Path(lbxmod.__file__).resolve().parent
MODULES = sorted(p.name for p in SRC.glob("*.py"))


def test_every_public_name_resolves_once():
    assert [name for name, n in Counter(lbxmod.__all__).items() if n > 1] == []
    assert [name for name in lbxmod.__all__ if not hasattr(lbxmod, name)] == []


def _imported(tree: ast.Module) -> dict[str, int]:
    """Each name an import statement binds, with its line."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                out[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                out[alias.asname or alias.name] = node.lineno
    return out


def _used(tree: ast.Module) -> set[str]:
    """The names the module loads, in code, in string annotations and in ``__all__``."""
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    for node in ast.walk(tree):
        if isinstance(node, (ast.arg, ast.AnnAssign)):
            notes = [node.annotation]
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            notes = [node.returns]
        else:
            notes = []
        for note in notes:
            for sub in ast.walk(note) if note is not None else ():
                if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                    used |= {n.id for n in ast.walk(ast.parse(sub.value, mode="eval")) if isinstance(n, ast.Name)}
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used |= set(ast.literal_eval(node.value))
    return used


@pytest.mark.parametrize("module", MODULES)
def test_no_module_imports_a_name_it_never_uses(module):
    tree = ast.parse((SRC / module).read_text(), module)
    used = _used(tree)
    assert {name: line for name, line in _imported(tree).items() if name not in used} == {}


def test_the_import_check_sees_an_unused_name():
    tree = ast.parse("from typing import Optional, Sequence\nimport os.path\n"
                     "def f(x: 'Sequence[int]') -> None:\n    return None\n")
    assert set(_imported(tree)) - _used(tree) == {"Optional", "os"}


def _private_definitions(tree: ast.Module) -> dict[str, int]:
    """Each private name the module defines at top level, with its line."""
    out = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            names = []
        out.update((name, node.lineno) for name in names if name.startswith("_") and not name.startswith("__"))
    return out


def _unused_private(trees: dict[str, ast.Module]) -> dict[str, int]:
    """The private top-level names no module loads, as "module:name" with the line."""
    used = set().union(*map(_used, trees.values()))
    return {f"{module}:{name}": line for module, tree in trees.items()
            for name, line in _private_definitions(tree).items() if name not in used}


def test_every_private_module_level_name_is_used():
    trees = {module: ast.parse((SRC / module).read_text(), module) for module in MODULES}
    assert _unused_private(trees) == {}


def test_the_private_name_check_sees_an_unused_name():
    trees = {"a.py": ast.parse("_LIMIT = 3\n_Pair = tuple[int, int]\n"
                               "def _orphan(): return _LIMIT\n"
                               "def _shared(x: '_Pair'): return x\n"),
             "b.py": ast.parse("from .a import _shared\n_cache = {}\n_cache[1] = _shared(2)\n")}
    assert _unused_private(trees) == {"a.py:_orphan": 3}


def _writes_into_dict(tree: ast.Module, module: str) -> dict[str, int]:
    """Each top-level definition that writes into an object's ``__dict__``
    (or ``vars()``), as "module:name" with the line: an item assigned,
    augmented or deleted, or a method called on it that changes it."""
    def is_dict(node) -> bool:
        return (isinstance(node, ast.Attribute) and node.attr == "__dict__"
                or isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "vars")

    out = {}
    for top in tree.body:
        name = getattr(top, "name", "<module>")
        for node in ast.walk(top):
            if isinstance(node, (ast.Assign, ast.Delete)):
                targets = node.targets
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            else:
                targets = []
            written = any(isinstance(t, ast.Subscript) and is_dict(t.value) for t in targets)
            called = (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and is_dict(node.func.value)
                      and node.func.attr in ("update", "setdefault", "pop", "popitem", "clear"))
            if written or called:
                out.setdefault(f"{module}:{name}", node.lineno)
    return out


def test_only_the_stored_hash_writes_into_an_object_dict():
    writes = {}
    for module in MODULES:
        writes.update(_writes_into_dict(ast.parse((SRC / module).read_text(), module), module))
    assert set(writes) == {"linalg.py:_stored_hash"}


def test_the_dict_write_check_sees_each_kind_of_write():
    tree = ast.parse("def f(o):\n    o.__dict__['a'] = 1\n"
                     "def g(o):\n    vars(o)['a'] += 1\n"
                     "class C:\n    def h(self, o):\n        o.__dict__.update(a=1)\n"
                     "def k(o):\n    del o.__dict__['a']\n"
                     "def read(o):\n    return o.__dict__.get('a'), vars(o)['a']\n")
    assert _writes_into_dict(tree, "m.py") == {"m.py:f": 2, "m.py:g": 4, "m.py:C": 7, "m.py:k": 9}
