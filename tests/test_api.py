"""The package surface: the public names resolve, no module keeps an
import it never uses, and no private module-level name goes unused.

No linter is installed, so both checks walk the modules' syntax trees with
``ast``: a name counts as used when a module loads it anywhere (string
annotations included) or lists it in its ``__all__``.  An import must be
used by its own module; a private name (one underscore) that a module
defines at top level must be used by some module of the package.
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
