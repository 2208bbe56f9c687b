"""The package surface: the public names resolve, and no module keeps an
import it never uses.

No linter is installed, so the import check walks each module's syntax tree
with ``ast``: a name an import binds counts as used when the module loads it
anywhere (string annotations included) or lists it in its ``__all__``.
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
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
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
