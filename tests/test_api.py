"""The package surface: the public names resolve on first use, each command
loads only the modules it runs, no module keeps an import it never uses, no
private module-level name goes unused, and only a record's cached hash
writes into an object's ``__dict__``.  No module imports ``dataclasses``,
and a CLI process loads neither it nor ``inspect``; one in the documented
argv form loads no ``argparse``, and one on a ``catalog:`` input loads no
``lbxmod.readers``.

No linter is installed, so the checks walk the modules' syntax trees with
``ast``: a name counts as used when a module loads it anywhere (string
annotations included) or lists it in its ``__all__``.  An import must be
used by its own module; a private name (one underscore) that a module
defines at top level must be used by some module of the package.  Cached
views are ``cached_property``s that each object fills for itself; the one
hand-filled entry is the cached hash that ``fields.record`` gives every record.
"""
import ast
import json
import pickle
import subprocess
import sys
from collections import Counter
from importlib import import_module
from inspect import isclass, isfunction
from pathlib import Path

import pytest

import lbxmod
from lbxmod import QQ
from lbxmod import serialize as ser
from lbxmod.catalog import build_entry

SRC = Path(lbxmod.__file__).resolve().parent
MODULES = sorted(p.name for p in SRC.glob("*.py"))


def test_every_public_name_resolves_once():
    assert [name for name, n in Counter(lbxmod.__all__).items() if n > 1] == []
    assert [name for name in lbxmod.__all__ if not hasattr(lbxmod, name)] == []


def test_every_public_name_is_the_object_its_defining_module_binds():
    assert set(lbxmod.__all__) == {*lbxmod._HOME, "__version__"}
    for name, module in lbxmod._HOME.items():
        home = import_module(f"lbxmod.{module}")
        obj = getattr(lbxmod, name)
        assert obj is vars(home)[name], name
        if isclass(obj) or isfunction(obj):
            assert obj.__module__ == home.__name__, name


def test_dir_lists_every_public_name():
    assert set(lbxmod.__all__) <= set(dir(lbxmod))


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        getattr(lbxmod, "no_such_name")
    assert not hasattr(lbxmod, "bider_qn_cache")
    with pytest.raises(ImportError):
        exec("from lbxmod import no_such_name", {})


def test_a_short_exact_sequence_round_trips_through_pickle():
    s = build_entry("sl2-seq", QQ)
    assert pickle.loads(pickle.dumps(s)) == s


def test_serialize_resolves_every_reader_on_first_use():
    """``serialize`` names each public function of ``readers`` and binds it
    on first use; importing ``serialize`` loads no ``readers``."""
    from lbxmod import readers

    defined = {name for name, obj in vars(readers).items()
               if not name.startswith("_") and getattr(obj, "__module__", None) == readers.__name__}
    assert defined == set(ser._READERS) and set(ser._READERS) <= set(dir(ser))
    assert all(getattr(ser, name) is getattr(readers, name) for name in ser._READERS)
    with pytest.raises(AttributeError, match="_Reader"):
        getattr(ser, "_Reader")
    assert "lbxmod.readers" not in _loaded("import lbxmod.serialize")


def _loaded(code: str, prefix: str = "lbxmod") -> list[str]:
    """The modules (the lbxmod ones by default) a fresh interpreter holds after running code."""
    script = code + f"\nimport sys, json\nprint(json.dumps(sorted(m for m in sys.modules if m.startswith({prefix!r}))))"
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, check=True).stdout
    return json.loads(out.splitlines()[-1])


def _running(*commands: tuple[str, ...]) -> str:
    """Code that runs each command through ``cli.main`` and checks it succeeds."""
    return ("import contextlib, io\nfrom lbxmod.cli import main\n"
            f"for argv in {[list(c) for c in commands]!r}:\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        assert main(argv) == 0, argv\n")


def test_import_lbxmod_alone_loads_no_submodule():
    assert _loaded("import lbxmod") == ["lbxmod"]


def test_from_lbxmod_import_star_binds_every_public_name():
    code = "from lbxmod import *\nimport lbxmod\nassert [n for n in lbxmod.__all__ if n not in globals()] == []"
    assert {"lbxmod.bider", "lbxmod.xaction"} <= set(_loaded(code))


def test_commands_that_solve_no_map_space_load_neither_bider_nor_xaction():
    loaded = _loaded(_running(
        ("validate", "catalog:sl2"), ("validate", "catalog:l2-ann-incl"), ("ann", "catalog:l2"),
        ("comm", "catalog:r2"), ("center", "catalog:sl2-id"), ("conditions", "catalog:l2-ann-incl"),
        ("semidirect", "catalog:sl2-adjoint"), ("catalog",)))
    assert "lbxmod.cli" in loaded and not {"lbxmod.bider", "lbxmod.xaction"} & set(loaded)


def test_commands_on_biderivations_load_no_xaction():
    xmod_commands = ("bider-qn", "bider-xmod", "actor", "delta", "canonical", "inner", "outer")
    loaded = _loaded(_running(("bider", "catalog:l2"), *((name, "catalog:l2-ann-incl") for name in xmod_commands),
                              ("lift", "catalog:sl2-seq")))
    assert "lbxmod.bider" in loaded and "lbxmod.xaction" not in loaded


def _imported_by_cli(*argv: str, code: int = 0) -> set[str]:
    """Every module a ``python -m lbxmod.cli ARGV`` process imports, as ``-X importtime`` lists them."""
    proc = subprocess.run([sys.executable, "-X", "importtime", "-m", "lbxmod.cli", *argv],
                          capture_output=True, text=True)
    assert proc.returncode == code, proc.stderr
    return {line.rsplit("|", 1)[1].strip() for line in proc.stderr.splitlines() if line.startswith("import time:")}


def test_the_cli_loads_neither_dataclasses_nor_inspect():
    """Each costs a CLI process milliseconds of import: ``dataclasses`` pulls
    in ``inspect``, ``ast``, ``dis`` and ``tokenize``."""
    assert not {"dataclasses", "inspect"} & set(_loaded("import lbxmod.cli", prefix=""))
    for argv in (("validate", "catalog:sl2-id"), ("actor", "catalog:sl2-id"), ("xaction-validate", "catalog:sl2-self")):
        imported = _imported_by_cli(*argv)
        assert {"lbxmod.serialize", "json"} <= imported and not {"dataclasses", "inspect"} & imported, argv


def test_a_plain_catalog_command_loads_neither_argparse_nor_the_readers(tmp_path):
    """``main`` reads the documented argv form itself, and a ``catalog:``
    input is built, not read, so argparse (with ``gettext`` and ``locale``)
    and ``lbxmod.readers`` are never compiled."""
    for argv in (("center", "catalog:sl2-id", "--field", "f3"), ("catalog",),
                 ("actor", "--out", str(tmp_path / "out.json"), "catalog:l2-id", "--field", "q")):
        assert not {"argparse", "lbxmod.readers"} & _imported_by_cli(*argv), argv


def test_help_and_usage_errors_load_argparse():
    assert "argparse" in _imported_by_cli("--help")
    assert "argparse" in _imported_by_cli("center", "--help")
    assert "argparse" in _imported_by_cli("center", code=2)
    assert "argparse" in _imported_by_cli("center", "--field=f3", "catalog:l2-id")


def test_a_file_input_loads_the_readers(tmp_path):
    path = tmp_path / "l2.json"
    path.write_text(json.dumps(ser.algebra_to_json(build_entry("l2", QQ))), encoding="utf-8")
    imported = _imported_by_cli("validate", str(path))
    assert "lbxmod.readers" in imported and "argparse" not in imported


def _absolute_imports(tree: ast.Module) -> set[str]:
    """The top-level name of every absolute module an import statement names."""
    return {name.split(".")[0] for node in ast.walk(tree)
            for name in ([a.name for a in node.names] if isinstance(node, ast.Import)
                         else [node.module] if isinstance(node, ast.ImportFrom) and not node.level else [])}


def test_no_module_imports_dataclasses():
    assert [module for module in MODULES
            if "dataclasses" in _absolute_imports(ast.parse((SRC / module).read_text(), module))] == []


def test_the_dataclasses_check_sees_each_kind_of_import():
    tree = ast.parse("import dataclasses as dc\nfrom .fields import record\n"
                     "def f():\n    from dataclasses import replace\nimport os.path\n")
    assert _absolute_imports(tree) == {"dataclasses", "os"}


def _eager_imports(tree: ast.Module, module: str) -> dict[str, str]:
    """Each import of ``bider`` or ``xaction`` that runs when the module is
    imported, as "module:line" with the module it imports: every one outside
    a function body and outside an ``if TYPE_CHECKING:`` block."""
    out = {}

    def visit(node) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            return
        if isinstance(node, ast.If) and isinstance(node.test, ast.Name) and node.test.id == "TYPE_CHECKING":
            return
        if isinstance(node, ast.ImportFrom):
            names = [node.module or ""] + [f"{node.module}.{a.name}" if node.module else a.name for a in node.names]
        elif isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        else:
            names = []
        for name in names:
            if name.rsplit(".", 1)[-1] in ("bider", "xaction"):
                out[f"{module}:{node.lineno}"] = name.rsplit(".", 1)[-1]
        for child in ast.iter_child_nodes(node):
            visit(child)

    visit(tree)
    return out


def test_no_module_imports_bider_or_xaction_when_it_is_imported():
    eager = {}
    for module in MODULES:
        eager.update(_eager_imports(ast.parse((SRC / module).read_text(), module), module))
    assert eager == {}


def test_the_eager_import_check_sees_each_kind_of_import():
    tree = ast.parse("from .bider import actor\nfrom . import xaction\nimport lbxmod.bider\n"
                     "class C:\n    from .xaction import semidirect_xmod\n"
                     "def f():\n    from .bider import bider_qn\n"
                     "if TYPE_CHECKING:\n    from .xaction import XModActionData\n"
                     "from .xmod import kernel\n")
    assert _eager_imports(tree, "m.py") == {"m.py:1": "bider", "m.py:2": "xaction", "m.py:3": "bider",
                                            "m.py:5": "xaction"}


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
            used |= {item.value for item in node.value.elts if isinstance(item, ast.Constant)}
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
    assert set(writes) == {"fields.py:record"}


def test_the_dict_write_check_sees_each_kind_of_write():
    tree = ast.parse("def f(o):\n    o.__dict__['a'] = 1\n"
                     "def g(o):\n    vars(o)['a'] += 1\n"
                     "class C:\n    def h(self, o):\n        o.__dict__.update(a=1)\n"
                     "def k(o):\n    del o.__dict__['a']\n"
                     "def read(o):\n    return o.__dict__.get('a'), vars(o)['a']\n")
    assert _writes_into_dict(tree, "m.py") == {"m.py:f": 2, "m.py:g": 4, "m.py:C": 7, "m.py:k": 9}
