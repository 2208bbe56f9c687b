"""Every stored class hashes through ``linalg._stored_hash``: equal objects
hash equal however they were spelled, each object builds its key once, and
the cached hash is not pickled, so an object loaded in a process with
another hash seed hashes as one built there."""
import os
import subprocess
import sys
from pathlib import Path

import pytest
from conftest import FIELDS

from lbxmod import QQ, linalg
from lbxmod.action import ActionData
from lbxmod.algebra import LeibnizAlgebra
from lbxmod.catalog import build_entry
from lbxmod.linalg import Matrix, Subspace
from lbxmod.xaction import XModActionData
from lbxmod.xmod import CrossedModule


def _dense(a):
    """The same algebra, given by its dense table."""
    return LeibnizAlgebra(a.field, a.dim, a.table, a.names)


def _algebras(f):
    a = build_entry("sl2", f)
    return a, _dense(a)


def _actions(f):
    a = build_entry("sl2", f)
    b = _dense(a)
    return ActionData.by_bracket(a), ActionData(b, b, b.table, b.table)


def _xactions(f):
    d = build_entry("mixed-pair-break", f)
    return d, XModActionData(d.actor_xmod, d.target_xmod, d.act_on_top, d.act_on_base, d.cross_mq, d.cross_qm)


def _matrices(f):
    m = Matrix.from_rows(f, [[1, 2], [1, 0], [0, 1]])
    return m, Matrix(f, 3, 2, tuple(dict(reversed(c.items())) for c in m.sparse_columns))  # keys in another order


def _subspaces(f):
    rows = [[1, 0, 1, 0], [0, 1, 1, 0], [0, 0, 0, 1]]
    again = [{3: 1}, {1: 1, 2: 1}, {0: 1, 2: 1}, {0: 1, 2: 1, 3: 1}]  # reversed, plus a redundant sum
    return Subspace.from_rows(f, 4, rows), Subspace.from_rows(f, 4, again)


def _xmods(f):
    a = build_entry("sl2", f)
    b = _dense(a)
    dense_identity = Matrix.from_rows(f, Matrix.identity(f, 3).entries)
    return CrossedModule.identity_on(a), CrossedModule(b, b, dense_identity, ActionData(b, b, b.table, b.table))


CASES = [_algebras, _actions, _xactions, _matrices, _subspaces, _xmods]
IDS = [c.__name__.strip("_") for c in CASES]


@pytest.mark.parametrize("field", FIELDS, ids=[f.tag for f in FIELDS])
@pytest.mark.parametrize("make", CASES, ids=IDS)
def test_equal_objects_spelled_differently_hash_equal(make, field):
    one, other = make(field)
    assert one is not other and one == other and hash(one) == hash(other)


@pytest.mark.parametrize("make", CASES, ids=IDS)
def test_each_key_is_built_once_per_object(make, monkeypatch):
    calls = []
    frozen = linalg._frozen

    def counted(value):  # also counts the recursive calls, which go through the module name
        calls.append(value)
        return frozen(value)

    monkeypatch.setattr(linalg, "_frozen", counted)
    _one, fresh = make(QQ)  # the second object of each case is built fresh, never hashed yet
    hash(fresh)
    built = len(calls)
    hash(fresh)
    assert built > 0 and len(calls) == built


# Built and hashed in the first process, pickled, and loaded in the second,
# where every object must hash as a fresh build and be found as a dict key.
_OBJECTS = """
from lbxmod import QQ
from lbxmod.action import ActionData
from lbxmod.catalog import build_entry
from lbxmod.linalg import Matrix, Subspace
from lbxmod.xmod import CrossedModule
a = build_entry("sl2", QQ)  # its names are strs, whose hashes depend on the seed
objects = (a, ActionData.by_bracket(a), CrossedModule.identity_on(a), Matrix.identity(QQ, 3), Subspace.full(QQ, 3))
"""
_DUMP = _OBJECTS + """
import pickle, sys
for o in objects:
    hash(o)  # caches it
sys.stdout.buffer.write(pickle.dumps(objects))
"""
_LOAD = _OBJECTS + """
import pickle, sys
for old, new in zip(pickle.loads(sys.stdin.buffer.read()), objects):
    print(old == new, hash(old) == hash(new), old in {new: 1})
"""


def test_a_pickled_object_hashes_as_a_fresh_build_under_another_hash_seed():
    src = str(Path(__file__).resolve().parent.parent / "src")

    def run(code, seed, data=b""):
        env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed)
        return subprocess.run([sys.executable, "-c", code], input=data, env=env, capture_output=True,
                              check=True).stdout

    out = run(_LOAD, "2", run(_DUMP, "1")).decode().split("\n")
    assert out == ["True True True"] * 5 + [""]
