"""Every record hashes by ``fields.record``'s one rule: the ``_frozen`` key of
its fields, a dict by the frozenset of its items.  Equal objects hash equal
however they were spelled, each object builds its key once, the classes that
once declared their stored views hash as they did, and the cached hash is
not pickled, so an object loaded in a process with another hash seed hashes
as one built there."""
import os
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from conftest import FIELDS

import reference_stages as ref
from lbxmod import QQ, fields
from lbxmod.action import ActionData
from lbxmod.algebra import LeibnizAlgebra, validate_leibniz
from lbxmod.bider import MapSpace, bider_algebra
from lbxmod.catalog import build_entry
from lbxmod.fields import FpElement, PrimeField, get_field, record, replace
from lbxmod.linalg import Matrix, Subspace
from lbxmod.xaction import XModActionData
from lbxmod.xmod import ConditionFlags, CrossedModule, XModMorphism, check_conditions, identity_morphism


def _dense(a):
    """The same algebra, given by its dense table."""
    return LeibnizAlgebra(a.field, a.dim, a.table, a.names)


def _dense_xmod(x):
    """The same crossed module, given by dense tables and rows."""
    top, base = _dense(x.top), _dense(x.base)
    return CrossedModule(top, base, Matrix.from_rows(x.top.field, x.boundary.entries),
                         ActionData(base, top, x.action.left, x.action.right))


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
    x = CrossedModule.identity_on(build_entry("sl2", f))
    return x, _dense_xmod(x)


def _reports(f):
    a = LeibnizAlgebra(f, 2, [[[1, 0], [0, 0]], [[0, 0], [0, 1]]])  # [e0, e0] = e0 breaks the identity
    return validate_leibniz(a), validate_leibniz(_dense(a))


def _map_spaces(f):
    s = bider_algebra(build_entry("sl2", f))
    return s, MapSpace(f, s.shapes, Subspace.from_rows(f, s.space.ambient, s.space.basis.entries), _dense(s.algebra))


def _morphisms(f):
    x = CrossedModule.identity_on(build_entry("sl2", f))
    g = identity_morphism(x)
    y = _dense_xmod(x)
    return g, XModMorphism(y, y, Matrix.from_rows(f, g.top_map.entries), Matrix.from_rows(f, g.base_map.entries))


def _sequences(f):
    s = build_entry("sl2-seq", f)
    return s, replace(s, first=_dense_xmod(s.first), middle=_dense_xmod(s.middle))


def _flags(f):
    flags = check_conditions(build_entry("sl2-id", f))
    return flags, ConditionFlags(con3=flags.con3, con2=flags.con2, con1=flags.con1)


def _prime_fields(f):
    p = f.characteristic or 5
    return get_field(f"F{p}"), PrimeField(p)


def _scalars(f):
    p = f.characteristic or 5
    return FpElement(1, p), PrimeField(p).coerce(Fraction(p + 1))


#: the classes that once declared their stored views to a hash of their own,
#: with those views
STORED = {_algebras: ("sparse_table",), _actions: ("sparse_left", "sparse_right"),
          _xactions: ("sparse_mq", "sparse_qm"), _matrices: ("sparse_columns",), _subspaces: ("scaled_rows",),
          _xmods: ()}
CASES = [*STORED, _reports, _map_spaces, _morphisms, _sequences, _flags, _prime_fields, _scalars]
IDS = [c.__name__.strip("_") for c in CASES]


@pytest.mark.parametrize("field", FIELDS, ids=[f.tag for f in FIELDS])
@pytest.mark.parametrize("make", CASES, ids=IDS)
def test_equal_objects_spelled_differently_hash_equal(make, field):
    one, other = make(field)
    assert one is not other and one == other and hash(one) == hash(other)


@pytest.mark.parametrize("make", CASES, ids=IDS)
def test_each_key_is_built_once_per_object(make, monkeypatch):
    calls = []
    frozen = fields._frozen

    def counted(value):  # also counts the recursive calls, which go through the module name
        calls.append(value)
        return frozen(value)

    monkeypatch.setattr(fields, "_frozen", counted)
    _one, fresh = make(QQ)  # the second object of each case is built fresh, never hashed yet
    hash(fresh)
    built = len(calls)
    hash(fresh)
    assert built > 0 and len(calls) == built


@pytest.mark.parametrize("field", FIELDS, ids=[f.tag for f in FIELDS])
@pytest.mark.parametrize("make", list(STORED), ids=IDS[:len(STORED)])
def test_a_formerly_stored_class_hashes_as_its_own_rule_did(make, field):
    """Compared in one process: before Python 3.12, ``hash(None)`` (an
    algebra's ``names``) differs between processes."""
    for obj in make(field):
        assert hash(obj) == ref.stored_hash(obj, *STORED[make])


@record
class _Tally:
    name: str
    counts: dict


def test_a_record_with_a_dict_field_hashes_without_declaring_it():
    one, other = _Tally("a", {1: 2, 3: 4}), _Tally("a", {3: 4, 1: 2})
    assert one == other and hash(one) == hash(other) == hash(("a", frozenset({(1, 2), (3, 4)})))
    assert _Tally("a", {}) != one and hash(_Tally("a", {})) == hash(("a", frozenset()))


@pytest.mark.parametrize("make", CASES, ids=IDS)
def test_no_pickled_state_holds_the_cached_hash(make):
    for obj in make(QQ):
        hash(obj)
        data = pickle.dumps(obj)
        assert "_hash" in vars(obj) and b"_hash" not in data and pickle.loads(data) == obj


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
