"""The ``record`` decorator behaves as ``dataclass(frozen=True)`` did on
every record class of the package.

The classes are found by scanning each module for ``@record``.  One instance
of each is collected from real objects (catalog entries and the results of
the constructions on them), walking their fields; every check then runs on
that instance's own field values.
"""
import ast
import dataclasses
from importlib import import_module
from pathlib import Path

import pytest

import lbxmod
from lbxmod import GF3, QQ
from lbxmod.action import semidirect_algebra
from lbxmod.algebra import LeibnizAlgebra, validate_leibniz
from lbxmod.bider import bider_qn, lift_sequence
from lbxmod.catalog import CATALOG, build_entry
from lbxmod.fields import FpElement, FrozenRecordError, record, replace
from lbxmod.linalg import Matrix, rref
from lbxmod.xaction import morphism_from_action, semidirect_xmod
from lbxmod.xmod import ConditionFlags, center, condition_profile

SRC = Path(lbxmod.__file__).resolve().parent


def _record_classes() -> list[type]:
    """Every class of the package decorated with ``@record``, module by module."""
    out = []
    for module in sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py"):
        tree = ast.parse((SRC / module).read_text(), module)
        home = import_module(f"lbxmod.{module[:-3]}")
        out += [getattr(home, node.name) for node in tree.body if isinstance(node, ast.ClassDef)
                and any(isinstance(d, ast.Name) and d.id == "record" for d in node.decorator_list)]
    return out


RECORDS = _record_classes()


@pytest.fixture(scope="module")
def samples() -> dict[type, object]:
    """The first instance of each record class met in a walk over the
    fields of a few real objects, built when the first test here runs."""
    x = build_entry("sl2-id", QQ)
    d = build_entry("sl2-self", QQ)
    not_leibniz = LeibnizAlgebra.from_brackets(QQ, 2, {(0, 0): {1: 1}, (0, 1): {0: 1}})
    roots = [GF3, GF3.one, CATALOG["sl2"], build_entry("sl2-seq", GF3), lift_sequence(build_entry("sl2-seq", QQ)),
             center(x), bider_qn(x), rref(x.boundary), validate_leibniz(not_leibniz),
             semidirect_algebra(build_entry("sl2-adjoint", QQ)), ConditionFlags.from_profile(condition_profile(x)),
             d, morphism_from_action(d), semidirect_xmod(d)]
    found = {}

    def walk(obj) -> None:
        if isinstance(obj, tuple):
            for item in obj:
                walk(item)
        elif type(obj) in RECORDS and type(obj) not in found:
            found[type(obj)] = obj
            for name in obj.__match_args__:
                walk(getattr(obj, name))

    walk(tuple(roots))
    return found



def _fields(obj) -> dict:
    return {name: getattr(obj, name) for name in obj.__match_args__}


def _defaults(cls: type) -> dict:
    return {name: cls.__dict__[name] for name in cls.__match_args__ if name in cls.__dict__}


def test_every_record_class_is_found_and_sampled(samples):
    assert len(RECORDS) == 23 and len(set(RECORDS)) == 23
    assert {cls.__name__ for cls in RECORDS} >= {"FpElement", "PrimeField", "Matrix", "Subspace", "LeibnizAlgebra",
                                                  "CrossedModule", "MapSpace", "XModActionData", "CatalogEntry"}
    assert [cls.__name__ for cls in RECORDS if cls not in samples] == []
    assert all(cls.__match_args__ == tuple(cls.__annotations__) for cls in RECORDS)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_positional_and_keyword_construction_agree(cls, samples):
    obj = samples[cls]
    values = _fields(obj)
    by_position, by_keyword = cls(*values.values()), cls(**values)
    assert by_position == by_keyword == obj and _fields(by_keyword) == values
    assert hash(by_position) == hash(by_keyword) == hash(obj)
    assert not (by_position != obj)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_defaults_apply(cls, samples):
    values = _fields(samples[cls])
    defaults = _defaults(cls)
    rest = {name: value for name, value in values.items() if name not in defaults}
    assert _fields(cls(**rest)) == {**values, **defaults}
    assert _fields(cls(*rest.values())) == {**values, **defaults}


def test_the_defaults_are_the_documented_ones():
    assert {cls.__name__: _defaults(cls) for cls in RECORDS if _defaults(cls)} == {
        "LeibnizAlgebra": {"names": None}, "ValidationReport": {"violations": ()}, "SubXMod": {"warnings": ()}}
    assert lbxmod.ValidationReport().ok


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_a_missing_unknown_or_repeated_argument_is_a_type_error(cls, samples):
    values = _fields(samples[cls])
    first, *_ = values
    calls = [lambda: cls(*values.values(), no_such_field=1),
             lambda: cls(*values.values(), **{first: values[first]}),
             lambda: cls(*values.values(), values[first])]
    calls += [lambda k=k: cls(**{n: v for n, v in values.items() if n != k})
              for k in values if k not in _defaults(cls)]
    for call in calls:
        with pytest.raises(TypeError):
            call()


def test_argument_errors_name_the_fields_and_the_arguments():
    with pytest.raises(TypeError, match=r"^PrimeField\(\) takes each of p once; got 0 by position and none by keyword$"):
        lbxmod.PrimeField()
    with pytest.raises(TypeError, match="got 1 by position and q by keyword"):
        lbxmod.PrimeField(3, q=3)
    with pytest.raises(TypeError, match="got 1 by position and p by keyword"):
        lbxmod.PrimeField(3, p=3)
    with pytest.raises(TypeError, match="got 2 by position and none"):
        lbxmod.PrimeField(3, 3)
    with pytest.raises(TypeError, match=r"takes each of field, rows, cols, sparse_columns once"):
        Matrix(QQ, rows=1, cols=1)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_fields_cannot_be_set_or_deleted(cls, samples):
    obj = samples[cls]
    for name, value in _fields(obj).items():
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(obj, name, value)
        with pytest.raises(FrozenRecordError, match=f"cannot delete field '{name}'"):
            delattr(obj, name)
    with pytest.raises(FrozenRecordError):
        obj.no_such_field = 1
    assert issubclass(FrozenRecordError, AttributeError)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_equality_holds_within_the_class_only(cls, samples):
    obj = samples[cls]
    twin_cls = dataclasses.make_dataclass(cls.__name__, cls.__match_args__, frozen=True)
    twin = twin_cls(*_fields(obj).values())
    assert obj.__eq__(twin) is NotImplemented and obj.__eq__(object()) is NotImplemented
    assert obj != twin and twin != obj and obj == obj


@pytest.mark.parametrize("cls", [cls for cls in RECORDS if "__repr__" not in vars(cls) or cls is FpElement],
                         ids=lambda cls: cls.__name__)
def test_repr_is_the_dataclass_repr(cls, samples):
    """Except where the class defines its own (``FpElement``, ``PrimeField``)."""
    obj = samples[cls]
    twin_cls = dataclasses.make_dataclass(cls.__name__, cls.__match_args__, frozen=True)
    want = repr(twin_cls(*_fields(obj).values()))
    assert (repr(obj) == want) is (cls is not FpElement)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_replace_rebuilds_through_init(cls, samples, monkeypatch):
    obj = samples[cls]
    runs = []
    if hasattr(cls, "__post_init__"):
        post = cls.__post_init__
        monkeypatch.setattr(cls, "__post_init__", lambda self: (runs.append(self), post(self)))
    first, *_ = obj.__match_args__
    again = replace(obj, **{first: getattr(obj, first)})
    assert again == obj and again is not obj
    assert len(runs) == hasattr(cls, "__post_init__")
    with pytest.raises(TypeError):
        replace(obj, no_such_field=1)


def test_replace_checks_the_new_values():
    with pytest.raises(lbxmod.InputDataError, match="not prime"):
        replace(GF3, p=4)
    x = build_entry("sl2-id", QQ)
    with pytest.raises(lbxmod.InputDataError, match="boundary matrix shape"):
        replace(x, boundary=Matrix.zeros(QQ, 1, 3))


def test_a_class_keeps_the_dunders_it_defines():
    @record
    class Pair:
        a: int
        b: int = 2

        def __eq__(self, other):
            return True

        __hash__ = None

    assert Pair(1) == Pair(5, 6) and Pair.__hash__ is None and repr(Pair(1)) == f"{Pair.__qualname__}(a=1, b=2)"
    assert Pair.__match_args__ == ("a", "b") and Pair(b=3, a=1).b == 3
