"""JSON round trips for every object kind, plus rejection of bad payloads.

Each document is read through one scalar memo; the tests at the end check
that it reads generated documents in any spelling as per-entry parsing
does, and still refuses near misses of a scalar it has already read.  Dense
tensors and matrices are read and written a whole tensor at a time; the
last tests compare that codec with the per-entry one kept in
``reference_stages``, and check that a malformed tensor still reports its
first fault in document order under any hash seed."""
import json
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path
from unittest import mock

import pytest
import reference_stages as ref
from conftest import FIELDS, XMOD_IDS
from hypothesis import given, settings
from hypothesis import strategies as st
from strategies import actions, algebras, matrices, xactions, xmods

from lbxmod import InputDataError, readers
from lbxmod import serialize as ser
from lbxmod.catalog import CATALOG, build_entry
from lbxmod.cli import EXIT_BAD_INPUT, EXIT_OK, main
from lbxmod.fields import GF3, QQ
from lbxmod.linalg import Subspace, number
from lbxmod.serialize import (
    action_from_json,
    action_to_json,
    actor_morphism_from_json,
    actor_morphism_to_json,
    algebra_from_json,
    algebra_to_json,
    load_any,
    matrix_from_json,
    matrix_to_json,
    sequence_from_json,
    sequence_to_json,
    sniff_kind,
    xaction_from_json,
    xaction_to_json,
    xmod_from_json,
    xmod_to_json,
)
from lbxmod.xaction import morphism_from_action

TO_JSON = {
    "algebra": algebra_to_json,
    "action": action_to_json,
    "xmod": xmod_to_json,
    "xaction": xaction_to_json,
    "sequence": sequence_to_json,
}
FROM_JSON = {
    "algebra": algebra_from_json,
    "action": action_from_json,
    "xmod": xmod_from_json,
    "xaction": xaction_from_json,
    "sequence": sequence_from_json,
}


@pytest.mark.parametrize("cid", sorted(CATALOG))
def test_every_catalog_entry_round_trips(cid, field):
    kind = CATALOG[cid].kind
    obj = build_entry(cid, field)
    blob = TO_JSON[kind](obj)
    # force a real serialization pass: through text and back
    blob = json.loads(json.dumps(blob))
    assert sniff_kind(blob) == kind
    again = FROM_JSON[kind](field, blob)
    assert again == obj
    kind2, parsed = load_any(field, blob)
    assert kind2 == kind and parsed == obj


def test_morphism_round_trip():
    fm = morphism_from_action(build_entry("sl2-self", QQ)).morphism
    blob = json.loads(json.dumps(actor_morphism_to_json(fm)))
    assert sniff_kind(blob) == "morphism"
    assert actor_morphism_from_json(QQ, blob) == fm


def test_rational_scalars_serialize_as_strings():
    alg = build_entry("sl2", QQ)
    blob = algebra_to_json(alg)
    flat = json.dumps(blob)
    assert '"-2"' in flat  # the e-h bracket coefficient, as a string
    assert algebra_from_json(QQ, json.loads(flat)) == alg


def test_prime_field_scalars_are_plain_ints():
    alg = build_entry("sl2", GF3)
    blob = algebra_to_json(alg)
    for _, _, cells in blob["brackets"]:
        for _, coeff in cells:
            assert isinstance(coeff, int) and 0 <= coeff < 3


def test_field_tag_mismatch_is_rejected():
    blob = algebra_to_json(build_entry("l2", QQ))
    blob["field"] = "q"  # root tag, honored by load_any and the CLI
    with pytest.raises(InputDataError):
        load_any(GF3, blob)
    assert load_any(QQ, blob)[0] == "algebra"


def test_duplicate_bracket_entries_are_rejected():
    blob = algebra_to_json(build_entry("l2", QQ))
    blob["brackets"].append(blob["brackets"][0])
    with pytest.raises(InputDataError):
        algebra_from_json(QQ, blob)


def test_matrix_shape_mismatch_is_rejected():
    m = build_entry("l2-ann-incl", QQ).boundary
    blob = matrix_to_json(m)
    blob["entries"] = blob["entries"][:1]
    with pytest.raises(InputDataError):
        matrix_from_json(QQ, blob)


def test_bad_scalar_strings_are_rejected():
    blob = algebra_to_json(build_entry("l2", QQ))
    blob["brackets"][0][2][0][1] = "one half"
    with pytest.raises(InputDataError):
        algebra_from_json(QQ, blob)


def test_a_matrix_wider_than_max_dim_is_refused_before_its_columns_are_built(capsys, tmp_path):
    """A matrix's columns index the basis of an input algebra, so a width past
    ``MAX_DIM`` is refused before a column is allocated."""
    doc = xmod_to_json(build_entry("l2-ann-incl", QQ))
    doc["boundary"] = {"rows": 0, "cols": 10 ** 9, "entries": []}
    tracemalloc.start()
    try:
        with pytest.raises(InputDataError, match="outside"):
            xmod_from_json(QQ, doc)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(doc))
    code = main(["validate", str(path)])
    captured = capsys.readouterr()
    assert code == EXIT_BAD_INPUT and captured.err == ""
    assert json.loads(captured.out)["error"] == "dimension 1000000000 outside [0, 64]"


@pytest.mark.parametrize("doc, kind", [
    ({"xi1": [], "boundary": {}}, "xaction"),
    ({"actor": {}, "brackets": []}, "algebra"),
], ids=["xi1-with-boundary", "actor-without-left"])
def test_a_document_with_two_markers_is_the_first_kind_in_order(doc, kind):
    assert sniff_kind(doc) == kind


def test_unrecognizable_payloads_are_rejected():
    with pytest.raises(InputDataError):
        sniff_kind({"field": "q", "surprise": 1})
    with pytest.raises(InputDataError):
        load_any(QQ, ["not", "an", "object"])


def test_tensor_shape_mismatch_is_rejected():
    blob = xaction_to_json(build_entry("sl2-self", QQ))
    blob["xi1"][0] = blob["xi1"][0][:1]
    with pytest.raises(InputDataError):
        xaction_from_json(QQ, blob)


def test_algebra_names_survive_the_round_trip():
    sl2 = build_entry("sl2", QQ)
    assert sl2.names == ("e", "h", "f")
    blob = algebra_to_json(sl2)
    assert blob["names"] == ["e", "h", "f"]
    assert algebra_from_json(QQ, blob).names == ("e", "h", "f")
    from lbxmod.algebra import LeibnizAlgebra

    nameless = LeibnizAlgebra.from_brackets(QQ, 2, {})
    assert "names" not in algebra_to_json(nameless)


# -- one scalar reader per document ----------------------------------------------
#
# Each top-level reader parses every distinct JSON string or integer once and
# reuses the scalar; the memo must not let a near miss through.

NEAR_MISSES = (True, 1.0, "1_0", "+1", " 1", "\u0663")  # the last: ARABIC-INDIC DIGIT THREE


def _xmod_doc(site: str, value) -> dict:
    """A crossed-module document that reads 1 and "1" in its top algebra and
    in the first entries of its boundary and action, then ``value`` at one
    later site: a bracket term, a matrix entry or a dense tensor entry."""
    def at(here, other=0):
        return value if site == here else other

    return {
        "top": {"dim": 2, "brackets": [[0, 0, [[0, 1], [1, "1"]]]]},
        "base": {"dim": 2, "brackets": [[0, 0, [[0, "1"]]], [1, 1, [[1, at("bracket", 1)]]]]},
        "boundary": {"rows": 2, "cols": 2, "entries": [[1, "1"], [0, at("matrix")]]},
        "action": {"left": [[[1, "1"], [0, 0]], [[0, 0], [0, at("tensor")]]],
                   "right": [[[0, 0], [0, 0]], [[0, 0], [0, 0]]]},
    }


@pytest.mark.parametrize("site", ("bracket", "matrix", "tensor"))
@pytest.mark.parametrize("bad", NEAR_MISSES, ids=repr)
def test_a_document_that_read_1_still_refuses_near_misses(field, site, bad, tmp_path, capsys):
    x = xmod_from_json(field, _xmod_doc(site, 1))
    one = field.one
    assert x.top.table[0][0] == (one, one) and x.boundary.entries[0] == (one, one)
    assert x.action.left[0][0] == (one, one) and x.base.table[0][0] == (one, field.zero)
    with pytest.raises(InputDataError):
        xmod_from_json(field, _xmod_doc(site, bad))
    path = tmp_path / "near-miss.json"
    path.write_text(json.dumps(_xmod_doc(site, bad)), encoding="utf-8")
    assert main(["validate", str(path), "--field", field.tag]) == EXIT_BAD_INPUT
    assert "error" in json.loads(capsys.readouterr().out)


# Dense action tensors are read into sparse views, but every entry still goes
# through the reader: a malformed zero is refused, not skipped as a zero.
ZERO_NEAR_MISSES = ("0_0", True, 0.0, "\u0660")  # the last: ARABIC-INDIC DIGIT ZERO


@pytest.mark.parametrize("tensor", ("left", "right"))
@pytest.mark.parametrize("bad", ZERO_NEAR_MISSES, ids=repr)
def test_a_malformed_zero_in_a_dense_action_tensor_is_refused(field, tensor, bad, tmp_path, capsys):
    doc = _xmod_doc("tensor", 0)
    assert xmod_from_json(field, doc).action.sparse_right[0][1] == {}
    doc["action"][tensor][0][1][0] = bad  # a zero of both tensors
    with pytest.raises(InputDataError):
        xmod_from_json(field, doc)
    path = tmp_path / "malformed-zero.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["validate", str(path), "--field", field.tag]) == EXIT_BAD_INPUT
    assert "error" in json.loads(capsys.readouterr().out)


def _malformed_tensor_doc(tensor: str, faults) -> dict:
    """The 2-dimensional crossed module of ``_xmod_doc`` with each (path,
    value) of faults written into one of its action tensors."""
    doc = _xmod_doc("tensor", 0)
    for path, value in faults:
        *outer, last = path
        target = doc["action"][tensor]
        for i in outer:
            target = target[i]
        target[last] = value
    return doc


# Each document's first fault in document order, and the report naming it.
FIRST_FAULTS = [
    (_malformed_tensor_doc("left", [((0, 1, 1), "x"), ((1, 0, 0), "1/0")]), "bad rational scalar 'x'"),
    (_malformed_tensor_doc("right", [((0, 1, 0), "x"), ((1, 0), [0])]), "bad rational scalar 'x'"),
    (_malformed_tensor_doc("right", [((0, 1), [0]), ((1, 0, 1), "x")]), "tensor vectors must have 2 entries"),
]


@pytest.mark.parametrize("seed", ("0", "1"))
@pytest.mark.parametrize("doc, error", FIRST_FAULTS, ids=("two-bad-tokens", "token-then-short", "short-then-token"))
def test_a_malformed_tensor_reports_its_first_fault_under_any_hash_seed(doc, error, seed, tmp_path):
    """Whole tensors are checked at once, but the fault reported is the
    first in document order, not the first in a set's hash order."""
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"), PYTHONHASHSEED=seed)
    proc = subprocess.run([sys.executable, "-m", "lbxmod.cli", "validate", str(path)],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == EXIT_BAD_INPUT and proc.stderr == ""
    assert json.loads(proc.stdout) == {"command": "validate", "field": "q", "input": str(path), "error": error}


def _respelled(doc: dict, field, rng: random.Random) -> dict:
    """doc with each scalar in one of its equivalent spellings: Q integers as
    JSON strings or integers, fractions unreduced; residues as integers or
    strings, reduced or not."""
    def alt(v):
        if field.characteristic == 0:
            num, _, den = v.partition("/")
            return rng.choice((v, f"{2 * int(num)}/{2 * int(den)}") if den else (v, int(v)))
        return rng.choice((v, str(v), v + field.p, str(v - field.p)))

    def leaves(t):
        return [leaves(c) for c in t] if isinstance(t, list) else alt(t)

    out = {}
    for key, val in doc.items():
        if key in ("left", "right", "xi1", "xi2", "entries"):
            out[key] = leaves(val)
        elif key == "brackets":
            out[key] = [[i, j, [[k, alt(c)] for k, c in terms]] for i, j, terms in val]
        else:
            out[key] = _respelled(val, field, rng) if isinstance(val, dict) else val
    return out


GENERATED = {"algebra": algebras, "action": actions, "xmod": xmods, "xaction": xactions}


class _Uncached(readers._Reader):
    """The document reader's interface with no memo: every token is parsed."""

    def __getitem__(self, x):
        return number(self.parse(x))


@pytest.mark.parametrize("field", FIELDS, ids=[f.tag for f in FIELDS])
@pytest.mark.parametrize("kind", sorted(GENERATED))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_generated_documents_read_as_entry_by_entry(field, kind, data):
    obj = data.draw(GENERATED[kind](field))
    text = json.dumps(TO_JSON[kind](obj))
    assert FROM_JSON[kind](field, json.loads(text)) == obj
    doc = _respelled(json.loads(text), field, random.Random(data.draw(st.integers(0, 2**16))))
    with mock.patch.object(readers, "_Reader", _Uncached):
        expected = FROM_JSON[kind](field, doc)
    assert FROM_JSON[kind](field, doc) == expected == obj


# -- the whole-tensor codec against the per-entry one ------------------------------
#
# ``reference_stages`` keeps the per-entry readers and the writers that filled
# each dense vector through ``field.scalar_to_json``: documents must read to
# equal objects and write to the same text.


PER_ENTRY_READERS = {"_tensor": lambda read, *shape: ref.read_tensor_by_entry(read.parse, *shape),
                     "_matrix": lambda f, read, obj: ref.read_matrix_by_entry(f, read.parse, obj)}
PER_ENTRY_WRITERS = {"tensor_to_json": ref.tensor_to_json_by_vector, "matrix_to_json": ref.matrix_to_json_by_row}


@pytest.mark.parametrize("field", FIELDS, ids=[f.tag for f in FIELDS])
@pytest.mark.parametrize("kind", sorted(GENERATED))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_generated_documents_match_the_per_entry_codec(field, kind, data):
    obj = data.draw(GENERATED[kind](field))
    text = json.dumps(TO_JSON[kind](obj))
    with mock.patch.multiple(ser, **PER_ENTRY_WRITERS):
        assert json.dumps(TO_JSON[kind](obj)) == text
    rng = random.Random(data.draw(st.integers(0, 2**16)))
    for doc in (json.loads(text), _respelled(json.loads(text), field, rng)):
        with mock.patch.multiple(readers, **PER_ENTRY_READERS):
            expected = FROM_JSON[kind](field, doc)
        assert FROM_JSON[kind](field, doc) == expected == obj


@pytest.mark.parametrize("cid", sorted(CATALOG))
def test_catalog_documents_write_as_the_per_entry_codec(cid, field):
    obj, to_json = build_entry(cid, field), TO_JSON[CATALOG[cid].kind]
    text = json.dumps(to_json(obj))
    with mock.patch.multiple(ser, **PER_ENTRY_WRITERS):
        assert json.dumps(to_json(obj)) == text


@pytest.mark.parametrize("field", FIELDS, ids=[f.tag for f in FIELDS])
@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_matrices_and_subspaces_write_as_row_by_row(field, data):
    rows, cols = data.draw(st.integers(0, 4)), data.draw(st.integers(0, 4))
    m = data.draw(matrices(field, rows, cols))
    assert json.dumps(ser.matrix_to_json(m)) == json.dumps(ref.matrix_to_json_by_row(m))
    s = Subspace.from_rows(field, cols, m.entries)
    assert json.dumps(ser.subspace_to_json(s)) == json.dumps(ref.subspace_to_json_by_row(s))


@pytest.mark.parametrize("cid", XMOD_IDS)
def test_actor_reports_read_back_as_valid_crossed_modules(cid, field, tmp_path, capsys):
    out = tmp_path / "actor-report.json"
    assert main(["actor", f"catalog:{cid}", "--field", field.tag, "--out", str(out)]) == EXIT_OK
    path = tmp_path / "actor.json"
    path.write_text(json.dumps(json.loads(out.read_text(encoding="utf-8"))["actor"]), encoding="utf-8")
    capsys.readouterr()
    assert main(["validate", str(path), "--field", field.tag]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["kind"] == "xmod" and report["violations"] == []
