"""In-process fuzzing of the CLI contract.

Whatever the input file holds, ``cli.main`` prints exactly one JSON report,
returns an exit code in {0, 1, 2, 3} and writes nothing to stderr (no
traceback).  Two sources of input: arbitrary JSON values, and mutations of
the serialized JSON of every catalog entry (type swaps, booleans, huge
ints, non-ASCII digits, dropped and duplicated list items, deep nesting).
"""
import copy
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from lbxmod import GF3, QQ
from lbxmod import serialize as ser
from lbxmod.catalog import CATALOG, build_entry
from lbxmod.cli import _ACCEPTS, main

TO_JSON = {"algebra": ser.algebra_to_json, "action": ser.action_to_json, "xmod": ser.xmod_to_json,
           "xaction": ser.xaction_to_json, "sequence": ser.sequence_to_json}
DOCS = [(cid, e.kind, tag, TO_JSON[e.kind](build_entry(cid, field)))
        for cid, e in CATALOG.items() for tag, field in (("q", QQ), ("f3", GF3))]
COMMANDS = sorted(_ACCEPTS)


def _keys(doc, out):
    if isinstance(doc, dict):
        out.update(doc)
        for v in doc.values():
            _keys(v, out)
    elif isinstance(doc, list):
        for v in doc:
            _keys(v, out)
    return out


KEYS = sorted(_keys([d for *_rest, d in DOCS], set()))


@pytest.fixture(scope="module")
def path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "input.json"


def check_one_report(capsys, path, text, command, tag):
    path.write_text(text, encoding="utf-8")
    code = main([command, str(path), "--field", tag])
    captured = capsys.readouterr()
    assert captured.err == ""
    report = json.loads(captured.out)  # exactly one JSON document
    assert isinstance(report, dict) and report["command"] == command
    assert code in (0, 1, 2, 3)


# -- arbitrary JSON values --------------------------------------------------------

scalars = (st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4)
           | st.sampled_from(["0", "1", "-1", "1/2", "2/0", "٣", "x"]))
json_values = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(KEYS) | st.text(max_size=3), inner, max_size=5),
    max_leaves=25)


@given(json_values, st.sampled_from(COMMANDS), st.sampled_from(["q", "f2", "f3"]))
@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_arbitrary_json_gets_one_report(capsys, path, value, command, tag):
    check_one_report(capsys, path, json.dumps(value), command, tag)


# -- mutated catalog documents ------------------------------------------------------


def _paths(doc, prefix=()):
    yield prefix
    items = enumerate(doc) if isinstance(doc, list) else doc.items() if isinstance(doc, dict) else ()
    for k, v in items:
        yield from _paths(v, prefix + (k,))


def _get(doc, path):
    for k in path:
        doc = doc[k]
    return doc


def _put(doc, path, value):
    """doc with the value at path replaced (the root for the empty path)."""
    if not path:
        return value
    _get(doc, path[:-1])[path[-1]] = value
    return doc


SWAPS = [None, True, False, 0, 1, -1, 2, 3, 0.5, float("inf"), "", "0", "1/2", "-3", "x", [], {}, [0], {"dim": 1}]
HUGE = [2**31 - 1, 2**63, -(10**40), 10**300]
DIGITS = ["٣", "１２", "1٠", "٣/٤", "-৫", "²", "Ⅻ"]


@st.composite
def mutated_document(draw):
    cid, kind, tag, doc = draw(st.sampled_from(DOCS))
    doc, raw = copy.deepcopy(doc), []  # raw: texts spliced in after json.dumps
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(_paths(doc))))
        value = _get(doc, path)
        how = draw(st.sampled_from(["swap", "bool", "huge", "long", "digits", "drop", "dup", "deep"]))
        if how == "swap":
            doc = _put(doc, path, copy.deepcopy(draw(st.sampled_from(SWAPS))))
        elif how == "bool":
            doc = _put(doc, path, draw(st.booleans()))
        elif how == "huge":
            doc = _put(doc, path, draw(st.sampled_from(HUGE + [str(h) for h in HUGE])))
        elif how in ("long", "deep"):
            # an int literal past the digit limit, or the value under many
            # levels of lists: both are written as raw JSON text
            marker = f"\x00raw{len(raw)}\x00"
            if how == "long":
                raw.append((marker, "7" * draw(st.sampled_from([4301, 5000]))))
            else:
                depth = draw(st.sampled_from([3, 200, 3000, 100000]))
                raw.append((marker, "[" * depth + json.dumps(value) + "]" * depth))
            doc = _put(doc, path, marker)
        elif how == "digits":
            doc = _put(doc, path, draw(st.sampled_from(DIGITS)))
        elif isinstance(value, list) and value:
            i = draw(st.integers(0, len(value) - 1))
            if how == "drop":
                del value[i]
            else:
                value.insert(i, copy.deepcopy(value[i]))
    text = json.dumps(doc)
    for marker, spliced in reversed(raw):  # earlier markers may sit inside later raw texts
        text = text.replace(json.dumps(marker), spliced)
    command = draw(st.sampled_from([c for c in COMMANDS if kind in _ACCEPTS[c]]))
    return text, command, tag


@given(mutated_document())
@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_mutated_catalog_documents_get_one_report(capsys, path, case):
    text, command, tag = case
    check_one_report(capsys, path, text, command, tag)
