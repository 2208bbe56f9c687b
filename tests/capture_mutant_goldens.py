#!/usr/bin/env python3
"""Write ``tests/mutant_goldens.json``: validator reports on broken inputs.

    PYTHONPATH=src python3 tests/capture_mutant_goldens.py

Each catalog algebra, action, crossed module and crossed-module action, and
the morphism into the actor that each crossed-module action induces, is
serialized over q, f2 and f3.  A seeded sample of its structure constants is
then changed one at a time (one mutant per changed constant), and the
``validate`` report, plus the ``xaction-validate`` report for
crossed-module actions, is recorded as ``<exit code>:<sha256 of stdout>``.
Morphism mutants change only the two maps, so the actor they point into
stays the valid one.  The unchanged document of every entry is recorded
too, as mutant 0.

``tests/test_mutant_goldens.py`` replays every mutant through
``lbxmod.cli.main`` and compares the digests byte for byte, so any change in
a violation's label, witness, lhs, rhs or order shows.  Run this again only
when a report is meant to change, and say so where the change is recorded.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import sys
import tempfile
from fractions import Fraction
from pathlib import Path
from typing import Any

from lbxmod import cli
from lbxmod import serialize as ser
from lbxmod.catalog import CATALOG, build_entry
from lbxmod.fields import get_field
from lbxmod.xaction import morphism_from_action

GOLDENS = Path(__file__).resolve().parent / "mutant_goldens.json"
FIELD_TAGS = ("q", "f2", "f3")
MUTANTS_PER_ENTRY = 8
INPUT_NAME = "mutant.json"  # the report echoes the input path, so it is fixed
Q_DELTAS = ("1", "-1", "2", "1/2", "-3/2")


def subjects() -> list[tuple[str, str]]:
    """(subject id, kind): catalog entries, then the induced morphisms."""
    out = [(cid, e.kind) for cid, e in CATALOG.items()
           if e.kind in ("algebra", "action", "xmod", "xaction")]
    out += [(f"{cid}:morphism", "morphism") for cid, e in CATALOG.items() if e.kind == "xaction"]
    return out


def base_doc(subject: str, tag: str) -> dict:
    field = get_field(tag)
    if subject.endswith(":morphism"):
        d = build_entry(subject[: -len(":morphism")], field)
        return ser.actor_morphism_to_json(morphism_from_action(d).morphism)
    obj = build_entry(subject, field)
    to_json = {
        "algebra": ser.algebra_to_json,
        "action": ser.action_to_json,
        "xmod": ser.xmod_to_json,
        "xaction": ser.xaction_to_json,
    }[CATALOG[subject].kind]
    return to_json(obj)


# -- the constants of a document ----------------------------------------------
#
# A slot is either ["scalar", path] (a scalar inside a tensor or matrix) or
# ["bracket", path, i, j, k] (coordinate k of [e_i, e_j] of the algebra at
# path, zero or not).


def _scalar_slots(node: Any, path: list) -> list:
    if isinstance(node, list):
        return [s for t, child in enumerate(node) for s in _scalar_slots(child, path + [t])]
    return [["scalar", path]]


def _algebra_slots(doc: dict, path: list) -> list:
    n = doc["dim"]
    return [["bracket", path, i, j, k] for i in range(n) for j in range(n) for k in range(n)]


def _xmod_slots(doc: dict, path: list) -> list:
    return (_algebra_slots(doc["top"], path + ["top"]) + _algebra_slots(doc["base"], path + ["base"])
            + _scalar_slots(doc["boundary"]["entries"], path + ["boundary", "entries"])
            + _scalar_slots(doc["action"]["left"], path + ["action", "left"])
            + _scalar_slots(doc["action"]["right"], path + ["action", "right"]))


def slots(kind: str, doc: dict) -> list:
    if kind == "algebra":
        return _algebra_slots(doc, [])
    if kind == "action":
        return (_algebra_slots(doc["actor"], ["actor"]) + _algebra_slots(doc["target"], ["target"])
                + _scalar_slots(doc["left"], ["left"]) + _scalar_slots(doc["right"], ["right"]))
    if kind == "xmod":
        return _xmod_slots(doc, [])
    if kind == "xaction":
        out = _xmod_slots(doc["actor_xmod"], ["actor_xmod"]) + _xmod_slots(doc["target_xmod"], ["target_xmod"])
        for block in ("p_on_n", "p_on_q"):
            out += _scalar_slots(doc[block]["left"], [block, "left"])
            out += _scalar_slots(doc[block]["right"], [block, "right"])
        return out + _scalar_slots(doc["xi1"], ["xi1"]) + _scalar_slots(doc["xi2"], ["xi2"])
    if kind == "morphism":
        return (_scalar_slots(doc["top_map"]["entries"], ["top_map", "entries"])
                + _scalar_slots(doc["base_map"]["entries"], ["base_map", "entries"]))
    raise ValueError(kind)


# -- applying a mutation ------------------------------------------------------


def _shifted(tag: str, old: Any, delta: str) -> Any:
    if tag == "q":
        return str(Fraction(old) + Fraction(delta))
    p = int(tag[1:])
    return (int(old) + int(delta)) % p


def _zero(tag: str, value: Any) -> bool:
    return Fraction(value) == 0 if tag == "q" else int(value) == 0


def _at(doc: Any, path: list) -> Any:
    for key in path:
        doc = doc[key]
    return doc


def apply_mutation(doc: dict, tag: str, mutation: dict) -> dict:
    """A copy of doc with the slot's constant shifted by the delta."""
    out = json.loads(json.dumps(doc))
    slot, delta = mutation["slot"], mutation["delta"]
    if slot[0] == "scalar":
        path = slot[1]
        parent = _at(out, path[:-1])
        parent[path[-1]] = _shifted(tag, parent[path[-1]], delta)
        return out
    _, path, i, j, k = slot
    alg = _at(out, path)
    table = {(a, b): dict((c, v) for c, v in terms) for a, b, terms in alg["brackets"]}
    cell = table.setdefault((i, j), {})
    new = _shifted(tag, cell.get(k, 0), delta)
    if _zero(tag, new):
        cell.pop(k, None)
    else:
        cell[k] = new
    alg["brackets"] = [[a, b, [[c, terms[c]] for c in sorted(terms)]]
                       for (a, b), terms in sorted(table.items()) if terms]
    return out


def commands(kind: str) -> tuple[str, ...]:
    return ("validate", "xaction-validate") if kind == "xaction" else ("validate",)


def run_report(command: str, tag: str) -> str:
    """Run one command on ``INPUT_NAME`` in the working directory."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main([command, INPUT_NAME, "--field", tag])
    return f"{code}:{hashlib.sha256(buf.getvalue().encode()).hexdigest()}"


def mutations(subject: str, kind: str, tag: str, doc: dict) -> list:
    rng = random.Random(f"mutant/{subject}/{tag}")
    every = slots(kind, doc)
    deltas = Q_DELTAS if tag == "q" else tuple(str(d) for d in range(1, int(tag[1:])))
    chosen = rng.sample(range(len(every)), min(MUTANTS_PER_ENTRY, len(every)))
    return [None] + [{"slot": every[s], "delta": rng.choice(deltas)} for s in chosen]


def main() -> int:
    cases = []
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for subject, kind in subjects():
                for tag in FIELD_TAGS:
                    doc = base_doc(subject, tag)
                    for n, mutation in enumerate(mutations(subject, kind, tag, doc)):
                        mutant = doc if mutation is None else apply_mutation(doc, tag, mutation)
                        with open(INPUT_NAME, "w", encoding="utf-8") as fh:
                            json.dump(mutant, fh)
                        cases.append({
                            "id": f"{subject}/{tag}/{n}",
                            "subject": subject,
                            "field": tag,
                            "mutation": mutation,
                            "reports": {cmd: run_report(cmd, tag) for cmd in commands(kind)},
                        })
        finally:
            os.chdir(cwd)
    with open(GOLDENS, "w", encoding="utf-8") as fh:
        json.dump(cases, fh, indent=1)
        fh.write("\n")
    print(f"wrote {len(cases)} mutant cases to {GOLDENS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
