"""Validator reports on single-constant mutants of the catalog are
byte-identical to the digests in ``tests/mutant_goldens.json``.

The goldens were written by ``tests/capture_mutant_goldens.py``; this test
only reads them.  Each case rebuilds its mutant from the catalog entry and
the recorded change, runs ``validate`` (and ``xaction-validate`` for
crossed-module actions) through ``lbxmod.cli.main``, and compares
``<exit code>:<sha256 of stdout>``, so labels, witnesses, lhs, rhs and the
order of the violations must all match.
"""
from __future__ import annotations

import json

import pytest

import capture_mutant_goldens as cmg

with open(cmg.GOLDENS, encoding="utf-8") as _fh:
    CASES = json.load(_fh)


def test_goldens_cover_every_subject_and_field():
    kinds = dict(cmg.subjects())
    assert {"algebra", "action", "xmod", "xaction", "morphism"} <= set(kinds.values())
    covered = {(c["subject"], c["field"]) for c in CASES}
    assert covered == {(s, tag) for s in kinds for tag in cmg.FIELD_TAGS}
    assert sum(1 for c in CASES if c["mutation"] is not None) >= 300
    assert any(r.startswith("1:") for c in CASES for r in c["reports"].values())


@pytest.mark.parametrize("case", CASES, ids=[c["id"] for c in CASES])
def test_mutant_report_matches_golden(case, tmp_path, monkeypatch):
    tag = case["field"]
    kind = dict(cmg.subjects())[case["subject"]]
    doc = cmg.base_doc(case["subject"], tag)
    if case["mutation"] is not None:
        doc = cmg.apply_mutation(doc, tag, case["mutation"])
    monkeypatch.chdir(tmp_path)
    (tmp_path / cmg.INPUT_NAME).write_text(json.dumps(doc), encoding="utf-8")
    got = {cmd: cmg.run_report(cmd, tag) for cmd in cmg.commands(kind)}
    assert got == case["reports"]
