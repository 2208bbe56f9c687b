"""Every CLI report on every catalog entry and field is byte-identical to the
digest recorded in ``perfbench/goldens.json``.

The goldens hold ``<exit code>:<sha256 of stdout>`` for each (command,
catalog entry, field) triple the CLI accepts.  This test only reads them;
``perfbench/capture_goldens.py`` is the one place that writes them.
"""
from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import io
import json
import sys
from pathlib import Path

import pytest

from lbxmod import cli
from lbxmod.catalog import CATALOG

GOLDENS = Path(__file__).resolve().parent.parent / "perfbench" / "goldens.json"
FIELD_TAGS = ("q", "f2", "f3")
TRIPLES = [(cmd, cid, tag) for cmd, kinds in cli._ACCEPTS.items()
           for cid, entry in CATALOG.items() if entry.kind in kinds
           for tag in FIELD_TAGS]


@pytest.fixture(scope="module")
def goldens():
    with open(GOLDENS, encoding="utf-8") as fh:
        return {k[len("cli/"):]: v for k, v in json.load(fh).items() if k.startswith("cli/")}


def test_goldens_cover_every_accepted_triple(goldens):
    assert len(TRIPLES) == 246
    assert sorted(goldens) == sorted(f"{cmd} {cid} {tag}" for cmd, cid, tag in TRIPLES)


@pytest.mark.parametrize("cmd,cid,tag", TRIPLES, ids=[" ".join(t) for t in TRIPLES])
def test_cli_report_matches_golden(goldens, cmd, cid, tag):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main([cmd, f"catalog:{cid}", "--field", tag])
    digest = f"{code}:{hashlib.sha256(buf.getvalue().encode()).hexdigest()}"
    assert digest == goldens[f"{cmd} {cid} {tag}"]


def test_the_golden_capture_tool_reads_the_accepted_kinds(monkeypatch):
    """``perfbench/capture_goldens.py`` lists its CLI triples from ``cli._ACCEPTS``;
    loading it as a module must still find that name."""
    tool = GOLDENS.parent / "capture_goldens.py"
    monkeypatch.setattr(sys, "path", [str(tool.parent), *sys.path])  # it imports its sibling modules
    spec = importlib.util.spec_from_file_location("capture_goldens", tool)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert module._ACCEPTS is cli._ACCEPTS
