"""The command-line surface: reports, exit codes, determinism."""
import contextlib
import io
import itertools
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_stages as ref
from lbxmod import QQ, algebra, bider, cli
from lbxmod.action import ActionData
from lbxmod.catalog import CATALOG, build_entry
from lbxmod.cli import EXIT_BAD_INPUT, EXIT_FAIL, EXIT_INTERNAL, EXIT_OK, main
from lbxmod.linalg import LinearSolveError, Matrix
from lbxmod.serialize import (
    action_to_json,
    actor_morphism_to_json,
    algebra_to_json,
    sequence_to_json,
    xaction_to_json,
    xmod_to_json,
)
from lbxmod.xaction import morphism_from_action
from lbxmod.xmod import CrossedModule


def run(capsys, *args):
    code = main(list(args))
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_catalog_lists_every_entry(capsys):
    code, report = run(capsys, "catalog")
    assert code == EXIT_OK and report["ok"]
    assert [e["id"] for e in report["entries"]] == list(CATALOG)
    assert len(report["entries"]) == 14


def test_validate_a_catalog_crossed_module(capsys):
    code, report = run(capsys, "validate", "catalog:sl2-id")
    assert code == EXIT_OK
    assert report["ok"] is True
    assert report["violations"] == []
    assert report["kind"] == "xmod"


def test_validate_flags_a_broken_algebra_file(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"dim": 1, "brackets": [[0, 0, [[0, "1"]]]]}))
    code, report = run(capsys, "validate", str(path))
    assert code == EXIT_FAIL
    assert report["ok"] is False
    assert report["violations"][0]["axiom"] == "leibniz"


def test_bider_report_carries_the_basis(capsys):
    code, report = run(capsys, "bider", "catalog:l2")
    assert code == EXIT_OK
    assert report["dim"] == 3
    assert report["basis"][0] == ["1", "0", "0", "2", "1", "0", "0", "0"]
    assert report["shapes"] == [[2, 2], [2, 2]]


def test_annihilator_report(capsys):
    code, report = run(capsys, "ann", "catalog:l2")
    assert code == EXIT_OK
    assert report["annihilator"]["dim"] == 1
    assert report["annihilator"]["basis"] == [["0", "1"]]


def test_actor_over_a_prime_field(capsys):
    code, report = run(capsys, "actor", "catalog:l2-ann-incl", "--field", "f3")
    assert code == EXIT_OK
    assert (report["top_dim"], report["base_dim"]) == (2, 3)
    assert report["field"] == "f3"


def test_delta_bijectivity_flag(capsys):
    code, report = run(capsys, "delta", "catalog:l2-id")
    assert code == EXIT_OK and report["bijective"] is True
    code, report = run(capsys, "delta", "catalog:zero-into-l2")
    assert code == EXIT_OK and report["bijective"] is False


def test_conditions_report(capsys):
    code, report = run(capsys, "conditions", "catalog:l2-ann-incl")
    assert code == EXIT_OK and report["ok"]
    assert (report["con1"], report["con2"], report["con3"]) == (False, False, False)
    assert report["any"] is False
    assert report["profile"]["ann_top_dim"] == 1


def test_xaction_validate_separates_hard_from_relaxed(capsys):
    code, report = run(capsys, "xaction-validate", "catalog:mixed-pair-break")
    assert code == EXIT_FAIL
    assert report["ok"] is False
    assert report["hard"] == []
    assert sorted(set(report["relaxed"])) == ["LbM6a", "LbM6b"]


def test_morphism_extraction_and_refusal_round_trip(capsys, tmp_path):
    code, report = run(capsys, "xaction-to-morphism", "catalog:mixed-pair-break")
    assert code == EXIT_OK
    assert report["relaxed_failures"] == ["LbM6a", "LbM6b"]
    fm = report["morphism"]
    assert fm["top_map"]["entries"] == [["0"], ["1"]]

    path = tmp_path / "fm.json"
    path.write_text(json.dumps(fm))
    code, report = run(capsys, "morphism-to-xaction", str(path))
    assert code == EXIT_FAIL
    assert report["ok"] is False
    assert report["failed_conditions"] == ["con1", "con2", "con3"]
    assert report["profile"]["base_perfect"] is False


def test_morphism_to_xaction_recovers_the_self_action(capsys, tmp_path):
    code, report = run(capsys, "xaction-to-morphism", "catalog:sl2-self")
    assert code == EXIT_OK and report["relaxed_failures"] == []
    path = tmp_path / "fm.json"
    path.write_text(json.dumps(report["morphism"]))
    code, report = run(capsys, "morphism-to-xaction", str(path))
    assert code == EXIT_OK
    assert report["xaction"] == json.loads(
        json.dumps(xaction_to_json(build_entry("sl2-self", QQ)))
    )


def test_semidirect_xmod_refuses_invalid_action_data(capsys):
    code, report = run(capsys, "semidirect-xmod", "catalog:mixed-pair-break")
    assert code == EXIT_FAIL
    assert report["ok"] is False
    assert report["violations"]


def test_semidirect_xmod_builds_the_split_extension(capsys):
    code, report = run(capsys, "semidirect-xmod", "catalog:sl2-self")
    assert code == EXIT_OK
    assert report["sequence_problems"] == []
    assert report["xmod"]["top"]["dim"] == 6


def test_lift_report(capsys):
    code, report = run(capsys, "lift", "catalog:sl2-seq")
    assert code == EXIT_OK
    assert report["warnings"] == []
    assert report["induced_top"]["rows"] == 0


def test_wrong_input_kind_is_a_usage_error(capsys):
    code, report = run(capsys, "actor", "catalog:l2")
    assert code == EXIT_BAD_INPUT
    assert "xmod" in report["error"]


def test_unknown_catalog_id(capsys):
    code, report = run(capsys, "validate", "catalog:nope")
    assert code == EXIT_BAD_INPUT
    assert "nope" in report["error"]


def test_missing_and_malformed_files(capsys, tmp_path):
    code, report = run(capsys, "validate", str(tmp_path / "absent.json"))
    assert code == EXIT_BAD_INPUT
    bad = tmp_path / "broken.json"
    bad.write_text("{ not json")
    code, report = run(capsys, "validate", str(bad))
    assert code == EXIT_BAD_INPUT
    assert "JSON" in report["error"]


def test_field_tag_mismatch_between_flag_and_file(capsys, tmp_path):
    blob = algebra_to_json(build_entry("l2", QQ))
    blob["field"] = "q"
    path = tmp_path / "alg.json"
    path.write_text(json.dumps(blob))
    code, report = run(capsys, "validate", str(path), "--field", "f3")
    assert code == EXIT_BAD_INPUT
    assert "'q'" in report["error"]


def test_unknown_field_tag(capsys):
    code, report = run(capsys, "validate", "catalog:l2", "--field", "f4")
    assert code == EXIT_BAD_INPUT
    assert "not prime" in report["error"]


def test_out_file_matches_stdout(capsys, tmp_path):
    out = tmp_path / "report.json"
    code = main(["center", "catalog:l2-ann-incl", "--out", str(out)])
    printed = capsys.readouterr().out
    assert code == EXIT_OK
    assert out.read_text() == printed
    report = json.loads(printed)
    assert report["warnings"]  # no support condition holds here


def test_an_out_path_that_cannot_be_written_is_refused_first(capsys, tmp_path, monkeypatch):
    """The --out file is opened for appending before any work: a path in a
    missing directory gets one report naming it, exit 2 and no file; the
    report is not computed at all."""
    out = tmp_path / "missing" / "r.json"
    calls = count_calls(monkeypatch, cli, "_load")
    code, report = run(capsys, "conditions", "catalog:sl2-id", "--out", str(out))
    assert code == EXIT_BAD_INPUT
    assert report == {"command": "conditions", "field": "q",
                      "error": f"cannot write {out}: [Errno 2] No such file or directory: '{out}'"}
    assert calls == [] and not out.parent.exists()


def test_an_out_path_that_cannot_be_written_prints_no_traceback(tmp_path):
    out = tmp_path / "missing" / "r.json"
    proc = subprocess.run([sys.executable, "-m", "lbxmod.cli", "conditions", "catalog:sl2-id", "--out", str(out)],
                          capture_output=True, text=True)
    assert proc.returncode == EXIT_BAD_INPUT
    assert proc.stderr == ""
    assert str(out) in json.loads(proc.stdout)["error"]
    assert not out.parent.exists()


def test_the_out_file_may_be_the_input(capsys, tmp_path):
    """Opening --out for appending truncates nothing, so the input is read
    whole before the report replaces it."""
    path = tmp_path / "f.json"
    path.write_text(json.dumps(xmod_to_json(build_entry("sl2-id", QQ))))
    code = main(["validate", str(path), "--out", str(path)])
    printed = capsys.readouterr().out
    assert code == EXIT_OK and json.loads(printed)["ok"] is True
    assert path.read_text() == printed


def test_cli_module_runs_as_a_subprocess_deterministically():
    cmd = [sys.executable, "-m", "lbxmod.cli", "actor", "catalog:l2-ann-incl"]
    first = subprocess.run(cmd, capture_output=True, check=True)
    second = subprocess.run(cmd, capture_output=True, check=True)
    assert first.stdout == second.stdout
    assert json.loads(first.stdout)["ok"] is True


def count_calls(monkeypatch, module, name):
    """Count the calls of an lbxmod function, in every lbxmod module that binds it."""
    calls, original = [], getattr(module, name)

    def counted(*args):
        calls.append(args)
        return original(*args)

    for mod in [m for key, m in sys.modules.items() if key.startswith("lbxmod")]:
        if getattr(mod, name, None) is original:
            monkeypatch.setattr(mod, name, counted)
    return calls


def test_the_support_conditions_are_computed_once_per_report(capsys, monkeypatch, tmp_path):
    path = tmp_path / "fm.json"  # a morphism into the actor of l2-id, where no condition holds
    path.write_text(json.dumps(actor_morphism_to_json(
        morphism_from_action(build_entry("mixed-pair-break", QQ)).morphism)))
    for args, code in [(("conditions", "catalog:l2-ann-incl"), EXIT_OK),
                       (("morphism-to-xaction", str(path)), EXIT_FAIL)]:
        ann, comm = count_calls(monkeypatch, algebra, "annihilator"), count_calls(monkeypatch, algebra, "commutator")
        assert run(capsys, *args)[0] == code
        assert (len(ann), len(comm)) == (2, 2)  # one per layer
        monkeypatch.undo()


# -- inputs refused up front, internal errors, size bounds -------------------

XMOD_COMMANDS = [cmd for cmd, kinds in cli._ACCEPTS.items() if "xmod" in kinds and cmd != "validate"]
L2_ID_ZERO_ACTION_LABELS = ["XLb1-left", "XLb1-right", "XLb2-left", "XLb2-right"]


def _l2_id_with_zero_action():
    l2 = build_entry("l2", QQ)
    return CrossedModule(l2, l2, Matrix.identity(QQ, 2), ActionData.zero(l2, l2))


def run_clean(capsys, *args):
    """Run the CLI; stdout must be one JSON object and stderr empty."""
    code = main(list(args))
    captured = capsys.readouterr()
    assert captured.err == ""
    return code, json.loads(captured.out)


@pytest.mark.parametrize("cmd", XMOD_COMMANDS)
def test_invalid_crossed_module_is_refused_with_its_labels(capsys, tmp_path, cmd):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(xmod_to_json(_l2_id_with_zero_action())))
    code, report = run_clean(capsys, cmd, str(path))
    assert code == EXIT_FAIL
    assert report["ok"] is False
    assert report["labels"] == L2_ID_ZERO_ACTION_LABELS


def test_validate_still_lists_the_violations_of_an_invalid_crossed_module(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(xmod_to_json(_l2_id_with_zero_action())))
    code, report = run_clean(capsys, "validate", str(path))
    assert code == EXIT_FAIL
    assert sorted({v["axiom"] for v in report["violations"]}) == L2_ID_ZERO_ACTION_LABELS


def test_morphism_into_the_actor_of_an_invalid_crossed_module_is_refused(capsys, tmp_path):
    doc = {"source": xmod_to_json(build_entry("zero-into-l2", QQ)),
           "actor_of": xmod_to_json(_l2_id_with_zero_action()),
           "top_map": {"rows": 0, "cols": 0, "entries": []},
           "base_map": {"rows": 0, "cols": 2, "entries": []}}
    path = tmp_path / "fm.json"
    path.write_text(json.dumps(doc))
    for cmd in ("validate", "morphism-to-xaction"):
        code, report = run_clean(capsys, cmd, str(path))
        assert code == EXIT_FAIL
        assert report["labels"] == ["actor_of:" + label for label in L2_ID_ZERO_ACTION_LABELS]


@pytest.mark.parametrize("role,dim", [("first", 3), ("middle", 4)])
def test_lift_refuses_a_sequence_with_an_invalid_crossed_module(capsys, tmp_path, role, dim):
    doc = sequence_to_json(build_entry("sl2-seq", QQ))
    zero = [[["0"] * dim] * dim] * dim
    doc[role]["action"] = {"left": zero, "right": zero}
    path = tmp_path / "seq.json"
    path.write_text(json.dumps(doc))
    code, report = run_clean(capsys, "lift", str(path))
    assert code == EXIT_FAIL
    assert report["labels"] and all(label.startswith(role + ":XLb") for label in report["labels"])


def test_bider_refuses_an_algebra_that_is_not_leibniz(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"dim": 1, "brackets": [[0, 0, [[0, "1"]]]]}))
    code, report = run_clean(capsys, "bider", str(path))
    assert code == EXIT_FAIL
    assert report["labels"] == ["leibniz"]


def test_semidirect_refuses_an_invalid_action(capsys, tmp_path):
    doc = action_to_json(build_entry("sl2-adjoint", QQ))
    doc["left"][0][1][2] = "1"  # [e, h] gains an f-coordinate
    path = tmp_path / "act.json"
    path.write_text(json.dumps(doc))
    code, report = run_clean(capsys, "semidirect", str(path))
    assert code == EXIT_FAIL
    assert report["labels"] == ["act1", "act2", "act5", "act6"]


@pytest.mark.parametrize("role", ["actor", "target"])
def test_validate_and_semidirect_check_an_action_alike(capsys, tmp_path, role):
    """The zero action of a 2-dimensional algebra that is not Leibniz
    ([e0, e1] = e0, [e1, e0] = e1) in one role, the 1-dimensional abelian
    algebra in the other: validate reports what semidirect refuses."""
    bad, abelian = {"dim": 2, "brackets": [[0, 1, [[0, "1"]]], [1, 0, [[1, "1"]]]]}, {"dim": 1, "brackets": []}
    p, m = (2, 1) if role == "actor" else (1, 2)
    doc = {"actor": bad if role == "actor" else abelian, "target": abelian if role == "actor" else bad,
           "left": [[["0"] * m] * m] * p, "right": [[["0"] * m] * p] * m}
    path = tmp_path / "act.json"
    path.write_text(json.dumps(doc))
    code, refused = run_clean(capsys, "semidirect", str(path))
    assert code == EXIT_FAIL and refused["labels"] == [role + ":leibniz"]
    code, report = run_clean(capsys, "validate", str(path))
    assert code == EXIT_FAIL and report["ok"] is False
    assert sorted({v["axiom"] for v in report["violations"]}) == refused["labels"]


def test_linear_solve_error_is_an_internal_error(capsys, monkeypatch):
    def broken(x):
        raise LinearSolveError("solution left the space")

    monkeypatch.setattr(bider, "actor", broken)  # the report imports it when it runs
    code, report = run_clean(capsys, "actor", "catalog:l2-id")
    assert code == EXIT_INTERNAL == 3
    assert report["ok"] is False
    assert report["internal_error"] == "solution left the space"


def test_dimension_cap_applies_to_inputs_not_to_derived_spaces(capsys, tmp_path):
    path = tmp_path / "a6.json"
    path.write_text(json.dumps({"kind": "algebra", "dim": 6, "brackets": []}))
    code, report = run_clean(capsys, "bider", str(path))
    assert code == EXIT_OK
    assert report["dim"] == 72
    path.write_text(json.dumps({"dim": 65, "brackets": []}))
    code, report = run_clean(capsys, "validate", str(path))
    assert code == EXIT_BAD_INPUT
    assert "65" in report["error"]


def test_a_huge_prime_is_refused_before_any_trial_division(capsys):
    start = time.perf_counter()
    code, report = run_clean(capsys, "validate", "catalog:a1", "--field", "f1000000000000000000000000000057")
    assert time.perf_counter() - start < 1.0
    assert code == EXIT_BAD_INPUT
    assert "2^31" in report["error"]


@pytest.mark.parametrize("doc", [
    {"dim": True, "brackets": [[0, 0, [[0, "1"]]]]},
    {"kind": "algebra", "dim": 2, "brackets": [[False, False, [[1, "1"]]]]},
    {"dim": 2, "brackets": [[0, 0, [[True, "1"]]]]},
    {"kind": "xmod", "top": {"dim": 1, "brackets": []}, "base": {"dim": 1, "brackets": []},
     "boundary": {"rows": True, "cols": 1, "entries": [["0"]]},
     "action": {"left": [[["0"]]], "right": [[["0"]]]}},
])
def test_json_booleans_are_not_read_as_integers(capsys, tmp_path, doc):
    path = tmp_path / "bool.json"
    path.write_text(json.dumps(doc))
    code, report = run_clean(capsys, "validate", str(path))
    assert code == EXIT_BAD_INPUT
    assert "integer" in report["error"] or "bad bracket" in report["error"]


@pytest.mark.parametrize("data, message", [
    (b'{"dim": 1, "brackets": [[0, 0, [[0, "1e5000"]]]]}', "bad rational scalar"),
    (b'{"dim": 1, "brackets": [[0, 0, [[0, "1.5"]]]]}', "bad rational scalar"),
    (b'{"dim": 1, "brackets": [[0, 0, [[0, ' + b"1" * 5001 + b']]]]}', "not valid JSON"),
    (b'{"dim": 1, "brackets": [\xff]}', "not valid JSON"),
    (b"[" * 100000 + b"]" * 100000, "not valid JSON: nested too deeply"),
], ids=["exponent", "decimal", "5001-digit-json-int", "not-utf8", "nested-100000-deep"])
def test_unreadable_scalars_and_json_are_bad_input(capsys, tmp_path, data, message):
    path = tmp_path / "alg.json"
    path.write_bytes(data)
    code, report = run_clean(capsys, "validate", str(path))
    assert code == EXIT_BAD_INPUT
    assert message in report["error"]


@pytest.mark.parametrize("spelling", ["\u0663", "1_0", " 5", "+5"],
                         ids=["arabic-indic-three", "underscore", "leading-space", "plus-sign"])
def test_loosely_spelled_residues_are_bad_input(capsys, tmp_path, spelling):
    path = tmp_path / "alg.json"
    path.write_text(json.dumps({"dim": 1, "brackets": [[0, 0, [[0, spelling]]]]}))
    code, report = run_clean(capsys, "validate", str(path), "--field", "f3")
    assert code == EXIT_BAD_INPUT
    assert report["error"] == f"bad F3 scalar {spelling!r}"


@pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
                    reason="the interpreter converts ints of any length to str")
def test_a_number_too_long_to_print_is_a_json_report(capsys, tmp_path):
    # a 3001-digit coefficient is read; its 6001-digit square in the leibniz
    # violation is past the interpreter's digit limit for str(int)
    path = tmp_path / "alg.json"
    path.write_text(json.dumps({"dim": 1, "brackets": [[0, 0, [[0, "1" + "0" * 3000]]]]}))
    code, report = run_clean(capsys, "validate", str(path))
    assert code == EXIT_BAD_INPUT
    assert report["error"] == f"a number in the report has more than {sys.get_int_max_str_digits()} digits"
    assert "ok" not in report


def test_a_closed_stdout_ends_quietly_with_the_exit_code():
    proc = subprocess.Popen([sys.executable, "-m", "lbxmod.cli", "actor", "catalog:sl2-id"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    proc.stdout.close()  # the reader is gone before the report is written, as with `| head -c 0`
    err = proc.stderr.read()
    assert proc.wait() == EXIT_OK
    assert err == b""


# -- the command list: help text and README ------------------------------------

#: every subcommand and its help text, in the order ``lbxmod --help`` lists them
HELP = [
    ("validate", "check every defining identity of the input object"),
    ("ann", "two-sided annihilator of an algebra"),
    ("comm", "derived (commutator) subspace of an algebra"),
    ("bider", "biderivation pair space of an algebra"),
    ("bider-qn", "pair space base->top of a crossed module"),
    ("bider-xmod", "quadruple space of a crossed module"),
    ("actor", "the actor crossed module"),
    ("delta", "boundary matrix of the actor, pairs to quadruples"),
    ("canonical", "canonical morphism of a crossed module into its actor"),
    ("inner", "image of the canonical morphism inside the actor"),
    ("outer", "actor modulo the inner part"),
    ("center", "central sub-crossed-module"),
    ("conditions", "support-condition flags con1/con2/con3 and their profile"),
    ("semidirect", "semidirect algebra of an algebra action"),
    ("semidirect-xmod", "semidirect crossed module of a crossed-module action"),
    ("xaction-validate", "check the labeled identities of a crossed-module action"),
    ("xaction-to-morphism", "turn action data into a morphism into the actor"),
    ("morphism-to-xaction", "recover action data from a morphism into the actor"),
    ("lift", "extend a short exact sequence by the actor of its first part"),
    ("catalog", "list the built-in examples"),
]
README = Path(__file__).resolve().parent.parent / "README.md"


def help_text(capsys, monkeypatch, *args):
    monkeypatch.setenv("COLUMNS", "200")  # argparse wraps to the terminal width
    with pytest.raises(SystemExit) as stop:
        main([*args, "--help"])
    assert stop.value.code == 0
    return capsys.readouterr().out


def test_help_lists_every_command_with_its_help_text_in_order(capsys, monkeypatch):
    assert [*cli._ACCEPTS, "catalog"] == [name for name, _ in HELP]
    out = help_text(capsys, monkeypatch)
    assert "{" + ",".join(name for name, _ in HELP) + "}" in out
    listed = re.findall(r"^    (\S+)\s+(\S.*)$", out.split("positional arguments:")[1], re.M)
    assert listed == HELP


@pytest.mark.parametrize("name, text", HELP, ids=[name for name, _ in HELP])
def test_each_command_help_shows_its_help_text(capsys, monkeypatch, name, text):
    out = help_text(capsys, monkeypatch, name)
    usage = f"usage: lbxmod {name} [-h] [--field FIELD] [--out OUT]" + ("" if name == "catalog" else " input")
    assert out.startswith(f"{usage}\n\n{text}\n\n")


def test_the_readme_cli_table_names_every_command_once():
    lines = README.read_text(encoding="utf-8").splitlines()
    start = lines.index("| command | input | result |")
    rows = itertools.takewhile(lambda line: line.startswith("|"), lines[start + 2:])
    names = [name for row in rows for name in re.findall(r"`([^`]+)`", row.split("|")[1])]
    assert sorted(names) == sorted([*cli._ACCEPTS, "catalog"])


def _parsed(capsys, parser, argv) -> tuple:
    """The exit code and the texts of a parse that stops: help, or a usage error."""
    with pytest.raises(SystemExit) as stop:
        parser.parse_args(argv)
    out = capsys.readouterr()
    return stop.value.code, out.out, out.err


STOPPING_ARGV = [["--help"], *([name, "--help"] for name in cli._COMMANDS), [],
                 *([name] for name, command in cli._COMMANDS.items() if command.inputs),
                 *([name, *(["catalog:l2-id"] if command.inputs else []), "--bogus"]
                   for name, command in cli._COMMANDS.items()),
                 *([name, "--field"] for name in cli._COMMANDS), ["nosuch"], ["--field", "f3", "actor"]]


@pytest.mark.parametrize("argv", STOPPING_ARGV, ids=" ".join)
def test_help_and_usage_errors_match_the_per_subcommand_parser(capsys, monkeypatch, argv):
    """``main`` hands every argv it does not read itself to the one parser ``_parser()``."""
    monkeypatch.setenv("COLUMNS", "80")
    assert _parsed(capsys, cli._parser(), argv) == _parsed(capsys, ref.per_subcommand_parser(), argv)


# -- the plain argv reader against argparse ----------------------------------------
#
# ``main`` reads the documented form itself (``cli._plain_args``) and hands
# every other argv to argparse.  The argvs below mix that form with the ones
# only argparse reads: "=" forms, abbreviations, "-h", "--", values that
# start with "-", a missing or extra positional, and options before the
# command.

ARGV_INPUTS = ("catalog:l2", "catalog:l2-id", "catalog:sl2-adjoint", "catalog:sl2-self", "catalog:sl2-seq",
               "catalog:nosuch", "l2.json", "missing.json", "")
ARGV_VALUES = ("q", "f3", "F2", "f4", "", "-1", "--out", "report.json", "catalog:l2")
OPTION_PAIRS = st.tuples(st.sampled_from(("--field", "--out")), st.sampled_from(ARGV_VALUES)).map(list)
SPELLINGS = st.sampled_from(("--field", "--out", "--fie", "--fi", "--o", "--ou"))
ARGV_PIECES = st.one_of(
    OPTION_PAIRS,
    st.tuples(SPELLINGS, st.sampled_from(ARGV_VALUES)).map(list),
    st.sampled_from(ARGV_INPUTS).map(lambda token: [token]),
    st.builds("{}={}".format, SPELLINGS, st.sampled_from(ARGV_VALUES)).map(lambda token: [token]),
    st.sampled_from(("--field", "--out", "--fie", "-h", "--help", "--", "-", "-x", "--bogus")).map(lambda token: [token]))
COMMAND_NAMES = st.sampled_from(list(cli._COMMANDS))


@st.composite
def documented_argvs(draw):
    """``<command> [<input>] [--field F] [--out PATH]``, the options in any order and repeated."""
    name, options = draw(COMMAND_NAMES), draw(st.lists(OPTION_PAIRS, max_size=3))
    if cli._COMMANDS[name].inputs:
        options.insert(draw(st.integers(0, len(options))), [draw(st.sampled_from(ARGV_INPUTS))])
    return [name, *itertools.chain.from_iterable(options)]


ARGVS = documented_argvs() | st.builds(
    lambda head, pieces: [*head, *itertools.chain.from_iterable(pieces)],
    COMMAND_NAMES.map(lambda name: [name]) | st.sampled_from(([], ["nosuch"], ["--field", "q"], ["-h"])),
    st.lists(ARGV_PIECES, max_size=5))


@settings(max_examples=400, deadline=None)
@given(ARGVS)
def test_an_argv_the_plain_reader_accepts_parses_as_argparse_parses_it(argv):
    args = cli._plain_args(argv)
    if args is not None:
        ns = ref.per_subcommand_parser().parse_args(argv)
        assert tuple(args) == (ns.command, getattr(ns, "input", None), ns.field, ns.out)


@pytest.fixture(scope="module")
def argv_dir(tmp_path_factory):
    """A directory holding l2.json, the file input the drawn argvs name."""
    path = tmp_path_factory.mktemp("argv")
    (path / "l2.json").write_text(json.dumps(algebra_to_json(build_entry("l2", QQ))), encoding="utf-8")
    return path


def _outcome(argv) -> tuple:
    """main(argv)'s exit code, standard output and standard error."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as stop:
            code = stop.code
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=200, deadline=None)
@given(ARGVS)
def test_main_gives_what_argparse_alone_gives(argv_dir, argv):
    """Accepted or declined by the plain reader, every argv ends as it does
    when argparse reads it: the same exit code, output and errors."""
    cwd = os.getcwd()
    os.chdir(argv_dir)
    try:
        got = _outcome(argv)
        with mock.patch.object(cli, "_plain_args", lambda argv: None):
            assert got == _outcome(argv)
    finally:
        os.chdir(cwd)
