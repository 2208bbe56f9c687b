"""Command-line interface.

Every subcommand reads one input (a JSON file path or ``catalog:<id>``),
prints a single JSON report to stdout, and exits with

* 0 — computed and, where applicable, every check passed,
* 1 — the input was well-formed but a check failed or a construction was
      refused (axiom violations, non-ideal quotients, inexact sequences,
      missing support conditions),
* 2 — the input could not be read or parsed at all, a number in its
      report is too long to print (past the interpreter's digit limit for
      int-to-str conversion, which lbxmod leaves as it is), or the ``--out``
      file cannot be opened for appending; that is tried first, truncates
      nothing (the input may be the same file), and writes no file on failure,
* 3 — internal error: a result that theory guarantees was not found
      (``LinearSolveError``), which means a bug in lbxmod.

Each command is declared once, as a row of ``_COMMANDS``: its help text, the
input kinds it accepts, the checks each kind must pass first, and its report.
Each report imports what it runs inside its own body, so only a command that
solves a map space compiles ``bider``, and only one that handles an action
of crossed modules compiles ``xaction``.  Likewise only an input file loads
the JSON readers (``lbxmod.readers``), and only an argv outside the
documented form ``lbxmod <command> [<input>] [--field F] [--out PATH]``
loads ``argparse``: ``main`` reads that form itself (``_plain_args``) and
hands every other argv, help and usage errors included, to the one parser
``_parser``.  The checks of one input share one memo of component reports
(``algebra._once``), so an algebra in several roles is checked once.
Commands other than ``validate`` refuse an input crossed module that fails
``validate_xmod`` before computing anything, with exit 1 and the failing
axiom labels; so do ``bider`` for an algebra that is not Leibniz,
``semidirect`` for an invalid action, ``lift`` for a sequence with an
invalid crossed module, and every command for a morphism into the actor of
an invalid crossed module.
"""

from __future__ import annotations

import json
import os
import sys
from functools import partial
from typing import TYPE_CHECKING, Any, Callable, NamedTuple, Optional, Sequence

from . import serialize as ser
from .action import semidirect_algebra, validate_action
from .algebra import ValidationReport, _once, _prefixed, annihilator, commutator, validate_leibniz
from .catalog import CATALOG, build_entry
from .fields import Field, InputDataError, get_field
from .linalg import LinearSolveError, column_space
from .xmod import (ActionAxiomError, ConditionFlags, ConditionsNotMetError, InvalidMorphismError, NotAnIdealError,
                   NotExactError, center, condition_profile, kernel, validate_morphism, validate_xmod)

if TYPE_CHECKING:
    import argparse

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_BAD_INPUT = 2
EXIT_INTERNAL = 3


class _Command(NamedTuple):
    """One subcommand.  ``inputs`` maps each input kind it accepts to the
    check that input must pass first: None, or a function giving (label
    prefix, report) pairs, whose labels refuse the input with exit 1.
    ``report(kind, input, field)`` builds the report fragment; one without
    ``"ok"`` reports success."""

    help: str
    inputs: dict
    report: Callable[[Optional[str], Any, Field], dict]


def _xaction_checks(d) -> list:
    from .xaction import validate_xmod_action

    return [("", validate_xmod_action(d))]


def _action_checks(d) -> list:
    """Both algebras Leibniz, then act1..act6, on one memo."""
    check = partial(_once, {})
    return [("actor:", check(validate_leibniz, d.actor)), ("target:", check(validate_leibniz, d.target)),
            ("", validate_action(d, check))]


#: what ``validate`` checks on each input kind but a sequence, as (label
#: prefix, report) pairs; the commands that refuse an invalid input reuse them
_CHECKS = {
    "algebra": lambda a: [("", validate_leibniz(a))],
    "xmod": lambda x: [("", validate_xmod(x))],
    "action": _action_checks,
    "xaction": _xaction_checks,
    "morphism": lambda fm: [("", validate_morphism(fm.as_xmod_morphism()))],
}


def _actor_of_checks(fm) -> list:
    """A morphism into the actor needs a valid crossed module to build that actor from."""
    return [("actor_of:", validate_xmod(fm.around))]


def _sequence_checks(s) -> list:
    check = partial(_once, {})
    return [(role + ":", validate_xmod(getattr(s, role), check)) for role in ("first", "middle", "last")]


def _violations_json(field: Field, report) -> list:
    return [{"axiom": v.axiom, "witness": list(v.witness), "lhs": ser.vector_to_json(field, v.lhs),
             "rhs": ser.vector_to_json(field, v.rhs)} for v in report.violations]


def _validate_report(kind: str, obj, field: Field) -> dict:
    if kind == "sequence":
        from .bider import sequence_problems

        problems = sequence_problems(obj)
        return {"ok": not problems, "kind": kind, "problems": problems}
    rep = ValidationReport(tuple(_prefixed(*_CHECKS[kind](obj))))
    return {"ok": rep.ok, "kind": kind, "violations": _violations_json(field, rep)}


def _map_space_report(space) -> dict:
    """A solved pair or quadruple space: ``bider``, ``bider-qn``, ``bider-xmod``."""
    return {"dim": space.dim, "shapes": [list(s) for s in space.shapes],
            "basis": ser.subspace_to_json(space.space)["basis"], "algebra": ser.algebra_to_json(space.algebra)}


def _bider_report(_kind, a, _field) -> dict:
    from .bider import bider_algebra

    return _map_space_report(bider_algebra(a))


def _bider_qn_report(_kind, x, _field) -> dict:
    from .bider import bider_qn

    return _map_space_report(bider_qn(x))


def _bider_xmod_report(_kind, x, _field) -> dict:
    from .bider import bider_xmod

    return _map_space_report(bider_xmod(x))


def _sub_xmod_report(sub, warnings: bool) -> dict:
    """A sub-crossed-module: ``inner``, and ``center`` with its warnings."""
    report = {
        "top": ser.subspace_to_json(sub.top_space),
        "base": ser.subspace_to_json(sub.base_space),
        "xmod": ser.xmod_to_json(sub.xmod),
    }
    if warnings:
        report["warnings"] = list(sub.warnings)
    return report


def _inner_report(_kind, x, _field) -> dict:
    from .bider import inner_xmod

    return _sub_xmod_report(inner_xmod(x), warnings=False)


def _actor_report(_kind, x, _field) -> dict:
    from .bider import actor

    act = actor(x)
    return {"top_dim": act.top.dim, "base_dim": act.base.dim, "actor": ser.xmod_to_json(act)}


def _delta_report(_kind, x, _field) -> dict:
    from .bider import delta

    mat = delta(x)
    return {"matrix": ser.matrix_to_json(mat), "bijective": column_space(mat).dim == mat.rows and mat.rows == mat.cols}


def _canonical_report(_kind, x, _field) -> dict:
    from .bider import canonical_morphism

    f = canonical_morphism(x)
    ker = kernel(f)
    return {**ser.morphism_maps_to_json(f), "kernel_top_dim": ker.top_space.dim,
            "kernel_base_dim": ker.base_space.dim}


def _outer_report(_kind, x, _field) -> dict:
    from .bider import outer_xmod

    quo = outer_xmod(x)
    return {"xmod": ser.xmod_to_json(quo.xmod), "top_project": ser.matrix_to_json(quo.top_project),
            "base_project": ser.matrix_to_json(quo.base_project)}


def _conditions_report(_kind, x, _field) -> dict:
    profile = condition_profile(x)
    flags = ConditionFlags.from_profile(profile)
    report = {"con1": flags.con1, "con2": flags.con2, "con3": flags.con3, "any": flags.any_holds,
              "profile": profile}
    if not flags.any_holds and profile["top_perfect"] and profile["ann_base_dim"] == 0:
        report["note"] = ("the remaining combination (perfect top, trivial "
                          "base annihilator) holds but is not one of the "
                          "supported conditions")
    return report


def _semidirect_report(_kind, d, _field) -> dict:
    sd = semidirect_algebra(d)
    return {"algebra": ser.algebra_to_json(sd.algebra), "include_target": ser.matrix_to_json(sd.include_target),
            "include_actor": ser.matrix_to_json(sd.include_actor)}


def _semidirect_xmod_report(_kind, d, field: Field) -> dict:
    from .bider import sequence_problems
    from .xaction import semidirect_xmod, validate_xmod_action

    rep = validate_xmod_action(d)
    if not rep.ok:
        return {"ok": False, "violations": _violations_json(field, rep)}
    sd = semidirect_xmod(d)
    problems = sequence_problems(sd.sequence())
    return {
        "ok": not problems,
        "xmod": ser.xmod_to_json(sd.xmod),
        "include": ser.morphism_maps_to_json(sd.include),
        "project": ser.morphism_maps_to_json(sd.project),
        "section": ser.morphism_maps_to_json(sd.section),
        "sequence_problems": problems,
    }


def _xaction_validate_report(_kind, d, field: Field) -> dict:
    from .xaction import RELAXABLE_LABELS, validate_xmod_action

    rep = validate_xmod_action(d)
    labels = rep.labels()
    return {
        "ok": rep.ok,
        "violations": _violations_json(field, rep),
        "hard": [l for l in labels if l not in RELAXABLE_LABELS],
        "relaxed": [l for l in labels if l in RELAXABLE_LABELS],
    }


def _xaction_to_morphism_report(_kind, d, _field) -> dict:
    from .xaction import morphism_from_action

    res = morphism_from_action(d)
    return {"morphism": ser.actor_morphism_to_json(res.morphism), "relaxed_failures": list(res.relaxed_failures)}


def _morphism_to_xaction_report(_kind, fm, _field) -> dict:
    from .xaction import action_from_morphism

    return {"xaction": ser.xaction_to_json(action_from_morphism(fm))}


def _lift_report(_kind, s, _field) -> dict:
    from .bider import lift_sequence

    res = lift_sequence(s)
    return {
        **ser.morphism_maps_to_json(res.morphism),
        "outer": ser.xmod_to_json(res.outer.xmod),
        "induced_top": ser.matrix_to_json(res.induced_top),
        "induced_base": ser.matrix_to_json(res.induced_base),
        "warnings": list(res.warnings),
    }


#: a crossed-module input, refused unless valid
_VALID_XMOD = {"xmod": _CHECKS["xmod"]}

_COMMANDS = {
    "validate": _Command(
        "check every defining identity of the input object",
        {"algebra": None, "xmod": None, "action": None, "xaction": None, "morphism": _actor_of_checks,
         "sequence": None},
        _validate_report),
    "ann": _Command("two-sided annihilator of an algebra", {"algebra": None},
                    lambda _kind, a, _field: {"annihilator": ser.subspace_to_json(annihilator(a))}),
    "comm": _Command("derived (commutator) subspace of an algebra", {"algebra": None},
                     lambda _kind, a, _field: {"commutator": ser.subspace_to_json(commutator(a))}),
    "bider": _Command("biderivation pair space of an algebra", {"algebra": _CHECKS["algebra"]}, _bider_report),
    "bider-qn": _Command("pair space base->top of a crossed module", _VALID_XMOD, _bider_qn_report),
    "bider-xmod": _Command("quadruple space of a crossed module", _VALID_XMOD, _bider_xmod_report),
    "actor": _Command("the actor crossed module", _VALID_XMOD, _actor_report),
    "delta": _Command("boundary matrix of the actor, pairs to quadruples", _VALID_XMOD, _delta_report),
    "canonical": _Command("canonical morphism of a crossed module into its actor", _VALID_XMOD, _canonical_report),
    "inner": _Command("image of the canonical morphism inside the actor", _VALID_XMOD, _inner_report),
    "outer": _Command("actor modulo the inner part", _VALID_XMOD, _outer_report),
    "center": _Command("central sub-crossed-module", _VALID_XMOD,
                       lambda _kind, x, _field: _sub_xmod_report(center(x), warnings=True)),
    "conditions": _Command("support-condition flags con1/con2/con3 and their profile", _VALID_XMOD,
                           _conditions_report),
    "semidirect": _Command("semidirect algebra of an algebra action", {"action": _CHECKS["action"]},
                           _semidirect_report),
    "semidirect-xmod": _Command("semidirect crossed module of a crossed-module action", {"xaction": None},
                                _semidirect_xmod_report),
    "xaction-validate": _Command("check the labeled identities of a crossed-module action", {"xaction": None},
                                 _xaction_validate_report),
    "xaction-to-morphism": _Command("turn action data into a morphism into the actor", {"xaction": None},
                                    _xaction_to_morphism_report),
    "morphism-to-xaction": _Command("recover action data from a morphism into the actor",
                                    {"morphism": _actor_of_checks}, _morphism_to_xaction_report),
    "lift": _Command("extend a short exact sequence by the actor of its first part",
                     {"sequence": _sequence_checks}, _lift_report),
    "catalog": _Command("list the built-in examples", {}, lambda _kind, _obj, _field: {
        "entries": [{"id": e.id, "kind": e.kind, "summary": e.summary} for e in CATALOG.values()]}),
}

#: which input kinds each subcommand that reads an input accepts
_ACCEPTS = {name: tuple(command.inputs) for name, command in _COMMANDS.items() if command.inputs}


class _Args(NamedTuple):
    """A command line as ``main`` reads it: what ``_parser().parse_args(argv)`` gives."""

    command: str
    input: Optional[str] = None
    field: str = "q"
    out: Optional[str] = None


def _plain_args(argv: Sequence[str]) -> Optional[_Args]:
    """argv in the documented form ``<command> [<input>] [--field F] [--out
    PATH]``, read without argparse: each option and its value as separate
    tokens, in any order and any number of times (the last one counts), and
    as many positionals as the command takes.  None for every other argv,
    and for any token or value that starts with "-": ``main`` hands those to
    argparse, the one source of help texts and usage errors."""
    if not argv or argv[0] not in _COMMANDS:
        return None
    positionals, options, tokens = [], {}, iter(argv[1:])
    for token in tokens:
        if token in ("--field", "--out"):
            value = next(tokens, "-")
            if value.startswith("-"):
                return None
            options[token[2:]] = value
        elif token.startswith("-"):
            return None
        else:
            positionals.append(token)
    if len(positionals) != bool(_COMMANDS[argv[0]].inputs):
        return None
    return _Args(argv[0], *positionals, **options)


def _parser() -> argparse.ArgumentParser:
    import argparse

    p = argparse.ArgumentParser(
        prog="lbxmod",
        description="exact computations with Leibniz algebras, their crossed "
                    "modules, and actors",
    )
    common = argparse.ArgumentParser(add_help=False)  # every subcommand's options, declared once
    common.add_argument("--field", default="q", help="scalar field tag: q or f<p> (default: q)")
    common.add_argument("--out", default=None, help="also write the report to this file")
    sub = p.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        sp = sub.add_parser(name, help=command.help, description=command.help, parents=[common])
        if command.inputs:
            sp.add_argument("input", help="JSON file path or catalog:<id>")
    return p


def _load(spec: str, field: Field, accepted: Sequence[str]):
    if spec.startswith("catalog:"):
        entry_id = spec[len("catalog:"):]
        obj = build_entry(entry_id, field)
        kind = CATALOG[entry_id].kind
    else:
        try:
            with open(spec, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except ValueError as exc:  # bad JSON or UTF-8, or an integer literal past the digit limit
            raise InputDataError(f"{spec} is not valid JSON: {exc}") from exc
        except RecursionError as exc:  # the decoder recurses once per level of nesting
            raise InputDataError(f"{spec} is not valid JSON: nested too deeply to read") from exc
        except OSError as exc:
            raise InputDataError(f"cannot read {spec}: {exc}") from exc
        from .readers import load_any

        kind, obj = load_any(field, data)
    if kind not in accepted:
        raise InputDataError(
            f"this command needs {' or '.join(accepted)} input, got {kind}")
    return kind, obj


def _invalid_labels(check, obj) -> tuple[str, ...]:
    """The labels of the input's failed checks, each with its report's prefix."""
    return tuple(prefix + label for prefix, report in (check(obj) if check else ()) for label in report.labels())


def _emit(report: dict, out_path: Optional[str]) -> None:
    text = json.dumps(report, indent=2)
    try:
        print(text, flush=True)
    except BrokenPipeError:  # the reader closed stdout early: send the rest nowhere, quietly
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _plain_args(argv) or _parser().parse_args(argv)
    base = {"command": args.command, "field": args.field}
    if args.out:
        try:
            open(args.out, "a", encoding="utf-8").close()
        except OSError as exc:
            _emit({**base, "error": f"cannot write {args.out}: {exc}"}, None)
            return EXIT_BAD_INPUT

    try:
        field = get_field(args.field)
    except InputDataError as exc:
        _emit({**base, "error": str(exc)}, args.out)
        return EXIT_BAD_INPUT

    command = _COMMANDS[args.command]
    if not command.inputs:  # catalog
        _emit({**base, "ok": True, **command.report(None, None, field)}, args.out)
        return EXIT_OK

    base["input"] = args.input
    try:
        kind, obj = _load(args.input, field, _ACCEPTS[args.command])
        invalid = _invalid_labels(command.inputs[kind], obj)
        if invalid:
            _emit({**base, "ok": False,
                   "error": f"the {kind} input violates " + ", ".join(invalid),
                   "labels": list(invalid)}, args.out)
            return EXIT_FAIL
        report = {**base, "ok": True, **command.report(kind, obj, field)}
    except ActionAxiomError as exc:
        _emit({**base, "ok": False, "error": str(exc), "hard": list(exc.labels)}, args.out)
        return EXIT_FAIL
    except ConditionsNotMetError as exc:
        _emit({**base, "ok": False, "error": str(exc),
               "failed_conditions": list(exc.flags.failed()),
               "profile": exc.profile}, args.out)
        return EXIT_FAIL
    except (InvalidMorphismError, NotAnIdealError, NotExactError) as exc:
        _emit({**base, "ok": False, "error": str(exc)}, args.out)
        return EXIT_FAIL
    except InputDataError as exc:
        _emit({**base, "error": str(exc)}, args.out)
        return EXIT_BAD_INPUT
    except LinearSolveError as exc:
        _emit({**base, "ok": False, "internal_error": str(exc)}, args.out)
        return EXIT_INTERNAL
    except ValueError as exc:
        if "integer string conversion" not in str(exc):  # only str(int) past the digit limit is expected
            raise
        _emit({**base, "error": f"a number in the report has more than {sys.get_int_max_str_digits()} digits"},
              args.out)
        return EXIT_BAD_INPUT

    _emit(report, args.out)
    return EXIT_OK if report["ok"] else EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
