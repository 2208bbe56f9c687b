"""Command-line interface.

Every subcommand reads one input (a JSON file path or ``catalog:<id>``),
prints a single JSON report to stdout, and exits with

* 0 — computed and, where applicable, every check passed,
* 1 — the input was well-formed but a check failed or a construction was
      refused (axiom violations, non-ideal quotients, inexact sequences,
      missing support conditions),
* 2 — the input could not be read or parsed at all, or a number in its
      report is too long to print (past the interpreter's digit limit for
      int-to-str conversion, which lbxmod leaves as it is),
* 3 — internal error: a result that theory guarantees was not found
      (``LinearSolveError``), which means a bug in lbxmod.

Commands other than ``validate`` refuse an input crossed module that fails
``validate_xmod`` before computing anything, with exit 1 and the failing
axiom labels; so do ``bider`` for an algebra that is not Leibniz,
``semidirect`` for an invalid action, ``lift`` for a sequence with an
invalid crossed module, and every command for a morphism into the actor of
an invalid crossed module.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Optional, Sequence

from . import serialize as ser
from .action import validate_action
from .algebra import ValidationReport, _prefixed, annihilator, commutator, validate_leibniz
from .action import semidirect_algebra
from .bider import (
    NotExactError,
    actor,
    bider_algebra,
    bider_qn,
    bider_xmod,
    canonical_morphism,
    delta,
    inner_xmod,
    lift_sequence,
    outer_xmod,
    sequence_problems,
)
from .catalog import CATALOG, build_entry
from .fields import Field, InputDataError, get_field
from .linalg import LinearSolveError, rref
from .xaction import (
    ActionAxiomError,
    ConditionsNotMetError,
    InvalidMorphismError,
    RELAXABLE_LABELS,
    action_from_morphism,
    morphism_from_action,
    semidirect_xmod,
    validate_xmod_action,
)
from .xmod import (
    NotAnIdealError,
    center,
    check_conditions,
    condition_profile,
    kernel,
    validate_morphism,
    validate_xmod,
)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_BAD_INPUT = 2
EXIT_INTERNAL = 3

#: which input kinds each subcommand accepts
_ACCEPTS = {
    "validate": ("algebra", "xmod", "action", "xaction", "morphism", "sequence"),
    "ann": ("algebra",),
    "comm": ("algebra",),
    "bider": ("algebra",),
    "bider-qn": ("xmod",),
    "bider-xmod": ("xmod",),
    "actor": ("xmod",),
    "delta": ("xmod",),
    "canonical": ("xmod",),
    "inner": ("xmod",),
    "outer": ("xmod",),
    "center": ("xmod",),
    "conditions": ("xmod",),
    "semidirect": ("action",),
    "semidirect-xmod": ("xaction",),
    "xaction-validate": ("xaction",),
    "xaction-to-morphism": ("xaction",),
    "morphism-to-xaction": ("morphism",),
    "lift": ("sequence",),
}

_HELP = {
    "validate": "check every defining identity of the input object",
    "ann": "two-sided annihilator of an algebra",
    "comm": "derived (commutator) subspace of an algebra",
    "bider": "biderivation pair space of an algebra",
    "bider-qn": "pair space base->top of a crossed module",
    "bider-xmod": "quadruple space of a crossed module",
    "actor": "the actor crossed module",
    "delta": "boundary matrix of the actor, pairs to quadruples",
    "canonical": "canonical morphism of a crossed module into its actor",
    "inner": "image of the canonical morphism inside the actor",
    "outer": "actor modulo the inner part",
    "center": "central sub-crossed-module",
    "conditions": "support-condition flags con1/con2/con3 and their profile",
    "semidirect": "semidirect algebra of an algebra action",
    "semidirect-xmod": "semidirect crossed module of a crossed-module action",
    "xaction-validate": "check the labeled identities of a crossed-module action",
    "xaction-to-morphism": "turn action data into a morphism into the actor",
    "morphism-to-xaction": "recover action data from a morphism into the actor",
    "lift": "extend a short exact sequence by the actor of its first part",
    "catalog": "list the built-in examples",
}


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="lbxmod",
        description="exact computations with Leibniz algebras, their crossed "
                    "modules, and actors",
    )
    sub = p.add_subparsers(dest="command", required=True)
    for name, help_text in _HELP.items():
        sp = sub.add_parser(name, help=help_text, description=help_text)
        if name != "catalog":
            sp.add_argument("input", help="JSON file path or catalog:<id>")
        sp.add_argument("--field", default="q",
                        help="scalar field tag: q or f<p> (default: q)")
        sp.add_argument("--out", default=None,
                        help="also write the report to this file")
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
        kind, obj = ser.load_any(field, data)
    if kind not in accepted:
        raise InputDataError(
            f"this command needs {' or '.join(accepted)} input, got {kind}")
    return kind, obj


def _action_checks(d) -> list:
    """What an algebra action must satisfy: both algebras Leibniz, then act1..act6."""
    return [("actor:", validate_leibniz(d.actor)), ("target:", validate_leibniz(d.target)),
            ("", validate_action(d))]


def _invalid_labels(command: str, kind: str, obj) -> tuple[str, ...]:
    """Axiom labels that make the input unusable for the command.

    Solved spaces and actors are only defined for valid crossed modules
    (and pair spaces of an algebra for a Leibniz algebra); ``validate``
    reports violations instead, except that a morphism into the actor
    needs a valid crossed module to build that actor from.
    """
    if kind == "morphism":
        checks = [("actor_of:", validate_xmod(obj.around))]
    elif command == "validate":
        checks = []
    elif kind == "xmod":
        checks = [("", validate_xmod(obj))]
    elif kind == "algebra" and command == "bider":
        checks = [("", validate_leibniz(obj))]
    elif kind == "action" and command == "semidirect":
        checks = _action_checks(obj)
    elif kind == "sequence" and command == "lift":
        checks = [(role + ":", validate_xmod(x))
                  for role, x in (("first", obj.first), ("middle", obj.middle), ("last", obj.last))]
    else:
        checks = []
    return tuple(prefix + label for prefix, report in checks for label in report.labels())


def _violations_json(field: Field, report) -> list:
    return [
        {
            "axiom": v.axiom,
            "witness": list(v.witness),
            "lhs": ser.vector_to_json(field, v.lhs),
            "rhs": ser.vector_to_json(field, v.rhs),
        }
        for v in report.violations
    ]


def _maps_json(top_map, base_map) -> dict:
    return {"top_map": ser.matrix_to_json(top_map), "base_map": ser.matrix_to_json(base_map)}


def _run(command: str, kind: str, obj, field: Field) -> tuple[dict, bool]:
    """Returns (report fragment, ok)."""
    if command == "validate":
        if kind == "sequence":
            problems = sequence_problems(obj)
            return {"kind": kind, "problems": problems}, not problems
        if kind == "morphism":
            rep = validate_morphism(obj.as_xmod_morphism())
        elif kind == "algebra":
            rep = validate_leibniz(obj)
        elif kind == "xmod":
            rep = validate_xmod(obj)
        elif kind == "action":
            rep = ValidationReport(tuple(_prefixed(*_action_checks(obj))))
        else:
            rep = validate_xmod_action(obj)
        return {"kind": kind, "violations": _violations_json(field, rep)}, rep.ok

    if command == "ann":
        return {"annihilator": ser.subspace_to_json(annihilator(obj))}, True
    if command == "comm":
        return {"commutator": ser.subspace_to_json(commutator(obj))}, True

    if command in ("bider", "bider-qn", "bider-xmod"):
        space = {"bider": bider_algebra, "bider-qn": bider_qn, "bider-xmod": bider_xmod}[command](obj)
        return {
            "dim": space.dim,
            "shapes": [list(s) for s in space.shapes],
            "basis": ser.subspace_to_json(space.space)["basis"],
            "algebra": ser.algebra_to_json(space.algebra),
        }, True

    if command == "actor":
        act = actor(obj)
        return {
            "top_dim": act.top.dim,
            "base_dim": act.base.dim,
            "actor": ser.xmod_to_json(act),
        }, True
    if command == "delta":
        mat = delta(obj)
        bij = rref(mat).rank == mat.rows and mat.rows == mat.cols
        return {"matrix": ser.matrix_to_json(mat), "bijective": bij}, True
    if command == "canonical":
        f = canonical_morphism(obj)
        ker = kernel(f)
        return {
            **_maps_json(f.top_map, f.base_map),
            "kernel_top_dim": ker.top_space.dim,
            "kernel_base_dim": ker.base_space.dim,
        }, True
    if command == "inner":
        sub = inner_xmod(obj)
        return {
            "top": ser.subspace_to_json(sub.top_space),
            "base": ser.subspace_to_json(sub.base_space),
            "xmod": ser.xmod_to_json(sub.xmod),
        }, True
    if command == "outer":
        quo = outer_xmod(obj)
        return {
            "xmod": ser.xmod_to_json(quo.xmod),
            "top_project": ser.matrix_to_json(quo.top_project),
            "base_project": ser.matrix_to_json(quo.base_project),
        }, True
    if command == "center":
        sub = center(obj)
        return {
            "top": ser.subspace_to_json(sub.top_space),
            "base": ser.subspace_to_json(sub.base_space),
            "xmod": ser.xmod_to_json(sub.xmod),
            "warnings": list(sub.warnings),
        }, True
    if command == "conditions":
        flags = check_conditions(obj)
        profile = condition_profile(obj)
        report = {
            "con1": flags.con1,
            "con2": flags.con2,
            "con3": flags.con3,
            "any": flags.any_holds,
            "profile": profile,
        }
        if (not flags.any_holds and profile["top_perfect"]
                and profile["ann_base_dim"] == 0):
            report["note"] = ("the remaining combination (perfect top, trivial "
                              "base annihilator) holds but is not one of the "
                              "supported conditions")
        return report, True

    if command == "semidirect":
        sd = semidirect_algebra(obj)
        return {
            "algebra": ser.algebra_to_json(sd.algebra),
            "include_target": ser.matrix_to_json(sd.include_target),
            "include_actor": ser.matrix_to_json(sd.include_actor),
        }, True
    if command == "semidirect-xmod":
        rep = validate_xmod_action(obj)
        if not rep.ok:
            return {"violations": _violations_json(field, rep)}, False
        sd = semidirect_xmod(obj)
        problems = sequence_problems(sd.sequence())
        return {
            "xmod": ser.xmod_to_json(sd.xmod),
            "include": _maps_json(sd.include.top_map, sd.include.base_map),
            "project": _maps_json(sd.project.top_map, sd.project.base_map),
            "section": _maps_json(sd.section.top_map, sd.section.base_map),
            "sequence_problems": problems,
        }, not problems

    if command == "xaction-validate":
        rep = validate_xmod_action(obj)
        labels = rep.labels()
        return {
            "violations": _violations_json(field, rep),
            "hard": [l for l in labels if l not in RELAXABLE_LABELS],
            "relaxed": [l for l in labels if l in RELAXABLE_LABELS],
        }, rep.ok
    if command == "xaction-to-morphism":
        res = morphism_from_action(obj)
        return {
            "morphism": ser.actor_morphism_to_json(res.morphism),
            "relaxed_failures": list(res.relaxed_failures),
        }, True
    if command == "morphism-to-xaction":
        data = action_from_morphism(obj)
        return {"xaction": ser.xaction_to_json(data)}, True

    if command == "lift":
        res = lift_sequence(obj)
        return {
            **_maps_json(res.morphism.top_map, res.morphism.base_map),
            "outer": ser.xmod_to_json(res.outer.xmod),
            "induced_top": ser.matrix_to_json(res.induced_top),
            "induced_base": ser.matrix_to_json(res.induced_base),
            "warnings": list(res.warnings),
        }, True

    raise InputDataError(f"unknown command {command!r}")


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
    args = _parser().parse_args(argv)
    base = {"command": args.command, "field": args.field}

    try:
        field = get_field(args.field)
    except InputDataError as exc:
        _emit({**base, "error": str(exc)}, args.out)
        return EXIT_BAD_INPUT

    if args.command == "catalog":
        entries = [{"id": e.id, "kind": e.kind, "summary": e.summary}
                   for e in CATALOG.values()]
        _emit({**base, "ok": True, "entries": entries}, args.out)
        return EXIT_OK

    base["input"] = args.input
    try:
        kind, obj = _load(args.input, field, _ACCEPTS[args.command])
        invalid = _invalid_labels(args.command, kind, obj)
        if invalid:
            _emit({**base, "ok": False,
                   "error": f"the {kind} input violates " + ", ".join(invalid),
                   "labels": list(invalid)}, args.out)
            return EXIT_FAIL
        fragment, ok = _run(args.command, kind, obj, field)
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

    _emit({**base, "ok": ok, **fragment}, args.out)
    return EXIT_OK if ok else EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
