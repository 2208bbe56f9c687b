"""The four workloads: their fixed job lists, and the checks on every output.

A job is one unit of work a user would ask for.  ``Job.run`` is the timed
part; ``summarize`` turns its result into a canonical JSON digest plus a few
basis-independent invariants, outside the timed region.  Standard-basis jobs
and CLI jobs are checked against digests captured once, at the commit that
introduced the benchmark (``goldens.json``).  Rebased jobs have no golden of
their own: they are checked against their standard-basis twin through the
invariants, and against the validators, so no expected value is taken from
the code under test alone.

This module imports ``lbxmod``; the caller puts the checkout's ``src`` on
``sys.path`` first.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable, Optional

import gen

import lbxmod.cli  # noqa: F401  (loads every lbxmod module, so caches() sees them all)
from lbxmod import serialize as ser
from lbxmod.action import ActionData
from lbxmod.algebra import LeibnizAlgebra
from lbxmod.bider import actor, canonical_morphism, outer_xmod
from lbxmod.fields import FpElement, GF2, GF3, QQ
from lbxmod.linalg import Matrix, Subspace
from lbxmod.xaction import XModActionData, semidirect_xmod, validate_xmod_action
from lbxmod.xmod import (
    CrossedModule,
    center,
    check_conditions,
    quotient_xmod,
    validate_morphism,
    validate_xmod,
)

ROOT = Path(__file__).resolve().parent.parent
GOLDENS = Path(__file__).resolve().parent / "goldens.json"
PROBED_CLI = Path(__file__).resolve().parent / "probed_cli.py"
FIELDS = {"q": QQ, "f2": GF2, "f3": GF3}
NAMES = ("actor-q", "actor-fp", "structure", "cli")

# (family id, integer crossed module, one change of basis for both layers,
# or None for no rebased twin).  A change of basis leaves the zero bracket
# of A_n as it is, so A_2 runs in its standard basis only.  That makes 15
# jobs per field of distinct sizes.  With 15, the pooled median falls in the
# middle of the 8th job's samples, not on the gap between two job sizes,
# where the pooled quantile would be set by the extreme samples of two jobs.
# One cold pass over a field takes a few seconds on this code base.
ACTOR_FAMILIES = (
    ("nf2-id", gen.identity_xmod(gen.nf(2)), True),
    ("nf3-id", gen.identity_xmod(gen.nf(3)), True),
    ("a2-id", gen.identity_xmod(gen.abelian(2)), None),
    ("sl2-id", gen.identity_xmod(gen.sl2()), True),
    ("nf2-comm", gen.coordinate_ideal_inclusion(gen.nf(2), [1]), False),
    ("nf3-comm", gen.coordinate_ideal_inclusion(gen.nf(3), [1, 2]), False),
    ("nf4-comm", gen.coordinate_ideal_inclusion(gen.nf(4), [1, 2, 3]), False),
    ("nf3-center", gen.coordinate_ideal_inclusion(gen.nf(3), [2]), False),
)


@dataclass
class Job:
    id: str
    run: Callable[[], Any]
    summarize: Callable[[Any], dict]
    twin: Optional[str] = None  # standard-basis job whose invariants must match
    golden: bool = True         # checked against goldens.json
    validate: Optional[Callable[[Any], list[str]]] = None  # extra checks, first pass only


# -- conversion of generated constants into lbxmod objects ---------------------


def _tensor(field, t: list) -> tuple:
    return tuple(tuple(tuple(field.coerce(c) for c in v) for v in row) for row in t)


def to_xmod(field, x: dict) -> CrossedModule:
    top = LeibnizAlgebra(field, len(x["top"]), _tensor(field, x["top"]))
    base = LeibnizAlgebra(field, len(x["base"]), _tensor(field, x["base"]))
    bd = Matrix(field, len(x["base"]), len(x["top"]),
                tuple(tuple(field.coerce(c) for c in row) for row in x["boundary"]))
    act = ActionData(base, top, _tensor(field, x["left"]), _tensor(field, x["right"]))
    return CrossedModule(top, base, bd, act)


def self_action(x: CrossedModule) -> XModActionData:
    """The identity crossed module acting on itself through its bracket."""
    return XModActionData(x, x, x.action, x.action, x.top.table, x.top.table)


# -- digests and an elimination independent of lbxmod --------------------------


def digest(obj: Any) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def rank(m: Matrix) -> int:
    """Rank by plain Gaussian elimination, on ints mod p or on Fractions."""
    rows = [list(r) for r in m.entries]
    p = None
    if rows and rows[0] and isinstance(rows[0][0], FpElement):
        p = rows[0][0].p
        rows = [[x.value % p for x in r] for r in rows]
    else:
        rows = [[Fraction(x) for x in r] for r in rows]
    r = 0
    for c in range(m.cols):
        piv = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = pow(rows[r][c], -1, p) if p else 1 / rows[r][c]
        for i in range(r + 1, len(rows)):
            if rows[i][c]:
                f = rows[i][c] * inv
                rows[i] = [(a - f * b) % p if p else a - f * b for a, b in zip(rows[i], rows[r])]
        r += 1
    return r


def json_text(obj: Any) -> str:
    return json.dumps(obj)


def json_parse(text: str) -> Any:
    return json.loads(text)


# -- actor-q and actor-fp ------------------------------------------------------


def _actor_job(x: CrossedModule):
    return actor(x), canonical_morphism(x), center(x), outer_xmod(x)


def _actor_summary(res) -> dict:
    act, can, cen, out = res
    doc = {
        "actor": ser.xmod_to_json(act),
        "canonical": ser.morphism_maps_to_json(can),
        "center": [ser.subspace_to_json(cen.top_space), ser.subspace_to_json(cen.base_space),
                   ser.xmod_to_json(cen.xmod), list(cen.warnings)],
        "outer": [ser.xmod_to_json(out.xmod), ser.matrix_to_json(out.top_project),
                  ser.matrix_to_json(out.base_project)],
    }
    return {
        "digest": digest(doc),
        "invariants": {
            "actor_dims": [act.top.dim, act.base.dim],
            "center_dims": [cen.top_space.dim, cen.base_space.dim],
            "kernel_dims": [can.top_map.cols - rank(can.top_map), can.base_map.cols - rank(can.base_map)],
            "outer_dims": [out.xmod.top.dim, out.xmod.base.dim],
        },
    }


def actor_validity(res) -> list[str]:
    """Validators a rebased actor job must pass (first pass only: costly)."""
    act, can, _cen, _out = res
    problems = []
    if not validate_xmod(act).ok:
        problems.append("validate_xmod(actor) failed")
    if not validate_morphism(can).ok:
        problems.append("validate_morphism(canonical) failed")
    return problems


def actor_jobs(field_tags: tuple[str, ...], seed: int) -> list[Job]:
    jobs = []
    for tag in field_tags:
        field = FIELDS[tag]
        for fam, x, same in ACTOR_FAMILIES:
            std_id = f"actor/{tag}/{fam}/std"
            variants = [(std_id, x, None)]
            if same is not None:
                rebased = gen.random_rebase(random.Random(f"{seed}/{fam}"), x, same)
                variants.append((f"actor/{tag}/{fam}/rebased", rebased, std_id))
            for jid, data, twin in variants:
                obj = to_xmod(field, data)
                jobs.append(Job(jid, lambda obj=obj: _actor_job(obj), _actor_summary,
                                twin=twin, golden=twin is None,
                                validate=actor_validity if twin else None))
    return jobs


# -- structure -----------------------------------------------------------------


def _roundtrip(to_json: Callable, from_json: Callable, field, obj) -> tuple[int, Any]:
    """Serialize obj and read it back; returns the JSON size and the copy."""
    text = json_text(to_json(obj))
    return len(text), from_json(field, json_parse(text))


def _report_doc(rep) -> dict:
    return {"ok": rep.ok, "labels": list(rep.labels()), "violations": len(rep.violations)}


def _summary(doc: Any, roundtrip: Optional[tuple[int, Any]] = None, original: Any = None) -> dict:
    out = {"digest": digest(doc), "invariants": {}}
    if roundtrip is not None:
        out["serialize_bytes"] = roundtrip[0]
        out["invariants"]["roundtrip_equal"] = roundtrip[1] == original
    return out


def _structure_xmod_jobs(tag: str, name: str, x: CrossedModule, ideal: list[int]) -> list[Job]:
    field = FIELDS[tag]
    n = x.top.dim
    sub = Subspace.from_rows(field, n, [tuple(field.one if j == i else field.zero for j in range(n))
                                        for i in ideal])
    pre = f"structure/{tag}/{name}"

    def validate():
        return validate_xmod(x), _roundtrip(ser.xmod_to_json, ser.xmod_from_json, field, x)

    def cen():
        c = center(x)
        return c, _roundtrip(ser.xmod_to_json, ser.xmod_from_json, field, c.xmod)

    def quo():
        q = quotient_xmod(x, sub, sub)
        return q, _roundtrip(ser.xmod_to_json, ser.xmod_from_json, field, q.xmod)

    return [
        Job(f"{pre}/validate_xmod", validate, lambda r: _summary(_report_doc(r[0]), r[1], x)),
        Job(f"{pre}/center", cen,
            lambda r: _summary([ser.subspace_to_json(r[0].top_space), ser.subspace_to_json(r[0].base_space),
                                ser.xmod_to_json(r[0].xmod), list(r[0].warnings)], r[1], r[0].xmod)),
        Job(f"{pre}/check_conditions", lambda: check_conditions(x),
            lambda r: _summary([r.con1, r.con2, r.con3])),
        Job(f"{pre}/quotient_xmod", quo,
            lambda r: _summary([ser.xmod_to_json(r[0].xmod), ser.matrix_to_json(r[0].top_project),
                                ser.matrix_to_json(r[0].base_project)], r[1], r[0].xmod)),
    ]


def _structure_xaction_jobs(tag: str, name: str, x: CrossedModule) -> list[Job]:
    field = FIELDS[tag]
    d = self_action(x)
    pre = f"structure/{tag}/{name}-self"

    def validate():
        return validate_xmod_action(d), _roundtrip(ser.xaction_to_json, ser.xaction_from_json, field, d)

    def semi():
        s = semidirect_xmod(d)
        return s, _roundtrip(ser.xmod_to_json, ser.xmod_from_json, field, s.xmod)

    def semi_doc(s) -> list:
        return [ser.xmod_to_json(s.xmod)] + [ser.morphism_maps_to_json(m)
                                             for m in (s.include, s.project, s.section)]

    return [
        Job(f"{pre}/validate_xmod_action", validate, lambda r: _summary(_report_doc(r[0]), r[1], d)),
        Job(f"{pre}/semidirect_xmod", semi, lambda r: _summary(semi_doc(r[0]), r[1], r[0].xmod)),
    ]


def structure_jobs() -> list[Job]:
    sl2_3 = gen.direct_sum(gen.sl2(), gen.sl2(), gen.sl2())
    sl2_2 = gen.direct_sum(gen.sl2(), gen.sl2())
    jobs = []
    for tag in ("q", "f3"):
        f = FIELDS[tag]
        jobs += _structure_xmod_jobs(tag, "nf10-id", to_xmod(f, gen.identity_xmod(gen.nf(10))), [5, 6, 7, 8, 9])
        jobs += _structure_xmod_jobs(tag, "sl2^3-id", to_xmod(f, gen.identity_xmod(sl2_3)), [6, 7, 8])
        jobs += _structure_xaction_jobs(tag, "nf6-id", to_xmod(f, gen.identity_xmod(gen.nf(6))))
        jobs += _structure_xaction_jobs(tag, "sl2^2-id", to_xmod(f, gen.identity_xmod(sl2_2)))
    return jobs


# -- cli -----------------------------------------------------------------------


def cli_pairs(goldens: dict) -> list[tuple[str, str]]:
    """Every (command, catalog entry) pair the CLI accepted when the goldens
    were captured, in a fixed order."""
    pairs = {tuple(k[len("cli/"):].split()[:2]) for k in goldens if k.startswith("cli/")}
    return sorted(pairs)


def cli_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def cli_argv(cmd: str, cid: str, tag: str) -> list[str]:
    return [cmd, f"catalog:{cid}", "--field", tag]


def run_cli_subprocess(argv: list[str], env: dict) -> tuple[int, bytes]:
    proc = subprocess.run([sys.executable, "-m", "lbxmod.cli", *argv], capture_output=True,
                          env=env, cwd=ROOT, timeout=120, check=False)
    return proc.returncode, proc.stdout


def run_cli_probed(argv: list[str], env: dict) -> tuple[int, bytes, str]:
    """``run_cli_subprocess`` through ``probed_cli.py``; also returns the
    CLI's standard error, which ends with the speed probe's report."""
    proc = subprocess.run([sys.executable, str(PROBED_CLI), *argv], capture_output=True,
                          env=env, cwd=ROOT, timeout=120, check=False)
    return proc.returncode, proc.stdout, proc.stderr.decode(errors="replace")


def run_cli_inprocess(argv: list[str]) -> tuple[int, bytes]:
    from lbxmod import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue().encode()


def _cli_summary(res) -> dict:
    code, out = res[:2]
    return {"digest": f"{code}:{hashlib.sha256(out).hexdigest()}", "invariants": {},
            "serialize_bytes": len(out)}


def cli_jobs(seed: int, goldens: dict, in_process: bool = False, probed: bool = False) -> list[Job]:
    """One job per (command, entry) pair, its field drawn from the seed.

    The draw is balanced per catalog entry: the commands run on one entry
    get q, f2 and f3 equally often (up to one), in a seeded order.  So the
    heavy entries (sl2-id and friends) keep the same field mix on every
    seed, and the seed does not move the pass time by itself.  ``in_process``
    runs ``lbxmod.cli.main`` in this process; ``probed`` runs each
    subprocess through ``probed_cli.py``.
    """
    rng = random.Random(f"{seed}/cli")
    pairs = cli_pairs(goldens)
    field_of = {}
    for cid in sorted({cid for _cmd, cid in pairs}):
        cmds = [cmd for cmd, c in pairs if c == cid]
        tags = [tuple(FIELDS)[i % len(FIELDS)] for i in range(len(cmds))]
        rng.shuffle(tags)
        field_of.update({(cmd, cid): tag for cmd, tag in zip(cmds, tags)})
    env = cli_env()
    jobs = []
    for cmd, cid in pairs:
        tag = field_of[(cmd, cid)]
        argv = cli_argv(cmd, cid, tag)
        if in_process:
            run = lambda a=argv: run_cli_inprocess(a)  # noqa: E731
        elif probed:
            run = lambda a=argv: run_cli_probed(a, env)  # noqa: E731
        else:
            run = lambda a=argv: run_cli_subprocess(a, env)  # noqa: E731
        jobs.append(Job(f"cli/{cmd} {cid} {tag}", run, _cli_summary))
    return jobs


# -- entry points --------------------------------------------------------------


def build(name: str, seed: int, goldens: dict, in_process_cli: bool = False,
          probed_cli: bool = False) -> list[Job]:
    if name == "actor-q":
        return actor_jobs(("q",), seed)
    if name == "actor-fp":
        return actor_jobs(("f2", "f3"), seed)
    if name == "structure":
        return structure_jobs()
    if name == "cli":
        return cli_jobs(seed, goldens, in_process_cli, probed_cli)
    raise ValueError(f"unknown workload {name!r}; known: {', '.join(NAMES)}")


def load_goldens() -> dict:
    with open(GOLDENS, encoding="utf-8") as fh:
        return json.load(fh)


def lbxmod_modules() -> list:
    return [m for n, m in sorted(sys.modules.items())
            if m is not None and (n == "lbxmod" or n.startswith("lbxmod."))]


def caches() -> list:
    """Every memo an lbxmod module exposes, found by duck typing."""
    seen: dict[int, Any] = {}
    for mod in lbxmod_modules():
        for obj in vars(mod).values():
            if callable(getattr(obj, "cache_clear", None)):
                seen.setdefault(id(obj), obj)
    return list(seen.values())

