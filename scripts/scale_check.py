#!/usr/bin/env python3
"""Time and memory of the actor and the outer crossed module at scale.

Each subject is a crossed module built from one algebra, named on the
command line:

* ``A<n>``    the identity on the abelian algebra of dimension n;
* ``NF<n>``   the identity on the null-filiform algebra, [e_i, e_1] = e_{i+1};
* ``sl2^<k>`` the identity on the direct sum of k copies of sl2;
* ``NF<n>c``  the inclusion of the ideal [NF_n, NF_n] into NF_n;
* ``NF<n>q``  NF_n mapped onto NF_n / ann(NF_n), acting through its bracket;
* ``<spec>@<seed>`` any of these with each layer rebased by its own seeded
  integer change of basis whose inverse is integral too, so it is exact
  over every field.  A rebased identity is no identity crossed module but
  has an invertible boundary, so its quadruples come from the pull-back,
  on dense structure constants.

For each subject and field the script prints the wall time of a cold
``actor`` and then of ``outer_xmod``, and the ``tracemalloc`` peak of each
in a second cold run.  A third cold run splits the actor's time into its
stages: the pair space (``bider_qn``), the quadruple space (``bider_xmod``)
and the actor's action tables.  On an identity the last two are taken from
the pair space, with no solve and no table, and are printed as one time.
It then checks the canonical morphism x -> Act(x), whose maps are held as
sparse columns like every map: it must pass ``validate_morphism``, and its
kernel must have the layer dimensions of ``center(x)``.  When both layers
of the actor are at most ``MAX_DIM`` (larger ones are refused on read), it
times the actor's JSON round trip in three parts, the write
(``xmod_to_json``), the JSON text (``json.dumps`` and ``json.loads``) and
the read (``xmod_from_json``), and checks that the copy equals the actor.
It exits 1 if a check fails, if ``validate_xmod`` fails on the actor or if
a dimension differs from the known one:

* ``A_n``: the actor and the outer part both have layers of dimension 2n^2
  (every map is a biderivation and the inner part is zero);
* ``NF_n``: the actor has layers of dimension 2n - 1 and the outer part n;
* ``sl2^k`` over Q: the actor has layers of dimension 3k, all of it inner.

The dimensions do not depend on the basis, so they are pinned for a
rebased subject too.  ``NF<n>c`` and ``NF<n>q`` have no pinned dimensions;
they keep the actor's tables in view, and the two index ranges of the one
table of top x| base whose pair rows, with the boundary rows, make the one
kernel ``bider_xmod`` solves off an identity: its base block on the
injective boundary of ``NF<n>c`` (the pull-back), and every index pair on
the boundary of ``NF<n>q``, whose kernel is ann(NF_n).
Times are for reading, not gated.  Example::

    PYTHONPATH=src python3 scripts/scale_check.py A6 NF12 NF8c NF8q NF12@1 --field q --field f3
"""
from __future__ import annotations

import argparse
import json
import random
import re
import sys
import time
import tracemalloc

from lbxmod import bider
from lbxmod.action import ActionData
from lbxmod.algebra import MAX_DIM, LeibnizAlgebra, _evaluate, annihilator, commutator
from lbxmod.bider import actor, bider_qn, bider_xmod, canonical_morphism, outer_xmod
from lbxmod.fields import get_field
from lbxmod.linalg import Matrix, Subspace
from lbxmod.serialize import xmod_from_json, xmod_to_json
from lbxmod.xmod import CrossedModule, center, kernel, quotient_xmod, validate_morphism, validate_xmod

SL2 = {(0, 1): {0: -2}, (1, 0): {0: 2}, (0, 2): {1: 1}, (2, 0): {1: -1}, (1, 2): {2: -2}, (2, 1): {2: 2}}


def change_of_basis(field, rng: random.Random, n: int) -> tuple[Matrix, Matrix]:
    """P = U Q and its inverse: U is upper unitriangular with every entry
    above the diagonal 1, so column c of U is e_0 + ... + e_c and row c of
    its inverse is e_c - e_{c+1}, and Q is a seeded signed permutation."""
    perm, signs = rng.sample(range(n), n), [rng.choice((-1, 1)) for _ in range(n)]
    p = Matrix(field, n, n, tuple({i: s for i in range(c + 1)} for c, s in zip(perm, signs)))
    inverse_rows = [[s * ((k == c) - (k == c + 1)) for k in range(n)] for c, s in zip(perm, signs)]
    return p, Matrix.from_rows(field, inverse_rows, n)


def rebase(x: CrossedModule, seed: int) -> CrossedModule:
    """x with each layer in its own seeded basis, the top's drawn first."""
    f, rng = x.top.field, random.Random(seed)
    (pt, ti), (pb, bi) = change_of_basis(f, rng, x.top.dim), change_of_basis(f, rng, x.base.dim)

    def moved(view, pa: Matrix, pc: Matrix, inverse: Matrix):
        """Entry (i, j) is view(pa e_i, pc e_j) read back in the new basis."""
        return tuple(tuple(inverse.apply(_evaluate([(1, view, u, v)], f.characteristic)) for v in pc.sparse_columns)
                     for u in pa.sparse_columns)

    top = LeibnizAlgebra(f, x.top.dim, moved(x.top.sparse_table, pt, pt, ti))
    base = LeibnizAlgebra(f, x.base.dim, moved(x.base.sparse_table, pb, pb, bi))
    act = ActionData(base, top, moved(x.action.sparse_left, pb, pt, ti), moved(x.action.sparse_right, pt, pb, ti))
    return CrossedModule(top, base, bi @ x.boundary @ pt, act)


def subject(spec: str, field) -> tuple[CrossedModule, tuple[int, int] | None]:
    """The crossed module a spec names, with the (actor, outer) layer
    dimension theory gives for it, or None where none is pinned."""
    m = re.fullmatch(r"(?:A(\d+)|NF(\d+)([cq]?)|sl2\^(\d+))(?:@(\d+))?", spec)
    if m is None:
        raise SystemExit(f"unknown subject {spec!r}: use A<n>, NF<n>, NF<n>c, NF<n>q or sl2^<k>, "
                         "each optionally followed by @<seed>")
    if m[5] is not None:
        x, dims = subject(spec.partition("@")[0], field)
        return rebase(x, int(m[5])), dims
    if m[1]:
        n = int(m[1])
        return CrossedModule.identity_on(LeibnizAlgebra.abelian(field, n)), (2 * n * n, 2 * n * n)
    if m[2]:
        n = int(m[2])
        a = LeibnizAlgebra.from_brackets(field, n, {(i, 0): {i + 1: 1} for i in range(n - 1)})
        if m[3] == "c":
            return CrossedModule.inclusion_of_ideal(a, commutator(a)), None
        x = CrossedModule.identity_on(a)
        if m[3] == "q":
            return quotient_xmod(x, Subspace.zero(field, n), annihilator(a)).xmod, None
        return x, (2 * n - 1, n)
    k = int(m[4])
    blocks = {(3 * c + i, 3 * c + j): {3 * c + t: v for t, v in terms.items()}
              for c in range(k) for (i, j), terms in SL2.items()}
    a = LeibnizAlgebra.from_brackets(field, 3 * k, blocks)
    return CrossedModule.identity_on(a), ((3 * k, 0) if field.characteristic == 0 else None)


def clear_memos() -> None:
    for memo in vars(bider).values():
        if callable(getattr(memo, "cache_clear", None)):
            memo.cache_clear()


def run(x: CrossedModule, measure) -> tuple:
    """actor(x) and then outer_xmod(x), cold, each under measure."""
    clear_memos()
    act, t_actor = measure(lambda: actor(x))
    out, t_outer = measure(lambda: outer_xmod(x))
    return act, out, t_actor, t_outer


def stages(x: CrossedModule) -> tuple[float, float, float]:
    """Cold times of bider_qn(x), then bider_xmod(x), then the rest of actor(x)."""
    clear_memos()
    return tuple(timed(fn)[1] for fn in (lambda: bider_qn(x), lambda: bider_xmod(x), lambda: actor(x)))


def timed(fn):
    t0 = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - t0


def peak(fn):
    tracemalloc.start()
    try:
        out = fn()
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("subjects", nargs="+", help="A<n>, NF<n>, NF<n>c, NF<n>q or sl2^<k>, each optionally @<seed>")
    ap.add_argument("--field", action="append", help="q, f2, f3 or f<p> (repeatable; default q)")
    args = ap.parse_args(argv)
    failed = False
    for spec in args.subjects:
        for tag in args.field or ["q"]:
            field = get_field(tag)
            x, dims = subject(spec, field)
            act, out, t_actor, t_outer = run(x, timed)
            _, _, m_actor, m_outer = run(x, peak)
            t_qn, t_xmod, t_tables = stages(x)
            problems = [] if validate_xmod(act).ok else ["validate_xmod(actor) failed"]
            can = canonical_morphism(x)
            if not validate_morphism(can).ok:
                problems.append("validate_morphism(canonical) failed")
            ker, cen = kernel(can), center(x)
            if (ker.top_space.dim, ker.base_space.dim) != (cen.top_space.dim, cen.base_space.dim):
                problems.append("the kernel of the canonical morphism is not the center")
            if max(act.top.dim, act.base.dim) <= MAX_DIM:
                blob, t_write = timed(lambda: xmod_to_json(act))
                doc, t_text = timed(lambda: json.loads(json.dumps(blob)))
                copy, t_read = timed(lambda: xmod_from_json(field, doc))
                trip = f"JSON write {t_write:.4f} s, text {t_text:.4f} s, read {t_read:.4f} s"
                if copy != act:
                    problems.append("the actor read back from JSON differs from the actor")
            else:
                trip = f"no JSON round trip (layers over MAX_DIM = {MAX_DIM})"
            got = ((act.top.dim, act.base.dim), (out.xmod.top.dim, out.xmod.base.dim))
            if dims is not None and got != ((dims[0],) * 2, (dims[1],) * 2):
                problems.append(f"dimensions {got}, expected actor {dims[0]} and outer {dims[1]}")
            split = (f"bider_xmod and tables from the pair space {t_xmod + t_tables:.3f} s" if x.is_identity()
                     else f"bider_xmod {t_xmod:.3f} s, tables {t_tables:.3f} s")
            print(f"{spec} {tag}: actor {got[0]} {t_actor:.3f} s {m_actor / 1e6:.1f} MB peak "
                  f"(bider_qn {t_qn:.3f} s, {split}); "
                  f"outer {got[1]} {t_outer:.3f} s {m_outer / 1e6:.1f} MB peak; {trip}; "
                  + ("; ".join(problems) or "ok"), flush=True)
            failed |= bool(problems)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
