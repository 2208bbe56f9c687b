#!/usr/bin/env python3
"""Exhaustive mod-2 cross-checks of the linear solvers.

Re-runs the enumerations behind the acceptance suite and prints the counts:
for each solved space, every candidate bit vector is tested against the raw
defining identities (implemented independently in tests/oracles.py) and the
verdict is compared with subspace membership; the action validator and the
validators of identity crossed modules and bracket actions are compared with
the same identities the same way.  Exits 1 if any count of
disagreements is nonzero, so CI can run it as a check.
"""
from __future__ import annotations

import itertools
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))

import oracles as O  # noqa: E402

from lbxmod import GF2  # noqa: E402
from lbxmod.action import ActionData, validate_action  # noqa: E402
from lbxmod.algebra import LeibnizAlgebra  # noqa: E402
from lbxmod.bider import bider_algebra, bider_qn, bider_xmod  # noqa: E402
from lbxmod.catalog import build_entry  # noqa: E402
from lbxmod.xmod import CrossedModule, validate_xmod  # noqa: E402


def check_pairs(aid: str) -> int:
    alg = build_entry(aid, GF2)
    space = bider_algebra(alg)
    table = O.ints_of_table(alg)
    n = alg.dim
    members = disagreements = 0
    for bits in itertools.product((0, 1), repeat=2 * n * n):
        d, dd = O.unpack_bits(bits, ((n, n), (n, n)))
        expected = O.is_bider_pair(table, d, dd, n)
        got = not space.space.residue({k: b for k, b in enumerate(bits) if b})
        disagreements += got != expected
        members += expected
    total = 4 ** (n * n)
    print(f"pairs({aid}): {members}/{total} solutions, solver dim {space.dim}, "
          f"{disagreements} disagreements")
    return disagreements


def check_inclusion_spaces() -> int:
    x = build_entry("l2-ann-incl", GF2)
    nd, qd = x.top.dim, x.base.dim
    ntab, qtab = O.ints_of_table(x.top), O.ints_of_table(x.base)
    left, right = O.ints_of_action(x.action)
    mu = O.ints_of_matrix(x.boundary)

    space = bider_qn(x)
    members = disagreements = 0
    for bits in itertools.product((0, 1), repeat=2 * nd * qd):
        d, dd = O.unpack_bits(bits, ((nd, qd), (nd, qd)))
        expected = O.is_action_pair(qtab, left, right, d, dd, qd, nd)
        got = not space.space.residue({k: b for k, b in enumerate(bits) if b})
        disagreements += got != expected
        members += expected
    print(f"action pairs(l2-ann-incl): {members}/{2 ** (2 * nd * qd)} solutions, "
          f"solver dim {space.dim}, {disagreements} disagreements")

    total_disagreements = disagreements
    space = bider_xmod(x)
    members = disagreements = 0
    width = 2 * nd * nd + 2 * qd * qd
    for bits in itertools.product((0, 1), repeat=width):
        s1, t1, s2, t2 = O.unpack_bits(bits, ((nd, nd), (nd, nd), (qd, qd), (qd, qd)))
        expected = O.is_quadruple(ntab, qtab, left, right, mu, s1, t1, s2, t2, nd, qd)
        got = not space.space.residue({k: b for k, b in enumerate(bits) if b})
        disagreements += got != expected
        members += expected
    print(f"quadruples(l2-ann-incl): {members}/{2 ** width} solutions, "
          f"solver dim {space.dim}, {disagreements} disagreements")
    return total_disagreements + disagreements


def check_action_validator() -> int:
    p = build_entry("a1", GF2)
    m = build_entry("l2", GF2)
    ptab, mtab = O.ints_of_table(p), O.ints_of_table(m)
    valid = disagreements = 0
    for bits in itertools.product((0, 1), repeat=8):
        lb, rb = bits[:4], bits[4:]
        left = (((lb[0], lb[1]), (lb[2], lb[3])),)
        right = (((rb[0], rb[1]),), ((rb[2], rb[3]),))
        act = ActionData(p, m, left, right)
        got = validate_action(act).ok
        disagreements += got != O.is_action(mtab, ptab, left, right, 2, 1)
        valid += got
    print(f"actions(a1 on l2): {valid}/256 valid fillings, {disagreements} disagreements")
    return disagreements


def check_bracket_validators() -> int:
    """Every 2-dimensional table over F2: its identity crossed module is valid
    and its bracket an action on itself exactly when the table is Leibniz."""
    leibniz = actions = disagreements = 0
    for bits in itertools.product((0, 1), repeat=8):
        table = tuple(tuple(bits[4 * i + 2 * j:4 * i + 2 * j + 2] for j in range(2)) for i in range(2))
        a = LeibnizAlgebra(GF2, 2, table)
        xmod_ok = validate_xmod(CrossedModule.identity_on(a)).ok
        action_ok = validate_action(ActionData.by_bracket(a)).ok
        disagreements += xmod_ok != O.is_leibniz(table, 2)
        disagreements += action_ok != O.is_action(table, table, table, table, 2, 2)
        leibniz += xmod_ok
        actions += action_ok
    print(f"identity xmods(F2^2 tables): {leibniz}/256 valid, bracket actions: {actions}/256 valid, "
          f"{disagreements} disagreements")
    return disagreements


if __name__ == "__main__":
    disagreements = sum(check_pairs(aid) for aid in ("a2", "l2", "r2"))
    disagreements += check_inclusion_spaces() + check_action_validator() + check_bracket_validators()
    sys.exit(1 if disagreements else 0)
