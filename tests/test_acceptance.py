"""Top-level acceptance checks, one test per advertised guarantee.

Everything here uses exact equality — no tolerances anywhere.  Expected
values were computed independently (by hand, or by the exhaustive mod-2
enumerations in oracles.py) before being frozen into assertions.
"""
import itertools
import json
import subprocess
import sys
from fractions import Fraction

import oracles as O
import pytest
import reference_stages as ref
from conftest import (
    XMOD_IDS,
    _basis,
    nondegenerate_pair_composites_coincide,
    nondegenerate_quad_pair_composites_coincide,
    pair_composites_land_in_layer_spaces,
    pair_pair_composites_agree_under_brackets,
    quad_pair_and_quad_quad_composites_agree,
)

from lbxmod import GF2, GF3, QQ
from lbxmod.action import ActionData, validate_action
from lbxmod.algebra import LeibnizAlgebra, validate_leibniz
from lbxmod.bider import (
    actor,
    bider_algebra,
    bider_qn,
    bider_xmod,
    canonical_morphism,
    delta,
    sequence_problems,
)
from lbxmod.catalog import build_entry
from lbxmod.linalg import Matrix, Subspace, rref
from lbxmod.xaction import (
    ConditionsNotMetError,
    action_from_morphism,
    morphism_from_action,
    semidirect_xmod,
)
from lbxmod.xmod import (
    NO_CONDITION_WARNING,
    CrossedModule,
    center,
    check_conditions,
    kernel,
    validate_morphism,
    validate_xmod,
)


def test_actor_is_valid_crossed_module_on_all_catalog_fixtures():
    for f in (QQ, GF2, GF3):
        for cid in XMOD_IDS:
            x = build_entry(cid, f)
            assert validate_xmod(actor(x)).ok, (cid, f.tag)
            assert validate_morphism(canonical_morphism(x)).ok, (cid, f.tag)


def test_actor_of_zero_and_identity_boundary_fixtures_match_pair_space():
    # zero boundary: no pairs survive, the quadruple layer is the full
    # biderivation pair space of the base algebra
    z = build_entry("zero-into-l2", QQ)
    a = actor(z)
    assert a.top.dim == 0
    assert a.base.table == bider_algebra(build_entry("l2", QQ)).algebra.table
    dz = delta(z)
    assert not (rref(dz).rank == dz.rows == dz.cols)

    # identity boundary: both layers are that same pair space and the
    # actor boundary is a bijection
    for cid, alg_id in (("l2-id", "l2"), ("r2-id", "r2")):
        x = build_entry(cid, QQ)
        a = actor(x)
        pair_table = bider_algebra(build_entry(alg_id, QQ)).algebra.table
        assert a.top.table == pair_table
        d = delta(x)
        assert rref(d).rank == d.rows == d.cols


def test_actor_dimensions_and_image_restriction_characterizations():
    x = build_entry("l2-ann-incl", QQ)
    a = actor(x)
    assert (a.top.dim, a.base.dim) == (2, 3)

    big = bider_algebra(build_entry("l2", QQ))
    pairs, quads = bider_qn(x), bider_xmod(x)

    def unit(i):
        return tuple(QQ.one if j == i else QQ.zero for j in range(8))

    # pairs of the inclusion = pairs of the big algebra that send
    # everything into the ideal line (first row of both matrices zero)
    into_line = Subspace.from_rows(QQ, 8, [unit(2), unit(3), unit(6), unit(7)])
    restricted = ref.intersect(big.space, into_line)
    pushed = []
    for d, dd in _basis(pairs):
        pushed.append(
            (QQ.zero, QQ.zero, d.entries[0][0], d.entries[0][1],
             QQ.zero, QQ.zero, dd.entries[0][0], dd.entries[0][1])
        )
    assert Subspace.from_rows(QQ, 8, pushed) == restricted
    assert restricted.dim == 2 == pairs.dim

    # base halves of quadruples = pairs of the big algebra preserving the
    # ideal line (top-right entry of both matrices zero)
    preserving = Subspace.from_rows(
        QQ, 8, [unit(0), unit(2), unit(3), unit(4), unit(6), unit(7)]
    )
    stable = ref.intersect(big.space, preserving)
    halves = []
    for _s1, _t1, s2, t2 in _basis(quads):
        halves.append(tuple(s2.entries[0]) + tuple(s2.entries[1])
                      + tuple(t2.entries[0]) + tuple(t2.entries[1]))
    half_space = Subspace.from_rows(QQ, 8, halves)
    assert half_space == stable
    assert half_space.dim == 3 == quads.dim  # the projection is injective


def test_composition_lemmas_hold_on_catalog_fixtures():
    for cid in XMOD_IDS:
        x = build_entry(cid, QQ)
        assert pair_composites_land_in_layer_spaces(x), cid
        assert pair_pair_composites_agree_under_brackets(x), cid
        assert quad_pair_and_quad_quad_composites_agree(x), cid
    # same story over a prime field
    y = build_entry("l2-ann-incl", GF3)
    assert pair_composites_land_in_layer_spaces(y)
    assert pair_pair_composites_agree_under_brackets(y)
    assert quad_pair_and_quad_quad_composites_agree(y)
    # with a vanishing annihilator or a perfect algebra the ambiguous
    # composites collapse to literal matrix equality
    for cid in ("r2-id", "sl2-id"):
        assert nondegenerate_quad_pair_composites_coincide(build_entry(cid, QQ)), cid
    for aid in ("r2", "sl2"):
        assert nondegenerate_pair_composites_coincide(build_entry(aid, QQ)), aid


def test_kernel_of_canonical_morphism_matches_center_sl2():
    x = build_entry("sl2-id", QQ)
    assert check_conditions(x).any_holds
    cm = canonical_morphism(x)
    assert validate_morphism(cm).ok
    k = kernel(cm)
    c = center(x)
    assert k.top_space == c.top_space
    assert k.base_space == c.base_space
    assert (c.top_space.dim, c.base_space.dim) == (0, 0)
    assert c.warnings == ()


def test_center_of_annihilator_inclusion_fixture():
    x = build_entry("l2-ann-incl", QQ)
    c = center(x)
    assert c.top_space == Subspace.full(QQ, 1)
    assert c.base_space == Subspace.from_rows(QQ, 2, [[0, 1]])
    assert c.warnings == (NO_CONDITION_WARNING,)
    # no support condition holds, yet the kernel description still matches
    assert check_conditions(x).failed() == ("con1", "con2", "con3")
    k = kernel(canonical_morphism(x))
    assert k.top_space == c.top_space
    assert k.base_space == c.base_space


def test_semidirect_of_self_action_is_valid_and_splits():
    sd = semidirect_xmod(build_entry("sl2-self", QQ))
    assert (sd.xmod.top.dim, sd.xmod.base.dim) == (6, 6)
    assert validate_xmod(sd.xmod).ok
    for f in (sd.include, sd.project, sd.section):
        assert validate_morphism(f).ok
    assert sequence_problems(sd.sequence()) == []
    assert sd.project.top_map @ sd.section.top_map == Matrix.identity(QQ, 3)
    assert sd.project.base_map @ sd.section.base_map == Matrix.identity(QQ, 3)


def test_action_morphism_round_trips_and_refusal():
    d = build_entry("sl2-self", QQ)
    res = morphism_from_action(d)
    assert res.relaxed_failures == ()
    assert action_from_morphism(res.morphism) == d

    partial = build_entry("mixed-pair-break", QQ)
    res = morphism_from_action(partial)
    assert res.relaxed_failures == ("LbM6a", "LbM6b")
    assert validate_morphism(res.morphism.as_xmod_morphism()).ok
    with pytest.raises(ConditionsNotMetError) as err:
        action_from_morphism(res.morphism)
    assert err.value.flags.failed() == ("con1", "con2", "con3")


def _assert_quadruples_match_oracle(x):
    """Every 0/1 quadruple is in the solved space exactly when the raw laws
    hold.  The space's members are its 2**dim basis combinations mod 2; a
    quadruple needs a biderivation pair on the top first, so that part of
    the oracle is evaluated once per top half."""
    nd, qd = x.top.dim, x.base.dim
    ntab, qtab = O.ints_of_table(x.top), O.ints_of_table(x.base)
    left, right = O.ints_of_action(x.action)
    mu = O.ints_of_matrix(x.boundary)
    space = bider_xmod(x)
    nbits = 2 * nd * nd + 2 * qd * qd
    basis = [[c.value for c in row] for row in space.space.basis.entries]
    span = {tuple(sum(c * row[u] for c, row in zip(coeffs, basis)) % 2 for u in range(nbits))
            for coeffs in itertools.product((0, 1), repeat=len(basis))}
    members = 0
    for head in itertools.product((0, 1), repeat=2 * nd * nd):
        s1, t1 = O.unpack_bits(head, ((nd, nd), (nd, nd)))
        top_pair = O.is_bider_pair(ntab, s1, t1, nd)
        for tail in itertools.product((0, 1), repeat=2 * qd * qd):
            s2, t2 = O.unpack_bits(tail, ((qd, qd), (qd, qd)))
            expected = top_pair and O.is_quadruple(ntab, qtab, left, right, mu, s1, t1, s2, t2, nd, qd)
            assert (head + tail in span) == expected, head + tail
            members += expected
    assert members == 2 ** space.dim


def test_solver_matches_exhaustive_enumeration_over_f2():
    # pair spaces of three small algebras
    for aid in ("a2", "l2", "r2"):
        alg = build_entry(aid, GF2)
        space = bider_algebra(alg)
        table = O.ints_of_table(alg)
        n = alg.dim
        members = 0
        for bits in itertools.product((0, 1), repeat=2 * n * n):
            d, dd = O.unpack_bits(bits, ((n, n), (n, n)))
            expected = O.is_bider_pair(table, d, dd, n)
            got = not space.space.residue({k: b for k, b in enumerate(bits) if b})
            assert got == expected, (aid, bits)
            members += expected
        assert members == 2 ** space.dim, aid

    # pair and quadruple spaces of the ideal inclusion
    x = build_entry("l2-ann-incl", GF2)
    nd, qd = x.top.dim, x.base.dim
    ntab, qtab = O.ints_of_table(x.top), O.ints_of_table(x.base)
    left, right = O.ints_of_action(x.action)
    mu = O.ints_of_matrix(x.boundary)

    space = bider_qn(x)
    members = 0
    for bits in itertools.product((0, 1), repeat=2 * nd * qd):
        d, dd = O.unpack_bits(bits, ((nd, qd), (nd, qd)))
        expected = O.is_action_pair(qtab, left, right, d, dd, qd, nd)
        assert (not space.space.residue({k: b for k, b in enumerate(bits) if b})) == expected
        members += expected
    assert members == 2 ** space.dim

    # quadruple spaces of the ideal inclusion and of the identity crossed
    # module on l2 (2-dimensional top and base: 16 unknown bits).  The
    # bracket table of l2 is symmetric, so swapping the operands of the
    # action inside the quadruple laws goes unseen there; the identity
    # crossed module on the Leibniz algebra [e2, e1] = e2 (all other
    # brackets zero) sees it.
    for cid in ("l2-ann-incl", "l2-id"):
        _assert_quadruples_match_oracle(build_entry(cid, GF2))
    asym = LeibnizAlgebra.from_brackets(GF2, 2, {(1, 0): {1: 1}})
    assert validate_leibniz(asym).ok
    _assert_quadruples_match_oracle(CrossedModule.identity_on(asym))

    # the action validator against the raw six laws
    p = build_entry("a1", GF2)
    m = build_entry("l2", GF2)
    ptab, mtab = O.ints_of_table(p), O.ints_of_table(m)
    valid = 0
    for bits in itertools.product((0, 1), repeat=8):
        lb, rb = bits[:4], bits[4:]
        left = (((lb[0], lb[1]), (lb[2], lb[3])),)
        right = (((rb[0], rb[1]),), ((rb[2], rb[3]),))
        act = ActionData(p, m, left, right)
        got = validate_action(act).ok
        assert got == O.is_action(mtab, ptab, left, right, 2, 1), bits
        valid += got
    assert valid == 6


def test_lie_fixture_gives_antisymmetric_bider_with_equal_components():
    a = build_entry("r2", QQ)
    space = bider_algebra(a)
    assert space.dim == 2
    # each solution has identical derivation and twisted halves
    for d, dd in _basis(space):
        assert d == dd
    # the solved structure table is antisymmetric
    tab = space.algebra.table
    for i in range(2):
        for j in range(2):
            assert tuple(tab[i][j]) == tuple(-c for c in tab[j][i])
        assert all(not c for c in tab[i][i])
    # and everything is inner: the inner biderivations of e1 and e2 are the
    # columns of the canonical morphism of the identity crossed module
    inner = canonical_morphism(CrossedModule.identity_on(a)).top_map
    assert ref.column(inner, 0) == (Fraction(0), Fraction(1))
    assert ref.column(inner, 1) == (Fraction(-1), Fraction(0))


def test_cli_reports_are_deterministic_across_runs():
    battery = [
        (["catalog"], 0),
        (["validate", "catalog:sl2-id"], 0),
        (["bider", "catalog:l2"], 0),
        (["actor", "catalog:l2-ann-incl", "--field", "f2"], 0),
        (["center", "catalog:l2-ann-incl"], 0),
        (["xaction-validate", "catalog:mixed-pair-break"], 1),
    ]
    for args, expected_code in battery:
        cmd = [sys.executable, "-m", "lbxmod.cli", *args]
        first = subprocess.run(cmd, capture_output=True)
        second = subprocess.run(cmd, capture_output=True)
        assert first.returncode == expected_code, args
        assert second.returncode == expected_code, args
        assert first.stdout == second.stdout, args
        json.loads(first.stdout)  # every report is well-formed JSON
