"""The stages after the actor, sparse against dense.

Annihilators, the invariant and trivially acting subspaces, the ideal
checks, sub-objects, quotients, projections, the center and the canonical
morphism are computed from sparse rows and one sparse residue.  Each is
compared here, exactly, with the dense implementation it replaced
(``reference_stages``), on every crossed module and algebra the catalog
builds, on null-filiform examples with many ideals, and on seeded integer
changes of basis of all of them, over Q, F2 and F3.  The subspaces tried
include ones that are not ideals, so refusals and problem lists are compared
too.
"""
import random

import pytest
from conftest import FIELDS

import reference_stages as ref
from lbxmod.algebra import (
    LeibnizAlgebra,
    annihilator,
    commutator,
    is_ideal,
    quotient_algebra,
    subalgebra_on,
)
from lbxmod.bider import actor, canonical_morphism, inner_action_pair, inner_quadruple, inner_xmod
from lbxmod.catalog import CATALOG, build_entry
from lbxmod.fields import InputDataError
from lbxmod.linalg import LinearSolveError, Subspace, nullspace
from lbxmod.xmod import (
    CrossedModule,
    NotAnIdealError,
    center,
    check_xmod_ideal,
    invariant_top_subspace,
    quotient_xmod,
    sub_xmod,
    trivially_acting_base_subspace,
)


def nf(field, n):
    """The null-filiform Leibniz algebra NF_n: [e_i, e_1] = e_{i+1}."""
    return LeibnizAlgebra.from_brackets(field, n, {(i, 0): {i + 1: 1} for i in range(n - 1)})


def tail(field, n, first):
    """span(e_first, ..., e_n), 0-based."""
    return Subspace.from_rows(field, n, [ref.unit(field, n, i) for i in range(first, n)])


def _xmods(field):
    """Every crossed module of the catalog (algebras as identity crossed
    modules), a few null-filiform ones, and one seeded rebase of each."""
    found = {}
    for cid, entry in CATALOG.items():
        obj = build_entry(cid, field)
        parts = {"algebra": lambda: [CrossedModule.identity_on(obj)],
                 "action": lambda: [CrossedModule.identity_on(obj.actor)],
                 "xmod": lambda: [obj],
                 "xaction": lambda: [obj.actor_xmod, obj.target_xmod],
                 "sequence": lambda: [obj.first, obj.middle, obj.last]}[entry.kind]()
        for k, x in enumerate(parts):
            found.setdefault(x, f"{cid}.{k}")
    for n in (3, 4):
        found.setdefault(CrossedModule.identity_on(nf(field, n)), f"nf{n}-id")
        found.setdefault(CrossedModule.inclusion_of_ideal(nf(field, n), tail(field, n, 1)), f"nf{n}-comm")
    out = [(name, x) for x, name in found.items()]
    rng = random.Random(f"rebase/{field.tag}")
    return out + [(f"{name}-rebased", ref.rebase_xmod(x, rng)) for name, x in out]


CASES = [(f, name, x) for f in FIELDS for name, x in _xmods(f)]


@pytest.fixture(params=CASES, ids=[f"{f.tag}-{name}" for f, name, _x in CASES])
def case(request):
    return request.param


def _random_subspace(a, rng, rows):
    vals = (-1, 0, 0, 1, 2)
    return Subspace.from_rows(a.field, a.dim, [[a.field.coerce(rng.choice(vals)) for _ in range(a.dim)]
                                               for _ in range(rows)])


def subspaces(a, rng):
    """Candidate subspaces of an algebra: trivial, structural, coordinate
    tails and seeded random ones, most of them not ideals."""
    f, n = a.field, a.dim
    out = [Subspace.zero(f, n), Subspace.full(f, n), ref.annihilator(a), commutator(a)]
    out += [tail(f, n, first) for first in range(1, n)][-1:]
    out += [_random_subspace(a, rng, 1), _random_subspace(a, rng, 2)]
    return out


def subspace_pairs(x, rng):
    tops, bases = subspaces(x.top, rng), subspaces(x.base, rng)
    return list(zip(tops, bases)) + [(tops[-1], bases[1]), ref.center_spaces(x)]


def _outcome(fn, *args):
    """The value of fn(*args), or the type and message of what it raised."""
    try:
        return fn(*args)
    except (LinearSolveError, NotAnIdealError, InputDataError) as exc:
        return type(exc), str(exc)


def _sub_parts(x, top, base):
    sub = sub_xmod(x, top, base)
    return sub.xmod, sub.top_include, sub.base_include


def _quotient_parts(x, top, base):
    quo = quotient_xmod(x, top, base)
    return quo.xmod, quo.top_project, quo.base_project


def test_algebra_stages_match_the_dense_reference(case):
    field, name, x = case
    rng = random.Random(f"algebra/{field.tag}/{name}")
    for a in dict.fromkeys((x.top, x.base)):  # once when the layers are equal
        assert annihilator(a) == ref.annihilator(a)
        for s in subspaces(a, rng):
            assert s.projection_matrix() == ref.projection_matrix(s)
            assert s.complement_indices() == ref.complement_indices(s)
            for v in s.basis_vectors() + tuple(ref.unit(field, a.dim, i) for i in range(a.dim)):
                assert s.reduce(v) == ref.reduce(s, v)
                assert s.contains(v) == ref.contains(s, v)
            assert is_ideal(a, s) == ref.is_ideal(a, s)
            assert _outcome(quotient_algebra, a, s) == _outcome(ref.quotient_algebra, a, s)
            assert _outcome(subalgebra_on, a, s) == _outcome(ref.subalgebra_on, a, s)
            if ref.is_ideal(a, s):
                assert CrossedModule.inclusion_of_ideal(a, s) == ref.inclusion_of_ideal(a, s)


def test_xmod_kernels_and_center_match_the_dense_reference(case):
    _field, _name, x = case
    assert invariant_top_subspace(x) == ref.invariant_top_subspace(x)
    assert trivially_acting_base_subspace(x) == ref.trivially_acting_base_subspace(x)
    cen = center(x)
    assert (cen.top_space, cen.base_space) == ref.center_spaces(x)
    assert (cen.xmod, cen.top_include, cen.base_include) == ref.sub_xmod_parts(x, cen.top_space, cen.base_space)


def test_ideal_checks_sub_objects_and_quotients_match_the_dense_reference(case):
    field, name, x = case
    rng = random.Random(f"xmod/{field.tag}/{name}")
    for top, base in subspace_pairs(x, rng):
        assert check_xmod_ideal(x, top, base) == ref.check_xmod_ideal(x, top, base)
        assert _outcome(_quotient_parts, x, top, base) == _outcome(ref.quotient_xmod_parts, x, top, base)
        assert _outcome(_sub_parts, x, top, base) == _outcome(ref.sub_xmod_parts, x, top, base)


def test_canonical_morphism_and_outer_quotient_match_the_dense_reference(case):
    field, name, x = case
    can = canonical_morphism(x)
    assert (can.top_map, can.base_map) == ref.canonical_maps(x)
    # the kernel of x -> Act(x) is the center
    assert (nullspace(can.top_map), nullspace(can.base_map)) == ref.center_spaces(x)
    rng = random.Random(f"inner/{field.tag}/{name}")
    vecs = [[field.coerce(rng.choice((-1, 0, 1, 2))) for _ in range(n)] for n in (x.top.dim, x.base.dim)]
    assert inner_action_pair(x, vecs[0]) == ref.inner_action_pair(x, vecs[0])
    assert inner_quadruple(x, vecs[1]) == ref.inner_quadruple(x, vecs[1])
    act, inn = actor(x), inner_xmod(x)
    pairs = [(inn.top_space, inn.base_space),
             (_random_subspace(act.top, rng, 1), _random_subspace(act.base, rng, 2))]
    for top, base in pairs:
        assert check_xmod_ideal(act, top, base) == ref.check_xmod_ideal(act, top, base)
        assert _outcome(_quotient_parts, act, top, base) == _outcome(ref.quotient_xmod_parts, act, top, base)
