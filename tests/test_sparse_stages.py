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

The action data ``action_from_morphism`` recovers from a morphism into the
actor is summed from the sparse basis members; it is compared with the dense
combination of basis rows on those canonical morphisms, the morphisms of
the catalog's actions and the lift of its sequence.

``lift_sequence`` reads each middle element's pair and quadruple off the
action pulled back through the inclusion.  It is compared with the dense
lift on the catalog's sequence and, for every crossed module above, on its
center sequence and on the split sequence of its action on itself.

Direct sums and semidirect products, assembled block by block from stored
views, are compared with the dense padding loops they replaced on generated
algebras, actions and crossed-module actions.  At the end, the hot paths run
with every dense view patched to raise: none of them may derive one.
"""
import json
import random

import pytest
from conftest import FIELDS
from hypothesis import given, settings
from hypothesis import strategies as st
from strategies import actions, algebras, is_stored, xactions

import reference_stages as ref
from lbxmod import bider, xmod
from lbxmod import serialize as ser
from lbxmod.action import ActionData, semidirect_algebra, validate_action
from lbxmod.algebra import (
    LeibnizAlgebra,
    annihilator,
    commutator,
    direct_sum,
    is_ideal,
    quotient_algebra,
    subalgebra_on,
    validate_leibniz,
)
from lbxmod.bider import (
    NotExactError,
    ShortExactSequence,
    actor,
    canonical_morphism,
    inner_xmod,
    lift_sequence,
    outer_xmod,
    sequence_problems,
)
from lbxmod.catalog import CATALOG, build_entry
from lbxmod.fields import InputDataError
from lbxmod.linalg import LinearSolveError, Matrix, Subspace, _dense, _sparse, nullspace
from lbxmod.xaction import (
    ActorMorphism,
    ConditionsNotMetError,
    InvalidMorphismError,
    XModActionData,
    action_from_morphism,
    morphism_from_action,
    semidirect_xmod,
    validate_xmod_action,
)
from lbxmod.xmod import (
    CrossedModule,
    NotAnIdealError,
    center,
    check_conditions,
    check_xmod_ideal,
    invariant_top_subspace,
    quotient_xmod,
    sub_xmod,
    trivially_acting_base_subspace,
    validate_morphism,
    validate_xmod,
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
    except (LinearSolveError, NotAnIdealError, NotExactError, InputDataError, ConditionsNotMetError,
            InvalidMorphismError) as exc:
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
            for v in s.basis.entries + tuple(ref.unit(field, a.dim, i) for i in range(a.dim)):
                rest = s.residue(_sparse(v))
                assert _dense(field, a.dim, rest) == ref.reduce(s, v)
                assert (not rest) == ref.contains(s, v)
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


IDENTITY_CASES = [c for c in CASES if c[2].is_identity()]


@pytest.fixture(params=IDENTITY_CASES, ids=[f"{f.tag}-{name}" for f, name, _x in IDENTITY_CASES])
def identity_case(request):
    return request.param


def test_one_subspace_of_an_identity_is_checked_once_as_an_ideal(identity_case, monkeypatch):
    """One subspace on both layers of an identity crossed module is a
    crossed-module ideal exactly when it is an ideal of the algebra: one
    ``is_ideal`` call gives the dense check's problems, on ideals and on
    subspaces that are not, and on the inner part of the actor."""
    field, name, x = identity_case
    rng = random.Random(f"identity/{field.tag}/{name}")
    inn = inner_xmod(x)
    cases = [(x, s) for s in subspaces(x.top, rng)] + [(actor(x), inn.top_space)]
    assert inn.top_space == inn.base_space
    calls = []
    monkeypatch.setattr(xmod, "is_ideal", lambda a, s: calls.append(s) or is_ideal(a, s))
    for y, s in cases:
        calls.clear()
        assert check_xmod_ideal(y, s, s) == ref.check_xmod_ideal(y, s, s)
        assert calls == [s]


def test_a_line_of_sl2_fails_all_four_ideal_checks_of_its_identity(field):
    """The line of e0 is no ideal of sl2 over any field, as [e0, e2] = e1
    leaves it, so every check but the boundary's fails, in the dense check's
    order."""
    x = CrossedModule.identity_on(build_entry("sl2", field))
    s = Subspace.from_rows(field, 3, [[1, 0, 0]])
    problems = check_xmod_ideal(x, s, s)
    assert problems == ref.check_xmod_ideal(x, s, s)
    assert len(problems) == 4 and "boundary image of the top part leaves the base part" not in problems


def test_canonical_morphism_and_outer_quotient_match_the_dense_reference(case):
    field, name, x = case
    can = canonical_morphism(x)
    assert (can.top_map, can.base_map) == ref.canonical_maps(x)
    # the kernel of x -> Act(x) is the center
    assert (nullspace(can.top_map), nullspace(can.base_map)) == ref.center_spaces(x)
    rng = random.Random(f"inner/{field.tag}/{name}")
    vecs = [[field.coerce(rng.choice((-1, 0, 1, 2))) for _ in range(n)] for n in (x.top.dim, x.base.dim)]
    # an element goes to the coordinates of the pair or quadruple it generates
    pair_space, quad_space = bider.bider_qn(x).space, bider.bider_xmod(x).space
    assert ref.apply(can.top_map, vecs[0]) == ref.coords(pair_space, ref._flat(ref.inner_action_pair(x, vecs[0])))
    assert ref.apply(can.base_map, vecs[1]) == ref.coords(quad_space, ref._flat(ref.inner_quadruple(x, vecs[1])))
    act, inn = actor(x), inner_xmod(x)
    pairs = [(inn.top_space, inn.base_space),
             (_random_subspace(act.top, rng, 1), _random_subspace(act.base, rng, 2))]
    for top, base in pairs:
        assert check_xmod_ideal(act, top, base) == ref.check_xmod_ideal(act, top, base)
        assert _outcome(_quotient_parts, act, top, base) == _outcome(ref.quotient_xmod_parts, act, top, base)


# -- action data from a morphism into the actor -----------------------------------


def test_action_from_canonical_morphisms_matches_the_dense_reference(case):
    """The canonical morphism x -> actor(x) gives back action data exactly
    as the dense combination of basis rows does, or the same refusal."""
    _field, _name, x = case
    can = canonical_morphism(x)
    fm = ActorMorphism(x, x, can.top_map, can.base_map)
    got = _outcome(action_from_morphism, fm)
    assert got == _outcome(ref.action_from_morphism, fm)
    assert isinstance(got, XModActionData) == check_conditions(x).any_holds


def _catalog_actor_morphisms(field):
    """The morphisms into an actor that the catalog gives: the canonical one
    of each crossed module, the one of each crossed-module action and the
    lift of each sequence, each with whether its target meets a condition."""
    out = []
    for cid, entry in CATALOG.items():
        obj = build_entry(cid, field)
        if entry.kind == "xmod":
            can = canonical_morphism(obj)
            out.append((cid, ActorMorphism(obj, obj, can.top_map, can.base_map)))
        elif entry.kind == "xaction":
            out.append((cid, morphism_from_action(obj).morphism))
        elif entry.kind == "sequence":
            lifted = lift_sequence(obj).morphism
            out.append((cid, ActorMorphism(obj.middle, obj.first, lifted.top_map, lifted.base_map)))
    return [(cid, fm, check_conditions(fm.around).any_holds) for cid, fm in out]


def test_action_from_morphism_of_the_catalog_matches_the_dense_reference(field):
    found = _catalog_actor_morphisms(field)
    assert any(holds for _cid, _fm, holds in found)
    for cid, fm, holds in found:
        got = _outcome(action_from_morphism, fm)
        assert got == _outcome(ref.action_from_morphism, fm), cid
        assert isinstance(got, XModActionData) == holds, cid
        if holds:
            assert all(is_stored(field, view) for view in (
                got.act_on_top.sparse_left, got.act_on_top.sparse_right, got.act_on_base.sparse_left,
                got.act_on_base.sparse_right, got.sparse_mq, got.sparse_qm)), cid


# -- lifting short exact sequences --------------------------------------------------


def _sequences(x):
    """The center sequence Z(x) -> x -> x/Z(x) and the split sequence of the
    semidirect product of x's action on itself."""
    cen = center(x)
    quo = quotient_xmod(x, cen.top_space, cen.base_space)
    return [ShortExactSequence(cen.xmod, x, quo.xmod, cen.inclusion(), quo.projection()),
            semidirect_xmod(XModActionData.conjugation(x)).sequence()]


def _lift_parts(lift, s):
    got = lift(s)
    return got.morphism, got.induced_top, got.induced_base, got.warnings


def test_lifts_of_center_and_semidirect_sequences_match_the_dense_reference(case):
    """Every middle element's pair and quadruple, read off the pulled-back
    action, equal the dense lift's, and so do the induced maps, the
    warnings and any refusal."""
    _field, _name, x = case
    for s in _sequences(x):
        assert _outcome(_lift_parts, lift_sequence, s) == _outcome(_lift_parts, ref.lift_sequence, s)


def _bumped(m: Matrix) -> Matrix:
    """m plus 1 at row 0, column 0 (m itself when it has no entry there)."""
    if not (m.rows and m.cols):
        return m
    first = m.sparse_columns[0]
    return Matrix(m.field, m.rows, m.cols, ({**first, 0: first.get(0, 0) + 1},) + m.sparse_columns[1:])


def test_exactness_problems_match_the_subspace_comparison(case):
    """Exactness read off two ranks and one product gives the problems, in
    order, of comparing the inclusion's column space with the projection's
    nullspace: on each sequence, and with either map of a layer bumped."""
    _field, _name, x = case
    for s in _sequences(x):
        inc, proj = s.include, s.project
        for bad in (s, ShortExactSequence(s.first, s.middle, s.last, inc, type(proj)(
                        s.middle, s.last, _bumped(proj.top_map), proj.base_map)),
                    ShortExactSequence(s.first, s.middle, s.last, type(inc)(
                        s.first, s.middle, inc.top_map, _bumped(inc.base_map)), proj)):
            assert sequence_problems(bad) == ref.sequence_problems(bad)


def test_lift_of_the_catalog_sequence_matches_the_dense_reference(field):
    s = build_entry("sl2-seq", field)
    got = _lift_parts(lift_sequence, s)
    assert got == _lift_parts(ref.lift_sequence, s)
    assert validate_morphism(got[0]).ok


# -- block assembly ----------------------------------------------------------------


@pytest.mark.parametrize("field", FIELDS, ids=[f.tag for f in FIELDS])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_direct_sums_and_semidirect_algebras_match_the_dense_loops(field, data):
    a, b = data.draw(algebras(field)), data.draw(algebras(field))
    assert direct_sum(a, b)[0].table == ref.direct_sum_table(a, b)
    d = data.draw(actions(field))
    assert semidirect_algebra(d).algebra.table == ref.semidirect_algebra_table(d)


@pytest.mark.parametrize("field", FIELDS, ids=[f.tag for f in FIELDS])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_semidirect_crossed_modules_match_the_dense_loops(field, data):
    d = data.draw(xactions(field))
    semi = semidirect_xmod(d).xmod
    assert (semi.top.table, semi.base.table, semi.action.left, semi.action.right) == ref.semidirect_xmod_tensors(d)


def test_semidirect_crossed_modules_of_the_catalog_match_the_dense_loops(field):
    for cid in ("sl2-self", "mixed-pair-break"):
        d = build_entry(cid, field)
        semi = semidirect_xmod(d).xmod
        assert (semi.top.table, semi.base.table, semi.action.left, semi.action.right) == \
            ref.semidirect_xmod_tensors(d)


# -- no dense view on the hot paths -------------------------------------------------

DENSE_VIEWS = ((LeibnizAlgebra, "table"), (ActionData, "left"), (ActionData, "right"),
               (XModActionData, "cross_mq"), (XModActionData, "cross_qm"), (Matrix, "entries"), (Subspace, "basis"))


@pytest.fixture
def no_dense_views(monkeypatch):
    """Every dense view raises, and the memos in ``bider`` start cold."""
    def refused(cls, name):
        def view(self):
            raise AssertionError(f"{cls.__name__}.{name} was derived")
        return property(view)

    for cls, name in DENSE_VIEWS:
        monkeypatch.setattr(cls, name, refused(cls, name))
    for memo in vars(bider).values():
        if callable(getattr(memo, "cache_clear", None)):
            memo.cache_clear()


def _round_trip(to_json, from_json, field, obj):
    assert from_json(field, json.loads(json.dumps(to_json(obj)))) == obj


def test_no_dense_view_is_derived_on_the_hot_paths(field, no_dense_views):
    for cid, entry in CATALOG.items():
        obj = build_entry(cid, field)
        if entry.kind == "algebra":
            validate_leibniz(obj)
            _round_trip(ser.algebra_to_json, ser.algebra_from_json, field, obj)
        elif entry.kind == "action":
            validate_action(obj)
            _round_trip(ser.action_to_json, ser.action_from_json, field, obj)
        elif entry.kind == "xmod":
            act = actor(obj)
            assert validate_xmod(act).ok
            assert validate_morphism(canonical_morphism(obj)).ok
            center(obj)
            outer_xmod(obj)
            validate_xmod(obj)
            _round_trip(ser.xmod_to_json, ser.xmod_from_json, field, obj)
            _round_trip(ser.xmod_to_json, ser.xmod_from_json, field, act)
        elif entry.kind == "xaction":
            validate_xmod_action(obj)
            _round_trip(ser.xaction_to_json, ser.xaction_from_json, field, obj)
            semidirect_xmod(obj)
            if check_conditions(obj.target_xmod).any_holds:  # sl2-self, except over F2
                assert action_from_morphism(morphism_from_action(obj).morphism) == obj
        elif entry.kind == "sequence":
            lift_sequence(obj)
