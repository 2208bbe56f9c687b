"""The validators against the per-witness loops they replaced.

``lbxmod`` evaluates each identity over all its witnesses at once.  Here its
full reports (labels, witnesses, lhs, rhs and their order) are compared with
the per-witness reference in ``reference_stages`` on generated tables,
actions, crossed modules, morphisms and crossed-module actions over Q, F2 and
F3.  Most generated objects break several identities at once, so the order
across labels of one block is compared too.  Generated valid crossed modules
(identity crossed modules and ideal inclusions on direct sums of NF_n, sl2
and abelian algebras, in seeded integer bases) must pass every validator,
and so must their actor and canonical morphism.
"""
import random

import pytest
from conftest import FIELDS
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_stages as ref
from strategies import actions, algebras, matrices, morphisms, tensors, xactions, xmods
from lbxmod.action import ActionData, validate_action
from lbxmod.algebra import _ONE, LeibnizAlgebra, _violations, annihilator, commutator, direct_sum, validate_leibniz
from lbxmod.bider import actor, canonical_morphism
from lbxmod.catalog import build_entry
from lbxmod.linalg import Subspace
from lbxmod.xaction import XModActionData, validate_xmod_action
from lbxmod.xmod import CrossedModule, identity_morphism, validate_morphism, validate_xmod

BY_FIELD = pytest.mark.parametrize("field", FIELDS, ids=[f.tag for f in FIELDS])
RANDOM = settings(max_examples=25, deadline=None)


# -- reports equal the per-witness reference ----------------------------------------


@BY_FIELD
@RANDOM
@given(data=st.data())
def test_leibniz_reports_match_reference(field, data):
    a = data.draw(algebras(field))
    assert validate_leibniz(a) == ref.validate_leibniz(a)


@BY_FIELD
@RANDOM
@given(data=st.data())
def test_action_reports_match_reference(field, data):
    d = data.draw(actions(field))
    assert validate_action(d) == ref.validate_action(d)


@BY_FIELD
@RANDOM
@given(data=st.data())
def test_xmod_reports_match_reference(field, data):
    x = data.draw(xmods(field))
    assert validate_xmod(x) == ref.validate_xmod(x)


@BY_FIELD
@RANDOM
@given(data=st.data())
def test_morphism_reports_match_reference(field, data):
    f = data.draw(morphisms(field))
    assert validate_morphism(f) == ref.validate_morphism(f)


@BY_FIELD
@RANDOM
@given(data=st.data())
def test_xaction_reports_match_reference(field, data):
    d = data.draw(xactions(field))
    assert validate_xmod_action(d) == ref.validate_xmod_action(d)


# -- one object in several roles ----------------------------------------------------
#
# validate_xmod_action checks a component shared by several roles once and
# reports it under each prefix; the reference checks every role on its own.


@st.composite
def self_actions(draw, field):
    """A crossed module on one algebra acting on itself, its action shared by
    x, y, p_on_n and p_on_q."""
    a = draw(algebras(field))
    d = draw(actions(field, a, a))
    x = CrossedModule(a, a, draw(matrices(field, a.dim, a.dim)), d)
    return XModActionData(x, x, d, d, draw(tensors(field, a.dim, a.dim, a.dim)),
                          draw(tensors(field, a.dim, a.dim, a.dim)))


@BY_FIELD
@RANDOM
@given(data=st.data())
def test_self_action_reports_match_reference(field, data):
    d = data.draw(self_actions(field))
    assert d.actor_xmod is d.target_xmod and d.act_on_top is d.actor_xmod.action is d.act_on_base
    assert validate_xmod_action(d) == ref.validate_xmod_action(d)


@BY_FIELD
@settings(max_examples=12, deadline=None)
@given(data=st.data())
def test_mutated_self_actions_match_reference(field, data):
    """The valid self action of an identity crossed module (the pairings are
    the bracket), with one constant of the algebra or of the shared action
    changed."""
    a = SUMMANDS[data.draw(st.sampled_from(sorted(SUMMANDS)))](field)
    n = a.dim
    i, j, k = (data.draw(st.integers(0, n - 1)) for _ in range(3))
    one = field.one

    def bump(t):
        return tuple(tuple(tuple(c + one if (r, s, u) == (i, j, k) else c for u, c in enumerate(vec))
                           for s, vec in enumerate(row)) for r, row in enumerate(t))

    where = data.draw(st.sampled_from(("algebra", "action left", "action right", "none")))
    if where == "algebra":
        a = LeibnizAlgebra(field, n, bump(a.table))
    x = CrossedModule.identity_on(a)
    if where.startswith("action"):
        act = x.action
        act = ActionData(a, a, bump(act.left), act.right) if where == "action left" else \
            ActionData(a, a, act.left, bump(act.right))
        x = CrossedModule(a, a, x.boundary, act)
    d = XModActionData(x, x, x.action, x.action, a.table, a.table)
    got = validate_xmod_action(d)
    assert got == ref.validate_xmod_action(d)
    assert got.ok or where != "none"


def test_a_term_must_use_every_loop_variable_once():
    a = build_entry("sl2", FIELDS[0])
    t = a.sparse_table
    with pytest.raises(AssertionError):
        _violations(a.field, dict.fromkeys("ij", 3), [("bad", "ij", "ij", 3, [(1, t, "i", "i")], [])])
    with pytest.raises(AssertionError):
        _violations(a.field, dict.fromkeys("ij", 3), [("bad", "ij", "ij", 3, [(1, t, (_ONE, ""), "i")], [])])


# -- generated valid crossed modules -----------------------------------------------


def nf(field, n):
    return LeibnizAlgebra.from_brackets(field, n, {(i, 0): {i + 1: 1} for i in range(n - 1)})


SUMMANDS = {
    "nf2": lambda f: nf(f, 2),
    "nf3": lambda f: nf(f, 3),
    "sl2": lambda f: build_entry("sl2", f),
    "a1": lambda f: LeibnizAlgebra.abelian(f, 1),
    "a2": lambda f: LeibnizAlgebra.abelian(f, 2),
}


@st.composite
def valid_xmods(draw, field):
    """An identity crossed module or an ideal inclusion on a direct sum of
    NF_n, sl2 and abelian algebras, in a seeded integer basis (det +-1)."""
    names = draw(st.lists(st.sampled_from(sorted(SUMMANDS)), min_size=1, max_size=2))
    a = SUMMANDS[names[0]](field)
    first = a.dim
    for name in names[1:]:
        a = direct_sum(a, SUMMANDS[name](field))[0]
    ideal = draw(st.sampled_from(("whole", "commutator", "annihilator", "first summand")))
    if ideal == "whole":
        x = CrossedModule.identity_on(a)
    else:
        s = {"commutator": commutator, "annihilator": annihilator,
             "first summand": lambda a: Subspace.from_rows(field, a.dim, [ref.unit(field, a.dim, i)
                                                                         for i in range(first)])}[ideal](a)
        x = CrossedModule.inclusion_of_ideal(a, s)
    return ref.rebase_xmod(x, random.Random(draw(st.integers(0, 2**16))))


def conjugation(x: CrossedModule) -> XModActionData:
    """A crossed module acting on itself: the base by its action and its
    bracket, the pairings by the action."""
    return XModActionData(x, x, x.action, ActionData.by_bracket(x.base), x.action.right, x.action.left)


@BY_FIELD
@settings(max_examples=8, deadline=None)
@given(data=st.data())
def test_generated_valid_xmods_pass_every_validator(field, data):
    x = data.draw(valid_xmods(field))
    assert validate_leibniz(x.top).ok and validate_leibniz(x.base).ok
    assert validate_action(x.action).ok
    assert validate_xmod(x).ok
    assert validate_morphism(identity_morphism(x)).ok
    assert validate_xmod_action(conjugation(x)).ok
    assert validate_xmod(actor(x)).ok
    assert validate_morphism(canonical_morphism(x)).ok
