"""Algebra actions: the six laws, self-actions, the semidirect sum, and the
one stored form of the two action tensors."""
import itertools
import json

import pytest
from conftest import FIELDS
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import ints_of_table, is_action
from reference_stages import apply
from strategies import algebras, is_stored, respelled, tensors

from lbxmod import GF2, GF3, QQ, FpElement, InputDataError
from lbxmod.action import ActionData, semidirect_algebra, validate_action
from lbxmod.algebra import validate_leibniz
from lbxmod.catalog import build_entry
from lbxmod.serialize import action_from_json, action_to_json


@pytest.mark.parametrize("cid", ["a2", "l2", "r2", "sl2"])
def test_every_algebra_acts_on_itself_by_brackets(cid, field):
    alg = build_entry(cid, field)
    assert validate_action(ActionData.by_bracket(alg)).ok


def test_zero_action_is_always_legal(field):
    act = ActionData.zero(build_entry("r2", field), build_entry("l2", field))
    assert validate_action(act).ok


def test_adjoint_fixture_matches_by_bracket():
    assert build_entry("sl2-adjoint", QQ) == ActionData.by_bracket(build_entry("sl2", QQ))


def test_validator_pinpoints_a_broken_law():
    sl2 = build_entry("sl2", QQ)
    good = ActionData.by_bracket(sl2)
    # damage one right-action value: [e, e] picks up a spurious h term
    rows = [list(map(list, row)) for row in good.right]
    rows[0][0][1] = QQ.one
    bad = ActionData(sl2, sl2, [[list(c) for c in r] for r in good.left], rows)
    report = validate_action(bad)
    assert not report.ok
    labels = set(report.labels())
    assert labels <= {"act1", "act2", "act3", "act4", "act5", "act6"}
    assert "act2" in labels or "act3" in labels


def test_action_evaluation_is_bilinear():
    act = ActionData.by_bracket(build_entry("sl2", QQ))
    a = (QQ.one, QQ.coerce(2), QQ.zero)
    x = (QQ.zero, QQ.one, QQ.coerce(-1))
    y = (QQ.one, QQ.zero, QQ.one)
    lhs = act.act_left(a, tuple(u + v for u, v in zip(x, y)))
    rhs = tuple(u + v for u, v in zip(act.act_left(a, x), act.act_left(a, y)))
    assert lhs == rhs


def test_semidirect_sum_of_the_self_action():
    l2 = build_entry("l2", QQ)
    sd = semidirect_algebra(ActionData.by_bracket(l2))
    big = sd.algebra
    assert big.dim == 4
    assert validate_leibniz(big).ok
    # block layout: target coordinates first, actor second
    m1 = apply(sd.include_target, (QQ.one, QQ.zero))
    p1 = apply(sd.include_actor, (QQ.one, QQ.zero))
    # [(m,0),(0,p)] = ([m,p], 0) lands in the target block
    v = big.bracket(m1, p1)
    assert v[:2] == l2.bracket((QQ.one, QQ.zero), (QQ.one, QQ.zero))
    assert all(not c for c in v[2:])


def test_validator_agrees_with_brute_force_for_line_acting_on_l2():
    """All 256 tensor fillings of a 1-dim abelian algebra acting on l2, F2."""
    p = build_entry("a1", GF2)
    m = build_entry("l2", GF2)
    ptab, mtab = ints_of_table(p), ints_of_table(m)
    valid = 0
    for bits in itertools.product((0, 1), repeat=8):
        lb, rb = bits[:4], bits[4:]
        left = (((lb[0], lb[1]), (lb[2], lb[3])),)
        right = (((rb[0], rb[1]),), ((rb[2], rb[3]),))
        act = ActionData(p, m, left, right)
        solver = validate_action(act).ok
        assert solver == is_action(mtab, ptab, left, right, 2, 1)
        valid += solver
    assert valid == 6  # pinned by the enumeration itself


# -- the stored form ----------------------------------------------------------------


@pytest.mark.parametrize("field", FIELDS, ids=[f.tag for f in FIELDS])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_dense_sparse_and_read_back_actions_are_one_stored_form(field, data):
    p, m = data.draw(algebras(field)), data.draw(algebras(field))
    left, right = data.draw(tensors(field, p.dim, m.dim, m.dim)), data.draw(tensors(field, m.dim, p.dim, m.dim))
    d = ActionData(p, m, left, right)
    assert is_stored(field, d.sparse_left) and is_stored(field, d.sparse_right)
    assert (d.left, d.right) == (left, right)
    same = (ActionData(p, m, d.sparse_left, d.sparse_right),
            ActionData(p, m, data.draw(respelled(field, left)), data.draw(respelled(field, right))),
            action_from_json(field, json.loads(json.dumps(action_to_json(d)))))
    for e in same:
        assert e == d and hash(e) == hash(d) and (e.left, e.right) == (left, right)


def test_the_self_action_shares_the_algebra_view(field):
    a = build_entry("sl2", field)
    d = ActionData.by_bracket(a)
    assert d.sparse_left is a.sparse_table and d.sparse_right is a.sparse_table
    assert d.left == a.table == d.right


def test_action_tensors_are_normalized_and_checked():
    p, m = build_entry("a1", GF3), build_entry("l2", GF3)
    d = ActionData(p, m, [[{0: 4, 1: 0}, {1: -2}]], [[{0: FpElement(1, 3)}], [{}]])
    assert d.sparse_left == (({0: 1}, {1: 1}),) and d.sparse_right == (({0: 1},), ({},))
    with pytest.raises(TypeError):
        ActionData(p, m, [[{0: FpElement(1, 2)}, {}]], [[{}], [{}]])
    for left, right in (([[{}, {}]], [[{}]]), ([[{2: 1}, {}]], [[{}], [{}]]), ([[[0], [0]]], [[{}], [{}]])):
        with pytest.raises(InputDataError):
            ActionData(p, m, left, right)
    with pytest.raises(InputDataError):
        ActionData(p, build_entry("l2", QQ), [[{}, {}]], [[{}], [{}]])
