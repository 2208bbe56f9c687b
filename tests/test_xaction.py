"""Crossed-module actions: the labeled laws, the morphism dictionary, the
semidirect extension, and the one stored form of the two pairings."""
import json

import pytest
from conftest import FIELDS
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_stages import column
from strategies import actions, is_stored, respelled, tensors, xmods

from lbxmod import GF3, QQ, FpElement, InputDataError
from lbxmod.action import ActionData
from lbxmod.serialize import xaction_from_json, xaction_to_json
from lbxmod.bider import actor, sequence_problems
from lbxmod.catalog import build_entry
from lbxmod.linalg import Matrix, rref
from lbxmod.xaction import (
    RELAXABLE_LABELS,
    ActionAxiomError,
    ActorMorphism,
    ConditionsNotMetError,
    InvalidMorphismError,
    XModActionData,
    action_from_morphism,
    morphism_from_action,
    semidirect_xmod,
    validate_xmod_action,
)
from lbxmod.xmod import validate_morphism, validate_xmod


def test_self_action_of_sl2_satisfies_every_law(field):
    assert validate_xmod_action(build_entry("sl2-self", field)).ok


def test_self_action_of_sl2_is_its_conjugation_action(field):
    """sl2 acting on itself by its bracket in every role."""
    x = build_entry("sl2-id", field)
    adjoint, bracket = ActionData.by_bracket(x.base), x.base.sparse_table
    assert build_entry("sl2-self", field) == XModActionData(x, x, adjoint, adjoint, bracket, bracket)


def test_mixed_pairing_fixture_fails_exactly_the_two_relaxable_laws(field):
    report = validate_xmod_action(build_entry("mixed-pair-break", field))
    assert tuple(sorted(set(report.labels()))) == ("LbM6a", "LbM6b")
    assert set(report.labels()) <= set(RELAXABLE_LABELS)


def test_violation_witnesses_carry_both_sides():
    report = validate_xmod_action(build_entry("mixed-pair-break", QQ))
    v = report.violations[0]
    assert v.lhs != v.rhs
    assert isinstance(v.witness, tuple)


def test_component_failures_get_prefixed_labels():
    from lbxmod.xmod import CrossedModule

    d = build_entry("sl2-self", QQ)
    y = d.target_xmod
    crooked = Matrix.from_rows(QQ, [[0, 1, 0], [1, 0, 0], [0, 0, 1]])  # not a hom
    bad_target = CrossedModule(y.top, y.base, crooked, y.action)
    broken = XModActionData(
        d.actor_xmod, bad_target, d.act_on_top, d.act_on_base, d.cross_mq, d.cross_qm
    )
    labels = set(validate_xmod_action(broken).labels())
    assert "y:hom" in labels
    assert not any(label.startswith(("x:", "p_on_n:", "p_on_q:")) for label in labels)


def test_zeroing_the_top_action_breaks_only_mixed_laws():
    from lbxmod.action import ActionData

    d = build_entry("sl2-self", QQ)
    broken = XModActionData(
        d.actor_xmod,
        d.target_xmod,
        ActionData.zero(d.actor_xmod.base, d.target_xmod.top),
        d.act_on_base,
        d.cross_mq,
        d.cross_qm,
    )
    labels = set(validate_xmod_action(broken).labels())
    assert labels  # plenty breaks once the top action is zeroed
    assert not any(":" in label for label in labels)  # but only mixed laws


def test_tensor_shapes_are_checked_up_front():
    d = build_entry("sl2-self", QQ)
    with pytest.raises(InputDataError):
        XModActionData(
            d.actor_xmod,
            d.target_xmod,
            d.act_on_top,
            d.act_on_base,
            d.cross_mq[:1],  # truncated
            d.cross_qm,
        )


def test_round_trip_through_the_actor_morphism():
    d = build_entry("sl2-self", QQ)
    result = morphism_from_action(d)
    assert result.relaxed_failures == ()
    assert validate_morphism(result.morphism.as_xmod_morphism()).ok
    back = action_from_morphism(result.morphism)
    assert back == d  # exact dataclass equality, coordinates and all
    again = morphism_from_action(back)
    assert again.morphism == result.morphism


def test_partial_fixture_still_yields_a_morphism():
    d = build_entry("mixed-pair-break", QQ)
    result = morphism_from_action(d)
    assert result.relaxed_failures == ("LbM6a", "LbM6b")
    fm = result.morphism
    assert [list(r) for r in fm.top_map.entries] == [[0], [1]]
    assert [list(r) for r in fm.base_map.entries] == [
        [0, -1],
        [0, -1],
        [0, -1],
        [0, 0],
    ]
    assert validate_morphism(fm.as_xmod_morphism()).ok


def test_reconstruction_refuses_without_a_support_condition():
    fm = morphism_from_action(build_entry("mixed-pair-break", QQ)).morphism
    with pytest.raises(ConditionsNotMetError) as err:
        action_from_morphism(fm)
    assert err.value.flags.failed() == ("con1", "con2", "con3")
    assert err.value.profile["ann_top_dim"] == 1
    assert "con1" in str(err.value)


def test_reconstruction_rejects_non_morphisms():
    d = build_entry("sl2-self", QQ)
    fm = morphism_from_action(d).morphism
    garbage = ActorMorphism(
        fm.source, fm.around, Matrix.zeros(QQ, fm.top_map.rows, fm.top_map.cols), fm.base_map
    )
    with pytest.raises(InvalidMorphismError):
        action_from_morphism(garbage)


def test_hard_violations_block_the_morphism():
    d = build_entry("sl2-self", QQ)
    zero_mq = tuple(
        tuple(tuple(QQ.zero for _ in cell) for cell in row) for row in d.cross_mq
    )
    broken = XModActionData(
        d.actor_xmod, d.target_xmod, d.act_on_top, d.act_on_base, zero_mq, d.cross_qm
    )
    with pytest.raises(ActionAxiomError) as err:
        morphism_from_action(broken)
    assert err.value.labels
    assert not set(err.value.labels) & set(RELAXABLE_LABELS)


def test_semidirect_extension_of_the_self_action():
    d = build_entry("sl2-self", QQ)
    sd = semidirect_xmod(d)
    assert (sd.xmod.top.dim, sd.xmod.base.dim) == (6, 6)
    assert validate_xmod(sd.xmod).ok
    assert sequence_problems(sd.sequence()) == []
    for f in (sd.include, sd.project, sd.section):
        assert validate_morphism(f).ok
    # the projection splits: project . section is the identity
    top_round = sd.project.top_map @ sd.section.top_map
    base_round = sd.project.base_map @ sd.section.base_map
    assert top_round == Matrix.identity(QQ, 3)
    assert base_round == Matrix.identity(QQ, 3)
    # and the included copy is genuinely embedded
    assert rref(sd.include.top_map).rank == 3
    assert rref(sd.include.base_map).rank == 3


def test_semidirect_mixed_brackets_use_the_pairings():
    d = build_entry("sl2-self", QQ)
    sd = semidirect_xmod(d)
    big = sd.xmod.top
    n_dim = d.target_xmod.top.dim
    # [(n,0),(0,m)] picks up the m-q pairing through the boundary: with
    # everything identity on sl2 this is just the bracket
    v = column(sd.include.top_map, 0)  # embed n-basis e
    w = column(sd.section.top_map, 1)  # embed m-basis h
    out = big.bracket(v, w)
    inner = d.target_xmod.top.bracket(
        (QQ.one, QQ.zero, QQ.zero), (QQ.zero, QQ.one, QQ.zero)
    )
    assert out[:n_dim] == inner
    assert all(not c for c in out[n_dim:])


# -- the stored form ----------------------------------------------------------------


@pytest.mark.parametrize("field", FIELDS, ids=[f.tag for f in FIELDS])
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_dense_sparse_and_read_back_pairings_are_one_stored_form(field, data):
    x, y = data.draw(xmods(field)), data.draw(xmods(field))
    m, q, n = x.top.dim, y.base.dim, y.top.dim
    pn, pq = data.draw(actions(field, x.base, y.top)), data.draw(actions(field, x.base, y.base))
    mq, qm = data.draw(tensors(field, m, q, n)), data.draw(tensors(field, q, m, n))
    d = XModActionData(x, y, pn, pq, mq, qm)
    assert is_stored(field, d.sparse_mq) and is_stored(field, d.sparse_qm)
    assert (d.cross_mq, d.cross_qm) == (mq, qm)
    same = (XModActionData(x, y, pn, pq, d.sparse_mq, d.sparse_qm),
            XModActionData(x, y, pn, pq, data.draw(respelled(field, mq)), data.draw(respelled(field, qm))),
            xaction_from_json(field, json.loads(json.dumps(xaction_to_json(d)))))
    for e in same:
        assert e == d and hash(e) == hash(d) and (e.cross_mq, e.cross_qm) == (mq, qm)


def test_pairings_are_normalized_and_checked():
    d = build_entry("mixed-pair-break", GF3)
    parts = (d.actor_xmod, d.target_xmod, d.act_on_top, d.act_on_base)
    e = XModActionData(*parts, [[{0: 7}]], [[{0: 0}]])
    assert (e.sparse_mq, e.sparse_qm) == (d.sparse_mq, d.sparse_qm) == ((({0: 1},),), (({},),))
    with pytest.raises(TypeError):
        XModActionData(*parts, [[{0: FpElement(1, 2)}]], [[{}]])
    for mq in ([[{1: 1}]], [[[0, 0]]], [[{}, {}]]):
        with pytest.raises(InputDataError):
            XModActionData(*parts, mq, [[{}]])
