"""Crossed modules: validity, morphisms, subobjects, conditions, center."""
import pytest
from conftest import FIELDS, XMOD_IDS
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_stages import column
from strategies import quadruple_inputs, xmods

from lbxmod import GF2, QQ, InputDataError
from lbxmod.action import ActionData
from lbxmod import xmod
from lbxmod.algebra import LeibnizAlgebra, annihilator, commutator
from lbxmod.catalog import build_entry
from lbxmod.linalg import Matrix, Subspace
from lbxmod.xmod import (
    NO_CONDITION_WARNING,
    ConditionFlags,
    CrossedModule,
    NotAnIdealError,
    center,
    check_conditions,
    check_xmod_ideal,
    compose_morphisms,
    condition_profile,
    identity_morphism,
    invariant_top_subspace,
    kernel,
    quotient_xmod,
    sub_xmod,
    trivially_acting_base_subspace,
    validate_morphism,
    validate_xmod,
)


@pytest.mark.parametrize("cid", XMOD_IDS)
def test_catalog_crossed_modules_are_valid(cid, field):
    assert validate_xmod(build_entry(cid, field)).ok


def test_identity_boundary_with_zero_action_breaks_both_mixed_laws():
    l2 = build_entry("l2", QQ)
    bad = CrossedModule(l2, l2, Matrix.identity(QQ, 2), ActionData.zero(l2, l2))
    labels = set(validate_xmod(bad).labels())
    assert "XLb1-left" in labels
    assert "XLb2-left" in labels


def test_boundary_must_be_a_homomorphism():
    l2 = build_entry("l2", QQ)
    swap = Matrix.from_rows(QQ, [[0, 1], [1, 0]])
    bad = CrossedModule(l2, l2, swap, ActionData.by_bracket(l2))
    assert "hom" in validate_xmod(bad).labels()


def test_boundary_shape_is_checked_up_front():
    l2 = build_entry("l2", QQ)
    sl2 = build_entry("sl2", QQ)
    with pytest.raises(InputDataError):
        CrossedModule(l2, l2, Matrix.zeros(QQ, 3, 2), ActionData.by_bracket(l2))
    with pytest.raises(InputDataError):
        CrossedModule(l2, sl2, Matrix.zeros(QQ, 3, 2), ActionData.by_bracket(l2))


def test_ideal_inclusion_fixture_shape():
    x = build_entry("l2-ann-incl", QQ)
    assert x.top.dim == 1 and x.base.dim == 2
    assert column(x.boundary, 0) == (QQ.zero, QQ.one)  # the line through e2
    assert validate_xmod(x).ok


def test_inclusion_of_non_closed_subspace_fails():
    from lbxmod.linalg import LinearSolveError

    l2 = build_entry("l2", QQ)
    with pytest.raises(LinearSolveError):
        CrossedModule.inclusion_of_ideal(l2, Subspace.from_rows(QQ, 2, [[1, 0]]))


def test_identity_and_composition_of_morphisms():
    x = build_entry("sl2-id", QQ)
    i = identity_morphism(x)
    assert validate_morphism(i).ok
    ii = compose_morphisms(i, i)
    assert ii.top_map == i.top_map and ii.base_map == i.base_map


def test_morphism_validator_catches_non_equivariance():
    from lbxmod.xmod import XModMorphism

    x = build_entry("l2-id", QQ)
    squish = Matrix.from_rows(QQ, [[1, 0], [0, 0]])
    f = XModMorphism(x, x, squish, Matrix.identity(QQ, 2))
    labels = set(validate_morphism(f).labels())
    assert labels  # not a morphism
    assert labels <= {"top-hom", "base-hom", "boundary-square", "action-left", "action-right"}
    assert "boundary-square" in labels


def test_kernel_of_identity_is_zero():
    x = build_entry("r2-id", QQ)
    k = kernel(identity_morphism(x))
    assert k.top_space.dim == 0 and k.base_space.dim == 0


def test_sub_xmod_inclusion_is_a_morphism():
    x = build_entry("l2-id", QQ)
    top = Subspace.from_rows(QQ, 2, [[0, 1]])
    base = Subspace.from_rows(QQ, 2, [[0, 1]])
    s = sub_xmod(x, top, base)
    incl = s.inclusion()
    assert validate_morphism(incl).ok
    assert s.xmod.top.dim == 1 and s.xmod.base.dim == 1


def test_quotient_needs_an_ideal_pair():
    x = build_entry("l2-id", QQ)
    # the base line span{e1} is not an ideal of l2, and the top line must
    # also map into the base part under the boundary
    top = Subspace.from_rows(QQ, 2, [[1, 0]])
    base = Subspace.zero(QQ, 2)
    assert check_xmod_ideal(x, top, base)
    with pytest.raises(NotAnIdealError):
        quotient_xmod(x, top, base)


def test_quotient_by_the_annihilator_line():
    x = build_entry("l2-id", QQ)
    line = Subspace.from_rows(QQ, 2, [[0, 1]])
    q = quotient_xmod(x, line, line)
    assert q.xmod.top.dim == 1 and q.xmod.base.dim == 1
    assert validate_xmod(q.xmod).ok
    assert validate_morphism(q.projection()).ok


CONDITION_TABLE = {
    # zero annihilators / zero annihilator + perfect base / both perfect
    "sl2-id": (True, True, True),
    "r2-id": (True, False, False),
    "l2-id": (False, False, False),
    "l2-ann-incl": (False, False, False),
    "zero-into-l2": (False, False, False),
}


@pytest.mark.parametrize("cid", sorted(CONDITION_TABLE))
def test_condition_flags(cid):
    x = build_entry(cid, QQ)
    flags = check_conditions(x)
    assert (flags.con1, flags.con2, flags.con3) == CONDITION_TABLE[cid]
    assert flags.any_holds == any(CONDITION_TABLE[cid])


def test_condition_profile_of_the_inclusion_fixture():
    x = build_entry("l2-ann-incl", QQ)
    assert condition_profile(x) == {
        "ann_top_dim": 1,
        "ann_base_dim": 1,
        "top_perfect": False,
        "base_perfect": False,
    }
    assert check_conditions(x).failed() == ("con1", "con2", "con3")


@pytest.mark.parametrize("cid", ["l2-id", "sl2-id"])
def test_condition_profile_of_an_identity_solves_its_one_layer_once(cid, monkeypatch):
    """Both layers are one algebra: its annihilator and commutator are
    solved once, and the profile and flags are its facts on both layers."""
    x = build_entry(cid, QQ)
    a = x.top
    expected = {"ann_top_dim": annihilator(a).dim, "ann_base_dim": annihilator(a).dim,
                "top_perfect": commutator(a).dim == a.dim, "base_perfect": commutator(a).dim == a.dim}
    calls = []
    for name, fn in (("annihilator", annihilator), ("commutator", commutator)):
        monkeypatch.setattr(xmod, name, lambda alg, name=name, fn=fn: calls.append(name) or fn(alg))
    assert condition_profile(x) == expected
    assert sorted(calls) == ["annihilator", "commutator"]
    assert check_conditions(x) == ConditionFlags.from_profile(expected)


def _warned(x) -> bool:
    """Whether ``center`` and ``lift_sequence`` warn that no support
    condition holds."""
    return xmod._condition_warnings(x) == (NO_CONDITION_WARNING,)


@given(st.sampled_from(FIELDS), st.data())
@settings(max_examples=150, deadline=None)
def test_the_condition_warning_follows_the_flags(field, data):
    """The warning of ``center`` and ``lift_sequence``, decided from as few
    facts as decide it, is there exactly when no condition holds."""
    x = data.draw(xmods(field) | quadruple_inputs(field))
    assert xmod._condition_warnings(x) in ((), (NO_CONDITION_WARNING,))
    assert _warned(x) == (not check_conditions(x).any_holds)


@pytest.mark.parametrize("cid", XMOD_IDS)
def test_the_condition_warning_of_each_catalog_entry_follows_the_flags(cid, field):
    x = build_entry(cid, field)
    assert _warned(x) == (not check_conditions(x).any_holds)


@pytest.mark.parametrize("top, base, warned", [
    ("sl2", "sl2", False), ("sl2", "a1", True), ("a1", "sl2", True), ("a1", "a1", True)])
def test_the_condition_warning_decides_each_branch(top, base, warned):
    """Zero action and boundary between sl2 (centerless, perfect) and A_1:
    ann(top) = 0 with base perfect or ann(base) = 0, and ann(top) != 0,
    where both layers must be perfect."""
    make = {"sl2": lambda: build_entry("sl2-id", QQ).top, "a1": lambda: LeibnizAlgebra.abelian(QQ, 1)}
    t, b = make[top](), make[base]()
    x = CrossedModule(t, b, Matrix.zeros(QQ, b.dim, t.dim), ActionData.zero(b, t))
    assert _warned(x) == warned == (not check_conditions(x).any_holds)


def test_center_of_identity_on_sl2_is_zero():
    c = center(build_entry("sl2-id", QQ))
    assert c.top_space.dim == 0 and c.base_space.dim == 0
    assert c.warnings == ()


def test_center_of_the_inclusion_fixture_carries_a_warning():
    x = build_entry("l2-ann-incl", QQ)
    c = center(x)
    assert c.top_space == Subspace.full(QQ, 1)
    assert c.base_space == Subspace.from_rows(QQ, 2, [[0, 1]])
    assert c.warnings == (NO_CONDITION_WARNING,)


def test_invariant_and_trivially_acting_subspaces():
    x = build_entry("l2-ann-incl", QQ)
    # the whole top line is fixed: brackets with the annihilator vanish
    assert invariant_top_subspace(x) == Subspace.full(QQ, 1)
    # every base element kills the annihilator line, so the triviality
    # subspace is full; the center then cuts it down with the annihilator
    assert trivially_acting_base_subspace(x) == Subspace.full(QQ, 2)
    y = build_entry("sl2-id", QQ)
    assert invariant_top_subspace(y).dim == 0
    assert trivially_acting_base_subspace(y).dim == 0


def test_center_equals_kernel_of_the_canonical_morphism_everywhere():
    from lbxmod.bider import canonical_morphism

    for cid in XMOD_IDS:
        x = build_entry(cid, QQ)
        k = kernel(canonical_morphism(x))
        c = center(x)
        assert k.top_space == c.top_space
        assert k.base_space == c.base_space
