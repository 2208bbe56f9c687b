"""The outer crossed module, and the sub and quotient crossed modules of an
identity crossed module.

``outer_xmod`` divides the actor by the column spaces of the canonical
morphism's maps; it no longer builds the inner crossed module on them.  On
an identity crossed module with one subspace on both layers, ``sub_xmod``
and ``quotient_xmod`` return the identity on the subalgebra or the quotient
algebra.  Each is compared exactly with the construction it replaced
(``reference_stages.outer_via_inner``, ``general_sub_xmod`` and
``general_quotient_xmod``) over Q, F2 and F3: on identity crossed modules in
their standard basis and rebased by one change of basis of both layers, on
ideal inclusions, and on the lift of the catalog's sequence.  The calls the
new paths make are counted, and the refusals they must keep are pinned.
"""
import random

import pytest
from conftest import FIELDS, XMOD_IDS
from hypothesis import given, settings
from hypothesis import strategies as st
from strategies import null_filiform, quadruple_inputs, sl2

import reference_stages as ref
from lbxmod import algebra, xmod
from lbxmod.algebra import LeibnizAlgebra
from lbxmod.bider import actor, canonical_morphism, inner_xmod, lift_sequence, outer_xmod
from lbxmod.catalog import build_entry
from lbxmod.linalg import LinearSolveError, Subspace, column_space
from lbxmod.xmod import CrossedModule, NotAnIdealError, quotient_xmod, sub_xmod


IDENTITY_ALGEBRAS = [sl2, lambda f: null_filiform(f, 4), lambda f: LeibnizAlgebra.abelian(f, 2)]
IDENTITY_IDS = ["sl2", "nf4", "a2"]


def _outcome(fn, *args):
    """The value of fn(*args), or the type and message of what it raised."""
    try:
        return fn(*args)
    except (LinearSolveError, NotAnIdealError) as exc:
        return type(exc), str(exc)


def _subspaces(a, rng):
    """The zero and full subspaces, the commutator and annihilator ideals, and
    a seeded line and plane of an algebra, most of them no ideal."""
    f, n = a.field, a.dim
    out = [Subspace.zero(f, n), Subspace.full(f, n), algebra.commutator(a), algebra.annihilator(a)]
    return out + [Subspace.from_rows(f, n, [[rng.choice((-1, 0, 1, 2)) for _ in range(n)] for _ in range(k)])
                  for k in (1, 2)]


def _matches_the_general_construction(x, rng):
    """The outer part, and the sub and quotient crossed modules on pairs of
    subspaces of x (one subspace on both layers of an identity) and on the
    inner spaces of the actor, or the same refusal."""
    assert _outcome(outer_xmod, x) == _outcome(ref.outer_via_inner, x)
    tops, bases = _subspaces(x.top, rng), _subspaces(x.base, rng)
    pairs = list(zip(tops, bases)) + [(tops[0], bases[1]), (tops[2], bases[1])]
    if x.is_identity():  # the seeded subspaces differ between the layers
        pairs += [(s, s) for s in tops[4:]]
    pairs = [(x, top, base) for top, base in pairs]
    try:
        can = canonical_morphism(x)
    except LinearSolveError:  # drawn tables need not make x a crossed module
        pass
    else:
        pairs.append((can.target, column_space(can.top_map), column_space(can.base_map)))
    for y, top, base in pairs:
        assert _outcome(sub_xmod, y, top, base) == _outcome(ref.general_sub_xmod, y, top, base)
        assert _outcome(quotient_xmod, y, top, base) == _outcome(ref.general_quotient_xmod, y, top, base)


@given(st.sampled_from(FIELDS), st.data())
@settings(max_examples=150, deadline=None)
def test_identity_and_ideal_inclusion_stages_equal_the_general_construction(field, data):
    """Identity crossed modules, in their standard basis or rebased by one
    change of basis of both layers (so they stay identities), and ideal
    inclusions, in their standard basis or in seeded bases of each layer."""
    x = data.draw(quadruple_inputs(field, kinds=("identity", "ideal")))
    seed = data.draw(st.none() | st.integers(0, 2**16))
    if seed is not None:
        x = ref.rebase_xmod(x, random.Random(seed), same_basis=x.is_identity())
    _matches_the_general_construction(x, random.Random(f"subspaces/{seed}"))


@pytest.mark.parametrize("make", IDENTITY_ALGEBRAS, ids=IDENTITY_IDS)
@pytest.mark.parametrize("seed", [None, 0, 1])
def test_identities_of_fixed_algebras_equal_the_general_construction(make, seed, field):
    x = CrossedModule.identity_on(make(field))
    if seed is not None:
        x = ref.rebase_xmod(x, random.Random(seed), same_basis=True)
    _matches_the_general_construction(x, random.Random(f"fixed/{seed}"))


def test_the_lift_of_the_catalog_sequence_has_the_general_outer_part(field):
    s = build_entry("sl2-seq", field)
    assert lift_sequence(s).outer == ref.outer_via_inner(s.first)


def test_the_inner_report_is_the_general_sub_crossed_module(field):
    """``inner_xmod`` stays the sub-crossed-module on the outer part's spaces."""
    for cid in ("sl2-id", "l2-ann-incl"):
        x = build_entry(cid, field)
        can = canonical_morphism(x)
        assert inner_xmod(x) == ref.general_sub_xmod(actor(x), column_space(can.top_map), column_space(can.base_map))


# -- the calls the outer part makes --------------------------------------------


def _counted(monkeypatch, *names):
    """The calls of each (module, name) from here on, by name, in order."""
    calls = []
    for module, name in names:
        fn = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *args, fn=fn, name=name: calls.append(name) or fn(*args))
    return calls


@pytest.mark.parametrize("cid", XMOD_IDS)
def test_a_warm_outer_part_builds_no_sub_crossed_module(cid, field, monkeypatch):
    x = build_entry(cid, field)
    canonical_morphism(x)  # warms the actor and the canonical morphism
    calls = _counted(monkeypatch, (xmod, "sub_xmod"), (xmod, "subalgebra_on"), (algebra, "subalgebra_on"))
    outer_xmod(x)
    assert calls == []


@pytest.mark.parametrize("make", IDENTITY_ALGEBRAS, ids=IDENTITY_IDS)
def test_the_outer_part_of_an_identity_builds_one_quotient_algebra(make, field, monkeypatch):
    x = CrossedModule.identity_on(make(field))
    canonical_morphism(x)
    calls = _counted(monkeypatch, (xmod, "_quotient"))
    outer_xmod(x)
    assert calls == ["_quotient"]


# -- refusals the identity cases keep ------------------------------------------


def test_a_line_of_sl2_is_refused_as_a_quotient_of_its_identity(field):
    """The line of e0 is no ideal of sl2 ([e0, e2] = e1 leaves it): the
    identity case still runs the ideal check first, with its four messages."""
    x = CrossedModule.identity_on(build_entry("sl2", field))
    s = Subspace.from_rows(field, 3, [[1, 0, 0]])
    with pytest.raises(NotAnIdealError) as err:
        quotient_xmod(x, s, s)
    assert str(err.value) == (
        "top subspace is not an ideal of the top algebra; base subspace is not an ideal of the base algebra; "
        "base part does not act into the top part; top part is not stable under the base action")


def test_a_plane_of_sl2_not_closed_under_the_bracket_is_refused_as_a_sub_crossed_module(field):
    """span(e0, e2) holds no [e0, e2] = e1: refused by the identity case,
    with one subspace on both layers, and by the general one."""
    x = CrossedModule.identity_on(build_entry("sl2", field))
    s = Subspace.from_rows(field, 3, [[1, 0, 0], [0, 0, 1]])
    for base in (s, Subspace.full(field, 3)):
        with pytest.raises(LinearSolveError, match="^subspace is not closed under the bracket$"):
            sub_xmod(x, s, base)
