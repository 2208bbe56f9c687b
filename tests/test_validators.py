"""The validators against the per-witness loops they replaced.

``lbxmod`` evaluates each identity over all its witnesses at once.  Here its
full reports (labels, witnesses, lhs, rhs and their order) are compared with
the per-witness reference in ``reference_stages`` on generated tables,
actions, crossed modules, morphisms and crossed-module actions over Q, F2 and
F3.  Most generated objects break several identities at once, so the order
across labels of one block is compared too.  Generated valid crossed modules
(identity crossed modules and ideal inclusions on direct sums of NF_n, sl2
and abelian algebras, in seeded integer bases) must pass every validator,
and so must their actor and canonical morphism, which is the morphism of
their conjugation action.  Where passing checks decide (identity crossed
modules, bracket actions, conjugation actions), the reports are compared
the same way, with and without a bumped constant, and the identities each
call evaluates are counted, also for the CLI's checks of one input, whose
components share one memo of reports, one per distinct algebra table.
"""
import json
import random
import re
from importlib import import_module
from pathlib import Path

import pytest
from conftest import FIELDS, XMOD_IDS
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_stages as ref
from strategies import actions, algebras, matrices, morphisms, tensors, xactions, xmods
from lbxmod import QQ, cli
from lbxmod.action import ActionData, validate_action
from lbxmod.algebra import _ONE, LeibnizAlgebra, _violations, annihilator, commutator, direct_sum, validate_leibniz
from lbxmod.bider import actor, canonical_morphism
from lbxmod.catalog import build_entry
from lbxmod.fields import replace
from lbxmod.linalg import Matrix, Subspace
from lbxmod.xaction import XModActionData, morphism_from_action, validate_xmod_action
from lbxmod.serialize import action_to_json, xaction_to_json
from lbxmod.xmod import CrossedModule, ShortExactSequence, identity_morphism, validate_morphism, validate_xmod

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
    where = data.draw(st.sampled_from(("algebra", "action left", "action right", "none")))
    if where == "algebra":
        a = LeibnizAlgebra(field, n, bumped(field, a.table, (i, j, k)))
    x = CrossedModule.identity_on(a)
    if where.startswith("action"):
        act = x.action
        act = ActionData(a, a, bumped(field, act.left, (i, j, k)), act.right) if where == "action left" else \
            ActionData(a, a, act.left, bumped(field, act.right, (i, j, k)))
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


# -- the Leibniz check that decides ------------------------------------------------
#
# On an identity crossed module, validate_xmod returns the top's passing Leibniz
# report; on an algebra acting on itself by its bracket, validate_action returns
# the empty report once the algebra's Leibniz check passes.  A failing check, or
# a boundary other than the identity, falls back to evaluating every identity.


def bumped(field, t, at):
    """The dense tensor t with one added to its entry at = (r, s, u)."""
    return tuple(tuple(tuple(c + field.one if (r, s, u) == at else c for u, c in enumerate(vec))
                       for s, vec in enumerate(row)) for r, row in enumerate(t))


@st.composite
def one_algebras(draw, field):
    """A generated or a SUMMANDS algebra, with zero or one structure constant bumped."""
    a = draw(algebras(field) | st.sampled_from(sorted(SUMMANDS)).map(lambda name: SUMMANDS[name](field)))
    if a.dim and draw(st.booleans()):
        a = LeibnizAlgebra(field, a.dim, bumped(field, a.table, tuple(draw(st.integers(0, a.dim - 1))
                                                                       for _ in range(3))))
    return a


@st.composite
def identity_xmods(draw, field):
    """The identity crossed module of ``one_algebras``, in the standard basis or
    in a seeded integer one, where its layers and views are equal copies."""
    x = CrossedModule.identity_on(draw(one_algebras(field)))
    seed = draw(st.none() | st.integers(0, 2**16))
    return x if seed is None else ref.rebase_xmod(x, random.Random(seed), same_basis=True)


@st.composite
def shared_layer_xmods(draw, field):
    """One algebra on both layers (the base the top or an equal copy), acting
    by its bracket or by a drawn action, with a boundary other than the identity."""
    a = draw(one_algebras(field).filter(lambda a: a.dim))
    base = draw(st.sampled_from((a, LeibnizAlgebra(field, a.dim, a.sparse_table, a.names))))
    act = draw(st.just(ActionData.by_bracket(a)) | actions(field, base, a))
    mu = draw(matrices(field, a.dim, a.dim).filter(lambda m: m != Matrix.identity(field, a.dim)))
    return CrossedModule(a, base, mu, act)


@BY_FIELD
@RANDOM
@given(data=st.data())
def test_identity_xmod_reports_match_reference(field, data):
    x = data.draw(identity_xmods(field))
    assert x.is_identity()
    assert validate_xmod(x) == ref.validate_xmod(x)
    assert validate_action(x.action) == ref.validate_action(x.action)


@BY_FIELD
@RANDOM
@given(data=st.data())
def test_shared_layer_xmod_reports_match_reference(field, data):
    x = data.draw(shared_layer_xmods(field))
    assert not x.is_identity()
    assert validate_xmod(x) == ref.validate_xmod(x)
    assert validate_action(x.action) == ref.validate_action(x.action)


@BY_FIELD
def test_a_bracket_action_off_the_identity_boundary_is_no_crossed_module(field):
    """[e0, e1] = e0 acting on itself by its bracket, with boundary e0 -> e1:
    the algebra is Leibniz and the action passes, but XLb1 and XLb2 fail."""
    a = LeibnizAlgebra.from_brackets(field, 2, {(0, 1): {0: 1}})
    x = CrossedModule(a, a, Matrix.from_rows(field, [[0, 0], [1, 0]]), ActionData.by_bracket(a))
    assert validate_leibniz(a).ok and validate_action(x.action).ok
    got = validate_xmod(x)
    assert not got.ok and got == ref.validate_xmod(x)


@pytest.fixture
def evaluated(monkeypatch):
    """The labels of the identities of each ``_violations`` call, a tuple a call."""
    calls = []

    def counted(field, dims, identities):
        calls.append(tuple(identity[0] for identity in identities))
        return _violations(field, dims, identities)

    for module in ("algebra", "action", "xmod", "xaction"):
        monkeypatch.setattr(import_module(f"lbxmod.{module}"), "_violations", counted)
    return calls


ACT = ("act1", "act2", "act3", "act4", "act5", "act6")
XLB = ("hom", "XLb1-left", "XLb1-right", "XLb2-left", "XLb2-right")


@BY_FIELD
def test_a_valid_identity_xmod_makes_one_leibniz_check(field, evaluated):
    nf4 = CrossedModule.identity_on(nf(field, 4))
    for x in (build_entry("sl2-id", field), nf4, ref.rebase_xmod(nf4, random.Random(0), same_basis=True)):
        del evaluated[:]
        assert validate_xmod(x).ok and evaluated == [("leibniz",)]
        del evaluated[:]
        assert validate_action(x.action).ok and evaluated == [("leibniz",)]


@BY_FIELD
def test_a_bumped_identity_xmod_evaluates_every_identity(field, evaluated):
    x = CrossedModule.identity_on(LeibnizAlgebra(field, 3, bumped(field, build_entry("sl2", field).table, (0, 1, 2))))
    got = validate_xmod(x)
    assert evaluated == [("leibniz",), ACT, XLB]
    assert not got.ok and got == ref.validate_xmod(x)
    del evaluated[:]
    assert validate_action(x.action) == ref.validate_action(x.action)
    assert evaluated == [("leibniz",), ACT]


@BY_FIELD
def test_a_conjugation_action_makes_only_its_component_checks(field, evaluated):
    """sl2-self and the conjugation actions of NF_4's identity crossed module
    and of l2-ann-incl pass on their component checks alone: one Leibniz
    check for an identity crossed module, no mixed identity for any."""
    nf4 = CrossedModule.identity_on(nf(field, 4))
    cases = [(build_entry("sl2-self", field), [("leibniz",)]),
             (XModActionData.conjugation(nf4), [("leibniz",)]),
             (XModActionData.conjugation(build_entry("l2-ann-incl", field)), [("leibniz",), ("leibniz",), ACT, XLB])]
    for d, checks in cases:
        del evaluated[:]
        assert validate_xmod_action(d).ok and evaluated == checks


@BY_FIELD
def test_a_bumped_conjugation_action_evaluates_its_mixed_identities(field, evaluated):
    """A bumped x, or a valid x with one pairing constant bumped, evaluates
    LbEQ, LbCOM and LbM, and reports as the per-witness reference does."""
    x = CrossedModule.identity_on(LeibnizAlgebra(field, 3, bumped(field, build_entry("sl2", field).table, (0, 1, 2))))
    conj = XModActionData.conjugation(build_entry("sl2-id", field))
    for d in (XModActionData.conjugation(x),
              replace(conj, sparse_mq=bumped(field, conj.cross_mq, (0, 1, 2))),
              replace(conj, sparse_qm=bumped(field, conj.cross_qm, (2, 1, 0)))):
        del evaluated[:]
        got = validate_xmod_action(d)
        assert {re.match("Lb[A-Z]+", label)[0] for label in evaluated[-1]} == {"LbEQ", "LbCOM", "LbM"}
        assert not got.ok and got == ref.validate_xmod_action(d)


def test_algebras_differing_only_in_names_share_one_leibniz_check(evaluated):
    """One report per distinct table: basis names are not checked."""
    u, v = LeibnizAlgebra.abelian(QQ, 1, ("u",)), LeibnizAlgebra.abelian(QQ, 1, ("v",))
    assert u != v
    x, y = CrossedModule.identity_on(u), CrossedModule.identity_on(v)
    checks = cli._sequence_checks(ShortExactSequence(x, y, x, identity_morphism(x), identity_morphism(x)))
    assert all(report.ok for _role, report in checks) and evaluated == [("leibniz",)]


# One memo per validation: a CLI check of one input validates each component
# once, found by its value, so the equal but distinct layers a JSON reader
# builds share one Leibniz check as the shared objects of a catalog entry do.
WRITERS = {"sl2-adjoint": action_to_json, "sl2-self": xaction_to_json}
MEMO_CASES = [("validate", "sl2-adjoint"), ("semidirect", "sl2-adjoint"), ("validate", "sl2-self"),
              ("xaction-validate", "sl2-self")]


@pytest.mark.parametrize("source", ["catalog", "file"])
@pytest.mark.parametrize("command, entry", MEMO_CASES, ids=[" ".join(case) for case in MEMO_CASES])
def test_one_cli_input_makes_one_leibniz_check(command, entry, source, evaluated, tmp_path, capsys):
    spec = f"catalog:{entry}"
    if source == "file":
        spec = str(tmp_path / f"{entry}.json")
        Path(spec).write_text(json.dumps(WRITERS[entry](build_entry(entry, QQ))), encoding="utf-8")
    assert cli.main([command, spec]) == 0 and json.loads(capsys.readouterr().out)["ok"]
    assert evaluated.count(("leibniz",)) == 1


NAMED_CASES = ["validate", "xaction-validate", "semidirect-xmod", "xaction-to-morphism"]


@pytest.mark.parametrize("source", ["catalog", "file"])
@pytest.mark.parametrize("command", NAMED_CASES)
def test_one_cli_input_makes_one_leibniz_check_per_table(command, source, evaluated, tmp_path, capsys):
    """mixed-pair-break's u, v and w have one zero table, its p another."""
    spec = "catalog:mixed-pair-break"
    if source == "file":
        spec = str(tmp_path / "mixed-pair-break.json")
        Path(spec).write_text(json.dumps(xaction_to_json(build_entry("mixed-pair-break", QQ))), encoding="utf-8")
    cli.main([command, spec])
    capsys.readouterr()
    assert evaluated.count(("leibniz",)) == 2


def _dense_copy(x: CrossedModule) -> CrossedModule:
    """An equal crossed module that shares no object with x."""
    top = LeibnizAlgebra(x.top.field, x.top.dim, x.top.table, x.top.names)
    return CrossedModule(top, top, Matrix.from_rows(top.field, x.boundary.entries),
                         ActionData(top, top, x.action.left, x.action.right))


def test_a_sequence_check_validates_equal_crossed_modules_once(evaluated):
    x = build_entry("sl2-id", QQ)
    y = _dense_copy(x)
    assert x == y and x.top is not y.top
    checks = cli._sequence_checks(ShortExactSequence(x, y, x, identity_morphism(x), identity_morphism(x)))
    assert [(role, report.ok) for role, report in checks] == [("first:", True), ("middle:", True), ("last:", True)]
    assert evaluated == [("leibniz",)]


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


def zero_into_l2(field, k):
    """The abelian algebra of dimension k mapping by zero into l2, acted on trivially."""
    l2, top = build_entry("l2", field), LeibnizAlgebra.abelian(field, k)
    return CrossedModule(top, l2, Matrix.zeros(field, 2, k), ActionData.zero(l2, top))


@st.composite
def conjugation_actions(draw, field):
    """The conjugation action of ``valid_xmods`` or of ``zero_into_l2``, with
    zero or one constant bumped in x's two tables, action or boundary, or in
    one of the action's two pairings."""
    x = draw(valid_xmods(field) | st.integers(0, 2).map(lambda k: zero_into_l2(field, k)))
    n, q = x.top.dim, x.base.dim
    shapes = {"top": (n, n, n), "base": (q, q, q), "left": (q, n, n), "right": (n, q, n), "boundary": (q, n),
              "mq": (n, q, n), "qm": (q, n, n)}
    where = draw(st.sampled_from(["none"] + [w for w, shape in shapes.items() if all(shape)]))
    at = tuple(draw(st.integers(0, d - 1)) for d in shapes.get(where, ()))
    parts = {"top": x.top.table, "base": x.base.table, "left": x.action.left, "right": x.action.right,
             "boundary": (x.boundary.entries,)}
    if where in parts:
        parts[where] = bumped(field, parts[where], (0,) + at if where == "boundary" else at)
    top, base = (LeibnizAlgebra(field, a.dim, parts[w]) for a, w in ((x.top, "top"), (x.base, "base")))
    act = ActionData(base, top, parts["left"], parts["right"])
    d = XModActionData.conjugation(CrossedModule(top, base, Matrix.from_rows(field, parts["boundary"][0]), act))
    if where in ("mq", "qm"):
        d = replace(d, **{f"sparse_{where}": bumped(field, getattr(d, f"cross_{where}"), at)})
    return where, d


@BY_FIELD
@RANDOM
@given(data=st.data())
def test_conjugation_action_reports_match_reference(field, data):
    where, d = data.draw(conjugation_actions(field))
    got = validate_xmod_action(d)
    assert got == ref.validate_xmod_action(d)
    assert got.ok or where != "none"


@BY_FIELD
@settings(max_examples=8, deadline=None)
@given(data=st.data())
def test_generated_valid_xmods_pass_every_validator(field, data):
    x = data.draw(valid_xmods(field))
    assert validate_leibniz(x.top).ok and validate_leibniz(x.base).ok
    assert validate_action(x.action).ok
    assert validate_xmod(x).ok
    assert validate_morphism(identity_morphism(x)).ok
    assert ref.validate_xmod_action(XModActionData.conjugation(x)).ok  # validate_xmod_action decides it from x's checks
    assert validate_xmod(actor(x)).ok
    assert validate_morphism(canonical_morphism(x)).ok


# -- the canonical map x -> Act(x) ----------------------------------------------------
#
# The paper's canonical morphism, whose kernel is the center, is the morphism
# of x's conjugation action on itself.


def assert_canonical_is_conjugation_morphism(x: CrossedModule) -> None:
    got, can = morphism_from_action(XModActionData.conjugation(x)), canonical_morphism(x)
    assert got.relaxed_failures == ()
    assert (got.morphism.top_map, got.morphism.base_map) == (can.top_map, can.base_map)


@BY_FIELD
@settings(max_examples=8, deadline=None)
@given(data=st.data())
def test_generated_canonical_morphisms_are_conjugation_morphisms(field, data):
    assert_canonical_is_conjugation_morphism(data.draw(valid_xmods(field)))


@BY_FIELD
@pytest.mark.parametrize("cid", XMOD_IDS)
def test_catalog_canonical_morphisms_are_conjugation_morphisms(field, cid):
    assert_canonical_is_conjugation_morphism(build_entry(cid, field))
