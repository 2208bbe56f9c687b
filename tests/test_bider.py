"""Solved map spaces, the actor construction, and sequence lifting.

Expected bases below were worked out by hand from the defining identities
and double-checked against the mod-2 enumerations in test_acceptance.
"""
import random
from fractions import Fraction
from unittest import mock

import pytest
import reference_stages as ref
from conftest import (
    FIELDS,
    XMOD_IDS,
    _basis,
    difference,
    flat,
    pair_composites_land_in_layer_spaces,
    pair_pair_composites_agree_under_brackets,
    quad_pair_and_quad_quad_composites_agree,
)
from hypothesis import given, settings
from hypothesis import strategies as st
from strategies import null_filiform, quadruple_inputs, sl2

from lbxmod import GF3, QQ, bider
from lbxmod.action import ActionData
from lbxmod.algebra import LeibnizAlgebra, annihilator, commutator, validate_leibniz
from lbxmod.bider import (
    ShortExactSequence,
    actor,
    bider_algebra,
    bider_qn,
    bider_xmod,
    canonical_morphism,
    delta,
    inner_xmod,
    lift_sequence,
    outer_xmod,
    sequence_problems,
)
from lbxmod.catalog import build_entry
from lbxmod import linalg
from lbxmod.linalg import Matrix, Subspace, _dense, column_space
from lbxmod.xmod import (
    CrossedModule,
    _condition_warnings,
    quotient_xmod,
    validate_morphism,
    validate_xmod,
)


def flats(space):
    return [tuple(v) for v in space.space.basis.entries]


def inner_coords(a, i):
    """The coordinates of the inner biderivation of e_i in the pair space of
    a: column i of the canonical morphism of the identity on a."""
    return ref.column(canonical_morphism(CrossedModule.identity_on(a)).top_map, i)


def q(*vals):
    return tuple(Fraction(v) for v in vals)


def test_pair_space_of_l2():
    space = bider_algebra(build_entry("l2", QQ))
    assert space.dim == 3
    assert flats(space) == [
        q(1, 0, 0, 2, 1, 0, 0, 0),
        q(0, 0, 1, 0, 0, 0, 0, 0),
        q(0, 0, 0, 0, 0, 0, 1, 0),
    ]
    tab = space.algebra.table
    nz = {
        (i, j): tuple(tab[i][j])
        for i in range(3)
        for j in range(3)
        if any(c for c in tab[i][j])
    }
    assert nz == {
        (0, 1): q(0, 1, -1),
        (1, 0): q(0, -1, 0),
        (2, 0): q(0, 0, -1),
    }
    assert validate_leibniz(space.algebra).ok


def test_pair_space_of_r2_is_antisymmetric_and_inner():
    a = build_entry("r2", QQ)
    space = bider_algebra(a)
    assert space.dim == 2
    assert flats(space) == [q(0, 0, 1, 0, 0, 0, 1, 0), q(0, 0, 0, 1, 0, 0, 0, 1)]
    tab = space.algebra.table
    assert tuple(tab[0][1]) == q(-1, 0)
    assert tuple(tab[1][0]) == q(1, 0)
    assert all(not c for c in tab[0][0]) and all(not c for c in tab[1][1])
    # the two halves of every member coincide, and every member is inner
    for d, dd in _basis(space):
        assert d == dd
    assert inner_coords(a, 0) == q(0, 1)
    assert inner_coords(a, 1) == q(-1, 0)


def test_pair_space_of_sl2_is_all_inner():
    a = build_entry("sl2", QQ)
    space = bider_algebra(a)
    assert space.dim == 3
    m = Matrix.from_columns(QQ, [inner_coords(a, i) for i in range(3)], 3)
    from lbxmod.linalg import rref

    assert rref(m).rank == 3  # inner pairs already fill the space


def test_abelian_pair_space_has_no_constraints():
    assert bider_algebra(build_entry("a2", QQ)).dim == 8


@pytest.mark.parametrize("memo", [bider_qn, bider_xmod, actor, canonical_morphism])
def test_an_equal_crossed_module_hits_the_memo(memo):
    x = build_entry("l2-ann-incl", QQ)
    rebuilt = build_entry("l2-ann-incl", QQ)
    copy = CrossedModule(x.top, x.base, x.boundary, x.action)
    first = memo(x)
    for y in (rebuilt, copy):
        assert y is not x and y == x
        assert hash(y) == hash(x) == hash((y.top, y.base, y.boundary, y.action))
        hits = memo.cache_info().hits
        assert memo(y) is first
        assert memo.cache_info().hits == hits + 1


def test_action_pair_space_of_the_inclusion_fixture():
    x = build_entry("l2-ann-incl", QQ)
    space = bider_qn(x)
    assert space.dim == 2
    assert flats(space) == [q(1, 0, 0, 0), q(0, 0, 1, 0)]
    assert all(
        not c for row in space.algebra.table for cell in row for c in cell
    )  # abelian


def test_quadruple_space_of_the_inclusion_fixture():
    x = build_entry("l2-ann-incl", QQ)
    space = bider_xmod(x)
    assert space.dim == 3
    assert flats(space) == [
        q(1, 0, Fraction(1, 2), 0, 0, 1, Fraction(1, 2), 0, 0, 0),
        q(0, 0, 0, 0, 1, 0, 0, 0, 0, 0),
        q(0, 0, 0, 0, 0, 0, 0, 0, 1, 0),
    ]


def test_delta_of_the_inclusion_fixture():
    m = delta(build_entry("l2-ann-incl", QQ))
    assert m.rows == 3 and m.cols == 2
    assert [list(r) for r in m.entries] == [[0, 0], [1, 0], [0, 1]]


ACTOR_DIMS = {
    "zero-into-l2": (0, 3),
    "l2-id": (3, 3),
    "l2-ann-incl": (2, 3),
    "r2-id": (2, 2),
    "sl2-id": (3, 3),
}


@pytest.mark.parametrize("cid", sorted(ACTOR_DIMS))
def test_actor_shapes_and_validity(cid):
    x = build_entry(cid, QQ)
    a = actor(x)
    assert (a.top.dim, a.base.dim) == ACTOR_DIMS[cid]
    assert validate_xmod(a).ok
    assert validate_morphism(canonical_morphism(x)).ok


INNER_OUTER_DIMS = {
    "zero-into-l2": ((0, 1), (0, 2)),
    "l2-id": ((1, 1), (2, 2)),
    "l2-ann-incl": ((0, 1), (2, 2)),
    "r2-id": ((2, 2), (0, 0)),
    "sl2-id": ((3, 3), (0, 0)),
}


@pytest.mark.parametrize("cid", sorted(INNER_OUTER_DIMS))
def test_inner_and_outer_parts(cid):
    x = build_entry(cid, QQ)
    inn = inner_xmod(x)
    out = outer_xmod(x)
    expected_inner, expected_outer = INNER_OUTER_DIMS[cid]
    assert (inn.top_space.dim, inn.base_space.dim) == expected_inner
    assert (out.xmod.top.dim, out.xmod.base.dim) == expected_outer
    assert validate_xmod(out.xmod).ok
    assert validate_morphism(out.projection()).ok


def test_inner_members_solve_the_defining_systems():
    x = build_entry("sl2-id", QQ)
    pairs, quads = bider_qn(x), bider_xmod(x)
    for i in range(x.top.dim):
        u = tuple(QQ.one if j == i else QQ.zero for j in range(x.top.dim))
        assert not pairs.space.residue(flat(ref.inner_action_pair(x, u)))
        assert not quads.space.residue(flat(ref.inner_quadruple(x, u)))


@pytest.mark.parametrize("cid", XMOD_IDS)
def test_composites_of_pairs_land_where_they_should(cid):
    x = build_entry(cid, QQ)
    assert pair_composites_land_in_layer_spaces(x)
    assert pair_pair_composites_agree_under_brackets(x)


@pytest.mark.parametrize("cid", XMOD_IDS)
def test_the_twelve_composite_identities(cid):
    assert quad_pair_and_quad_quad_composites_agree(build_entry(cid, QQ))


small = st.integers(min_value=-3, max_value=3)


@given(st.lists(small, min_size=3, max_size=3), st.lists(small, min_size=3, max_size=3))
def test_pair_brackets_follow_the_solved_table(cu, cv):
    space = bider_algebra(build_entry("l2", QQ))
    d1, dd1 = ref.member_maps(space, [Fraction(c) for c in cu])
    d2, dd2 = ref.member_maps(space, [Fraction(c) for c in cv])
    w = difference((d1 @ d2, d2 @ d1), (dd1 @ d2, d2 @ dd1))
    coords = _dense(QQ, space.dim, space.space.read_coords(w, "bracket left the space"))
    # bilinear expansion of the structure table gives the same coordinates
    tab = space.algebra.table
    expect = [QQ.zero] * 3
    for i, a in enumerate(u_coords := [Fraction(c) for c in cu]):
        for j, b in enumerate([Fraction(c) for c in cv]):
            for k in range(3):
                expect[k] += a * b * tab[i][j][k]
    assert list(coords) == expect


def test_lift_along_the_direct_sum_sequence():
    s = build_entry("sl2-seq", QQ)
    assert sequence_problems(s) == []
    lifted = lift_sequence(s)
    assert validate_morphism(lifted.morphism).ok
    assert lifted.morphism.source == s.middle
    assert lifted.morphism.target == actor(s.first)
    assert lifted.warnings == ()
    # sl2 is complete: the outer part is trivial, so the induced maps are
    # the zero maps out of the quotient's one-dimensional layers
    assert (lifted.induced_top.rows, lifted.induced_top.cols) == (0, 1)
    assert (lifted.induced_base.rows, lifted.induced_base.cols) == (0, 1)


def _eliminations(monkeypatch, run) -> int:
    """How many times ``run`` enters the one elimination kernel."""
    count, kernel = [0], linalg._sparse_rref

    def counted(*args):
        count[0] += 1
        return kernel(*args)

    with monkeypatch.context() as m:
        m.setattr(linalg, "_sparse_rref", counted)
        run()
    return count[0]


def test_lift_sequence_eliminates_each_map_once(monkeypatch):
    """Pulling values back through the two inclusions and the two
    projections costs no elimination of its own, however many values there
    are: it reuses the solvers the exactness check built, one per map.  All
    a warm lift eliminates is the check, the outer part and what decides
    the support conditions' warning."""
    s = build_entry("sl2-seq", QQ)
    lift_sequence(s)  # fills the memos of the actor and its spaces
    total = _eliminations(monkeypatch, lambda: lift_sequence(s))
    x = s.first
    rest = _eliminations(monkeypatch, lambda: (sequence_problems(s), outer_xmod(x), _condition_warnings(x)))
    assert total == rest


def test_sequence_problems_flags_a_broken_projection():
    s = build_entry("sl2-seq", QQ)
    broken = ShortExactSequence(
        s.first,
        s.middle,
        s.last,
        s.include,
        type(s.project)(
            s.middle,
            s.last,
            Matrix.zeros(QQ, 1, 4),
            Matrix.zeros(QQ, 1, 4),
        ),
    )
    problems = sequence_problems(broken)
    assert any("surjective" in p for p in problems)


def test_sequence_problems_eliminates_each_map_once(monkeypatch):
    """Exactness is read off the two ranks and one product, so the check
    eliminates each of the four maps once; a warm lift adds the outer part
    and the support conditions' warning, and pulls back through the check's
    solvers.  The first crossed module is the identity on sl2, whose
    annihilator is zero, so the warning solves that annihilator alone: con1
    holds on one algebra on both layers."""
    s = build_entry("sl2-seq", QQ)
    lift_sequence(s)  # fills the memos of the actor and its spaces
    assert _eliminations(monkeypatch, lambda: sequence_problems(s)) == 4
    assert _eliminations(monkeypatch, lambda: lift_sequence(s)) == 7


def test_a_nonzero_composite_is_not_exact_though_the_ranks_add_up():
    """The projection (x0 + x3) is onto and its rank and the inclusion's add
    up to the middle dimension, but it does not vanish on the image of the
    inclusion, so neither layer is exact in the middle."""
    s = build_entry("sl2-seq", QQ)
    skew = Matrix(QQ, 1, 4, ({0: 1}, {}, {}, {0: 1}))
    broken = ShortExactSequence(s.first, s.middle, s.last, s.include, type(s.project)(s.middle, s.last, skew, skew))
    problems = sequence_problems(broken)
    assert [p for p in problems if "exact" in p or "jective" in p] == [
        "top layer is not exact in the middle", "base layer is not exact in the middle"]
    assert problems == ref.sequence_problems(broken)


def _equals_one_system(x):
    solved, one = bider_xmod(x), ref.one_system_bider_xmod(x)
    assert solved.space.scaled_rows == one.space.scaled_rows
    assert solved.space.pivots == one.space.pivots
    assert solved.algebra.sparse_table == one.algebra.sparse_table
    assert solved.sparse_basis == one.sparse_basis


@given(st.sampled_from(FIELDS), st.data())
@settings(max_examples=200, deadline=None)
def test_quadruples_equal_the_one_system(field, data):
    """The quadruples are the one system's solutions, to the echelon row and
    the bracket table, whether read off the pair space (identity) or solved
    in one kernel (one algebra or two), and in seeded bases too;
    on the crossed modules among them, so is the actor, its action tables
    included, the general construction's."""
    x = data.draw(quadruple_inputs(field))
    seed = data.draw(st.none() | st.integers(0, 2**16))
    x = x if seed is None else ref.rebase_xmod(x, random.Random(seed))
    _equals_one_system(x)
    if validate_xmod(x).ok:
        assert actor(x) == ref.general_actor(x)


def test_quadruples_of_one_algebra_by_its_bracket_off_the_identity_boundary(field):
    """[e0, e1] = e0 acting on itself by its bracket, with boundary e0 -> e1,
    is no crossed module: its pair space's table does not close, so the
    quadruples may not start from it, though its action is the bracket.
    It is no identity crossed module, and its quadruples are one kernel."""
    a = LeibnizAlgebra.from_brackets(field, 2, {(0, 1): {0: 1}})
    x = CrossedModule(a, a, Matrix.from_rows(field, [[0, 0], [1, 0]]), ActionData.by_bracket(a))
    assert not validate_xmod(x).ok
    with pytest.raises(linalg.LinearSolveError):
        bider_qn(x)
    assert not x.is_identity() and _quadruple_kernels(x) == 1
    _equals_one_system(x)


@pytest.mark.parametrize("seed", range(5))
def test_quadruples_in_seeded_bases_of_sl2_and_nf3(field, seed):
    """In these bases the echelon rows have pivot entries other than 1, and
    over Q the kernel's generators have rational entries to clear."""
    for a in (null_filiform(field, 3), sl2(field)):
        for x in (CrossedModule.identity_on(a), CrossedModule.inclusion_of_ideal(a, commutator(a))):
            _equals_one_system(ref.rebase_xmod(x, random.Random(seed)))


# -- the identity crossed module: quadruples and actor read off the pair space --


@given(st.sampled_from(FIELDS), st.data())
@settings(max_examples=100, deadline=None)
def test_identity_quadruples_and_actor_equal_the_general_construction(field, data):
    """On an identity crossed module, in the standard basis or rebased by
    one change of basis of both layers (which keeps it an identity), the
    quadruples read off the pair space are the one system's, the actor
    built as the identity on Bider(x) is the general construction's, and
    delta is the identity."""
    x = data.draw(quadruple_inputs(field, kinds=("identity",)))
    seed = data.draw(st.none() | st.integers(0, 2**16))
    if seed is not None:
        x = ref.rebase_xmod(x, random.Random(seed), same_basis=True)
    assert x.is_identity()
    _equals_one_system(x)
    assert actor(x) == ref.general_actor(x)
    assert delta(x) == Matrix.identity(field, bider_qn(x).dim)


# -- the actor off the identity: equal to the general construction --


def _one_algebra_xmods(field):
    """A_2 on both layers, acting on itself by [e0, f0] = e1 alone, with a
    zero boundary, or by [f0, e0] = -e1 and [e0, f0] = e1, with boundary
    e0 -> f1 onto the part of the base that acts trivially."""
    a = LeibnizAlgebra.abelian(field, 2)
    right_only = ActionData(a, a, (({}, {}), ({}, {})), (({1: 1}, {}), ({}, {})))
    lie = ActionData(a, a, (({1: -1}, {}), ({}, {})), (({1: 1}, {}), ({}, {})))
    return [CrossedModule(a, a, Matrix.zeros(field, 2, 2), right_only),
            CrossedModule(a, a, Matrix.from_rows(field, [[0, 0], [1, 0]]), lie)]


def _off_the_identity(field):
    """Ideal inclusions, one-algebra crossed modules, identities and catalog
    entries rebased by two changes of basis, and the catalog entries."""
    algebras = (null_filiform(field, 3), null_filiform(field, 4), sl2(field))
    out = [CrossedModule.inclusion_of_ideal(a, ideal(a)) for a in algebras for ideal in (commutator, annihilator)]
    out += _one_algebra_xmods(field)
    out += [ref.rebase_xmod(CrossedModule.identity_on(a), random.Random(seed)) for a in algebras for seed in (3, 11)]
    out += [ref.rebase_xmod(build_entry(cid, field), random.Random(seed)) for cid in XMOD_IDS for seed in (3, 11)]
    return out + [build_entry(cid, field) for cid in XMOD_IDS]


def test_the_actor_off_the_identity_equals_the_general_construction(field):
    """The action tables, read as pair brackets, and the quadruples, whose
    action rows are pair rows on top x| base, equal the hand-written
    products and the one-system solve, on crossed modules of every kind."""
    for x in _off_the_identity(field):
        assert validate_xmod(x).ok
        assert actor(x) == ref.general_actor(x)


def _calls(monkeypatch, fn):
    """The sparse_kernel calls and MapSpace.products calls of fn(), in order."""
    calls = []
    kernel, products = bider.sparse_kernel, bider.MapSpace.products

    def counted_kernel(*args):
        calls.append("sparse_kernel")
        return kernel(*args)

    def counted_products(self, components):
        calls.append("products")
        return products(self, components)

    with monkeypatch.context() as m:
        m.setattr(bider, "sparse_kernel", counted_kernel)
        m.setattr(bider.MapSpace, "products", counted_products)
        fn()
    return calls


def _clear_memos():
    for memo in (bider_qn, bider_xmod, actor, canonical_morphism):
        memo.cache_clear()


@pytest.mark.parametrize("make", [lambda f: null_filiform(f, 4), sl2], ids=["nf4", "sl2"])
def test_a_cold_identity_actor_solves_and_multiplies_only_for_its_pair_space(field, make, monkeypatch):
    """A cold actor of an identity crossed module makes exactly the kernel
    and product calls of its pair space, and none once that is solved."""
    x = CrossedModule.identity_on(make(field))
    _clear_memos()
    pair_calls = _calls(monkeypatch, lambda: bider_qn(x))
    assert pair_calls.count("sparse_kernel") == 1
    _clear_memos()
    assert _calls(monkeypatch, lambda: actor(x)) == pair_calls
    _clear_memos()
    bider_qn(x)
    assert _calls(monkeypatch, lambda: (actor(x), bider_xmod(x))) == []
    assert actor(x).top is actor(x).base is bider_qn(x).algebra is bider_xmod(x).algebra


def _quadruple_system(x):
    """The row lists a cold bider_xmod(x) hands its kernels, and the number
    of semidirect tables it builds."""
    systems, tables = [], []
    kernel, semidirect = bider.sparse_kernel, bider._semidirect_table

    def kept_kernel(field, ncols, system):
        systems.append(system)
        return kernel(field, ncols, system)

    def counted_semidirect(act):
        tables.append(act)
        return semidirect(act)

    _clear_memos()
    with mock.patch.object(bider, "sparse_kernel", kept_kernel), \
            mock.patch.object(bider, "_semidirect_table", counted_semidirect):
        bider_xmod(x)
    return systems, len(tables)


def _quadruple_kernels(x) -> int:
    """The sparse_kernel calls of a cold bider_xmod(x): one off the identity."""
    return len(_quadruple_system(x)[0])


def _onto_the_quotient_by_the_annihilator(a):
    """a mapped onto a / ann(a), acting through the bracket of a: a crossed
    module whose boundary is not injective when ann(a) is not zero."""
    return quotient_xmod(CrossedModule.identity_on(a), Subspace.zero(a.field, a.dim), annihilator(a)).xmod


def _pulled_back_and_not(field):
    """Ideal inclusions, whose boundary pulls back, and a zero boundary and
    NF_4 onto NF_4 / ann, whose boundaries are not injective."""
    nf4 = null_filiform(field, 4)
    a = LeibnizAlgebra.abelian(field, 2)
    zero = CrossedModule(a, a, Matrix.zeros(field, 2, 2), ActionData.by_bracket(a))
    return ([build_entry("l2-ann-incl", field), CrossedModule.inclusion_of_ideal(nf4, commutator(nf4))],
            [zero, _onto_the_quotient_by_the_annihilator(nf4)])


@pytest.mark.parametrize("field", [QQ, GF3], ids=["q", "f3"])
def test_ideal_inclusions_solve_their_quadruples_in_one_kernel(field):
    """Whether the boundary pulls back (ideal inclusions) or not (a zero
    boundary, NF_4 onto NF_4 / ann), the quadruples are one kernel."""
    pulled, not_pulled = _pulled_back_and_not(field)
    for x in pulled + not_pulled:
        assert validate_xmod(x).ok and not x.is_identity()
        assert _quadruple_kernels(x) == 1
        _equals_one_system(x)


@pytest.mark.parametrize("field", [QQ, GF3], ids=["q", "f3"])
def test_a_pulled_back_boundary_solves_the_base_pair_rows_and_the_boundary_rows(field):
    """Where the boundary pulls back, the kernel gets the base's own pair
    rows, then the boundary rows of (s1, s2) and of (t1, t2); they are read
    off the base block of the one semidirect table top x| base, which every
    solve off the identity builds once."""
    pulled, not_pulled = _pulled_back_and_not(field)
    for x in pulled:
        nd, qd = x.top.dim, x.base.dim
        s1, t1, s2, t2 = map(bider._columns, bider._layout(((nd, nd), (nd, nd), (qd, qd), (qd, qd))))
        bt = x.base.sparse_table
        expected = (bider._pair_rows(bt, bt, bt, s2, t2, range(qd)) + bider._boundary_rows(x.boundary, s1, s2)
                    + bider._boundary_rows(x.boundary, t1, t2))
        assert _quadruple_system(x) == ([expected], 1)
    for x in not_pulled:
        assert _quadruple_system(x)[1] == 1


def _pair_row_arguments(x):
    """The ``_pair_rows`` arguments of each system the solvers build on x:
    the pairs base -> top through the action, and the pair rows of top x| base
    at the index pairs of its base block and at all of them."""
    nd, qd = x.top.dim, x.base.dim
    act, bt, sd = x.action, x.base.sparse_table, bider._semidirect_table(x.action)
    d, dd = map(bider._columns, bider._layout(((nd, qd),) * 2))
    maps = bider._layout(((nd, nd), (nd, nd), (qd, qd), (qd, qd)))
    s1, t1 = map(bider._columns, maps[:2])
    quad = (sd, sd, sd, s1 + bider._columns(maps[2], nd), t1 + bider._columns(maps[3], nd))
    return [(bt, act.sparse_left, act.sparse_right, d, dd, range(qd)), quad + (range(nd, nd + qd),),
            quad + (range(nd + qd),)]


def _drawn_basis(x, data):
    """x in the standard basis, or rebased by one seeded change of basis of
    both layers (when they have one dimension) or by one for each."""
    basis = data.draw(st.sampled_from(("standard", "one", "two")))
    if basis == "standard":
        return x
    same = basis == "one" and x.top.dim == x.base.dim
    return ref.rebase_xmod(x, random.Random(data.draw(st.integers(0, 2**16))), same_basis=same)


@given(st.sampled_from(FIELDS), st.data())
@settings(max_examples=100, deadline=None)
def test_pair_rows_equal_the_block_that_built_each_list_once(field, data):
    """On generated crossed modules, in the standard basis or a seeded one,
    the rows of ``_pair_rows`` are those of the block that built each
    [dd(x), y] once, in the same order, each with its entries in the same
    order."""
    x = _drawn_basis(data.draw(quadruple_inputs(field)), data)
    for args in _pair_row_arguments(x):
        rows, expected = bider._pair_rows(*args), ref.pair_rows_built_once(*args)
        assert [list(row.items()) for row in rows] == [list(row.items()) for row in expected]


@given(st.sampled_from(FIELDS), st.data())
@settings(max_examples=100, deadline=None)
def test_the_quadruple_rows_equal_the_two_table_rows(field, data):
    """On generated crossed modules, valid or not, in the standard basis or
    rebased by one change of basis or two, the one row list ``bider_xmod``
    hands ``sparse_kernel`` off the identity, read from the one table of
    top x| base, is the one the base's own table gave where the boundary
    pulls back, in the same order and with its entries in the same order;
    an identity builds no table and solves its pair space alone."""
    x = _drawn_basis(data.draw(quadruple_inputs(field)), data)
    systems, tables = _quadruple_system(x)
    if x.is_identity():
        assert tables == 0 and len(systems) == 1
        return
    assert tables == 1 and len(systems) == 1
    expected = ref.two_table_quadruple_rows(x)
    assert [list(row.items()) for row in systems[0]] == [list(row.items()) for row in expected]


@given(st.sampled_from(FIELDS), st.data())
@settings(max_examples=400, deadline=None)
def test_the_pull_back_gate_agrees_with_the_validator(field, data):
    """``_pulls_back`` holds exactly when mu is injective and the validator
    finds no ``hom``, ``XLb1-left`` or ``XLb1-right`` violation, on
    generated crossed modules, valid or not, standard or rebased."""
    x = _drawn_basis(data.draw(quadruple_inputs(field)), data)
    found = set(validate_xmod(x).labels()) & {"hom", "XLb1-left", "XLb1-right"}
    expected = column_space(x.boundary).dim == x.top.dim and not found
    assert bider._pulls_back(x, bider._semidirect_table(x.action)) == expected
    assert expected == ref.pulls_back_by_identities(x)


@pytest.mark.parametrize("field", [QQ, GF3], ids=["q", "f3"])
@pytest.mark.parametrize("seed", range(5))
def test_two_basis_rebases_of_an_identity_or_a_quotient_solve_one_kernel(field, seed):
    """Rebased by two changes of basis that differ, the identity on NF_3 or
    sl2 is no identity crossed module, but its boundary is invertible; NF_3
    onto NF_3 / ann, rebased the same way, has a boundary that is not
    injective.  The quadruples of each are one kernel.  (Over F2 the signs
    vanish, and the two changes of basis can coincide.)"""
    for a in (null_filiform(field, 3), sl2(field)):
        x = ref.rebase_xmod(CrossedModule.identity_on(a), random.Random(seed))
        assert x.top != x.base and not x.is_identity()
        assert _quadruple_kernels(x) == 1
        _equals_one_system(x)
    x = ref.rebase_xmod(_onto_the_quotient_by_the_annihilator(null_filiform(field, 3)), random.Random(seed))
    assert _quadruple_kernels(x) == 1
    _equals_one_system(x)


def _invertible_but_not_pulled_back(field, broken):
    """mu = id on one-dimensional layers, top [e0, e0] = e0 over an abelian
    base acting by zero (breaking hom), or A_1 on both layers acting by
    [f0, e0] = e0 (breaking XLb1-left) or [e0, f0] = e0 (XLb1-right)."""
    base = LeibnizAlgebra.abelian(field, 1)
    if broken == "hom":
        top = LeibnizAlgebra.from_brackets(field, 1, {(0, 0): {0: 1}})
        return CrossedModule(top, base, Matrix.identity(field, 1), ActionData.zero(base, top))
    left, right = (({0: 1},),), (({},),)
    act = ActionData(base, base, left, right) if broken == "XLb1-left" else ActionData(base, base, right, left)
    return CrossedModule(base, base, Matrix.identity(field, 1), act)


@pytest.mark.parametrize("field", [QQ, GF3], ids=["q", "f3"])
@pytest.mark.parametrize("broken", ["hom", "XLb1-left", "XLb1-right"])
def test_an_invertible_boundary_that_breaks_hom_or_xlb1_is_not_pulled_back(field, broken):
    """The boundary is invertible but no homomorphism, or not equivariant on
    one side: the base pair rows with the boundary rows would leave a
    2-dimensional space where the quadruples are 0-dimensional, so the one
    kernel takes the pair rows of top x| base."""
    x = _invertible_but_not_pulled_back(field, broken)
    assert broken in validate_xmod(x).labels() and not x.is_identity()
    assert _quadruple_kernels(x) == 1
    assert _quadruple_system(x)[1] == 1
    assert bider_xmod(x).dim == 0
    _equals_one_system(x)


@given(st.sampled_from(FIELDS), st.data())
@settings(max_examples=60, deadline=None)
def test_the_actor_of_a_rebased_ideal_inclusion_equals_the_general_construction(field, data):
    """Ideal inclusions in seeded bases of both layers, solved in one
    kernel, give the general construction's actor, action tables included."""
    x = ref.rebase_xmod(data.draw(quadruple_inputs(field, kinds=("ideal",))),
                        random.Random(data.draw(st.integers(0, 2**16))))
    assert actor(x) == ref.general_actor(x)
