"""The bracket tables of the solved spaces, the actor's action and its
boundary are read off sparse products of the sparse basis members.  Here
every one of them is recomputed densely, from the dense basis maps
(``conftest._basis``), ``Matrix`` ``@`` and row-major differences, read in
the basis by ``Subspace.read_coords``, and compared exactly.
"""
import pytest
from conftest import FIELDS, XMOD_IDS, _basis, difference, flat

from lbxmod.algebra import LeibnizAlgebra
from lbxmod.bider import actor, bider_qn, bider_xmod, delta
from lbxmod.catalog import build_entry
from lbxmod.linalg import LinearSolveError, Matrix, Subspace, _dense
from lbxmod.xmod import CrossedModule


def nf(field, n):
    """The null-filiform Leibniz algebra NF_n: [e_i, e_1] = e_{i+1}."""
    return LeibnizAlgebra.from_brackets(field, n, {(i, 0): {i + 1: 1} for i in range(n - 1)})


def coordinate_ideal(field, n, first):
    """span(e_first, ..., e_n) (0-based first), an ideal of NF_n for first >= 1."""
    return Subspace.from_rows(field, n, [[field.one if j == i else field.zero for j in range(n)]
                                         for i in range(first, n)])


def _family(field):
    out = {cid: build_entry(cid, field) for cid in XMOD_IDS}
    for n in (2, 3, 4):
        a = nf(field, n)
        out[f"nf{n}-id"] = CrossedModule.identity_on(a)
        for first in range(1, n):
            out[f"nf{n}-ideal{first}"] = CrossedModule.inclusion_of_ideal(a, coordinate_ideal(field, n, first))
    sl2 = build_entry("sl2", field)
    out["sl2-identity"] = CrossedModule.identity_on(sl2)
    out["sl2-comm-incl"] = CrossedModule.inclusion_of_ideal(sl2, Subspace.full(field, 3))
    return out


CASES = [(f, cid, x) for f in FIELDS for cid, x in _family(f).items()]


def _coords(space, vec):
    """The dense coordinates of a flat sparse vector in the space's basis."""
    return _dense(space.field, space.dim, space.space.read_coords(vec, "left the space"))


@pytest.fixture(params=CASES, ids=[f"{f.tag}-{cid}" for f, cid, _x in CASES])
def xmod(request):
    return request.param[2]


def test_pair_bracket_table_matches_dense_products(xmod):
    pairs = bider_qn(xmod)
    mu = xmod.boundary
    basis = _basis(pairs)
    expect = tuple(tuple(_coords(pairs, difference((d1 @ (mu @ d2), d2 @ (mu @ d1)),
                                                   (dd1 @ (mu @ d2), d2 @ (mu @ dd1))))
                         for d2, _dd2 in basis)
                   for d1, dd1 in basis)
    assert pairs.algebra.table == expect


def test_quadruple_bracket_table_matches_dense_products(xmod):
    quads = bider_xmod(xmod)
    basis = _basis(quads)
    expect = tuple(tuple(_coords(quads, difference((s1 @ s1p, s1p @ s1), (t1 @ s1p, s1p @ t1),
                                                   (s2 @ s2p, s2p @ s2), (t2 @ s2p, s2p @ t2)))
                         for s1p, _t1p, s2p, _t2p in basis)
                   for s1, t1, s2, t2 in basis)
    assert quads.algebra.table == expect


def test_actor_action_matches_dense_products(xmod):
    pairs, quads = bider_qn(xmod), bider_xmod(xmod)
    pair_basis, quad_basis = _basis(pairs), _basis(quads)
    act = actor(xmod).action
    # [quadruple, pair] = (s1 d - d s2, t1 d - d t2); [pair, quadruple] = (d s2 - s1 d, dd s2 - s1 dd)
    assert act.left == tuple(tuple(_coords(pairs, difference((s1 @ d, d @ s2), (t1 @ d, d @ t2)))
                                   for d, _dd in pair_basis)
                             for s1, t1, s2, t2 in quad_basis)
    assert act.right == tuple(tuple(_coords(pairs, difference((d @ s2, s1 @ d), (dd @ s2, s1 @ dd)))
                                    for s1, _t1, s2, _t2 in quad_basis)
                              for d, dd in pair_basis)


def test_delta_matches_dense_products(xmod):
    pairs, quads = bider_qn(xmod), bider_xmod(xmod)
    mu = xmod.boundary
    cols = [_coords(quads, flat((d @ mu, dd @ mu, mu @ d, mu @ dd))) for d, dd in _basis(pairs)]
    assert delta(xmod) == Matrix.from_columns(xmod.top.field, cols, quads.dim)


@pytest.mark.parametrize("field", FIELDS, ids=[f.tag for f in FIELDS])
def test_a_product_outside_the_space_is_refused(field):
    """A basis member with one entry off a pivot is not in the space: the
    coordinate reader refuses it, whether it comes from products or from
    dense maps."""
    pairs = bider_qn(build_entry("sl2-id", field))
    (d, den), dd = pairs.sparse_basis[0]
    rows, cols = pairs.shapes[0]
    # an entry of d that is zero and not a pivot: a member is fixed by its pivot entries
    u = next(u for u in range(rows * cols) if u not in pairs.space.pivots and u not in pairs.space.scaled_rows[0][0])
    i, j = divmod(u, cols)
    bumped = {r: dict(v) for r, v in d.items()}
    bumped.setdefault(i, {})[j] = 1
    ident = ({k: {k: 1} for k in range(rows)}, 1)
    with pytest.raises(LinearSolveError, match="left the space"):
        pairs.read_products([[(1, ident, (bumped, den))], [(1, ident, dd)]], "left the space")
    d_mat, dd_mat = _basis(pairs)[0]
    entries = [list(r) for r in d_mat.entries]
    entries[i][j] = field.one
    bumped_mats = (Matrix(field, rows, cols, tuple(map(tuple, entries))), dd_mat)
    with pytest.raises(LinearSolveError, match="not a member"):
        pairs.space.read_coords(flat(bumped_mats), "not a member")
    assert pairs.space.residue(flat(bumped_mats))
    coords = pairs.read_products([[(1, ident, (d, den))], [(1, ident, dd)]], "")
    assert _dense(field, pairs.dim, coords) == _coords(pairs, flat((d_mat, dd_mat)))
