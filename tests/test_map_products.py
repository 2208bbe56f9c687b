"""The bracket tables of the solved spaces, the actor's action and its
boundary are read off sparse products of the sparse basis members.  Here
every one of them is recomputed densely, with ``basis_maps``, ``Matrix``
``@``/``-`` and the dense ``Subspace.coords_of``, and compared exactly.
"""
import pytest
from conftest import FIELDS, XMOD_IDS

from lbxmod.algebra import LeibnizAlgebra
from lbxmod.bider import (
    actor,
    bider_qn,
    bider_xmod,
    delta,
    pair_quad_bracket_left,
    pair_quad_bracket_right,
)
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


def _flat(mats):
    return tuple(x for m in mats for row in m.entries for x in row)


def _coords(space, mats):
    coords = space.space.coords_of(_flat(mats))
    assert coords is not None
    return coords


@pytest.fixture(params=CASES, ids=[f"{f.tag}-{cid}" for f, cid, _x in CASES])
def xmod(request):
    return request.param[2]


def test_pair_bracket_table_matches_dense_products(xmod):
    pairs = bider_qn(xmod)
    mu = xmod.boundary
    basis = [pairs.basis_maps(t) for t in range(pairs.dim)]
    expect = tuple(tuple(_coords(pairs, (d1 @ (mu @ d2) - d2 @ (mu @ d1), dd1 @ (mu @ d2) - d2 @ (mu @ dd1)))
                         for d2, _dd2 in basis)
                   for d1, dd1 in basis)
    assert pairs.algebra.table == expect


def test_quadruple_bracket_table_matches_dense_products(xmod):
    quads = bider_xmod(xmod)
    basis = [quads.basis_maps(t) for t in range(quads.dim)]
    expect = tuple(tuple(_coords(quads, (s1 @ s1p - s1p @ s1, t1 @ s1p - s1p @ t1,
                                         s2 @ s2p - s2p @ s2, t2 @ s2p - s2p @ t2))
                         for s1p, _t1p, s2p, _t2p in basis)
                   for s1, t1, s2, t2 in basis)
    assert quads.algebra.table == expect


def test_actor_action_matches_dense_products(xmod):
    pairs, quads = bider_qn(xmod), bider_xmod(xmod)
    pair_basis = [pairs.basis_maps(t) for t in range(pairs.dim)]
    quad_basis = [quads.basis_maps(t) for t in range(quads.dim)]
    act = actor(xmod).action
    assert act.left == tuple(tuple(_coords(pairs, pair_quad_bracket_left(quad, pair)) for pair in pair_basis)
                             for quad in quad_basis)
    assert act.right == tuple(tuple(_coords(pairs, pair_quad_bracket_right(pair, quad)) for quad in quad_basis)
                              for pair in pair_basis)


def test_delta_matches_dense_products(xmod):
    pairs, quads = bider_qn(xmod), bider_xmod(xmod)
    mu = xmod.boundary
    cols = [_coords(quads, (d @ mu, dd @ mu, mu @ d, mu @ dd))
            for d, dd in (pairs.basis_maps(t) for t in range(pairs.dim))]
    assert delta(xmod) == Matrix.from_columns(xmod.top.field, cols, quads.dim)


@pytest.mark.parametrize("field", FIELDS, ids=[f.tag for f in FIELDS])
def test_a_product_outside_the_space_is_refused(field):
    """A basis member with one entry off a pivot is not in the space: the
    coordinate reader refuses it, whether it comes from products or from
    dense maps."""
    pairs = bider_qn(build_entry("sl2-id", field))
    (d, den), dd = pairs.sparse_basis[0]
    flat = pairs.flatten(pairs.basis_maps(0))
    rows, cols = pairs.shapes[0]
    # an entry of d that is zero and not a pivot: a member is fixed by its pivot entries
    u = next(u for u in range(rows * cols) if u not in pairs.space.pivots and u not in flat)
    i, j = divmod(u, cols)
    bumped = {r: dict(v) for r, v in d.items()}
    bumped.setdefault(i, {})[j] = 1
    ident = ({k: {k: 1} for k in range(rows)}, 1)
    with pytest.raises(LinearSolveError, match="left the space"):
        pairs.read_products([[(1, ident, (bumped, den))], [(1, ident, dd)]], "left the space")
    d_mat, dd_mat = pairs.basis_maps(0)
    entries = [list(r) for r in d_mat.entries]
    entries[i][j] = field.one
    bumped_mats = (Matrix(field, rows, cols, tuple(map(tuple, entries))), dd_mat)
    with pytest.raises(LinearSolveError, match="not a member"):
        pairs.solution_coords(bumped_mats, "not a member")
    assert pairs.coords_of_maps(bumped_mats) is None
    coords = pairs.read_products([[(1, ident, (d, den))], [(1, ident, dd)]], "")
    assert _dense(field, pairs.dim, coords) == _coords(pairs, pairs.basis_maps(0))
