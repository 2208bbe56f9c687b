"""Exact linear algebra: reduction, spans, solving.

The hypothesis blocks generate small rational matrices, zero-heavy matrices
over Q, F2 and F3 for the products, and sparse systems for ``sparse_kernel``.
``rref``, ``nullspace`` and ``sparse_kernel`` share one elimination kernel,
so they are checked against ``reference_stages.reference_rref``, a plain
dense Gauss-Jordan loop on field scalars.  The mod-2 block at the end
grinds through every 3x3 matrix as a no-randomness backstop.
"""
import itertools
from fractions import Fraction

import pytest
from conftest import XMOD_IDS
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_stages import apply, reference_rref, stored_by_vector
from strategies import VALUES, is_stored, matrices, respelled, tensors

from lbxmod import GF2, GF3, QQ, bider
from lbxmod import serialize as ser
from lbxmod.catalog import build_entry
from lbxmod.fields import FpElement, InputDataError
from lbxmod.linalg import (
    LinearSolveError,
    Matrix,
    RrefResult,
    Subspace,
    _Preimages,
    _sparse,
    _stored,
    column_space,
    nullspace,
    rref,
    sparse_kernel,
)
from lbxmod.xmod import center

entries = st.integers(min_value=-4, max_value=4).map(Fraction)


def q_matrix(max_side=4):
    return st.integers(1, max_side).flatmap(
        lambda r: st.integers(1, max_side).flatmap(
            lambda c: st.lists(
                st.lists(entries, min_size=c, max_size=c), min_size=r, max_size=r
            ).map(lambda rows: Matrix.from_rows(QQ, rows))
        )
    )


@given(q_matrix())
def test_rref_is_idempotent(m):
    once = rref(m)
    again = rref(once.matrix)
    assert once.matrix == again.matrix
    assert once.pivots == again.pivots


@given(q_matrix())
def test_rank_nullity(m):
    assert rref(m).rank + nullspace(m).dim == m.cols


@given(q_matrix())
def test_nullspace_vectors_are_annihilated(m):
    ns = nullspace(m)
    for row, _d in ns.scaled_rows:
        assert not m.apply(row)
    assert column_space(m).dim == rref(m).rank


@given(q_matrix(), st.lists(entries, min_size=1, max_size=4))
@settings(max_examples=60)
def test_preimages_recover_consistent_systems(m, coeffs):
    b = m.apply(_sparse(coeffs[: m.cols]))
    assert m.apply(_Preimages(m)(b)) == b


def test_preimages_report_inconsistency():
    m = Matrix.from_rows(QQ, [[1, 0], [1, 0]])
    with pytest.raises(LinearSolveError, match="no preimage"):
        _Preimages(m)({0: 1, 1: -1})


def reference_solve(a, vec):
    """The solution of a @ x = vec with free variables zero, read off
    ``reference_rref`` of [a | vec]; None when there is none."""
    red = reference_rref(Matrix.from_rows(a.field, [row + (v,) for row, v in zip(a.entries, vec)], a.cols + 1))
    if any(p >= a.cols for p in red.pivots):
        return None
    x = [a.field.zero] * a.cols
    for t, p in enumerate(red.pivots):
        x[p] = red.matrix.entries[t][a.cols]
    return tuple(x)


@given(q_matrix(), st.lists(entries, min_size=4, max_size=4), st.booleans())
@settings(max_examples=150)
def test_preimages_equal_the_dense_reference(m, coeffs, consistent):
    """One echelon pass of [m | 1] solves every right-hand side: a value in
    the image gets the reference solution, any other a LinearSolveError."""
    vec = apply(m, tuple(coeffs[: m.cols])) if consistent else tuple(coeffs[: m.rows]) + (QQ.zero,) * (m.rows - 4)
    expected = reference_solve(m, vec)
    back = _Preimages(m)
    if expected is None:
        with pytest.raises(LinearSolveError, match="no preimage"):
            back(_sparse(vec))
    else:
        assert tuple(QQ.coerce(back(_sparse(vec)).get(j, 0)) for j in range(m.cols)) == expected


def test_subspace_canonical_basis_is_order_independent():
    rows_a = [[1, 2, 3], [0, 1, 1]]
    rows_b = [[1, 3, 4], [2, 5, 7]]  # same span
    assert Subspace.from_rows(QQ, 3, rows_a) == Subspace.from_rows(QQ, 3, rows_b)


def test_subspace_coords_and_combination_round_trip():
    s = Subspace.from_rows(QQ, 3, [[1, 0, 2], [0, 1, -1]])
    v = (Fraction(3), Fraction(-2), Fraction(8))
    coords = s.read_coords(_sparse(v), "outside")
    assert coords == {0: 3, 1: -2}
    assert tuple(sum((coords[t] * x for t, x in enumerate(col)), Fraction(0))
                 for col in zip(*s.basis.entries)) == v
    assert s.residue({0: 1, 1: 1}) == {2: -1}
    with pytest.raises(LinearSolveError, match="outside"):
        s.read_coords({0: 1, 1: 1}, "outside")


def test_projection_matrix_collapses_the_subspace():
    s = Subspace.from_rows(QQ, 3, [[1, 1, 0]])
    proj = s.projection_matrix()
    assert proj.rows == 2  # complement of a 1-dim subspace of Q^3
    for row, _d in s.scaled_rows:
        assert not proj.apply(row)


def test_matrix_shapes_and_composition():
    a = Matrix.from_rows(QQ, [[1, 2], [3, 4]])
    b = Matrix.from_rows(QQ, [[0, 1], [1, 0]])
    assert (a @ b).entries == Matrix.from_rows(QQ, [[2, 1], [4, 3]]).entries
    assert a.transpose().entries == tuple(zip(*a.entries))
    assert Matrix.identity(QQ, 3).apply({0: 1}) == {0: 1}


FIELDS = (QQ, GF2, GF3)


def sparse_entries(field):
    """Mostly zeros; over Q also proper fractions, over F_p any integer."""
    nonzero = st.fractions(-3, 3, max_denominator=3) if field == QQ else st.integers(-7, 7)
    return st.one_of(st.just(0), st.just(0), nonzero)


@st.composite
def zero_heavy_matrix(draw, field, rows, cols):
    dense = draw(st.booleans())  # half the matrices without forced zeros
    cell = st.integers(-3, 3) if dense else sparse_entries(field)
    data = [[field.coerce(draw(cell)) for _ in range(cols)] for _ in range(rows)]
    return Matrix(field, rows, cols, tuple(tuple(r) for r in data))


@st.composite
def product_case(draw):
    field = draw(st.sampled_from(FIELDS))
    r, k, c = (draw(st.integers(0, 4)) for _ in range(3))
    a = draw(zero_heavy_matrix(field, r, k))
    b = draw(zero_heavy_matrix(field, k, c))
    vec = tuple(field.coerce(draw(sparse_entries(field))) for _ in range(k))
    return a, b, vec


def naive_matmul(a, b):
    out = [[a.field.zero] * b.cols for _ in range(a.rows)]
    for i in range(a.rows):
        for j in range(b.cols):
            for k in range(a.cols):
                out[i][j] = out[i][j] + a.entries[i][k] * b.entries[k][j]
    return tuple(tuple(r) for r in out)


@given(product_case())
@settings(max_examples=200)
def test_zero_skipping_products_match_the_triple_loop(case):
    a, b, vec = case
    prod = a @ b
    assert (prod.rows, prod.cols) == (a.rows, b.cols)
    assert prod.entries == naive_matmul(a, b)
    column = Matrix.from_columns(a.field, [vec], a.cols)
    assert a.apply(_sparse(vec)) == _sparse(r[0] for r in naive_matmul(a, column))
    scalar_type = type(a.field.zero)
    assert all(type(x) is scalar_type for r in prod.entries for x in r)
    assert is_stored(a.field, [[a.apply(_sparse(vec))]]) and is_stored(a.field, [prod.sparse_columns])


@st.composite
def sparse_system(draw):
    field = draw(st.sampled_from(FIELDS))
    ncols = draw(st.integers(0, 6))
    cell = st.tuples(st.integers(0, max(ncols - 1, 0)), sparse_entries(field))
    rows = draw(st.lists(st.lists(cell, max_size=4).map(dict), max_size=8)) if ncols else []
    return field, ncols, rows


def reference_nullspace(m):
    """The canonical basis of the kernel of m from ``reference_rref`` alone,
    with its pivots, as an ``RrefResult`` of full row rank."""
    field, red = m.field, reference_rref(m)
    rows = []
    for f in (j for j in range(m.cols) if j not in red.pivots):
        v = [field.zero] * m.cols
        v[f] = field.one
        for t, p in enumerate(red.pivots):
            v[p] = -red.matrix.entries[t][f]
        rows.append(tuple(v))
    basis = reference_rref(Matrix(field, len(rows), m.cols, tuple(rows)))
    return RrefResult(Matrix(field, basis.rank, m.cols, basis.matrix.entries[: basis.rank]), basis.pivots)


def agrees(got, expected) -> bool:
    """A ``Subspace`` has the dense echelon basis and the pivots of a
    reference ``RrefResult``."""
    return got.basis == expected.matrix and got.pivots == expected.pivots


@given(sparse_system())
@settings(max_examples=200)
def test_sparse_kernel_equals_the_dense_nullspace(case):
    field, ncols, rows = case
    dense = Matrix(field, len(rows), ncols,
                   tuple(tuple(field.coerce(row.get(c, 0)) for c in range(ncols)) for row in rows))
    expected = reference_nullspace(dense)
    got = sparse_kernel(field, ncols, rows)
    assert agrees(got, expected) and agrees(nullspace(dense), expected)
    assert nullspace(dense) == got and nullspace(dense).scaled_rows == got.scaled_rows


def elimination_entries(field):
    """Zeros, small values and, over Q, fractions with 30-digit parts."""
    if field != QQ:
        return st.one_of(st.just(0), st.integers(-7, 7))
    huge = st.integers(-10**30, 10**30)
    return st.one_of(st.just(0), st.integers(-4, 4).map(Fraction),
                     st.fractions(-3, 3, max_denominator=5),
                     st.builds(Fraction, huge, st.integers(1, 10**30)))


@st.composite
def elimination_case(draw):
    """A matrix with 0..5 rows and columns, plus zero rows, duplicate rows and
    negated rows (negative pivots) placed anywhere."""
    field = draw(st.sampled_from(FIELDS))
    nrows, ncols = draw(st.integers(0, 5)), draw(st.integers(0, 5))
    cell = elimination_entries(field)
    data = [[draw(cell) for _ in range(ncols)] for _ in range(nrows)]
    for kind in draw(st.lists(st.sampled_from(("zero", "duplicate", "negated")), max_size=3)):
        if kind == "zero":
            extra = [0] * ncols
        elif data:
            src = data[draw(st.integers(0, len(data) - 1))]
            extra = list(src) if kind == "duplicate" else [-3 * x for x in src]
        else:
            continue
        data.insert(draw(st.integers(0, len(data))), extra)
    return Matrix(field, len(data), ncols, tuple(tuple(field.coerce(x) for x in row) for row in data))


@given(elimination_case())
@settings(max_examples=300)
def test_elimination_equals_the_dense_reference(m):
    red, expected = rref(m), reference_rref(m)
    assert red.pivots == expected.pivots
    assert red.matrix == expected.matrix
    scalar_type = type(m.field.zero)
    assert all(type(x) is scalar_type for row in red.matrix.entries for x in row)
    kernel = reference_nullspace(m)
    rows = [{c: x for c, x in enumerate(row) if x} for row in m.entries]
    if m.field != QQ:
        rows = [{c: x.value for c, x in row.items()} for row in rows]
    for got in (nullspace(m), sparse_kernel(m.field, m.cols, rows)):
        assert agrees(got, kernel)
        assert all(type(x) is scalar_type for row in got.basis.entries for x in row)


def test_every_3x3_mod2_matrix_has_consistent_kernel():
    vecs = [tuple(GF2.coerce(b) for b in bits) for bits in itertools.product((0, 1), repeat=3)]
    for bits in itertools.product((0, 1), repeat=9):
        m = Matrix.from_rows(GF2, [bits[0:3], bits[3:6], bits[6:9]])
        ns = nullspace(m)
        assert ns.dim == 3 - rref(m).rank
        for v in vecs:
            assert (not ns.residue(_sparse(v))) == (not m.apply(_sparse(v)))


# -- the stored form ------------------------------------------------------------


@given(st.sampled_from(FIELDS).flatmap(
    lambda f: st.tuples(st.just(f), st.integers(0, 3), st.integers(0, 3)).flatmap(
        lambda c: st.tuples(st.just(c[0]), matrices(*c), st.data()))))
@settings(max_examples=150)
def test_dense_rows_and_sparse_columns_give_one_matrix(case):
    """A matrix built from its dense rows and one built from its columns as
    sparse dicts, their entries spelled any way the field reads them and
    some zeros kept, compare and hash equal and store the same columns."""
    field, m, data = case
    dense = Matrix(field, m.rows, m.cols, m.entries)
    columns = data.draw(respelled(field, [[column for column in zip(*m.entries)] or [()] * m.cols]))[0]
    sparse = Matrix(field, m.rows, m.cols, columns)
    assert dense == sparse == m and hash(dense) == hash(sparse) == hash(m)
    assert is_stored(field, [sparse.sparse_columns]) and sparse.sparse_columns == dense.sparse_columns
    assert Subspace.from_rows(field, m.cols, m.entries) == Subspace.from_rows(field, m.cols, m.transpose().sparse_columns)


def _stored_or_error(stored, field, tensor, shape):
    try:
        return stored(field, tensor, shape, "tensor")
    except (InputDataError, TypeError) as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("field", FIELDS, ids=[f.tag for f in FIELDS])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_the_whole_tensor_stored_check_gives_the_per_vector_result(field, data):
    """``_stored`` on a dense tensor, on its stored view, on that view in
    lists or with a vector cut short or a key pushed out of range, and on
    respelled sparse dicts: the same tensor or error as
    ``reference_stages.stored_by_vector``, and the input itself exactly when
    that returns it."""
    d0, d1, d2 = (data.draw(st.integers(0, 3)) for _ in range(3))
    dense = data.draw(tensors(field, d0, d1, d2))
    view = _stored(field, dense, (d0, d1, d2), "tensor")
    inputs = [dense, view, [list(row) for row in view], data.draw(respelled(field, dense))]
    if d0 and d1:
        bent = [list(row) for row in view]
        bent[-1][-1] = data.draw(st.sampled_from(({d2: 1}, {True: 1}, dict(bent[-1][-1]), dense[-1][-1][:-1] or (0,))))
        inputs.append(tuple(map(tuple, bent)))
    for tensor in inputs:
        new = _stored_or_error(_stored, field, tensor, (d0, d1, d2))
        old = _stored_or_error(stored_by_vector, field, tensor, (d0, d1, d2))
        assert new == old and (new is tensor) == (old is tensor)


class _Dict(dict):
    pass


@pytest.mark.parametrize("field, tensor, stored", [
    (QQ, (({0: Fraction(4, 2)},),), (({0: 2},),)),
    (QQ, (({0: 1, 1: 0},),), (({0: 1},),)),
    (GF3, (({0: 3, 1: -1},),), (({1: 2},),)),
    (GF3, (({0: FpElement(2, 3), 1: 4},),), (({0: 2, 1: 1},),)),
    (QQ, ((_Dict({1: 5}),),), (({1: 5},),)),
    (QQ, [[{0: 1}]], (({0: 1},),)),
], ids=["integral-fraction", "explicit-zero", "residue-p-and-minus-1", "fp-elements", "dict-subclass", "lists"])
def test_the_stored_form_normalizes_what_is_not_stored(field, tensor, stored):
    out = _stored(field, tensor, (1, 1, 2), "tensor")
    assert out is not tensor and out == stored and type(out) is tuple and type(out[0]) is tuple and type(out[0][0]) is dict
    assert all(type(c) is int for c in out[0][0].values())


@pytest.mark.parametrize("key", (True, 2), ids=("bool", "d2"))
def test_the_stored_form_refuses_a_key_outside_the_vector(key):
    with pytest.raises(InputDataError, match=r"^tensor has an index outside \[0, 2\)$"):
        _stored(QQ, (({key: 1},),), (1, 1, 2), "tensor")


def test_a_stored_tuple_tensor_is_handed_back_as_it_is():
    for field, tensor in ((QQ, (({0: Fraction(1, 2), 1: -3}, {}), ({}, {1: 1}))), (GF3, (({0: 2}, {1: 1}),))):
        assert _stored(field, tensor, (len(tensor), 2, 2), "tensor") is tensor


def dense_transpose(m):
    return tuple(tuple(row[j] for row in m.entries) for j in range(m.cols))


@given(st.sampled_from(FIELDS).flatmap(
    lambda f: st.tuples(*(st.integers(0, 4) for _ in range(3))).flatmap(
        lambda d: st.tuples(matrices(f, d[0], d[1]), matrices(f, d[1], d[2]),
                            st.lists(st.sampled_from(VALUES[f.tag]), min_size=d[1], max_size=d[1])))))
@settings(max_examples=200)
def test_sparse_operations_equal_the_dense_references(case):
    """``@``, ``apply``, ``transpose`` and ``rref`` on the stored columns give
    the dense triple loop, the dense product with a vector, the dense
    transpose and ``reference_rref``."""
    a, b, coeffs = case
    vec = tuple(a.field.coerce(c) for c in coeffs)
    assert (a @ b).entries == naive_matmul(a, b)
    assert a.apply(_sparse(vec)) == _sparse(apply(a, vec))
    assert a.transpose().entries == dense_transpose(a) and a.transpose().transpose() == a
    red, expected = rref(a), reference_rref(a)
    assert (red.matrix.entries, red.pivots) == (expected.matrix.entries, expected.pivots)
    assert column_space(a).dim == red.rank == a.cols - nullspace(a).dim


def test_a_cold_actor_job_derives_no_dense_view(field):
    """``actor``, ``canonical_morphism``, ``center`` and ``outer_xmod`` on
    cold memos, and the reports written from them, leave no dense view
    behind: no matrix holds its ``entries`` and no subspace its ``basis``."""
    for memo in (bider.bider_qn, bider.bider_xmod, bider.actor, bider.canonical_morphism):
        memo.cache_clear()
    for cid in XMOD_IDS:
        x = build_entry(cid, field)
        act, can, cen, out = bider.actor(x), bider.canonical_morphism(x), center(x), bider.outer_xmod(x)
        for obj in (act, cen.xmod, out.xmod):
            ser.xmod_to_json(obj)
        for s in (cen.top_space, cen.base_space):
            ser.subspace_to_json(s)
        ser.morphism_maps_to_json(can)
        maps = (x.boundary, act.boundary, can.top_map, can.base_map, bider.delta(x), cen.xmod.boundary,
                cen.top_include, cen.base_include, out.xmod.boundary, out.top_project, out.base_project)
        spaces = (bider.bider_qn(x).space, bider.bider_xmod(x).space, cen.top_space, cen.base_space)
        assert [m for m in maps if "entries" in vars(m)] == []
        assert [s for s in spaces if "basis" in vars(s)] == []
