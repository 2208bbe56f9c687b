"""Solved bases held as integer rows over one denominator per member.

A ``Subspace`` keeps each echelon row as ``(I, d)``, the primitive integer
row and its positive pivot entry, and ``residue``, ``read_coords`` and
``project`` work on those.  A ``MapSpace`` member is a tuple of integer maps
over the row's denominator, and ``products`` returns integers over the lcm
of the products' denominators.  Every reader here is compared exactly with
its ``Fraction``-row reference in ``reference_stages``: on hypothesis
subspaces over Q (entries with up to 30-digit numerators and denominators),
F2 and F3, and on the bracket tables, actions and ``delta`` of every catalog
crossed module.
"""
from fractions import Fraction
from math import gcd, lcm

import pytest
from conftest import FIELDS, XMOD_IDS
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from reference_stages import (
    fraction_bracket_tables,
    fraction_products,
    fraction_project,
    fraction_read_coords,
    fraction_residue,
    reference_rref,
)

from lbxmod import QQ
from lbxmod.algebra import LeibnizAlgebra
from lbxmod.bider import MapSpace, actor, bider_qn, bider_xmod, delta
from lbxmod.catalog import build_entry
from lbxmod.linalg import LinearSolveError, Matrix, Subspace, _dense, nullspace, number, sparse_kernel


def scalars(field):
    """Zeros, small values and, over Q, fractions with 30-digit parts."""
    if field != QQ:
        return st.one_of(st.just(0), st.integers(-7, 7))
    huge = st.integers(-10**30, 10**30)
    return st.one_of(st.just(0), st.integers(-4, 4), st.fractions(-3, 3, max_denominator=7),
                     st.builds(Fraction, huge, st.integers(1, 10**30)))


@st.composite
def spanning_rows(draw, fields=FIELDS):
    """A field, a dimension n and up to four drawn dense rows of k^n."""
    field = draw(st.sampled_from(fields))
    n = draw(st.integers(1, 6))
    cell = scalars(field)
    return field, n, [tuple(field.coerce(draw(cell)) for _ in range(n)) for _ in range(draw(st.integers(0, 4)))]


def reference_span(field, n, rows):
    """``reference_rref`` of the drawn rows."""
    return reference_rref(Matrix(field, len(rows), n, tuple(rows)))


@st.composite
def subspace_and_vector(draw, fields=FIELDS):
    """A subspace of k^n spanned by drawn rows, and a sparse vector that is a
    drawn combination of its basis rows plus, maybe, an arbitrary part."""
    field, n, rows = draw(spanning_rows(fields))
    cell = scalars(field)
    s = Subspace.from_rows(field, n, rows)
    vec = [field.zero] * n
    for row in s.basis.entries:
        c = field.coerce(draw(cell))
        vec = [x + c * y for x, y in zip(vec, row)]
    if draw(st.booleans()):
        vec = [x + field.coerce(draw(cell)) for x in vec]
    return s, {k: number(c) for k, c in enumerate(vec) if c}


def outcome(read, *args):
    try:
        return read(*args)
    except LinearSolveError as exc:
        return ("refused", str(exc))


def dense_coords(s: Subspace):
    """``s.read_coords`` as a dense tuple, after checking that its sparse
    coordinates are stored numbers: no zeros, ints where integral."""
    def read(*args):
        coords = s.read_coords(*args)
        assert all(c and c == number(c) and type(c) is type(number(c)) for c in coords.values())
        return _dense(s.field, s.dim, coords)

    return read


@given(spanning_rows())
@settings(max_examples=150)
def test_scaled_rows_are_primitive_integer_rows_over_their_pivot_entry(case):
    """Each scaled row of a span is the primitive integer row on the line of
    the dense reference echelon row, over its pivot entry."""
    s, expected = Subspace.from_rows(*case), reference_span(*case)
    assert s.pivots == expected.pivots
    p = s.field.characteristic
    for (row, d), u, dense in zip(s.scaled_rows, s.pivots, expected.matrix.entries):
        assert all(type(c) is int and c for c in row.values())
        assert row[u] == d > 0
        if p:
            assert d == 1 and all(0 < c < p for c in row.values())
        else:
            assert gcd(*row.values()) == 1
        assert {k: s.field.coerce(Fraction(c, d)) for k, c in row.items()} == {
            k: c for k, c in enumerate(dense) if c}


@given(spanning_rows())
@settings(max_examples=100)
def test_the_kernel_and_the_span_hand_over_one_echelon_basis(case):
    """``from_rows`` and ``sparse_kernel`` keep the kernel's own rows: the span
    of the drawn rows and the kernel of its equations hold the same scaled
    rows, and their dense basis and pivots are those of ``reference_rref``."""
    field, n, _rows = case
    s, expected = Subspace.from_rows(*case), reference_span(*case)
    equations = [row for row, _d in nullspace(s.basis).scaled_rows]
    k = sparse_kernel(field, n, equations)
    assert k == s and k.scaled_rows == s.scaled_rows
    for got in (s, k):
        assert got.basis.entries == expected.matrix.entries[: expected.rank]
        assert got.pivots == expected.pivots


@given(subspace_and_vector())
@settings(max_examples=300)
def test_readers_equal_the_fraction_row_references(case):
    s, vec = case
    assert s.residue(vec) == fraction_residue(s, vec)
    assert outcome(dense_coords(s), vec, "outside") == outcome(fraction_read_coords, s, vec, "outside")
    assert _dense(s.field, len(s.complement_indices()), s.project(vec)) == fraction_project(s, vec)


@given(subspace_and_vector([QQ]), st.integers(1, 10**30))
@settings(max_examples=100)
def test_a_vector_over_a_denominator_is_read_as_its_quotient(case, extra):
    """``read_coords(w, error, den)`` reads w / den."""
    s, vec = case
    den = lcm(*(Fraction(c).denominator for c in vec.values())) * extra
    ints = {k: int(c * den) for k, c in vec.items()}
    assert outcome(dense_coords(s), ints, "outside", den) == outcome(fraction_read_coords, s, vec, "outside")


@given(subspace_and_vector(), st.data())
@settings(max_examples=100)
def test_a_member_with_one_bumped_non_pivot_entry_is_refused(case, data):
    s, _vec = case
    free = s.complement_indices()
    assume(s.dim and free)
    member = {k: number(c) for k, c in enumerate(sum(col, s.field.zero) for col in zip(*s.basis.entries)) if c}
    assert dense_coords(s)(member, "") == tuple(s.field.one for _ in range(s.dim))
    j = data.draw(st.sampled_from(free))
    # zero is mapped to 1, not filtered: a filter discards the whole zero branch of
    # ``scalars``, and with the assume above that failed HealthCheck.filter_too_much
    # for about 2 % of random seeds
    bump = data.draw(scalars(s.field).map(lambda c: c if s.field.coerce(c) else 1))
    member[j] = member.get(j, 0) + bump
    with pytest.raises(LinearSolveError, match="bumped"):
        s.read_coords(member, "bumped")
    assert s.residue(member)


# -- map products --------------------------------------------------------------


@st.composite
def product_terms(draw):
    """Components of signed products of scaled maps with unrelated
    denominators (1 over F_p, where members have denominator 1)."""
    field = draw(st.sampled_from(FIELDS))
    shapes = tuple(draw(st.lists(st.tuples(st.integers(1, 3), st.integers(1, 3)), min_size=1, max_size=3)))
    inner = draw(st.integers(1, 3))
    dens = st.integers(1, 10**12) if field == QQ else st.just(1)
    ints = st.integers(-10**15, 10**15) if field == QQ else st.integers(-7, 7)

    def scaled(rows, cols):
        cells = draw(st.lists(st.tuples(st.integers(0, rows - 1), st.integers(0, cols - 1), ints), max_size=5))
        m = {}
        for i, j, c in cells:
            m.setdefault(i, {})[j] = c
        return m, draw(dens)

    components = [[(draw(st.sampled_from((1, -1))), scaled(r, inner), scaled(inner, c))
                   for _ in range(draw(st.integers(0, 3)))] for r, c in shapes]
    return field, shapes, components


def _rational(m):
    mat, den = m
    return {i: {j: Fraction(c, den) for j, c in row.items()} for i, row in mat.items()}


@given(product_terms())
@settings(max_examples=200)
def test_products_equal_the_fraction_products(case):
    field, shapes, components = case
    total = sum(r * c for r, c in shapes)
    space = MapSpace(field, shapes, Subspace.full(field, total), LeibnizAlgebra.abelian(field, 0))
    vec, den = space.products(components)
    assert all(type(c) is int for c in vec.values()) and den > 0
    expected = fraction_products(space, [[(sign, _rational(a), _rational(b)) for sign, a, b in terms]
                                         for terms in components])
    if field == QQ:
        assert {k: Fraction(c, den) for k, c in vec.items() if c} == {k: c for k, c in expected.items() if c}
    else:
        p = field.characteristic
        assert {k: c % p for k, c in vec.items() if c % p} == {k: c % p for k, c in expected.items() if c % p}
    coords = _dense(field, total, space.read_products(components, ""))
    assert coords == tuple(field.coerce(Fraction(vec.get(k, 0), den)) for k in range(total))


CASES = [(f, cid) for f in FIELDS for cid in XMOD_IDS]


@pytest.mark.parametrize("field,cid", CASES, ids=[f"{f.tag}-{cid}" for f, cid in CASES])
def test_tables_actions_and_delta_equal_the_fraction_row_ones(field, cid):
    x = build_entry(cid, field)
    pair_table, quad_table, left, right, boundary = fraction_bracket_tables(x)
    act = actor(x)
    assert bider_qn(x).algebra.table == pair_table
    assert bider_xmod(x).algebra.table == quad_table
    assert (act.action.left, act.action.right) == (left, right)
    assert delta(x) == boundary
