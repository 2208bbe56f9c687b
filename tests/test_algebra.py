"""Leibniz algebras: the defining identity, derived subspaces, constructions,
and the one stored form of a structure table."""
import itertools
import json
import tracemalloc
from fractions import Fraction

import pytest
from conftest import FIELDS
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import ints_of_table, is_leibniz
from reference_stages import apply
from strategies import DIMS, is_stored, respelled, tensors

from lbxmod import GF2, GF3, QQ, FpElement, InputDataError
from lbxmod.algebra import (
    LeibnizAlgebra,
    annihilator,
    commutator,
    direct_sum,
    is_ideal,
    quotient_algebra,
    subalgebra_on,
    validate_leibniz,
)
from lbxmod.catalog import build_entry
from lbxmod.linalg import LinearSolveError, Subspace
from lbxmod.serialize import algebra_from_json, algebra_to_json


@pytest.mark.parametrize("cid", ["a1", "a2", "l2", "r2", "sl2"])
def test_catalog_algebras_satisfy_the_identity(cid, field):
    assert validate_leibniz(build_entry(cid, field)).ok


def test_validator_flags_a_broken_table():
    # [e1,e1] = e1 violates the identity: [[e1,e1],e1] = e1 but the two
    # right-hand brackets sum to 2*e1.
    bad = LeibnizAlgebra.from_brackets(QQ, 1, {(0, 0): {0: 1}})
    report = validate_leibniz(bad)
    assert not report.ok
    assert report.labels() == ("leibniz",)
    assert report.violations[0].witness == (0, 0, 0)


def test_annihilator_and_commutator_of_fixtures():
    l2 = build_entry("l2", QQ)
    r2 = build_entry("r2", QQ)
    sl2 = build_entry("sl2", QQ)
    e2 = Subspace.from_rows(QQ, 2, [[0, 1]])
    assert annihilator(l2) == e2
    assert commutator(l2) == e2
    assert annihilator(r2).dim == 0
    assert commutator(r2) == e2
    assert annihilator(sl2).dim == 0
    assert commutator(sl2).dim == 3  # perfect


def test_quotient_by_the_annihilator_of_l2():
    l2 = build_entry("l2", QQ)
    small, proj = quotient_algebra(l2, annihilator(l2))
    assert small.dim == 1
    assert validate_leibniz(small).ok
    assert commutator(small).dim == 0
    assert proj.rows == 1 and proj.cols == 2


def test_quotient_rejects_non_ideals():
    l2 = build_entry("l2", QQ)
    line = Subspace.from_rows(QQ, 2, [[1, 0]])
    assert not is_ideal(l2, line)
    with pytest.raises(InputDataError):
        quotient_algebra(l2, line)


def test_subalgebra_requires_bracket_closure():
    l2 = build_entry("l2", QQ)
    sub, incl = subalgebra_on(l2, Subspace.from_rows(QQ, 2, [[0, 1]]))
    assert sub.dim == 1 and commutator(sub).dim == 0
    assert incl.cols == 1 and incl.rows == 2
    with pytest.raises(LinearSolveError):
        subalgebra_on(l2, Subspace.from_rows(QQ, 2, [[1, 0]]))  # [e1,e1]=e2 escapes


def test_direct_sum_blocks():
    l2 = build_entry("l2", QQ)
    r2 = build_entry("r2", QQ)
    both, inc_a, inc_b = direct_sum(l2, r2)
    assert both.dim == 4
    assert validate_leibniz(both).ok
    x = apply(inc_a, (QQ.one, QQ.zero))
    y = apply(inc_b, (QQ.one, QQ.zero))
    assert all(not c for c in both.bracket(x, y))  # blocks do not talk
    assert annihilator(both).dim == 1  # e2 of l2 survives, r2 contributes none


def test_from_brackets_rejects_out_of_range_indices():
    with pytest.raises(InputDataError):
        LeibnizAlgebra.from_brackets(QQ, 2, {(0, 5): {0: 1}})
    with pytest.raises(InputDataError):
        LeibnizAlgebra.from_brackets(QQ, 2, {(0, 0): {7: 1}})


def test_dimension_cap():
    with pytest.raises(InputDataError):
        LeibnizAlgebra.from_brackets(QQ, 65, {})


def test_dimension_cap_leaves_derived_algebras_alone():
    a = LeibnizAlgebra.abelian(GF2, 33)
    total, _, _ = direct_sum(a, a)
    assert total.dim == 66


def test_validator_agrees_with_brute_force_on_all_2dim_mod2_tables():
    """Exhaustive: every possible dim-2 structure table over F2."""
    cells = list(itertools.product((0, 1), repeat=2))
    verdicts = {True: 0, False: 0}
    for tab in itertools.product(cells, repeat=4):
        table = ((tab[0], tab[1]), (tab[2], tab[3]))
        alg = LeibnizAlgebra(GF2, 2, tuple(
            tuple(tuple(GF2.coerce(c) for c in cell) for cell in row) for row in table
        ))
        solver = validate_leibniz(alg).ok
        assert solver == is_leibniz(table, 2)
        verdicts[solver] += 1
    assert verdicts[True] > 0 and verdicts[False] > 0


def test_catalog_tables_match_their_oracle_view():
    l2 = build_entry("l2", GF2)
    assert is_leibniz(ints_of_table(l2), 2)


def test_oversized_dimension_is_refused_before_the_table_is_built():
    # the dim^3 table of dimension 200 would take about 64 MB
    tracemalloc.start()
    try:
        with pytest.raises(InputDataError, match="outside"):
            LeibnizAlgebra.from_brackets(QQ, 200, {})
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


# -- the stored form ----------------------------------------------------------------


@pytest.mark.parametrize("field", FIELDS, ids=[f.tag for f in FIELDS])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_dense_sparse_and_read_back_tables_are_one_stored_form(field, data):
    n = data.draw(DIMS)
    dense = data.draw(tensors(field, n, n, n))
    a = LeibnizAlgebra(field, n, dense)
    assert is_stored(field, a.sparse_table) and a.table == dense
    same = (LeibnizAlgebra(field, n, a.sparse_table), LeibnizAlgebra(field, n, data.draw(respelled(field, dense))),
            algebra_from_json(field, json.loads(json.dumps(algebra_to_json(a)))))
    for b in same:
        assert b == a and hash(b) == hash(a) and b.table == dense
    assert same[0].sparse_table is a.sparse_table  # a stored view is handed on, not copied


def test_the_stored_form_drops_zeros_reduces_residues_and_makes_integral_rationals_ints():
    q = LeibnizAlgebra(QQ, 1, [[{0: Fraction(4, 2)}]])
    assert q.sparse_table == (({0: 2},),) and type(q.sparse_table[0][0][0]) is int
    assert LeibnizAlgebra(QQ, 1, [[[Fraction(0)]]]).sparse_table == (({},),)
    assert LeibnizAlgebra(QQ, 1, [[{0: Fraction(1, 2)}]]).table == (((Fraction(1, 2),),),)
    f3 = LeibnizAlgebra(GF3, 2, [[{0: 4, 1: -1}, {0: 3}], [{1: 0}, {0: FpElement(2, 3)}]])
    assert f3.sparse_table == (({0: 1, 1: 2}, {}), ({}, {0: 2}))
    dense = LeibnizAlgebra(GF3, 2, [[[1, 2], [0, 0]], [[0, 0], [2, 0]]])
    assert f3 == dense and hash(f3) == hash(dense)


def test_a_scalar_of_another_field_is_a_type_error():
    for field, entry in ((GF3, FpElement(1, 2)), (QQ, FpElement(1, 3)), (GF3, 0.5)):
        with pytest.raises(TypeError):
            LeibnizAlgebra(field, 1, [[{0: entry}]])
        with pytest.raises(TypeError):
            LeibnizAlgebra(field, 1, [[[entry]]])


@pytest.mark.parametrize("table", [
    [[[1], [0]], [[0], [0]]],       # vectors of length 1 in dimension 2
    [[{}, {}]],                      # one row of two
    [[{}], [{}]],                    # rows of one entry
    [[{2: 1}, {}], [{}, {}]],        # target index past the end
    [[{-1: 1}, {}], [{}, {}]],       # negative target index
    [[{"0": 1}, {}], [{}, {}]],      # a target index that is not an int
], ids=["short-vectors", "short-table", "short-rows", "index-2", "index-minus-1", "index-str"])
def test_wrong_shapes_and_indices_are_input_errors(table):
    with pytest.raises(InputDataError):
        LeibnizAlgebra(QQ, 2, table)
