"""The member layout of a solved map space, and the zero-ideal quotient.

``MapSpace`` is the one place that knows how a member of a solved space is
laid out as maps: ``sparse_basis`` reads each scaled row's nonzero entries
into the maps they belong to, and ``member_columns`` gives the member with
given coordinates as the sparse columns of its maps, the inverse of
``read_columns``.  ``sparse_basis`` is compared exactly with the
range-walking version it replaced (``reference_stages``), and
``member_columns`` with the dense ``member_maps``, on pair and quadruple
spaces over Q, F2 and F3, in standard and seeded bases, identity crossed
modules included.  The pair space is solved only on a crossed module, whose
pair table closes; the quadruples are solved on any input.  The quotient by
a zero ideal is the algebra itself, read without projecting a single table
entry.
"""
import random
from fractions import Fraction

import pytest
from conftest import FIELDS, XMOD_IDS
from hypothesis import given, settings
from hypothesis import strategies as st
from strategies import algebras, null_filiform, quadruple_inputs, sl2

import reference_stages as ref
from lbxmod import linalg
from lbxmod.action import ActionData
from lbxmod.algebra import LeibnizAlgebra, _quotient
from lbxmod.bider import bider_qn, bider_xmod
from lbxmod.catalog import build_entry
from lbxmod.fields import GF3, QQ
from lbxmod.linalg import Matrix, Subspace, number
from lbxmod.xmod import CrossedModule, validate_xmod


def _random_coords(space, rng):
    """Sparse coordinates on the space's basis, in stored form, some zero."""
    f = space.field
    values = (1, 2) if f.characteristic else (-3, -1, 1, 2, Fraction(1, 2), Fraction(-5, 3))
    coords = {t: number(f.coerce(rng.choice(values))) for t in range(space.dim) if rng.random() < 0.6}
    return {t: c for t, c in coords.items() if c}


def _dense_columns(space, coords):
    """``member_columns`` from the dense basis rows, each entry a number."""
    f = space.field
    dense = [f.zero] * space.dim
    for t, c in coords.items():
        dense[t] = f.coerce(c)
    return [[{i: number(row[j]) for i, row in enumerate(m.entries) if row[j]} for j in range(m.cols)]
            for m in ref.member_maps(space, dense)]


def _reduced(field, maps):
    """The columns with each entry read in the field, zeros dropped."""
    p = field.characteristic
    return [[{i: c % p if p else c for i, c in col.items() if (c % p if p else c)} for col in cols] for cols in maps]


def _layout_holds(space, rng):
    assert space.sparse_basis == ref.range_walking_sparse_basis(space)
    for _ in range(3):
        coords = _random_coords(space, rng)
        maps = space.member_columns(coords)
        assert space.read_columns([(1, cols) for cols in maps], "not a member") == coords
        assert _reduced(space.field, maps) == _dense_columns(space, coords)


@given(st.sampled_from(FIELDS), st.data())
@settings(max_examples=150, deadline=None)
def test_the_member_layout_matches_the_range_walk(field, data):
    """On the quadruple spaces of drawn inputs, and the pair spaces of those
    that are crossed modules, in their standard basis and rebased: an
    identity by one change of basis of both layers, so that it stays an
    identity, any other by one per layer."""
    x = data.draw(quadruple_inputs(field))
    seed = data.draw(st.none() | st.integers(0, 2**16))
    if seed is not None:
        x = ref.rebase_xmod(x, random.Random(seed), same_basis=x.is_identity())
    rng = random.Random(seed)
    if validate_xmod(x).ok:
        _layout_holds(bider_qn(x), rng)
    _layout_holds(bider_xmod(x), rng)


@pytest.mark.parametrize("field, left, right", [
    (QQ, ({2: 1}, {}, {}), ({}, {}, {2: 1})),
    (GF3, ({1: 1}, {0: 2, 1: 1, 2: 1}, {0: 1, 2: 2}), ({1: 1}, {}, {})),
], ids=["q", "f3"])
def test_the_quadruple_layout_of_input_that_is_no_crossed_module(field, left, right):
    """Two draws on which the pair table does not close: an action of the
    1-dimensional abelian base f0 on the 3-dimensional abelian top, with
    boundary e2 -> f0, given by [f0, e_i] = left[i] and [e_i, f0] = right[i].
    ``validate_xmod`` refuses them and solving the pair space raises, yet the
    quadruples are solved, and their layout holds."""
    top, base = LeibnizAlgebra.abelian(field, 3), LeibnizAlgebra.abelian(field, 1)
    act = ActionData(base, top, (left,), tuple((v,) for v in right))
    x = CrossedModule(top, base, Matrix.from_rows(field, [[0, 0, 1]]), act)
    assert not validate_xmod(x).ok
    with pytest.raises(linalg.LinearSolveError):
        bider_qn(x)
    _layout_holds(bider_xmod(x), random.Random(0))


@pytest.mark.parametrize("make", [sl2, lambda f: null_filiform(f, 4), lambda f: LeibnizAlgebra.abelian(f, 2)],
                         ids=["sl2", "nf4", "a2"])
@pytest.mark.parametrize("seed", [None, 7])
def test_the_member_layout_of_an_identity(make, seed, field):
    """An identity's quadruple space repeats its pair space's rows, unsolved;
    its layout is read off its own rows like any other space's."""
    x = CrossedModule.identity_on(make(field))
    if seed is not None:
        x = ref.rebase_xmod(x, random.Random(seed), same_basis=True)
    assert x.is_identity()
    rng = random.Random(seed)
    _layout_holds(bider_qn(x), rng)
    _layout_holds(bider_xmod(x), rng)
    assert bider_xmod(x).sparse_basis == tuple(m + m for m in bider_qn(x).sparse_basis)


@pytest.mark.parametrize("cid", XMOD_IDS)
def test_the_member_layout_of_catalog_entries(cid, field):
    x = build_entry(cid, field)
    rng = random.Random(cid)
    _layout_holds(bider_qn(x), rng)
    _layout_holds(bider_xmod(x), rng)


# -- the quotient by a zero ideal ----------------------------------------------


def _zero_quotients(a, monkeypatch):
    """``_quotient`` of a by its zero ideal, and the ``Subspace.project`` calls it made."""
    calls = []
    project = Subspace.project
    monkeypatch.setattr(Subspace, "project", lambda self, vec: calls.append(vec) or project(self, vec))
    out = _quotient(a, Subspace.zero(a.field, a.dim))
    monkeypatch.undo()
    return out, calls


@pytest.mark.parametrize("make", [sl2, lambda f: null_filiform(f, 4), lambda f: LeibnizAlgebra.abelian(f, 2)],
                         ids=["sl2", "nf4", "a2"])
def test_the_quotient_by_the_zero_ideal_projects_nothing(make, field, monkeypatch):
    a = make(field)
    named = LeibnizAlgebra(field, a.dim, a.sparse_table, tuple(f"x{i}" for i in range(a.dim)))
    (q, proj), calls = _zero_quotients(named, monkeypatch)
    assert calls == []
    assert (q, proj) == ref.quotient_algebra(a, Subspace.zero(field, a.dim))
    assert q == a and q.names is None  # names are dropped, as by any quotient
    assert proj == Matrix.identity(field, a.dim)


@given(st.sampled_from(FIELDS).flatmap(algebras))
@settings(max_examples=60, deadline=None)
def test_the_zero_ideal_quotient_is_the_general_one(a):
    """On drawn tables, which need not be Leibniz, as ``_quotient`` trusts
    its caller that the subspace is an ideal, and the zero subspace is one."""
    with pytest.MonkeyPatch.context() as monkeypatch:
        (q, proj), calls = _zero_quotients(a, monkeypatch)
    assert calls == []
    assert (q, proj) == ref.quotient_algebra(a, Subspace.zero(a.field, a.dim))
