"""Biderivation spaces and the actor crossed module.

The spaces are kernels of linear identity systems whose sparse rows
{unknown: coefficient} are read straight off the structure constants by two
reusable blocks on maps given as column templates of unknowns:
``_pair_rows`` (a biderivation pair at every index pair of a range of a
bracket table acting on the maps' target) and ``_boundary_rows`` (maps intertwine the
boundary).

* ``bider_qn(x)`` — pairs (der, antider) of maps base -> top of a crossed
  module: the pair block through its action.
* ``bider_algebra(a)`` — ``bider_qn`` of the identity crossed module on a.
* ``bider_xmod(x)`` — quadruples (top_der, top_antider, base_der,
  base_antider): on an identity, ``bider_qn(x)``'s pairs; otherwise one
  kernel of the boundary block and the pair rows, those of the base alone
  when the boundary is injective, a homomorphism and equivariant, else
  those of top x| base within and across its two layers.

Each space carries an induced Leibniz bracket, the one ``_pair_bracket``
taken on each pair of components: a quadruple's is the pair bracket on each
layer with mu = id.  ``actor`` assembles the crossed module (pair space) ->
(quadruple space) whose boundary sends a pair to its boundary-composed
quadruple (on an identity, the identity on Bider), and whose action tables
are pair brackets read by the same ``_bracket_table``: a quadruple is the
pair (s1, t1) with mu-images (s2, t2), and a pair is its own mu-images.

Every map built from the solved spaces is computed sparsely, on ints, and
only ``MapSpace`` knows how a member is laid out as maps.
``MapSpace.sparse_basis`` holds each echelon basis member as integer maps
``{row: {col: c}}`` over the denominator of its ``Subspace.scaled_rows``
row, read off the row's nonzero entries.  ``MapSpace.products`` sums signed
products of such maps into one flat integer vector over the lcm of the
products' denominators, and ``Subspace.read_coords`` is the one coordinate
reader: it refuses a vector with a nonzero ``Subspace.residue`` and divides
each pivot entry by the denominator, once.  The bracket tables, the actor's
action and ``delta`` go through ``MapSpace.read_products``.  Action data on
a crossed module induces a morphism into its actor: ``_induced_maps`` reads
each element's pair or quadruple, given by sparse columns, through
``MapSpace.read_columns``; ``MapSpace.member_columns``, its inverse, gives
``xaction.action_from_morphism`` the columns back.  The canonical morphism,
``lift_sequence`` and ``xaction.morphism_from_action`` only build the action
they hand it.  ``outer_xmod`` divides the actor by the column spaces of its
maps, the inner part; only ``inner_xmod`` builds the crossed module on them.
"""

from __future__ import annotations

import functools
import itertools
from bisect import bisect_right
from fractions import Fraction
from functools import cached_property
from math import lcm
from typing import Callable, Sequence

from .action import ActionData, _semidirect_table
from .algebra import _ONE, LeibnizAlgebra, SparseTensor, SparseVector, _evaluate, _units
from .fields import Field, record, replace
from .linalg import (
    Matrix,
    Number,
    ScaledVector,
    Subspace,
    _Preimages,
    _rescale,
    column_space,
    number,
    sparse_kernel,
)
from .xmod import (
    CrossedModule,
    NotExactError,
    QuotientXMod,
    ShortExactSequence,
    SubXMod,
    XModMorphism,
    _condition_warnings,
    image,
    quotient_xmod,
    validate_morphism,
)


# A map held by its nonzero entries {row: {col: c}}, each c a
# ``linalg.number``.  A scaled map (m, den), m with int entries and den > 0,
# stands for m / den; a member of a map space is a tuple of scaled maps that
# share one den.  A product term sign * (a @ b) of scaled maps is the triple
# (sign, a, b); a tuple of maps built from products is one list of terms per
# component.
SparseMatrix = dict[int, SparseVector]
ScaledMap = tuple[SparseMatrix, int]
ScaledMaps = tuple[ScaledMap, ...]
Product = tuple[int, ScaledMap, ScaledMap]
# A map given by its columns, each a sparse vector, and a sign: (sign, columns).
SignedColumns = tuple[int, Sequence[SparseVector]]


def _scaled_matrix(m: Matrix) -> ScaledMap:
    """A matrix as a scaled map: its entries times the lcm of their denominators."""
    rows = {i: row for i, row in enumerate(m.transpose().sparse_columns) if row}
    den = lcm(*(c.denominator for row in rows.values() for c in row.values()))
    return {i: {j: c.numerator * (den // c.denominator) for j, c in row.items()} for i, row in rows.items()}, den


def _compose(a: ScaledMap, b: ScaledMap) -> ScaledMap:
    """a @ b from nonzero entries only; entries are not reduced mod p, and
    terms that cancel leave a zero behind."""
    (am, ad), (bm, bd) = a, b
    out: SparseMatrix = {}
    for i, arow in am.items():
        acc: SparseVector = {}
        get = acc.get
        for j, x in arow.items():
            for k, y in bm.get(j, {}).items():
                acc[k] = get(k, 0) + x * y
        if acc:
            out[i] = acc
    return out, ad * bd


@record
class MapSpace:
    """A solution space of tuples of linear maps, with its induced bracket.

    ``space`` lives in the flat coordinate space obtained by concatenating
    the row-major entries of each map; ``algebra`` is the Leibniz structure
    on the canonical (echelon) basis of that space.
    """

    field: Field
    shapes: tuple[tuple[int, int], ...]
    space: Subspace
    algebra: LeibnizAlgebra

    @property
    def dim(self) -> int:
        return self.space.dim

    @cached_property
    def _blocks(self) -> list[_Map]:
        return _layout(self.shapes)

    @cached_property
    def sparse_basis(self) -> tuple[ScaledMaps, ...]:
        """The echelon basis, each member a tuple of integer maps over the
        one denominator of its scaled row (1 over F_p): each nonzero entry
        goes to the map of the last block starting at or before it."""
        starts = [off for off, _rows, _cols in self._blocks]
        members = []
        for vec, den in self.space.scaled_rows:
            maps: list[SparseMatrix] = [{} for _ in starts]
            for u, c in vec.items():
                b = bisect_right(starts, u) - 1
                i, j = divmod(u - starts[b], self.shapes[b][1])
                maps[b].setdefault(i, {})[j] = c
            members.append(tuple((m, den) for m in maps))
        return tuple(members)

    def products(self, components: Sequence[Sequence[Product]]) -> ScaledVector:
        """The flat vector of the tuple whose component c is the sum of the
        signed products listed for it, as integers over one denominator:
        a product's denominator is the product of its factors', and the sum
        is held over the lcm of them all."""
        out: SparseVector = {}
        get, den = out.get, 1
        for (off, _rows, cols), terms in zip(self._blocks, components):
            for sign, (a, ad), (b, bd) in terms:
                if not (a and b):
                    continue
                scale = ad * bd
                if scale != den:
                    if den % scale:
                        den = _rescale(out, den, scale)
                    sign *= den // scale
                for i, arow in a.items():
                    base = off + i * cols
                    for j, x in arow.items():
                        brow = b.get(j)
                        if brow:
                            fx = sign * x
                            for k, y in brow.items():
                                out[base + k] = get(base + k, 0) + fx * y
        return out, den

    def read_products(self, components: Sequence[Sequence[Product]], error: str) -> SparseVector:
        """``read_coords`` of ``products(components)``."""
        vec, den = self.products(components)
        return self.space.read_coords(vec, error, den)

    def read_columns(self, components: Sequence[SignedColumns], error: str) -> SparseVector:
        """``read_coords`` of the tuple of maps given by their signed columns."""
        out: SparseVector = {}
        for (off, _rows, cols), (sign, columns) in zip(self._blocks, components):
            for j, col in enumerate(columns):
                out.update((off + k * cols + j, sign * c) for k, c in col.items())
        return self.space.read_coords(out, error)

    def member_columns(self, coords: SparseVector) -> list[list[SparseVector]]:
        """The inverse of ``read_columns``: the sum of coords[t] / den times
        basis member t, each map as its sparse columns, entries unreduced
        for ``ActionData`` and ``XModActionData`` to store."""
        maps: list[list[SparseVector]] = [[{} for _ in range(cols)] for _rows, cols in self.shapes]
        for t, c in coords.items():
            for columns, (m, den) in zip(maps, self.sparse_basis[t]):
                f = c if den == 1 else number(Fraction(c, den))
                for i, row in m.items():
                    for j, v in row.items():
                        columns[j][i] = columns[j].get(i, 0) + f * v
        return maps


# -- constraint blocks ----------------------------------------------------
#
# The unknowns of a system are the entries of a tuple of maps, concatenated
# row-major.  A map enters a block as its column template: column x lists
# (k, u), the unknown u of its entry in row k, for every row k.  Every
# identity below is linear in the unknowns and vector valued; it is emitted
# as one sparse row {unknown: coefficient} per output coordinate, read
# straight off the sparse views of the structure constants.

_Map = tuple[int, int, int]  # (offset of its first entry, rows, cols)
_Columns = list[list[tuple[int, int]]]
_Row = dict[int, Number]


def _layout(shapes: tuple[tuple[int, int], ...]) -> list[_Map]:
    offsets = itertools.accumulate((r * c for r, c in shapes), initial=0)
    return [(off, r, c) for off, (r, c) in zip(offsets, shapes)]


def _columns(m: _Map, shift: int = 0) -> _Columns:
    """The column template of a map whose rows are numbered from shift."""
    off, rows, cols = m
    return [[(shift + k, off + k * cols + c) for k in range(rows)] for c in range(cols)]


def _applied(m: _Columns, vec: SparseVector):
    """Coordinate k of M(v) for a fixed vector v: sum_c v[c] M[k][c]."""
    return [(k, u, t) for c, t in vec.items() for k, u in m[c]]


def _sent(m: _Columns, x: int, images: Sequence[SparseVector]):
    """Coordinate k of T(M(e_x)) for a fixed linear T with T(e_i) = images[i]."""
    return [(k, u, t) for i, u in m[x] for k, t in images[i].items()]


def _collect(*terms) -> list[_Row]:
    """The rows of sum(sign * term) = 0, one per output coordinate reached, in order."""
    rows: dict[int, _Row] = {}
    for sign, contributions in terms:
        for k, u, t in contributions:
            row = rows.get(k)
            if row is None:
                row = rows[k] = {}
            row[u] = row.get(u, 0) + sign * t
    return [rows[k] for k in sorted(rows)]


def _pair_rows(table: SparseTensor, left: SparseTensor, right: SparseTensor, d: _Columns, dd: _Columns,
               indices: range) -> list[_Row]:
    """(d, dd) is a biderivation pair at every index pair (a, b) of the
    indices given: the maps go from the algebra with bracket ``table`` to a
    space on which it acts by left[a][i] = [e_a, m_i] and
    right[i][b] = [m_i, e_b], and

    d([a, b]) = [d(a), b] + [a, d(b)],  dd([a, b]) = [dd(a), b] - [dd(b), a],
    [a, d(b) - dd(b)] = 0.
    """
    right_by = [[row[b] for row in right] for b in range(len(table))]  # [m_i, e_b]

    def block(a: int, b: int, dd_ab: list, dd_ba: list) -> list[_Row]:
        """The rows at (a, b), given [dd(a), b] and [dd(b), a]."""
        d_b = _sent(d, b, left[a])
        return (_collect((1, _applied(d, table[a][b])), (-1, _sent(d, a, right_by[b])), (-1, d_b))
                + _collect((1, _applied(dd, table[a][b])), (-1, dd_ab), (1, dd_ba))
                + _collect((1, d_b), (-1, _sent(dd, b, left[a]))))

    # [dd(a), b] and [dd(b), a] enter the rows at (a, b) and at (b, a), so
    # both blocks are built at once, the later one kept until its turn
    rows: list[_Row] = []
    later: dict[tuple[int, int], list[_Row]] = {}
    for a, b in itertools.product(indices, repeat=2):
        if b < a:
            rows += later.pop((a, b))
            continue
        dd_ab = _sent(dd, a, right_by[b])
        dd_ba = _sent(dd, b, right_by[a]) if b != a else dd_ab
        rows += block(a, b, dd_ab, dd_ba)
        if b != a:
            later[(b, a)] = block(b, a, dd_ba, dd_ab)
    return rows


def _boundary_rows(mu: Matrix, top: _Columns, base: _Columns) -> list[_Row]:
    """The boundary intertwines the maps: mu @ top = base @ mu."""
    mu_cols = mu.sparse_columns
    rows: list[_Row] = []
    for j in range(mu.cols):
        rows += _collect((1, _sent(top, j, mu_cols)), (-1, _applied(base, mu_cols[j])))
    return rows


def _pair_bracket(u: Sequence[tuple], v: Sequence[tuple]) -> list[list[Product]]:
    """The bracket of two members given by their pairs, each as (d, dd, mu d,
    mu dd), taken pair by pair, as products per component:
    [(d1, dd1), (d2, dd2)] = (d1 mu d2 - d2 mu d1, dd1 mu d2 - d2 mu dd1)."""
    (d1, dd1, mu_d1, mu_dd1), (d2, _dd2, mu_d2, _mu_dd2) = u[0], v[0]
    terms = [[(1, d1, mu_d2), (-1, d2, mu_d1)], [(1, dd1, mu_d2), (-1, d2, mu_dd1)]]
    return terms + _pair_bracket(u[1:], v[1:]) if len(u) > 1 else terms


def _bracket_table(space: MapSpace, us: Sequence[Sequence[tuple]], vs: Sequence[Sequence[tuple]],
                   error: str) -> SparseTensor:
    """Entry (s, t) is the ``_pair_bracket`` of us[s] and vs[t], read in space."""
    return tuple(tuple(space.read_products(_pair_bracket(u, v), error) for v in vs) for u in us)


def _space_with_algebra(shapes: tuple[tuple[int, int], ...], space: Subspace,
                        prepare: Callable[[ScaledMaps], tuple]) -> MapSpace:
    """The solved space with the bracket table read off its echelon basis:
    the pair brackets of its members, prepare(basis[s]), which list one pair
    (d, dd, mu d, mu dd) per layer."""
    field = space.field
    solved = MapSpace(field, shapes, space, LeibnizAlgebra.abelian(field, 0))
    members = [prepare(m) for m in solved.sparse_basis]
    table = _bracket_table(solved, members, members, "bracket of two solutions left the solution space")
    return replace(solved, algebra=LeibnizAlgebra(field, solved.dim, table))


# -- pair spaces ----------------------------------------------------------


def bider_algebra(a: LeibnizAlgebra) -> MapSpace:
    """Biderivation pairs (der, antider) of a, the pair space of a -> a."""
    return bider_qn(CrossedModule.identity_on(a))


@functools.lru_cache(maxsize=None)
def bider_qn(x: CrossedModule) -> MapSpace:
    """Pairs of maps base -> top satisfying the pair identities through the action."""
    nd, qd = x.top.dim, x.base.dim
    shapes, act, mu = ((nd, qd),) * 2, x.action, _scaled_matrix(x.boundary)
    rows = _pair_rows(x.base.sparse_table, act.sparse_left, act.sparse_right,
                      *map(_columns, _layout(shapes)), range(qd))
    space = sparse_kernel(x.top.field, 2 * nd * qd, rows)
    return _space_with_algebra(shapes, space, lambda pair: [(*pair, _compose(mu, pair[0]), _compose(mu, pair[1]))])


# -- quadruple spaces on a crossed module --------------------------------


def _pulls_back(x: CrossedModule) -> bool:
    """Whether mu is injective, a homomorphism and equivariant (``hom``,
    ``XLb1-left`` and ``XLb1-right``), summed at every basis witness and
    stopping at the first nonzero sum."""
    if column_space(x.boundary).dim != x.top.dim:
        return False
    cols, mt, bt = x.boundary.sparse_columns, x.top.sparse_table, x.base.sparse_table
    left, right, eta = x.action.sparse_left, x.action.sparse_right, (cols,)
    ns, qs = range(x.top.dim), list(enumerate(_units(x.base.dim)))
    sums = itertools.chain(
        ([(1, eta, _ONE, mt[i][j]), (-1, bt, cols[i], cols[j])] for i in ns for j in ns),
        ([(1, eta, _ONE, left[a][i]), (-1, bt, e, cols[i])] for a, e in qs for i in ns),
        ([(1, eta, _ONE, right[i][a]), (-1, bt, cols[i], e)] for a, e in qs for i in ns))
    p = x.top.field.characteristic
    return not any(_evaluate(terms, p) for terms in sums)


@functools.lru_cache(maxsize=None)
def bider_xmod(x: CrossedModule) -> MapSpace:
    """Quadruples (s1, t1, s2, t2): pairs on the top and on the base that
    intertwine the boundary and are compatible with the action: the
    block-diagonal pair (s1 + s2, t1 + t2) on the semidirect product
    top x| base is a pair through its bracket across the two layers.

    On an identity crossed module they are read off ``bider_qn(x)``: mu = id
    forces s1 = s2 and t1 = t2, the action rows are then the pair rows of
    (s1, t1) through the bracket action, and the quadruple bracket is the
    pair bracket.  So each pair's scaled row is repeated at offset 2n^2, on
    the same pivots, with the pair space's algebra: no solve and no table.

    When mu is injective and passes ``hom`` and ``XLb1`` (``_pulls_back``),
    as on every ideal inclusion, the base pair rows and the boundary rows
    alone are the system: mu applied to each pair identity of the top, or
    across the layers, is a base pair identity at (mu m, mu m'), (p, mu m)
    or (mu m, p).  For instance mu s1([m, m']) = s2([mu m, mu m']) =
    [s2 mu m, mu m'] + [mu m, s2 mu m'] = mu([s1 m, m'] + [m, s1 m']) by
    ``hom`` and the boundary rows, and mu s1([p, m]) = s2([p, mu m]) =
    [s2 p, mu m] + [p, s2 mu m] = mu([s2 p, m] + [p, s1 m]) by ``XLb1``;
    ``XLb2`` is never used.  Injectivity pulls each identity back to the
    top, so these rows have the quadruples as their kernel.

    Otherwise the rows are the boundary rows and the pair rows of the
    block-diagonal pair at every index pair of top x| base.  Either way one
    kernel is the quadruple space, its canonical basis included.
    """
    nd, qd = x.top.dim, x.base.dim
    shapes = ((nd, nd), (nd, nd), (qd, qd), (qd, qd))
    off, f = 2 * nd * nd, x.top.field
    if x.is_identity():
        pairs = bider_qn(x)
        rows = tuple((row | {off + u: c for u, c in row.items()}, d) for row, d in pairs.space.scaled_rows)
        return MapSpace(f, shapes, Subspace(f, 2 * off, rows, pairs.space.pivots), pairs.algebra)
    maps = _layout(shapes)
    s1, t1, s2, t2 = map(_columns, maps)
    if _pulls_back(x):
        tab, d, dd, indices = x.base.sparse_table, s2, t2, range(qd)
    else:  # the block-diagonal pair on top x| base, the base rows numbered after the top's
        tab, indices = _semidirect_table(x.action), range(nd + qd)
        d, dd = s1 + _columns(maps[2], nd), t1 + _columns(maps[3], nd)
    rows = _pair_rows(tab, tab, tab, d, dd, indices) + _boundary_rows(x.boundary, s1, s2)
    space = sparse_kernel(f, off + 2 * qd * qd, rows + _boundary_rows(x.boundary, t1, t2))

    # mu = id on each layer, so its pair (s, t) is given as (s, t, s, t)
    return _space_with_algebra(shapes, space, lambda quad: [quad[:2] * 2, quad[2:] * 2])


# -- the actor ----------------------------------------------------------


def delta(x: CrossedModule) -> Matrix:
    """Boundary of the actor: compose a pair with the boundary on both sides."""
    pairs = bider_qn(x)
    quads = bider_xmod(x)
    mu = _scaled_matrix(x.boundary)
    error = "boundary-composed pair is not a quadruple solution"
    cols = [quads.read_products([[(1, d, mu)], [(1, dd, mu)], [(1, mu, d)], [(1, mu, dd)]], error)
            for d, dd in pairs.sparse_basis]
    return Matrix(x.top.field, quads.dim, pairs.dim, tuple(cols))


@functools.lru_cache(maxsize=None)
def actor(x: CrossedModule) -> CrossedModule:
    """The crossed module (pair space) -> (quadruple space).  On an identity
    crossed module it is the identity on Bider(x): the quadruples are the
    repeated pairs (``bider_xmod``), so ``delta``, a pair composed with
    mu = id, is the identity, and [quadruple, pair] and [pair, quadruple]
    are the pair bracket, so the action is the bracket."""
    if x.is_identity():
        return CrossedModule.identity_on(bider_qn(x).algebra)
    pairs = bider_qn(x)
    quads = bider_xmod(x)
    error = "actor action left the pair space"
    # [quadruple, pair] and [pair, quadruple] inside the actor's top layer
    ps = [[(d, dd, d, dd)] for d, dd in pairs.sparse_basis]
    qs = [[quad] for quad in quads.sparse_basis]
    act = ActionData(quads.algebra, pairs.algebra, _bracket_table(pairs, qs, ps, error),
                     _bracket_table(pairs, ps, qs, error))
    return CrossedModule(pairs.algebra, quads.algebra, delta(x), act)


def _induced_maps(y: CrossedModule, p_on_n: ActionData, p_on_q: ActionData, mq: SparseTensor,
                  qm: SparseTensor) -> tuple[Matrix, Matrix]:
    """The morphism into actor(y) induced by action data on y, as its
    (top_map, base_map): p_on_n and p_on_q are actions of P on y's top and
    base, mq[i][a] = [m_i, q_a] and qm[a][i] = [q_a, m_i] the pairings with
    values in y's top.  m_i goes to the pair (-qm[.][i], mq[i]), p_b to the
    quadruple (-right[.][b], left[b]) of p_on_n, then the same two of p_on_q."""
    pairs = bider_qn(y)
    quads = bider_xmod(y)
    ns, qs = range(y.top.dim), range(y.base.dim)
    top_cols = [pairs.read_columns([(-1, [qm[a][i] for a in qs]), (1, mq[i])],
                                   "induced pair is not a pair-space solution") for i in range(len(mq))]
    base_cols = [quads.read_columns([(-1, [p_on_n.sparse_right[j][b] for j in ns]), (1, p_on_n.sparse_left[b]),
                                     (-1, [p_on_q.sparse_right[a][b] for a in qs]), (1, p_on_q.sparse_left[b])],
                                    "induced quadruple is not a quadruple-space solution")
                 for b in range(p_on_n.actor.dim)]
    f = y.top.field
    return (Matrix(f, pairs.dim, len(top_cols), tuple(top_cols)),
            Matrix(f, quads.dim, len(base_cols), tuple(base_cols)))


@functools.lru_cache(maxsize=None)
def canonical_morphism(x: CrossedModule) -> XModMorphism:
    """x -> actor(x), induced by the action of x on itself: elements go to
    the pairs/quadruples they generate."""
    act = x.action
    top_map, base_map = _induced_maps(x, act, ActionData.by_bracket(x.base), act.sparse_right, act.sparse_left)
    return XModMorphism(x, actor(x), top_map, base_map)


def inner_xmod(x: CrossedModule) -> SubXMod:
    """Image of the canonical morphism inside the actor."""
    return image(canonical_morphism(x))


def outer_xmod(x: CrossedModule) -> QuotientXMod:
    """Actor modulo the inner part: the column spaces of the canonical
    morphism's maps, an ideal as ``quotient_xmod`` checks."""
    can = canonical_morphism(x)
    return quotient_xmod(actor(x), column_space(can.top_map), column_space(can.base_map))


# -- short exact sequences and lifting -----------------------------------


def sequence_problems(s: ShortExactSequence) -> list[str]:
    return _checked(s)[0]


def _checked(s: ShortExactSequence) -> tuple[list[str], dict[str, tuple[_Preimages, _Preimages]]]:
    """The problems, and the preimage solvers of each layer's inclusion and
    projection, which give their ranks (none if the endpoints do not match)."""
    problems = []
    if s.include.source != s.first or s.include.target != s.middle:
        problems.append("inclusion endpoints do not match the sequence")
    if s.project.source != s.middle or s.project.target != s.last:
        problems.append("projection endpoints do not match the sequence")
    if problems:
        return problems, {}
    if not validate_morphism(s.include).ok:
        problems.append("inclusion is not a morphism")
    if not validate_morphism(s.project).ok:
        problems.append("projection is not a morphism")
    solvers = {}
    for layer, inc, proj, first_dim, last_dim in (
        ("top", s.include.top_map, s.project.top_map, s.first.top.dim, s.last.top.dim),
        ("base", s.include.base_map, s.project.base_map, s.first.base.dim, s.last.base.dim),
    ):
        back, pull = solvers[layer] = _Preimages(inc), _Preimages(proj)
        if back.rank != first_dim:
            problems.append(f"{layer} inclusion is not injective")
        if pull.rank != last_dim:
            problems.append(f"{layer} projection is not surjective")
        # image = kernel: the image lies in the kernel, and the two have one dimension
        if any((proj @ inc).sparse_columns) or back.rank + pull.rank != inc.rows:
            problems.append(f"{layer} layer is not exact in the middle")
    return problems, solvers


@record
class LiftResult:
    """(middle -> actor(first)) plus the induced (last -> outer) data."""

    morphism: XModMorphism
    outer: QuotientXMod
    induced_top: Matrix
    induced_base: Matrix
    warnings: tuple[str, ...]


def lift_sequence(s: ShortExactSequence) -> LiftResult:
    """Extend the sequence's first part to its actor along the middle.

    Every middle element acts on the embedded copy of the first crossed
    module; pulling that action back through the (injective) inclusion gives
    the pair/quadruple the element generates, and passing to the quotient by
    the inner part yields the induced maps from the last crossed module into
    the outer one.  Each map is eliminated once, for the exactness check,
    whatever the number of values pulled back through it.
    """
    problems, solvers = _checked(s)
    if problems:
        raise NotExactError("; ".join(problems))
    x = s.first
    mid = s.middle
    f = x.top.field
    (top, pull_top), (base, pull_base) = solvers["top"], solvers["base"]
    ns, qs = s.include.top_map.sparse_columns, s.include.base_map.sparse_columns
    ms, ps = _units(mid.top.dim), _units(mid.base.dim)

    def pulled(back: Callable, view: SparseTensor, us: Sequence[SparseVector], vs: Sequence[SparseVector]):
        """view(u, v) for u in us and v in vs, pulled back through an inclusion."""
        return [[back(_evaluate([(1, view, u, v)], f.characteristic)) for v in vs] for u in us]

    # the middle's action on the embedded first crossed module, pulled back
    act, bt = mid.action, mid.base.sparse_table
    p_on_n = ActionData(mid.base, x.top, pulled(top, act.sparse_left, ps, ns), pulled(top, act.sparse_right, ns, ps))
    p_on_q = ActionData(mid.base, x.base, pulled(base, bt, ps, qs), pulled(base, bt, qs, ps))
    alpha, beta = _induced_maps(x, p_on_n, p_on_q, pulled(top, act.sparse_right, ms, qs),
                                pulled(top, act.sparse_left, qs, ms))

    morphism = XModMorphism(mid, actor(x), alpha, beta)
    out = outer_xmod(x)

    def induced(pull: _Preimages, lifted: Matrix, onto: Matrix, rows: int) -> Matrix:
        """last -> outer: pull each basis element back to the middle, lift it, project it."""
        return Matrix(f, onto.rows, rows, tuple(onto.apply(lifted.apply(pull({r: 1}))) for r in range(rows)))

    induced_top = induced(pull_top, alpha, out.top_project, s.project.top_map.rows)
    induced_base = induced(pull_base, beta, out.base_project, s.project.base_map.rows)

    return LiftResult(morphism, out, induced_top, induced_base, _condition_warnings(x))
