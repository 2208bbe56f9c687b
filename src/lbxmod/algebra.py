"""Finite-dimensional Leibniz (Loday) algebras via structure-constant tables.

An algebra of dimension n over a field k is the table of basis brackets:
``sparse_table[i][j]`` holds the nonzero coordinates of [e_i, e_j].  The
defining identity used throughout is the left version

    [[x, y], z] = [x, [y, z]] + [[x, z], y].
"""

from __future__ import annotations

from functools import cached_property
from itertools import groupby
from operator import itemgetter
from typing import Callable, Iterable, Mapping, Optional, Sequence

from .fields import Field, InputDataError, Scalar, record
from .linalg import Matrix, Number, ScaledVector, Subspace, _dense, _sparse, _stored, sparse_kernel

MAX_DIM = 64  # guard against accidentally huge inputs


def _check_dim(dim: int) -> None:
    """Refuse an input dimension outside [0, MAX_DIM], before anything is
    allocated.  Spaces derived from an input (pair and quadruple spaces,
    sums, semidirect products) are not capped."""
    if not 0 <= dim <= MAX_DIM:
        raise InputDataError(f"dimension {dim} outside [0, {MAX_DIM}]")


# -- sparse coordinates ---------------------------------------------------
#
# A vector is held by its nonzero coordinates {k: c}, each c a
# ``linalg.number``: an int residue in [0, p) over F_p; over Q an int when
# integral, else a Fraction.  Every structure tensor (an algebra's table, an
# action's two brackets, a pairing) is stored that way, as its sparse view:
# view[i][j] is such a vector.  ``linalg._stored`` makes that form from a
# dense or a sparse tensor; the dense tensors are derived from it only on
# request.  A matrix m is the view (m.sparse_columns,) of (1, v) -> m v.
# ``_accumulate`` is the one contraction kernel: every bracket, action and
# pairing is evaluated by it from nonzero terms only.  A linear combination
# of contractions is a list of terms (sign, view, x, y).  The validators
# evaluate each identity at all its witnesses at once instead
# (``_violations`` below), and the kernel only writes out a violated one.

SparseVector = dict[int, Number]
SparseTensor = tuple[tuple[SparseVector, ...], ...]
Tensor = tuple[tuple[tuple[Scalar, ...], ...], ...]  # a dense view
Term = tuple[int, SparseTensor, SparseVector, SparseVector]  # sign * view(x, y)
_ONE: SparseVector = {0: 1}  # the left argument that turns the view (m.sparse_columns,) into the map m


def _store(obj, name: str, field: Field, shape: tuple[int, int, int], what: str) -> None:
    """Replace a tensor field of a record by its stored form."""
    object.__setattr__(obj, name, _stored(field, getattr(obj, name), shape, what))


def _dense_view(view: str, field_and_dim) -> cached_property:
    """The dense tensor of a stored view, derived on first request;
    field_and_dim(obj) gives the field and the length of its vectors."""
    def dense(self) -> Tensor:
        field, dim = field_and_dim(self)
        return tuple(tuple(_dense(field, dim, v) for v in row) for row in getattr(self, view))

    return cached_property(dense)


def _blocks(sizes0: Sequence[int], sizes1: Sequence[int], grid) -> SparseTensor:
    """A tensor assembled from blocks: grid[r][c] fills the rows of block r
    (sizes0[r] of them) and the columns of block c (sizes1[c]).  It is None
    for a zero block, or (view, shift) for a view whose coordinates move up
    by shift."""
    out = []
    for d0, blocks in zip(sizes0, grid):
        for a in range(d0):
            row: list[SparseVector] = []
            for d1, block in zip(sizes1, blocks):
                if block is None:
                    row += [{}] * d1
                else:
                    view, shift = block
                    row += view[a] if not shift else [{k + shift: c for k, c in v.items()} for v in view[a]]
            out.append(tuple(row))
    return tuple(out)


def _units(n: int) -> list[SparseVector]:
    """The sparse unit vectors e_0, ..., e_{n-1}."""
    return [{i: 1} for i in range(n)]


def _accumulate(out: SparseVector, sign: int, view: SparseTensor, x: SparseVector,
                y: SparseVector) -> None:
    """out += sign * sum_{i,j} x[i] y[j] view[i][j], from nonzero terms only."""
    get = out.get
    for i, a in x.items():
        row = view[i]
        for j, b in y.items():
            ab = sign * a * b
            for k, t in row[j].items():
                out[k] = get(k, 0) + ab * t


def _evaluate(terms: Sequence[Term], p: int) -> SparseVector:
    """The sum of the terms, reduced mod p (p = 0 over Q), without zeros."""
    out: SparseVector = {}
    for sign, view, x, y in terms:
        _accumulate(out, sign, view, x, y)
    if p:
        return {k: c % p for k, c in out.items() if c % p}
    return {k: c for k, c in out.items() if c}


def _contract(field: Field, view: SparseTensor, x: Sequence[Scalar], y: Sequence[Scalar],
              out_dim: int) -> tuple[Scalar, ...]:
    """The bilinear map of a sparse view on dense vectors."""
    return _dense(field, out_dim, _evaluate([(1, view, _sparse(x), _sparse(y))], field.characteristic))


@record
class LeibnizAlgebra:
    field: Field
    dim: int
    sparse_table: SparseTensor  # dense or sparse on input; stored by ``_stored``
    names: Optional[tuple[str, ...]] = None

    def __post_init__(self) -> None:
        _store(self, "sparse_table", self.field, (self.dim,) * 3, "structure table")
        if self.names is not None and len(self.names) != self.dim:
            raise InputDataError("basis name list does not match dimension")

    table = _dense_view("sparse_table", lambda a: (a.field, a.dim))  # table[i][j] = [e_i, e_j], dense

    # -- construction -------------------------------------------------

    @classmethod
    def from_brackets(
        cls,
        field: Field,
        dim: int,
        brackets: Mapping[tuple[int, int], Mapping[int, object]],
        names: Optional[Sequence[str]] = None,
    ) -> "LeibnizAlgebra":
        """Build from a sparse {(i, j): {k: coefficient}} description."""
        _check_dim(dim)
        tab = [[{}] * dim for _ in range(dim)]
        for (i, j), terms in brackets.items():
            if not (0 <= i < dim and 0 <= j < dim):
                raise InputDataError(f"bracket index ({i}, {j}) out of range")
            tab[i][j] = dict(terms)
        return cls(field, dim, tuple(map(tuple, tab)), tuple(names) if names is not None else None)

    @classmethod
    def abelian(cls, field: Field, dim: int, names: Optional[Sequence[str]] = None) -> "LeibnizAlgebra":
        return cls.from_brackets(field, dim, {}, names)

    # -- basic operations ---------------------------------------------

    def bracket(self, x: Sequence[Scalar], y: Sequence[Scalar]) -> tuple[Scalar, ...]:
        return _contract(self.field, self.sparse_table, x, y, self.dim)


@record
class Violation:
    axiom: str
    witness: tuple[int, ...]
    lhs: tuple[Scalar, ...]
    rhs: tuple[Scalar, ...]


@record
class ValidationReport:
    violations: tuple[Violation, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.violations

    def labels(self) -> tuple[str, ...]:
        return tuple(sorted({v.axiom for v in self.violations}))


# -- identities over all witnesses -------------------------------------------
#
# A validator declares each identity as (label, witness, loop, dim, lhs, rhs):
# witness and loop order the same variable letters, each a basis index over
# the range given for it, and dim is the dimension of the values.  A side is
# a list of terms (sign, view, x, y) whose arguments are families (entries,
# vars) of sparse vectors entries[v1][v2]... indexed by the letters in vars:
# (_ONE, "") is the constant, (columns, "i") a map's column i, and a bare
# letter v the unit vectors e_v.  Every term uses each loop variable once.
# ``_violations`` sums a term at every witness from the nonzero products
# x[c] view[c][d] y[d] alone, one value of the outermost loop variable at a
# time.  A witness is numbered in the mixed radix of the loop order, so the
# numbers sort as nested loops run.  Identities declared in a row with one
# loop order form a block whose violations come in loop order and, at one
# witness, in declaration order: the order of nested loops over basis
# elements.  A call checks each block's loop letters once and each term's
# letters against them, and builds each grouping of a family or a view (by
# outermost value, by coordinate, by row or column) once, on first use.  The
# validators call it only for identities that can fail: an identity crossed
# module and an algebra acting on itself by its bracket are decided by the
# algebra's Leibniz identity when that holds (``validate_xmod``,
# ``validate_action``).  The validators that check components share one memo
# of their reports per call (``_once``).

Identity = tuple[str, str, str, int, Sequence[tuple], Sequence[tuple]]


def _members(entries, strides: tuple[int, ...]) -> Iterable[tuple[int, SparseVector]]:
    """(number, vector) for each nonzero vector of a family of depth 0, 1 or 2;
    its number is the sum of its indices times the strides."""
    if not strides:
        yield from [(0, entries)] if entries else []
    elif len(strides) == 1:
        yield from ((a * strides[0], vec) for a, vec in enumerate(entries) if vec)
    else:
        s, t = strides
        yield from ((a * s + b * t, vec) for a, row in enumerate(entries) for b, vec in enumerate(row) if vec)


def _grouped(memo: dict, key: tuple, pairs: Callable[[], Iterable[tuple]]) -> dict:
    """The values v of the pairs (k, v) that pairs() lists, by k; pairs is
    called only the first time a key is asked for."""
    out = memo.get(key)
    if out is None:
        out = memo[key] = {}
        for k, v in pairs():
            out.setdefault(k, []).append(v)
    return out


def _plan(sign: int, term: tuple, loop: str, units: Mapping[str, list], strides: Mapping[str, int],
          memo: dict) -> tuple:
    """A term split at the outermost loop variable: the members of the
    argument that holds it by the variable's value, the other argument's
    members by coordinate, and the view's nonzero entries along the first
    argument.  A member carries its part of the witness number."""
    t_sign, view, x, y = term
    (xe, xv), (ye, yv) = ((units[a], a) if isinstance(a, str) else a for a in (x, y))
    assert sorted(xv + yv) == sorted(loop), (xv, yv, loop)
    left = loop[0] in xv
    (fe, fv), (oe, ov) = ((xe, xv), (ye, yv)) if left else ((ye, yv), (xe, xv))
    f_strides, o_strides = tuple(strides[v] for v in fv), tuple(strides[v] for v in ov)
    outer = strides[loop[0]]
    groups = _grouped(memo, (id(fe), f_strides, outer),
                      lambda: ((k // outer, (k, vec)) for k, vec in _members(fe, f_strides)))
    index = _grouped(memo, (id(oe), o_strides),
                     lambda: ((d, (k, c)) for k, vec in _members(oe, o_strides) for d, c in vec.items()))
    lines = _grouped(memo, (id(view), "rows" if left else "columns"),
                     lambda: ((c, (d, t)) if left else (d, (c, t))
                              for c, row in enumerate(view) for d, t in enumerate(row) if t))
    return sign * t_sign, groups, index, lines


def _add_slice(out: dict, v: int, dim: int, sign: int, groups: dict, index: dict, lines: dict) -> None:
    """out[witness * dim + r] += coordinate r of the term, at every witness
    whose outermost index is v."""
    get = out.get
    for kf, f in groups.get(v, ()):
        for c, fc in f.items():
            fc *= sign
            for d, t in lines.get(c, ()):
                for ko, oc in index.get(d, ()):
                    at, s = (kf + ko) * dim, fc * oc
                    for r, tr in t.items():
                        out[at + r] = get(at + r, 0) + s * tr


def _member(arg, at: Mapping[str, int]) -> SparseVector:
    entries, names = ({at[arg]: 1}, "") if isinstance(arg, str) else arg
    for v in names:
        entries = entries[at[v]]
    return entries


def _violations(field: Field, dims: Mapping[str, int], identities: Sequence[Identity]) -> list[Violation]:
    """The violations of the identities, both sides as dense vectors."""
    p, bad, memo = field.characteristic, [], {}
    units = {v: _units(n) for v, n in dims.items()}
    for loop, block in groupby(identities, key=itemgetter(2)):
        assert len(loop) > 1 and len(set(loop)) == len(loop), loop
        block, strides, size = list(block), {}, 1
        for w in reversed(loop):
            strides[w], size = size, size * dims[w]
        if not size:
            continue
        plans = [(dim, [_plan(s, term, loop, units, strides, memo) for s, side in ((1, lhs), (-1, rhs))
                        for term in side]) for _label, _witness, _loop, dim, lhs, rhs in block]
        for v in range(dims[loop[0]]):
            found = []
            for idx, (dim, terms) in enumerate(plans):
                diff: dict = {}
                for plan in terms:
                    _add_slice(diff, v, dim, *plan)
                found += {(k // dim, idx) for k, c in diff.items() if (c % p if p else c)}
            for k, idx in sorted(found):
                label, witness, _loop, dim, lhs, rhs = block[idx]
                at = {}
                for w in reversed(loop):
                    k, at[w] = divmod(k, dims[w])
                sides = ([(s, view, _member(x, at), _member(y, at)) for s, view, x, y in side] for side in (lhs, rhs))
                bad.append(Violation(label, tuple(at[w] for w in witness),
                                     *(_dense(field, dim, _evaluate(side, p)) for side in sides)))
    return bad


def _prefixed(*reports: tuple[str, ValidationReport]) -> list[Violation]:
    """The violations of each report, their labels prefixed."""
    return [Violation(prefix + v.axiom, v.witness, v.lhs, v.rhs) for prefix, rep in reports for v in rep.violations]


def _once(reports: dict, validate, obj) -> ValidationReport:
    """The ``check(validate, component)`` of one validation call, started by
    a validator called without one: each component's report, kept by the
    component's value, so equal components are checked once."""
    if obj not in reports:
        reports[obj] = validate(obj)
    return reports[obj]


def validate_leibniz(a: LeibnizAlgebra) -> ValidationReport:
    """Check [[x,y],z] = [x,[y,z]] + [[x,z],y] on all basis triples."""
    t = a.sparse_table
    return ValidationReport(tuple(_violations(a.field, dict.fromkeys("ijk", a.dim), [
        ("leibniz", "ijk", "ijk", a.dim, [(1, t, (t, "ij"), "k")], [(1, t, "i", (t, "jk")), (1, t, (t, "ik"), "j")]),
    ])))


# -- kernels, closure and induced structure on subspaces --------------------
#
# A kernel is solved from sparse rows {unknown: coefficient} with
# ``sparse_kernel``; a value is tested against a subspace, or read in its
# coordinates, through ``Subspace.residue``.


def _image_rows(*maps: Iterable[SparseVector]) -> list[dict[int, Number]]:
    """The rows of sum_u x[u] * m[u] = 0 for each map m listed by its images
    m[u] of e_u: one row per (map, output coordinate)."""
    out: list[dict[int, Number]] = []
    for images in maps:
        rows: dict[int, dict[int, Number]] = {}
        for u, img in enumerate(images):
            for k, c in img.items():
                rows.setdefault(k, {})[u] = c
        out += rows.values()
    return out


def _annihilator_rows(a: LeibnizAlgebra) -> list[dict[int, Number]]:
    """[e_i, x] = 0 = [x, e_i] for every basis element e_i."""
    t, n = a.sparse_table, range(a.dim)
    return _image_rows(*(t[i] for i in n), *([t[u][i] for u in n] for i in n))


def _closed(s: Subspace, terms: Iterable[Term]) -> bool:
    """Whether every term (sign, view, x, y) evaluates into s."""
    p = s.field.characteristic
    return not any(s.residue(_evaluate([term], p)) for term in terms)


def _restricted(s: Subspace, view: SparseTensor, xs: Sequence[ScaledVector], ys: Sequence[ScaledVector],
                error: str) -> SparseTensor:
    """The view of (x / dx, y / dy) -> view(x / dx, y / dy) for (x, dx) in
    xs and (y, dy) in ys, in the coordinates of s's basis rows; a
    ``LinearSolveError(error)`` if a value leaves s."""
    p = s.field.characteristic
    return tuple(tuple(s.read_coords(_evaluate([(1, view, x, y)], p), error, dx * dy) for y, dy in ys)
                 for x, dx in xs)


def annihilator(a: LeibnizAlgebra) -> Subspace:
    """{x : [y, x] = 0 = [x, y] for all y}, the two-sided annihilator."""
    return sparse_kernel(a.field, a.dim, _annihilator_rows(a))


def commutator(a: LeibnizAlgebra) -> Subspace:
    """Span of all basis brackets [e_i, e_j]."""
    return Subspace.from_rows(a.field, a.dim, (v for row in a.sparse_table for v in row))


def is_ideal(a: LeibnizAlgebra, s: Subspace) -> bool:
    if s.ambient != a.dim:
        raise InputDataError("subspace does not live in the algebra")
    t = a.sparse_table
    rows = [v for v, _d in s.scaled_rows]  # membership does not see the scale
    return _closed(s, ((1, t, x, y) for v in rows for u in _units(a.dim) for x, y in ((u, v), (v, u))))


def subalgebra_on(a: LeibnizAlgebra, s: Subspace) -> tuple[LeibnizAlgebra, Matrix]:
    """The induced algebra on a bracket-closed subspace.

    Returns the small algebra in the coordinates of s's basis rows together
    with the inclusion matrix (a.dim x s.dim).
    """
    rows = s.scaled_rows
    tab = _restricted(s, a.sparse_table, rows, rows, "subspace is not closed under the bracket")
    return LeibnizAlgebra(a.field, s.dim, tab), s.inclusion()


def quotient_algebra(a: LeibnizAlgebra, ideal: Subspace) -> tuple[LeibnizAlgebra, Matrix]:
    """Quotient by a two-sided ideal, with the projection matrix.

    Representatives are the standard basis vectors at the non-pivot
    coordinates of the ideal's echelon basis, in index order.
    """
    if not is_ideal(a, ideal):
        raise InputDataError("quotient requested by a subspace that is not an ideal")
    return _quotient(a, ideal)


def _quotient(a: LeibnizAlgebra, ideal: Subspace) -> tuple[LeibnizAlgebra, Matrix]:
    """``quotient_algebra`` by a subspace already known to be an ideal."""
    if not ideal.dim:  # the algebra itself, without its names
        return LeibnizAlgebra(a.field, a.dim, a.sparse_table), Matrix.identity(a.field, a.dim)
    t, reps = a.sparse_table, ideal.complement_indices()
    tab = tuple(tuple(ideal.project(t[r][s]) for s in reps) for r in reps)
    return LeibnizAlgebra(a.field, len(reps), tab), ideal.projection_matrix()


def direct_sum(a: LeibnizAlgebra, b: LeibnizAlgebra) -> tuple[LeibnizAlgebra, Matrix, Matrix]:
    """Block direct sum with the two inclusion matrices."""
    if a.field != b.field:
        raise InputDataError("direct sum over different fields")
    n = a.dim + b.dim
    tab = _blocks((a.dim, b.dim), (a.dim, b.dim), [[(a.sparse_table, 0), None], [None, (b.sparse_table, a.dim)]])
    alg = LeibnizAlgebra(a.field, n, tab)
    incl_a = Matrix(a.field, n, a.dim, tuple(_units(a.dim)))
    incl_b = Matrix(a.field, n, b.dim, tuple({a.dim + i: 1} for i in range(b.dim)))
    return alg, incl_a, incl_b
