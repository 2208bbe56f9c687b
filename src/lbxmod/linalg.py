"""Exact linear algebra over a field object.

A linear map f: k^c -> k^r is an r x c ``Matrix`` acting on column vectors,
held by its sparse columns: column j is the image of e_j,
``{row: coefficient}``.  Subspaces of k^n are held by their unique reduced
echelon basis, which makes equality of subspaces plain equality and keeps
every downstream report canonical.  Both store only that sparse form; the
dense rows (``Matrix.entries``) and the dense echelon basis
(``Subspace.basis``) are views, built on request.

All elimination runs in one kernel, ``_sparse_rref``, on sparse rows
``{column: coefficient}``: plain ``int`` residues over F_p, and over Q
fraction-free steps on primitive integer rows.  The kernel never divides:
each echelon row ``I`` leaves it with a positive pivot entry ``d`` (1 over
F_p), and stands for ``I / d``.  A ``Subspace`` keeps these ``scaled_rows``
as its basis, and every membership, coordinate and projection test is one
sparse ``residue`` on them, computed on ints and divided only where
something is left.

A coefficient is stored as a ``number``: an int residue in [0, p) over F_p;
over Q an int when integral, else a Fraction, never zero.  ``_stored`` makes
that form from dense or sparse input, for matrices here and for the
structure tensors of ``algebra``; a tensor already in that form (as the
JSON readers and most stages build it) is recognised by whole-tensor passes,
which read keys and values from its nonempty vectors only, and kept as it
is.  A class that holds it hashes by ``fields.record``'s one rule, a dict by
the frozenset of its items.
"""

from __future__ import annotations

from functools import cached_property
from fractions import Fraction
from itertools import chain
from math import gcd, lcm
from operator import attrgetter
from typing import Iterable, Mapping, Optional, Sequence, Union

from .fields import Field, FpElement, InputDataError, Scalar, record

# A sparse coefficient: a rational (an int when integral), or an int read mod p.
Number = Union[int, Fraction]
# A sparse vector held as integer entries over one positive denominator:
# (I, d) stands for I / d.
ScaledVector = tuple[dict[int, int], int]


class LinearSolveError(RuntimeError):
    """A vector that theory says must lie in a solution space does not.

    Raising this means a bug (or an invalid input that slipped past
    validation), never a normal failure mode.
    """


def _is_stored(tensor, shape: tuple[int, int, int], p: int) -> bool:
    """Whether a tensor is in stored form: a tuple of d0 tuples of d1 dicts,
    each key an int in [0, d2) and each value a ``number`` other than 0.
    Checked over the whole tensor at once, one pass per property; once every
    vector is a dict, the keys and values come from the nonempty ones only."""
    d0, d1, d2 = shape
    if not (type(tensor) is tuple and len(tensor) == d0
            and set(map(type, tensor)) <= {tuple} and set(map(len, tensor)) <= {d1}):
        return False
    vecs = list(chain.from_iterable(tensor))
    if not set(map(type, vecs)) <= {dict}:
        return False
    vecs = list(filter(None, vecs))
    if not vecs:
        return True
    keys = list(chain.from_iterable(vecs))
    if set(map(type, keys)) != {int} or min(keys) < 0 or max(keys) >= d2:
        return False
    values = list(chain.from_iterable(map(dict.values, vecs)))
    kinds = list(map(type, values))
    if p:
        return set(kinds) == {int} and min(values) > 0 and max(values) < p
    # ints are never 0, and a Fraction is never integral: of the values only
    # the ints have denominator 1
    return (set(kinds) <= {int, Fraction} and 0 not in values
            and list(map(attrgetter("denominator"), values)).count(1) == kinds.count(int))


def _stored(field: Field, tensor, shape: tuple[int, int, int], what: str) -> tuple:
    """A d0 x d1 x d2 tensor in stored form: no zero entries, each entry a
    ``number`` of the field.  Each vector tensor[a][b] is given dense (d2
    scalars) or sparse (a dict {k: c}); a scalar of another field is a
    TypeError, as in ``field.coerce``.  A tensor already in stored form is
    recognised by ``_is_stored`` and returned as it is, so a view handed on
    is shared, not copied; any other tensor is normalized vector by vector."""
    if _is_stored(tensor, shape, field.characteristic):
        return tensor
    d0, d1, d2 = shape
    bad_shape = f"{what} shape is not {d0}x{d1}x{d2}"
    if len(tensor) != d0 or any(len(row) != d1 for row in tensor):
        raise InputDataError(bad_shape)
    p, coerce, scalar = field.characteristic, field.coerce, type(field.zero)

    def kept(c) -> bool:  # an entry already in stored form
        return type(c) is int and (0 < c < p if p else c != 0) or not p and type(c) is Fraction and c.denominator != 1

    def vector(v) -> dict[int, Number]:
        if not isinstance(v, dict):
            if len(v) != d2:
                raise InputDataError(bad_shape)
            items = enumerate(v)
        elif type(v) is dict and (not v or all(type(k) is int and 0 <= k < d2 and kept(c) for k, c in v.items())):
            return v
        elif all(type(k) is int and 0 <= k < d2 for k in v):
            items = v.items()
        else:
            raise InputDataError(f"{what} has an index outside [0, {d2})")
        out: dict[int, Number] = {}
        for k, c in items:
            if type(c) is not int:
                if type(c) is not scalar or p and c.p != p:
                    c = coerce(c)  # a scalar of another field is refused
                c = number(c) if c else 0
            if p:
                c %= p
            if c:
                out[k] = c
        return out

    return tuple(tuple(map(vector, row)) for row in tensor)


@record
class Matrix:
    """An r x c matrix held by its c sparse columns ``{row: number}``.

    The constructor also takes the dense rows in the same place (r rows of
    c scalars); both are brought to the stored form by ``_stored``."""

    field: Field
    rows: int
    cols: int
    sparse_columns: tuple[dict[int, Number], ...]

    def __post_init__(self) -> None:
        data = self.sparse_columns
        if len(data) != self.cols or not all(isinstance(v, dict) for v in data):  # dense rows
            if len(data) != self.rows:
                raise InputDataError(f"expected {self.rows} rows, got {len(data)}")
            for r in data:
                if len(r) != self.cols:
                    raise InputDataError(f"expected {self.cols} cols, got {len(r)}")
            data = tuple(tuple(r[j] for r in data) for j in range(self.cols))
        stored = _stored(self.field, (data,), (1, self.cols, self.rows), "matrix")[0]
        object.__setattr__(self, "sparse_columns", stored)

    @cached_property
    def entries(self) -> tuple[tuple[Scalar, ...], ...]:
        """The dense rows, a view built on first request."""
        return tuple(_dense(self.field, self.cols, row) for row in self.transpose().sparse_columns)

    # -- construction -------------------------------------------------

    @classmethod
    def from_rows(cls, field: Field, rows: Sequence[Sequence[object]], cols: Optional[int] = None) -> "Matrix":
        data = tuple(map(tuple, rows))
        if cols is None:
            if not data:
                raise InputDataError("cannot infer column count of an empty matrix")
            cols = len(data[0])
        return cls(field, len(data), cols, data)

    @classmethod
    def zeros(cls, field: Field, rows: int, cols: int) -> "Matrix":
        return cls(field, rows, cols, ({},) * cols)

    @classmethod
    def identity(cls, field: Field, n: int) -> "Matrix":
        return cls(field, n, n, tuple({i: 1} for i in range(n)))

    @classmethod
    def from_columns(cls, field: Field, columns: Sequence, rows: int) -> "Matrix":
        """The matrix of the given columns, each dense or sparse."""
        return cls(field, rows, len(columns), tuple(c if isinstance(c, dict) else dict(enumerate(c)) for c in columns))

    # -- arithmetic ---------------------------------------------------

    def transpose(self) -> "Matrix":
        rows: list[dict[int, Number]] = [{} for _ in range(self.rows)]
        for j, col in enumerate(self.sparse_columns):
            for i, c in col.items():
                rows[i][j] = c
        return Matrix(self.field, self.cols, self.rows, tuple(rows))

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise InputDataError(f"shape mismatch {self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        return Matrix(self.field, self.rows, other.cols, tuple(map(self.apply, other.sparse_columns)))

    def apply(self, vec: Mapping[int, Number]) -> dict[int, Number]:
        """Matrix times a sparse column vector, sparse: the combination of
        the columns given by vec's entries."""
        p, cols, out = self.field.characteristic, self.sparse_columns, {}
        for k, c in vec.items():
            _axpy(out, c, cols[k], p)
        return out if p else {k: number(c) for k, c in out.items()}


@record
class RrefResult:
    matrix: Matrix
    pivots: tuple[int, ...]

    @property
    def rank(self) -> int:
        return len(self.pivots)


def rref(m: Matrix) -> RrefResult:
    """Reduced row echelon form with the first-nonzero pivot rule.

    The rows are reduced by ``_sparse_rref``; the pivot rows come first in
    pivot order, then the zero rows."""
    s = Subspace.from_rows(m.field, m.cols, m.transpose().sparse_columns)
    rows = tuple(_divided(row, d) for row, d in s.scaled_rows) + ({},) * (m.rows - s.dim)
    return RrefResult(Matrix(m.field, m.cols, m.rows, rows).transpose(), s.pivots)


@record
class Subspace:
    """A subspace of k^ambient, held by its unique reduced echelon basis:
    row t is ``I / d`` for ``(I, d) = scaled_rows[t]``, with ``I`` the
    primitive integer row on its line and ``d > 0`` its entry at
    ``pivots[t]`` (over F_p, the residues and 1)."""

    field: Field
    ambient: int
    scaled_rows: tuple[ScaledVector, ...]
    pivots: tuple[int, ...]

    @classmethod
    def from_rows(cls, field: Field, ambient: int, rows: Iterable) -> "Subspace":
        """The span of rows, each dense or sparse ({column: coefficient})."""
        red = _sparse_rref((row if isinstance(row, dict) else _sparse(row) for row in rows), field.characteristic)
        pivots = tuple(sorted(red))
        return cls(field, ambient, tuple((red[u], red[u][u]) for u in pivots), pivots)

    @classmethod
    def zero(cls, field: Field, ambient: int) -> "Subspace":
        return cls(field, ambient, (), ())

    @classmethod
    def full(cls, field: Field, ambient: int) -> "Subspace":
        return cls(field, ambient, tuple(({i: 1}, 1) for i in range(ambient)), tuple(range(ambient)))

    @property
    def dim(self) -> int:
        return len(self.pivots)

    def inclusion(self) -> Matrix:
        """The map k^dim -> k^ambient sending e_t to basis row t."""
        return Matrix(self.field, self.ambient, self.dim, tuple(_divided(row, d) for row, d in self.scaled_rows))

    @cached_property
    def basis(self) -> Matrix:
        """The dense echelon basis (dim x ambient), a view built on first request."""
        return self.inclusion().transpose()

    @cached_property
    def _pivot_index(self) -> dict[int, int]:
        return {u: t for t, u in enumerate(self.pivots)}

    def residue(self, vec: Mapping[int, Number]) -> dict[int, Number]:
        """A sparse vector less the combination of the basis rows given by
        its pivot entries, reduced mod p, without zeros.

        It is empty exactly when vec lies in the subspace; otherwise it is
        vec's canonical representative modulo the subspace, supported on
        ``complement_indices``.  Every membership, coordinate and
        projection test reads it.  It is computed as ``L * vec`` less
        ``vec[u] * (L / d)`` times each scaled row ``(I, d)`` with pivot u,
        ``L`` the lcm of the d used (built up one row at a time), so
        integer vectors stay integers; only the entries left over are
        divided by ``L``.
        """
        p = self.field.characteristic
        at, rows = self._pivot_index, self.scaled_rows
        rest, scale = dict(vec), 1
        for u, c in vec.items():
            if c and u in at:
                row, d = rows[at[u]]
                if d != scale:
                    if scale % d:
                        scale = _rescale(rest, scale, d)
                    c *= scale // d
                _axpy(rest, -c, row, p)
        if p:
            return {k: c % p for k, c in rest.items() if c % p}
        if scale != 1:
            return {k: Fraction(c, scale) for k, c in rest.items() if c}
        return {k: c for k, c in rest.items() if c}

    def read_coords(self, vec: Mapping[int, Number], error: str, den: int = 1) -> dict[int, Number]:
        """Sparse coordinates of the sparse vector ``vec / den`` in the basis
        rows, its nonzero entries at the pivots as ``number``s; a
        ``LinearSolveError(error)`` if it is outside."""
        if self.residue(vec):
            raise LinearSolveError(error)
        at, p, out = self._pivot_index, self.field.characteristic, {}
        for u, c in vec.items():
            if u in at:
                if p:
                    c = c % p if den == 1 else c * pow(den, -1, p) % p
                elif den != 1 or type(c) is not int:
                    c = number(Fraction(c, den))
                if c:
                    out[at[u]] = c
        return out

    def project(self, vec: Mapping[int, Number]) -> dict[int, Number]:
        """A sparse vector's image under ``projection_matrix``, sparse."""
        at = self._rep_index
        return {at[k]: c for k, c in self.residue(vec).items()}

    @cached_property
    def _rep_index(self) -> dict[int, int]:
        """The non-pivot coordinates, each by its position among them."""
        piv = self._pivot_index
        return {j: r for r, j in enumerate(j for j in range(self.ambient) if j not in piv)}

    def complement_indices(self) -> tuple[int, ...]:
        """Standard coordinates not used as pivots, in index order.

        The matching standard basis vectors represent a basis of
        k^ambient modulo this subspace.
        """
        return tuple(self._rep_index)

    def projection_matrix(self) -> Matrix:
        """Map k^ambient onto the span of the complement representatives.

        Row r / column j holds the coefficient of representative r in the
        canonical reduction of e_j modulo this subspace: 1 where j is
        representative r, and minus row t's entry at representative r where
        j is the pivot of row t.
        """
        cols = tuple(self.project({j: 1}) for j in range(self.ambient))
        return Matrix(self.field, len(self._rep_index), self.ambient, cols)


def nullspace(m: Matrix) -> Subspace:
    """Kernel of m acting on column vectors, as a subspace of k^cols."""
    return sparse_kernel(m.field, m.cols, m.transpose().sparse_columns)


def column_space(m: Matrix) -> Subspace:
    return Subspace.from_rows(m.field, m.rows, m.sparse_columns)


class _Preimages:
    """Solve a @ x = v for any sparse v, sparsely, from one echelon pass of
    the rows of [a | 1], which reduces a to E by an invertible R: a @ x = v
    is E @ x = R v.  Each echelon row (I, d) with pivot u holds its row of
    E and of d * R; x has its free variables zero, and x[u] = (R v)[u] for
    u < a.cols.  Where R v is not zero at a pivot u >= a.cols there is no
    x, and a ``LinearSolveError``.  The pivots u < a.cols are those of E,
    so their number is the rank of a."""

    def __init__(self, a: Matrix) -> None:
        k, p = a.cols, a.field.characteristic
        red = _sparse_rref(({**row, k + i: 1} for i, row in enumerate(a.transpose().sparse_columns)), p)
        self._cols, self._p = k, p
        self._solved = [(u, {j - k: c for j, c in row.items() if j >= k}, row[u]) for u, row in sorted(red.items())]
        self.rank = sum(u < k for u in red)

    def __call__(self, vec: Mapping[int, Number]) -> dict[int, Number]:
        k, p, out = self._cols, self._p, {}
        for u, r, d in self._solved:
            c = sum(r[j] * v for j, v in vec.items() if j in r)
            if p:
                c %= p
            if not c:
                continue
            if u >= k:
                raise LinearSolveError("value has no preimage though exactness promises one")
            out[u] = c if p else number(Fraction(c, d))
        return out


def number(x: Scalar) -> Number:
    """A scalar as a sparse coefficient: the residue of an F_p element; a
    rational as an int when it is integral, which is much cheaper to
    multiply than a Fraction."""
    if isinstance(x, FpElement):
        return x.value
    return x.numerator if x.denominator == 1 else x


def _sparse(vec: Sequence[Scalar]) -> dict[int, Number]:
    return {k: number(c) for k, c in enumerate(vec) if c}


def _dense(field: Field, dim: int, vec: Mapping[int, Number]) -> tuple[Scalar, ...]:
    """A sparse vector as a dense one of dim field scalars."""
    out = [field.zero] * dim
    for k, c in vec.items():
        out[k] = field.coerce(c)
    return tuple(out)


def _divided(vec: dict[int, Number], d: int) -> dict[int, Number]:
    """The sparse vector vec / d."""
    return vec if d == 1 else {k: number(Fraction(c, d)) for k, c in vec.items()}


def _axpy(dst: dict[int, Number], f: Number, src: Mapping[int, Number], p: int) -> None:
    """dst += f * src in place, dropping entries that become zero."""
    get = dst.get
    for c, v in src.items():
        x = get(c, 0) + f * v
        if p:
            x %= p
        if x:
            dst[c] = x
        else:
            dst.pop(c, None)


def _rescale(vec: dict[int, Number], scale: int, d: int) -> int:
    """Multiply vec, a vector held as integers over scale, in place so that
    it is held over lcm(scale, d) instead; returns that lcm."""
    grow = lcm(scale, d) // scale
    for k in vec:
        vec[k] *= grow
    return scale * grow


def _primitive(row: dict[int, int]) -> None:
    """Divide an integer row by the gcd of its entries, in place."""
    g = gcd(*row.values())
    if g > 1:
        for c in row:
            row[c] //= g


def _integer_row(src: Mapping[int, Number]) -> dict[int, int]:
    """The primitive integer row on the line of a rational row: scaled by the
    lcm of its denominators, divided by the gcd of its entries."""
    row = {c: v for c, v in src.items() if v}
    if not all(type(v) is int for v in row.values()):
        den = lcm(*(v.denominator for v in row.values()))
        row = {c: v.numerator * (den // v.denominator) for c, v in row.items()}
    _primitive(row)
    return row


def _cancel(row: dict[int, Number], c: int, pivot_row: Mapping[int, Number], p: int) -> None:
    """Clear column c of row against the pivot row whose pivot is c, in place.

    Over F_p the pivot row has 1 at c.  Over Q both are integer rows and no
    division happens: with d the pivot entry, f the entry to clear and
    g = gcd(d, f), row becomes (d/g)*row - (f/g)*pivot_row, made primitive.
    """
    f = row[c]
    if p:
        _axpy(row, -f, pivot_row, p)
        return
    d = pivot_row[c]
    g = gcd(d, f)
    d //= g
    if d != 1:
        for k in row:
            row[k] *= d
    _axpy(row, -(f // g), pivot_row, 0)
    _primitive(row)


def _sparse_rref(rows: Iterable[Mapping[int, Number]], p: int, pivot=min) -> dict[int, dict[int, int]]:
    """Reduced row echelon form of sparse rows, over F_p if p else over Q.

    Returns {pivot column: row}; a row's pivot is its first nonzero column
    (its last with ``pivot=max``), and it is 0 at every other pivot column.
    Rows are taken one at a time and reduced against the pivot rows found so
    far, which then stay reduced against the new one.

    Over F_p the rows hold residues and each pivot row is scaled to 1 at its
    pivot.  Over Q elimination is fraction-free: every row is held as a
    primitive integer row, and is returned that way, with a positive entry
    d at its pivot; the reduced echelon row is the row divided by d.
    """
    done: dict[int, dict[int, int]] = {}
    for src in rows:
        row = {c: v % p for c, v in src.items() if v % p} if p else _integer_row(src)
        for c in [c for c in row if c in done]:
            _cancel(row, c, done[c], p)
        if not row:
            continue
        lead = pivot(row)
        if p:
            inv = pow(row[lead], -1, p)
            row = {c: v * inv % p for c, v in row.items()}
        for other in done.values():
            if lead in other:
                _cancel(other, lead, row, p)
        done[lead] = row
    for lead, row in done.items():
        if row[lead] < 0:
            done[lead] = {c: -v for c, v in row.items()}
    return done


def sparse_kernel(field: Field, ncols: int, rows: Iterable[Mapping[int, Number]]) -> Subspace:
    """Kernel of the system {sum(c * x[u] for u, c in row.items()) = 0},
    as a subspace of k^ncols.

    Coefficients are ints or Fractions (see ``number``); over F_p they are
    read mod p.  The result is the canonical ``Subspace``, the same one
    ``nullspace`` gives for the dense matrix of the rows.  With each echelon
    row (I, d) pivoted at its last nonzero column, the generator
    e_f - sum(I[f] / d * e_lead) of free column f has its other entries after
    f, so the generators are already the kernel's reduced echelon rows: over
    F_p they hold residues, over Q they are made primitive integer rows.
    """
    p = field.characteristic
    red = _sparse_rref(rows, p, max)
    gens: dict[int, dict[int, Number]] = {f: {f: 1} for f in range(ncols) if f not in red}
    for lead, row in red.items():
        d = row[lead]
        for c, v in row.items():
            if c != lead:
                gens[c][lead] = -v % p if p else -v if d == 1 else Fraction(-v, d)
    if not p:
        gens = {f: _integer_row(gen) for f, gen in gens.items()}
    return Subspace(field, ncols, tuple((gen, gen[f]) for f, gen in gens.items()), tuple(gens))
