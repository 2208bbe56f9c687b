"""Exact linear algebra over a field object.

Matrices are immutable row-major tuples; linear maps act on column vectors
(``apply``), so a map f: k^c -> k^r is an r x c matrix.  Subspaces of k^n are
stored by their unique reduced-row-echelon basis, which makes equality of
subspaces plain tuple equality and keeps every downstream report canonical.

All elimination runs in one kernel, ``_sparse_rref``, on sparse rows
``{column: coefficient}``: plain ``int`` residues over F_p, and over Q
fraction-free steps on primitive integer rows.  ``rref``, ``nullspace``
and the ``Subspace`` constructors hand it dense rows;
``sparse_kernel`` hands it sparse constraint rows.  The kernel never
divides: each echelon row ``I`` leaves it with a positive pivot entry ``d``
(1 over F_p), and stands for ``I / d``.  A ``Subspace`` keeps these
``scaled_rows`` beside its dense basis, and every membership, coordinate and
projection test is one sparse ``residue`` on them, computed on ints and
divided only where something is left.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from math import gcd, lcm
from typing import Callable, Iterable, Mapping, Optional, Sequence, Union

from .fields import Field, FpElement, InputDataError, Scalar

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


@dataclass(frozen=True)
class Matrix:
    field: Field
    rows: int
    cols: int
    entries: tuple[tuple[Scalar, ...], ...]

    def __post_init__(self) -> None:
        if len(self.entries) != self.rows:
            raise InputDataError(f"expected {self.rows} rows, got {len(self.entries)}")
        for r in self.entries:
            if len(r) != self.cols:
                raise InputDataError(f"expected {self.cols} cols, got {len(r)}")

    # -- construction -------------------------------------------------

    @classmethod
    def from_rows(cls, field: Field, rows: Sequence[Sequence[object]], cols: Optional[int] = None) -> "Matrix":
        data = tuple(tuple(field.coerce(x) for x in row) for row in rows)
        if cols is None:
            if not data:
                raise InputDataError("cannot infer column count of an empty matrix")
            cols = len(data[0])
        return cls(field, len(data), cols, data)

    @classmethod
    def zeros(cls, field: Field, rows: int, cols: int) -> "Matrix":
        z = field.zero
        return cls(field, rows, cols, tuple(tuple(z for _ in range(cols)) for _ in range(rows)))

    @classmethod
    def identity(cls, field: Field, n: int) -> "Matrix":
        z, o = field.zero, field.one
        return cls(field, n, n, tuple(tuple(o if i == j else z for j in range(n)) for i in range(n)))

    @classmethod
    def from_columns(cls, field: Field, columns: Sequence[Sequence[Scalar]], rows: int) -> "Matrix":
        return cls(field, rows, len(columns), tuple(tuple(col[i] for col in columns) for i in range(rows)))

    @classmethod
    def from_sparse_columns(cls, field: Field, columns: Sequence[Mapping[int, Number]], rows: int) -> "Matrix":
        return cls.from_columns(field, [_dense(field, rows, col) for col in columns], rows)

    # -- accessors ----------------------------------------------------

    def column(self, j: int) -> tuple[Scalar, ...]:
        return tuple(self.entries[i][j] for i in range(self.rows))

    def transpose(self) -> "Matrix":
        return Matrix(self.field, self.cols, self.rows, tuple(self.column(j) for j in range(self.cols)))

    # -- arithmetic ---------------------------------------------------

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise InputDataError(f"shape mismatch {self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        z = self.field.zero
        # skip zero entries on both sides: the structure maps are mostly zero
        other_rows = [[(j, b) for j, b in enumerate(row) if b] for row in other.entries]
        out = []
        for ri in self.entries:
            acc = [z] * other.cols
            for a, terms in zip(ri, other_rows):
                if a:
                    for j, b in terms:
                        acc[j] = acc[j] + a * b
            out.append(tuple(acc))
        return Matrix(self.field, self.rows, other.cols, tuple(out))

    def apply(self, vec: Sequence[Scalar]) -> tuple[Scalar, ...]:
        """Matrix times column vector."""
        if len(vec) != self.cols:
            raise InputDataError(f"vector of length {len(vec)} for a {self.rows}x{self.cols} matrix")
        z = self.field.zero
        terms = [(k, v) for k, v in enumerate(vec) if v]
        out = []
        for row in self.entries:
            acc = z
            for k, v in terms:
                a = row[k]
                if a:
                    acc = acc + a * v
            out.append(acc)
        return tuple(out)

    def hstack(self, other: "Matrix") -> "Matrix":
        if self.rows != other.rows:
            raise InputDataError("hstack row mismatch")
        return Matrix(self.field, self.rows, self.cols + other.cols,
                      tuple(ra + rb for ra, rb in zip(self.entries, other.entries)))


def zero_vector(field: Field, n: int) -> tuple[Scalar, ...]:
    return tuple(field.zero for _ in range(n))


def unit_vector(field: Field, n: int, i: int) -> tuple[Scalar, ...]:
    return tuple(field.one if j == i else field.zero for j in range(n))


@dataclass(frozen=True)
class RrefResult:
    matrix: Matrix
    pivots: tuple[int, ...]

    @property
    def rank(self) -> int:
        return len(self.pivots)


def rref(m: Matrix) -> RrefResult:
    """Reduced row echelon form with the first-nonzero pivot rule.

    The rows are reduced by ``_sparse_rref``; the pivot rows come first in
    pivot order, then the zero rows, and every entry is a field scalar.
    """
    s = Subspace.from_rows(m.field, m.cols, m.entries)
    rows = s.basis.entries + ((m.field.zero,) * m.cols,) * (m.rows - s.dim)
    return RrefResult(Matrix(m.field, m.rows, m.cols, rows), s.pivots)


@dataclass(frozen=True)
class Subspace:
    """A subspace of k^ambient, held by its unique RREF basis (rows)."""

    field: Field
    ambient: int
    basis: Matrix  # dim x ambient, in reduced row echelon form, full row rank
    pivots: tuple[int, ...]

    @classmethod
    def from_rows(cls, field: Field, ambient: int, rows: Iterable) -> "Subspace":
        """The span of rows, each dense or sparse ({column: coefficient})."""
        sparse = (row if isinstance(row, dict) else _sparse(row) for row in rows)
        return _echelon_subspace(field, ambient, _sparse_rref(sparse, field.characteristic))

    @classmethod
    def zero(cls, field: Field, ambient: int) -> "Subspace":
        return cls(field, ambient, Matrix(field, 0, ambient, ()), ())

    @classmethod
    def full(cls, field: Field, ambient: int) -> "Subspace":
        return cls(field, ambient, Matrix.identity(field, ambient), tuple(range(ambient)))

    @property
    def dim(self) -> int:
        return self.basis.rows

    @cached_property
    def scaled_rows(self) -> tuple[ScaledVector, ...]:
        """The basis rows as ``(I, d)``: row t is ``I / d``, with ``I`` the
        primitive integer row on its line and ``d > 0`` its entry at
        ``pivots[t]`` (over F_p, the residues and 1).  Kernel results come
        with them; other subspaces derive them from the dense basis."""
        p = self.field.characteristic
        rows = (_sparse(r) if p else _integer_row(_sparse(r)) for r in self.basis.entries)
        return tuple((row, row[u]) for row, u in zip(rows, self.pivots))

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
        cols = [self.project({j: 1}) for j in range(self.ambient)]
        return Matrix.from_sparse_columns(self.field, cols, len(self._rep_index))


def nullspace(m: Matrix) -> Subspace:
    """Kernel of m acting on column vectors, as a subspace of k^cols."""
    return sparse_kernel(m.field, m.cols, map(_sparse, m.entries))


def column_space(m: Matrix) -> Subspace:
    return Subspace.from_rows(m.field, m.rows, m.transpose().entries)


def _preimages(a: Matrix) -> Callable[[Mapping[int, Number]], dict[int, Number]]:
    """Solve a @ x = v for any sparse v, sparsely, from one echelon pass of
    [a | 1], which reduces a to E by an invertible R: a @ x = v is
    E @ x = R v.  x has its free variables zero; where R v is not zero below
    E's pivot rows there is no x, and a ``LinearSolveError``."""
    k, p = a.cols, a.field.characteristic
    red = rref(a.hstack(Matrix.identity(a.field, a.rows)))
    pivots = [u for u in red.pivots if u < k]
    r = [_sparse(row[k:]) for row in red.matrix.entries]

    def back(vec: Mapping[int, Number]) -> dict[int, Number]:
        rv = [sum(row[j] * c for j, c in vec.items() if j in row) for row in r]
        if p:
            rv = [c % p for c in rv]
        if any(rv[len(pivots):]):
            raise LinearSolveError("value has no preimage though exactness promises one")
        return {u: number(c) for u, c in zip(pivots, rv) if c}

    return back


def number(x: Scalar) -> Number:
    """A scalar as a sparse coefficient: the residue of an F_p element; a
    rational as an int when it is integral, which is much cheaper to
    multiply than a Fraction."""
    if isinstance(x, FpElement):
        return x.value
    return x.numerator if x.denominator == 1 else x


def _sparse(vec: Sequence[Scalar]) -> dict[int, Number]:
    return {k: number(c) for k, c in enumerate(vec) if c}


def _dense(field: Field, dim: int, vec: Mapping[int, Number], den: int = 1) -> tuple[Scalar, ...]:
    """The dense vector vec / den."""
    if den != 1:
        vec = {k: Fraction(c, den) for k, c in vec.items()}
    out = [field.zero] * dim
    for k, c in vec.items():
        out[k] = field.coerce(c)
    return tuple(out)


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


def _sparse_rref(rows: Iterable[Mapping[int, Number]], p: int) -> dict[int, dict[int, int]]:
    """Reduced row echelon form of sparse rows, over F_p if p else over Q.

    Returns {pivot column: row}; a row's pivot is its first nonzero column,
    and it is 0 at every other pivot column.  Rows are taken one at a time
    and reduced against the pivot rows found so far, which then stay
    reduced against the new one.

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
        lead = min(row)
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
    ``nullspace`` gives for the dense matrix of the rows.
    """
    p = field.characteristic
    red = _sparse_rref(rows, p)
    # the generator of free column f is e_f - sum(I[f] / d * e_lead) over the
    # echelon rows (I, d); the kernel clears its denominators again
    gens: dict[int, dict[int, Number]] = {f: {f: 1} for f in range(ncols) if f not in red}
    for lead, row in red.items():
        d = row[lead]
        for c, v in row.items():
            if c != lead:
                gens[c][lead] = -v if d == 1 else Fraction(-v, d)
    return _echelon_subspace(field, ncols, _sparse_rref(gens.values(), p))


def _echelon_subspace(field: Field, ncols: int, red: Mapping[int, dict[int, int]]) -> Subspace:
    """The ``Subspace`` of a ``_sparse_rref`` result, which hands over its
    rows as the ``scaled_rows``."""
    pivots = tuple(sorted(red))
    basis = tuple(_dense(field, ncols, red[u], red[u][u]) for u in pivots)
    out = Subspace(field, ncols, Matrix(field, len(basis), ncols, basis), pivots)
    out.__dict__["scaled_rows"] = tuple((red[u], red[u][u]) for u in pivots)  # the cached view, built once
    return out
