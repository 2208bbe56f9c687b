"""Exact linear algebra over a field object.

Matrices are immutable row-major tuples; linear maps act on column vectors
(``apply``), so a map f: k^c -> k^r is an r x c matrix.  Subspaces of k^n are
stored by their unique reduced-row-echelon basis, which makes equality of
subspaces plain tuple equality and keeps every downstream report canonical.

All elimination runs in one kernel, ``_sparse_rref``, on sparse rows
``{column: coefficient}``: plain ``int`` residues over F_p, and over Q
fraction-free steps on primitive integer rows, divided by their pivots only
once, in the result.  ``rref`` (and with it ``nullspace``, ``solve`` and the
``Subspace`` constructors) hands it the rows of a dense matrix;
``sparse_kernel`` hands it sparse constraint rows.  A vector is tested
against a ``Subspace`` by one sparse ``residue`` modulo its echelon rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Mapping, Optional, Sequence, Union

from .fields import Field, FpElement, InputDataError, Scalar

# A sparse coefficient: a rational (an int when integral), or an int read mod p.
Number = Union[int, Fraction]


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

    # -- accessors ----------------------------------------------------

    def row(self, i: int) -> tuple[Scalar, ...]:
        return self.entries[i]

    def column(self, j: int) -> tuple[Scalar, ...]:
        return tuple(self.entries[i][j] for i in range(self.rows))

    def transpose(self) -> "Matrix":
        return Matrix(self.field, self.cols, self.rows, tuple(self.column(j) for j in range(self.cols)))

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other: "Matrix") -> "Matrix":
        self._same_shape(other)
        return Matrix(
            self.field, self.rows, self.cols,
            tuple(tuple(a + b for a, b in zip(ra, rb)) for ra, rb in zip(self.entries, other.entries)),
        )

    def __sub__(self, other: "Matrix") -> "Matrix":
        self._same_shape(other)
        return Matrix(
            self.field, self.rows, self.cols,
            tuple(tuple(a - b for a, b in zip(ra, rb)) for ra, rb in zip(self.entries, other.entries)),
        )

    def __neg__(self) -> "Matrix":
        return Matrix(self.field, self.rows, self.cols, tuple(tuple(-a for a in row) for row in self.entries))

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

    def vstack(self, other: "Matrix") -> "Matrix":
        if self.cols != other.cols:
            raise InputDataError("vstack col mismatch")
        return Matrix(self.field, self.rows + other.rows, self.cols, self.entries + other.entries)

    def _same_shape(self, other: "Matrix") -> None:
        if self.rows != other.rows or self.cols != other.cols:
            raise InputDataError(f"shape mismatch {self.rows}x{self.cols} vs {other.rows}x{other.cols}")


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
    field = m.field
    red = _sparse_rref(({c: number(x) for c, x in enumerate(row) if x} for row in m.entries),
                       field.characteristic)
    pivots, rows = _dense_rows(field, m.cols, red)
    rows += ((field.zero,) * m.cols,) * (m.rows - len(pivots))
    return RrefResult(Matrix(field, m.rows, m.cols, rows), pivots)


@dataclass(frozen=True)
class Subspace:
    """A subspace of k^ambient, held by its unique RREF basis (rows)."""

    field: Field
    ambient: int
    basis: Matrix  # dim x ambient, in reduced row echelon form, full row rank
    pivots: tuple[int, ...]

    @classmethod
    def from_rows(cls, field: Field, ambient: int, rows: Iterable[Sequence[Scalar]]) -> "Subspace":
        mat = Matrix(field, 0, ambient, ())
        data = tuple(tuple(r) for r in rows)
        if data:
            mat = Matrix(field, len(data), ambient, data)
        red = rref(mat)
        keep = red.matrix.entries[: red.rank]
        return cls(field, ambient, Matrix(field, red.rank, ambient, keep), red.pivots)

    @classmethod
    def zero(cls, field: Field, ambient: int) -> "Subspace":
        return cls(field, ambient, Matrix(field, 0, ambient, ()), ())

    @classmethod
    def full(cls, field: Field, ambient: int) -> "Subspace":
        return cls(field, ambient, Matrix.identity(field, ambient), tuple(range(ambient)))

    @property
    def dim(self) -> int:
        return self.basis.rows

    def basis_vectors(self) -> tuple[tuple[Scalar, ...], ...]:
        return self.basis.entries

    @cached_property
    def sparse_rows(self) -> tuple[dict[int, Number], ...]:
        """The basis rows by their nonzero entries, as ``number``s."""
        return tuple(map(_sparse, self.basis.entries))

    @cached_property
    def _pivot_index(self) -> dict[int, int]:
        return {u: t for t, u in enumerate(self.pivots)}

    def residue(self, vec: Mapping[int, Number]) -> dict[int, Number]:
        """A sparse vector less the combination of the basis rows given by
        its pivot entries, reduced mod p, without zeros.

        It is empty exactly when vec lies in the subspace; otherwise it is
        vec's canonical representative modulo the subspace, supported on
        ``complement_indices``.  Every membership, coordinate and
        projection test reads it.
        """
        p = self.field.characteristic
        at, rows = self._pivot_index, self.sparse_rows
        rest = dict(vec)
        for u, c in vec.items():
            if c and u in at:
                _axpy(rest, -c, rows[at[u]], p)
        if p:
            return {k: c % p for k, c in rest.items() if c % p}
        return {k: c for k, c in rest.items() if c}

    def read_coords(self, vec: Mapping[int, Number], error: str) -> tuple[Scalar, ...]:
        """Coordinates of a sparse vector in the basis rows, its entries at
        the pivots; a ``LinearSolveError(error)`` if it is outside."""
        if self.residue(vec):
            raise LinearSolveError(error)
        at = self._pivot_index
        return _dense(self.field, self.dim, {at[u]: c for u, c in vec.items() if u in at})

    def project(self, vec: Mapping[int, Number]) -> tuple[Scalar, ...]:
        """A sparse vector's image under ``projection_matrix``."""
        at = self._rep_index
        return _dense(self.field, len(at), {at[k]: c for k, c in self.residue(vec).items()})

    def reduce(self, vec: Sequence[Scalar]) -> tuple[Scalar, ...]:
        """Subtract basis rows to zero out the pivot coordinates of vec."""
        return _dense(self.field, self.ambient, self.residue(_sparse(vec)))

    def contains(self, vec: Sequence[Scalar]) -> bool:
        return not self.residue(_sparse(vec))

    def coords_of(self, vec: Sequence[Scalar]) -> Optional[tuple[Scalar, ...]]:
        """Coordinates of vec in the basis rows, or None if vec is outside."""
        try:
            return self.read_coords(_sparse(vec), "")
        except LinearSolveError:
            return None

    def linear_combination(self, coords: Sequence[Scalar]) -> tuple[Scalar, ...]:
        v = list(zero_vector(self.field, self.ambient))
        for c, row in zip(coords, self.basis.entries):
            if c:
                v = [x + c * y for x, y in zip(v, row)]
        return tuple(v)

    def sum_with(self, other: "Subspace") -> "Subspace":
        self._same_ambient(other)
        return Subspace.from_rows(self.field, self.ambient, self.basis.entries + other.basis.entries)

    def perp_generators(self) -> Matrix:
        """Rows spanning {z : v . z = 0 for all v in this subspace}."""
        return nullspace(self.basis).basis

    def intersect(self, other: "Subspace") -> "Subspace":
        self._same_ambient(other)
        stacked = self.perp_generators().vstack(other.perp_generators())
        return nullspace(stacked)

    def is_subspace_of(self, other: "Subspace") -> bool:
        self._same_ambient(other)
        return all(other.contains(row) for row in self.basis.entries)

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
        f, at = self.field, self._rep_index
        rows = [[f.zero] * self.ambient for _ in at]
        for j, r in at.items():
            rows[r][j] = f.one
        for u, row in zip(self.pivots, self.sparse_rows):
            for j, c in row.items():
                if j != u:
                    rows[at[j]][u] = f.coerce(-c)
        return Matrix(f, len(at), self.ambient, tuple(map(tuple, rows)))

    def _same_ambient(self, other: "Subspace") -> None:
        if self.ambient != other.ambient or self.field != other.field:
            raise InputDataError("subspaces live in different ambient spaces")


def nullspace(m: Matrix) -> Subspace:
    """Kernel of m acting on column vectors, as a subspace of k^cols."""
    red = rref(m)
    piv = red.pivots
    pivset = set(piv)
    free = [j for j in range(m.cols) if j not in pivset]
    rows = []
    for f in free:
        v = [m.field.zero] * m.cols
        v[f] = m.field.one
        for t, p in enumerate(piv):
            v[p] = -red.matrix.entries[t][f]
        rows.append(tuple(v))
    return Subspace.from_rows(m.field, m.cols, rows)


def column_space(m: Matrix) -> Subspace:
    return Subspace.from_rows(m.field, m.rows, m.transpose().entries)


def solve(a: Matrix, b: Matrix) -> Optional[Matrix]:
    """One exact solution X of a @ X = b (free variables set to zero).

    Returns None when the system is inconsistent.  b may have several
    columns; they are solved against a single echelon pass.
    """
    if a.rows != b.rows:
        raise InputDataError("solve: row mismatch")
    red = rref(a.hstack(b))
    for t, p in enumerate(red.pivots):
        if p >= a.cols:  # a pivot inside the right-hand block
            return None
    z = a.field.zero
    out = [[z] * b.cols for _ in range(a.cols)]
    for t, p in enumerate(red.pivots):
        for c in range(b.cols):
            out[p][c] = red.matrix.entries[t][a.cols + c]
    return Matrix(a.field, a.cols, b.cols, tuple(tuple(r) for r in out))


def solve_vector(a: Matrix, vec: Sequence[Scalar]) -> Optional[tuple[Scalar, ...]]:
    res = solve(a, Matrix.from_columns(a.field, [tuple(vec)], a.rows))
    if res is None:
        return None
    return res.column(0)


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


def _sparse_rref(rows: Iterable[Mapping[int, Number]], p: int) -> dict[int, dict[int, Number]]:
    """Reduced row echelon form of sparse rows, over F_p if p else over Q.

    Returns {pivot column: row}; every row has coefficient 1 at its pivot,
    its first nonzero column, and 0 at every other pivot column.  Rows are
    taken one at a time and reduced against the pivot rows found so far,
    which then stay reduced against the new one.

    Over F_p the rows hold residues and each pivot row is scaled to 1 at its
    pivot.  Over Q elimination is fraction-free: every row is held as a
    primitive integer row, and only the result is divided by its pivot
    entry, each entry once (an int where the division is exact).
    """
    done: dict[int, dict[int, Number]] = {}
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
    if not p:
        for lead, row in done.items():
            d = row[lead]
            done[lead] = {c: v // d if v % d == 0 else Fraction(v, d) for c, v in row.items()}
    return done


def _dense_rows(field: Field, ncols: int, red: Mapping[int, Mapping[int, Number]]
                ) -> tuple[tuple[int, ...], tuple[tuple[Scalar, ...], ...]]:
    """The pivots of a ``_sparse_rref`` result in order, and its rows as
    dense vectors of field scalars."""
    pivots = tuple(sorted(red))
    z = field.zero
    rows = []
    for lead in pivots:
        vec = [z] * ncols
        for c, v in red[lead].items():
            vec[c] = field.coerce(v)
        rows.append(tuple(vec))
    return pivots, tuple(rows)


def sparse_kernel(field: Field, ncols: int, rows: Iterable[Mapping[int, Number]]) -> Subspace:
    """Kernel of the system {sum(c * x[u] for u, c in row.items()) = 0},
    as a subspace of k^ncols.

    Coefficients are ints or Fractions (see ``number``); over F_p they are
    read mod p.  The result is the canonical ``Subspace``, the same one
    ``nullspace`` gives for the dense matrix of the rows.
    """
    p = field.characteristic
    red = _sparse_rref(rows, p)
    gens: dict[int, dict[int, Number]] = {f: {f: 1} for f in range(ncols) if f not in red}
    for lead, row in red.items():
        for c, v in row.items():
            if c != lead:
                gens[c][lead] = -v
    pivots, basis = _dense_rows(field, ncols, _sparse_rref(gens.values(), p))
    return Subspace(field, ncols, Matrix(field, len(basis), ncols, basis), pivots)
