"""Actions of one Leibniz algebra on another, and semidirect products.

An action of ``actor`` on ``target`` is a pair of bilinear brackets
[p, m] (``left``) and [m, p] (``right``) with values in the target, subject
to six compatibility identities mixing them with the two algebra brackets.
The tensors are stored as ``left[a][i]`` = [p_a, m_i] and
``right[i][a]`` = [m_i, p_a], each a target coordinate vector.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

from .algebra import (
    LeibnizAlgebra,
    SparseTensor,
    ValidationReport,
    _contract,
    _sparse_tensor,
    _unit,
    _violations,
)
from .fields import InputDataError, Scalar
from .linalg import Matrix, zero_vector

Tensor = tuple[tuple[tuple[Scalar, ...], ...], ...]


def _check_shape(data, d0: int, d1: int, d2: int) -> None:
    if len(data) != d0 or any(len(r) != d1 or any(len(v) != d2 for v in r) for r in data):
        raise InputDataError(f"action tensor shape is not {d0}x{d1}x{d2}")


def _freeze_tensor(field, data, d0: int, d1: int, d2: int) -> Tensor:
    _check_shape(data, d0, d1, d2)
    return tuple(tuple(tuple(field.coerce(x) for x in v) for v in r) for r in data)


@dataclass(frozen=True)
class ActionData:
    actor: LeibnizAlgebra
    target: LeibnizAlgebra
    left: Tensor   # left[a][i]  = [p_a, m_i], a vector in the target
    right: Tensor  # right[i][a] = [m_i, p_a]

    def __post_init__(self) -> None:
        p, m = self.actor.dim, self.target.dim
        _check_shape(self.left, p, m, m)
        _check_shape(self.right, m, p, m)
        if self.actor.field != self.target.field:
            raise InputDataError("actor and target live over different fields")

    @classmethod
    def build(cls, actor: LeibnizAlgebra, target: LeibnizAlgebra, left, right) -> "ActionData":
        f = actor.field
        lf = _freeze_tensor(f, left, actor.dim, target.dim, target.dim)
        rf = _freeze_tensor(f, right, target.dim, actor.dim, target.dim)
        return cls(actor, target, lf, rf)

    @classmethod
    def zero(cls, actor: LeibnizAlgebra, target: LeibnizAlgebra) -> "ActionData":
        z = zero_vector(actor.field, target.dim)
        left = tuple(tuple(z for _ in range(target.dim)) for _ in range(actor.dim))
        right = tuple(tuple(z for _ in range(actor.dim)) for _ in range(target.dim))
        return cls(actor, target, left, right)

    @classmethod
    def by_bracket(cls, a: LeibnizAlgebra) -> "ActionData":
        """An algebra acting on itself through its own bracket."""
        left = tuple(tuple(a.table[i][j] for j in range(a.dim)) for i in range(a.dim))
        return cls(a, a, left, left)

    # -- evaluation ---------------------------------------------------

    @cached_property
    def sparse_left(self) -> SparseTensor:
        return _sparse_tensor(self.left)

    @cached_property
    def sparse_right(self) -> SparseTensor:
        return _sparse_tensor(self.right)

    def act_left(self, pvec: Sequence[Scalar], mvec: Sequence[Scalar]) -> tuple[Scalar, ...]:
        return _contract(self.target.field, self.sparse_left, pvec, mvec, self.target.dim)

    def act_right(self, mvec: Sequence[Scalar], pvec: Sequence[Scalar]) -> tuple[Scalar, ...]:
        return _contract(self.target.field, self.sparse_right, mvec, pvec, self.target.dim)

    def left_operator(self, pvec: Sequence[Scalar]) -> Matrix:
        """Matrix of m -> [p, m] for a fixed actor element."""
        cols = [self.act_left(pvec, _unit(self.target.field, self.target.dim, i)) for i in range(self.target.dim)]
        return Matrix.from_columns(self.target.field, cols, self.target.dim)

    def right_operator(self, pvec: Sequence[Scalar]) -> Matrix:
        """Matrix of m -> [m, p] for a fixed actor element."""
        cols = [self.act_right(_unit(self.target.field, self.target.dim, i), pvec) for i in range(self.target.dim)]
        return Matrix.from_columns(self.target.field, cols, self.target.dim)


def validate_action(d: ActionData) -> ValidationReport:
    """Check the six mixed identities on all basis triples.

    Labels act1..act6 pick out which identity failed; the witness tuple
    lists the basis indices in the order the identity quantifies them
    (a, b index the actor, i, j the target).
    """
    p, m = d.actor, d.target
    n, pt, mt = m.dim, p.sparse_table, m.sparse_table
    left, right = d.sparse_left, d.sparse_right  # [p, m], [m, p]
    return ValidationReport(tuple(_violations(m.field, {"a": p.dim, "b": p.dim, "i": n, "j": n}, [
        ("act1", "aij", "aij", n, [(1, left, "a", (mt, "ij"))],
         [(1, mt, (left, "ai"), "j"), (-1, mt, (left, "aj"), "i")]),
        ("act2", "iaj", "aij", n, [(1, mt, "i", (left, "aj"))],
         [(1, mt, (right, "ia"), "j"), (-1, right, (mt, "ij"), "a")]),
        ("act3", "ija", "aij", n, [(1, mt, "i", (right, "ja"))],
         [(1, right, (mt, "ij"), "a"), (-1, mt, (right, "ia"), "j")]),
        ("act4", "iab", "iab", n, [(1, right, "i", (pt, "ab"))],
         [(1, right, (right, "ia"), "b"), (-1, right, (right, "ib"), "a")]),
        ("act5", "aib", "aib", n, [(1, left, "a", (right, "ib"))],
         [(1, right, (left, "ai"), "b"), (-1, left, (pt, "ab"), "i")]),
        ("act6", "abi", "aib", n, [(1, left, "a", (left, "bi"))],
         [(1, left, (pt, "ab"), "i"), (-1, right, (left, "ai"), "b")]),
    ])))


@dataclass(frozen=True)
class SemidirectAlgebra:
    algebra: LeibnizAlgebra
    include_target: Matrix  # target -> sum, first block
    include_actor: Matrix   # actor -> sum, second block


def semidirect_algebra(d: ActionData) -> SemidirectAlgebra:
    """Target-plus-actor algebra with bracket twisted by the action.

    Basis order is the target block first, then the actor block:
    [(m, p), (m', p')] = ([m, m'] + [p, m'] + [m, p'], [p, p']).
    """
    m, p = d.target, d.actor
    n = m.dim + p.dim
    f = m.field
    z = f.zero

    def pad_m(v):
        return tuple(v) + tuple(z for _ in range(p.dim))

    def pad_p(v):
        return tuple(z for _ in range(m.dim)) + tuple(v)

    tab = [[None] * n for _ in range(n)]
    for i in range(m.dim):
        for j in range(m.dim):
            tab[i][j] = pad_m(m.table[i][j])
        for b in range(p.dim):
            tab[i][m.dim + b] = pad_m(d.right[i][b])
    for a in range(p.dim):
        for j in range(m.dim):
            tab[m.dim + a][j] = pad_m(d.left[a][j])
        for b in range(p.dim):
            tab[m.dim + a][m.dim + b] = pad_p(p.table[a][b])
    alg = LeibnizAlgebra(f, n, tuple(tuple(row) for row in tab))
    inc_m = Matrix.from_columns(f, [_unit(f, n, i) for i in range(m.dim)], n)
    inc_p = Matrix.from_columns(f, [_unit(f, n, m.dim + a) for a in range(p.dim)], n)
    return SemidirectAlgebra(alg, inc_m, inc_p)
