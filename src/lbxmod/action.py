"""Actions of one Leibniz algebra on another, and semidirect products.

An action of ``actor`` on ``target`` is a pair of bilinear brackets
[p, m] (``sparse_left``) and [m, p] (``sparse_right``) with values in the
target, subject to six compatibility identities mixing them with the two
algebra brackets.  They are stored as ``sparse_left[a][i]`` = [p_a, m_i] and
``sparse_right[i][a]`` = [m_i, p_a], each the nonzero target coordinates;
``left`` and ``right`` are the dense views.
"""

from __future__ import annotations

from functools import partial
from typing import Sequence

from .algebra import (
    LeibnizAlgebra,
    SparseTensor,
    ValidationReport,
    _blocks,
    _contract,
    _dense_view,
    _once,
    _store,
    _units,
    _violations,
    validate_leibniz,
)
from .fields import InputDataError, Scalar, record
from .linalg import Matrix


@record
class ActionData:
    actor: LeibnizAlgebra
    target: LeibnizAlgebra
    sparse_left: SparseTensor   # sparse_left[a][i]  = [p_a, m_i], a vector in the target
    sparse_right: SparseTensor  # sparse_right[i][a] = [m_i, p_a]; both dense or sparse on input

    def __post_init__(self) -> None:
        p, m, f = self.actor.dim, self.target.dim, self.actor.field
        if f != self.target.field:
            raise InputDataError("actor and target live over different fields")
        for view, shape in (("sparse_left", (p, m, m)), ("sparse_right", (m, p, m))):
            if p != m or getattr(self, view) is not self.target.sparse_table:  # by_bracket's is stored
                _store(self, view, f, shape, "action tensor")

    left = _dense_view("sparse_left", lambda d: (d.target.field, d.target.dim))
    right = _dense_view("sparse_right", lambda d: (d.target.field, d.target.dim))

    @classmethod
    def zero(cls, actor: LeibnizAlgebra, target: LeibnizAlgebra) -> "ActionData":
        return cls(actor, target, [[{}] * target.dim] * actor.dim, [[{}] * actor.dim] * target.dim)

    @classmethod
    def by_bracket(cls, a: LeibnizAlgebra) -> "ActionData":
        """An algebra acting on itself through its own bracket: both sides
        share the algebra's stored view."""
        return cls(a, a, a.sparse_table, a.sparse_table)

    # -- evaluation ---------------------------------------------------

    def act_left(self, pvec: Sequence[Scalar], mvec: Sequence[Scalar]) -> tuple[Scalar, ...]:
        return _contract(self.target.field, self.sparse_left, pvec, mvec, self.target.dim)

    def act_right(self, mvec: Sequence[Scalar], pvec: Sequence[Scalar]) -> tuple[Scalar, ...]:
        return _contract(self.target.field, self.sparse_right, mvec, pvec, self.target.dim)


def validate_action(d: ActionData, check=None) -> ValidationReport:
    """Check the six mixed identities on all basis triples.

    Labels act1..act6 pick out which identity failed; the witness tuple
    lists the basis indices in the order the identity quantifies them
    (a, b index the actor, i, j the target).

    An algebra acting on itself through its own table (``by_bracket``, or
    equal views) is an action exactly when the algebra is Leibniz (Loday and
    Pirashvili 1993): act1..act6 are then the Leibniz identity at permuted
    witnesses.  So the target's Leibniz check, ``check(validate_leibniz,
    d.target)``, decides when it passes; when it fails, the six identities
    are evaluated.  ``check`` is a caller's memo (``algebra._once``), if any.
    """
    check = check or partial(_once, {})
    p, m = d.actor, d.target
    n, pt, mt = m.dim, p.sparse_table, m.sparse_table
    left, right = d.sparse_left, d.sparse_right  # [p, m], [m, p]
    if left == mt and right == mt and pt == mt and check(validate_leibniz, m).ok:
        return ValidationReport()
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


@record
class SemidirectAlgebra:
    algebra: LeibnizAlgebra
    include_target: Matrix  # target -> sum, first block
    include_actor: Matrix   # actor -> sum, second block


def _semidirect_table(d: ActionData) -> SparseTensor:
    """The bracket table of target x| actor, the target block first."""
    m, p = d.target, d.actor
    return _blocks((m.dim, p.dim), (m.dim, p.dim),
                   [[(m.sparse_table, 0), (d.sparse_right, 0)], [(d.sparse_left, 0), (p.sparse_table, m.dim)]])


def semidirect_algebra(d: ActionData) -> SemidirectAlgebra:
    """Target-plus-actor algebra with bracket twisted by the action.

    Basis order is the target block first, then the actor block:
    [(m, p), (m', p')] = ([m, m'] + [p, m'] + [m, p'], [p, p']).
    """
    m, p, f = d.target, d.actor, d.target.field
    n = m.dim + p.dim
    inc_m = Matrix(f, n, m.dim, tuple(_units(m.dim)))
    inc_p = Matrix(f, n, p.dim, tuple({m.dim + a: 1} for a in range(p.dim)))
    return SemidirectAlgebra(LeibnizAlgebra(f, n, _semidirect_table(d)), inc_m, inc_p)
