"""Built-in worked examples, addressable from the CLI as ``catalog:<id>``.

Every entry is a builder parameterized by the scalar field, so the same
fixture can be studied over the rationals or over a prime field.  Only the
builders of crossed-module actions import ``xaction``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from .action import ActionData
from .algebra import LeibnizAlgebra, direct_sum
from .fields import Field, InputDataError, record
from .linalg import Matrix, Subspace
from .xmod import CrossedModule, ShortExactSequence, XModMorphism

if TYPE_CHECKING:
    from .xaction import XModActionData


def _l2(field: Field) -> LeibnizAlgebra:
    # one generator squaring into the annihilator: [e1, e1] = e2
    return LeibnizAlgebra.from_brackets(field, 2, {(0, 0): {1: 1}}, ("e1", "e2"))


def _r2(field: Field) -> LeibnizAlgebra:
    # the non-abelian two-dimensional Lie algebra: [e1, e2] = e2 = -[e2, e1]
    return LeibnizAlgebra.from_brackets(
        field, 2, {(0, 1): {1: 1}, (1, 0): {1: -1}}, ("e1", "e2"))


def _sl2(field: Field) -> LeibnizAlgebra:
    # traceless 2x2 matrices in the basis (e, h, f)
    return LeibnizAlgebra.from_brackets(field, 3, {
        (0, 1): {0: -2}, (1, 0): {0: 2},
        (0, 2): {1: 1}, (2, 0): {1: -1},
        (1, 2): {2: -2}, (2, 1): {2: 2},
    }, ("e", "h", "f"))


def _zero_into_l2(field: Field) -> CrossedModule:
    base = _l2(field)
    top = LeibnizAlgebra.abelian(field, 0)
    return CrossedModule(top, base, Matrix.zeros(field, 2, 0), ActionData.zero(base, top))


def _l2_ann_incl(field: Field) -> CrossedModule:
    a = _l2(field)
    span_e2 = Subspace.from_rows(field, 2, [{1: 1}])
    return CrossedModule.inclusion_of_ideal(a, span_e2)


def _self_action(field: Field) -> XModActionData:
    from .xaction import XModActionData

    return XModActionData.conjugation(CrossedModule.identity_on(_sl2(field)))


def _mixed_pair_break(field: Field) -> XModActionData:
    """A minimal action whose only axiom failures are the two mixed-pair
    sign identities (LbM6a, LbM6b); the compatible-pair map still exists
    once those are relaxed."""
    from .xaction import XModActionData

    m = LeibnizAlgebra.abelian(field, 1, ("u",))
    p = LeibnizAlgebra.abelian(field, 2, ("p1", "p2"))
    eta = Matrix(field, 2, 1, ({0: 1},))
    x = CrossedModule(m, p, eta, ActionData.zero(p, m))

    n = LeibnizAlgebra.abelian(field, 1, ("v",))
    q = LeibnizAlgebra.abelian(field, 1, ("w",))
    y = CrossedModule(n, q, Matrix.zeros(field, 1, 1), ActionData.zero(q, n))

    p_on_n = ActionData(p, n, (((0,),), ((-1,),)), (((0,), (1,)),))
    p_on_q = ActionData(p, q, (((0,),), ((0,),)), (((0,), (1,)),))
    return XModActionData(x, y, p_on_n, p_on_q, (((1,),),), (((0,),),))


def _sl2_sequence(field: Field) -> ShortExactSequence:
    s = _sl2(field)
    line = LeibnizAlgebra.abelian(field, 1, ("z",))
    total, inc_s, _inc_line = direct_sum(s, line)
    first = CrossedModule.identity_on(s)
    middle = CrossedModule.identity_on(total)
    last = CrossedModule.identity_on(line)
    include = XModMorphism(first, middle, inc_s, inc_s)
    proj = Matrix(field, 1, 4, ({}, {}, {}, {0: 1}))
    project = XModMorphism(middle, last, proj, proj)
    return ShortExactSequence(first, middle, last, include, project)


@record
class CatalogEntry:
    id: str
    kind: str  # algebra | xmod | action | xaction | sequence
    summary: str
    build: Callable[[Field], object]


_ENTRIES: tuple[CatalogEntry, ...] = (
    CatalogEntry("a1", "algebra", "abelian algebra of dimension 1",
                 lambda f: LeibnizAlgebra.abelian(f, 1, ("e1",))),
    CatalogEntry("a2", "algebra", "abelian algebra of dimension 2",
                 lambda f: LeibnizAlgebra.abelian(f, 2, ("e1", "e2"))),
    CatalogEntry("l2", "algebra",
                 "two-dimensional algebra with [e1,e1] = e2 (not Lie)", _l2),
    CatalogEntry("r2", "algebra",
                 "two-dimensional non-abelian Lie algebra [e1,e2] = e2", _r2),
    CatalogEntry("sl2", "algebra", "sl2 in the basis (e, h, f)", _sl2),
    CatalogEntry("sl2-adjoint", "action", "sl2 acting on itself by its bracket",
                 lambda f: ActionData.by_bracket(_sl2(f))),
    CatalogEntry("zero-into-l2", "xmod",
                 "zero algebra mapping into l2 with the trivial action", _zero_into_l2),
    CatalogEntry("l2-id", "xmod", "identity crossed module on l2",
                 lambda f: CrossedModule.identity_on(_l2(f))),
    CatalogEntry("l2-ann-incl", "xmod",
                 "annihilator of l2 included as an ideal", _l2_ann_incl),
    CatalogEntry("r2-id", "xmod", "identity crossed module on r2",
                 lambda f: CrossedModule.identity_on(_r2(f))),
    CatalogEntry("sl2-id", "xmod", "identity crossed module on sl2",
                 lambda f: CrossedModule.identity_on(_sl2(f))),
    CatalogEntry("sl2-self", "xaction",
                 "identity crossed module on sl2 acting on itself by brackets",
                 _self_action),
    CatalogEntry("mixed-pair-break", "xaction",
                 "action failing exactly the relaxable mixed-pair identities "
                 "LbM6a and LbM6b", _mixed_pair_break),
    CatalogEntry("sl2-seq", "sequence",
                 "identity crossed modules: sl2 into sl2+line onto the line",
                 _sl2_sequence),
)

CATALOG: dict[str, CatalogEntry] = {e.id: e for e in _ENTRIES}


def catalog_ids() -> tuple[str, ...]:
    return tuple(e.id for e in _ENTRIES)


def build_entry(entry_id: str, field: Field):
    entry = CATALOG.get(entry_id)
    if entry is None:
        raise InputDataError(f"unknown catalog id {entry_id!r}; "
                             f"known ids: {', '.join(catalog_ids())}")
    return entry.build(field)
