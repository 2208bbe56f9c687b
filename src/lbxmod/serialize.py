"""JSON (de)serialization for every object the CLI reads or writes.

All scalars are exact: rationals as canonical strings ("3", "-2/5"),
prime-field residues as integers in [0, p).  Structure tables are sparse and
sorted, matrices dense with explicit shapes, so serialization is a bijection
on canonical objects: ``from_json(to_json(x)) == x``.

Action tensors, pairings, matrices and subspace bases are dense lists of
mostly zeros, so they are read and written a whole tensor at a time.  A
writer fills its lists from one zero token and writes only the nonzeros.
The writers are defined here.  The readers (``*_from_json``, ``sniff_kind``,
``load_any`` and ``check_field_tag``) live in ``lbxmod.readers``; each is
resolved here on first use (PEP 562, as ``lbxmod`` resolves its public
names), so a process that reads no JSON never compiles them.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain, compress, islice, repeat
from typing import TYPE_CHECKING, Any, Callable, Sequence

if TYPE_CHECKING:
    from .action import ActionData
    from .algebra import LeibnizAlgebra, SparseTensor
    from .fields import Field, Scalar
    from .linalg import Matrix, Number, Subspace
    from .xaction import ActorMorphism, XModActionData
    from .xmod import CrossedModule, ShortExactSequence, XModMorphism

#: the names ``lbxmod.readers`` defines that this module resolves on first use
_READERS = ("check_field_tag matrix_from_json algebra_from_json action_from_json xmod_from_json xaction_from_json "
            "actor_morphism_from_json sequence_from_json sniff_kind load_any").split()


def __getattr__(name: str):
    if name not in _READERS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import readers

    value = globals()[name] = getattr(readers, name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_READERS})


def _number_to_json(field: Field) -> Callable[[Number], Any]:
    """The JSON form of a stored coefficient (see ``linalg.number``): a
    rational's canonical string, or the residue itself."""
    return int if field.characteristic else str


def _filled(to_json: Callable[[Number], Any], dense: list, vec: dict[int, Number], den: int = 1) -> list:
    """dense, a list of zero tokens, with the entries of vec / den written in."""
    for k, c in vec.items():
        dense[k] = to_json(c if den == 1 else Fraction(c, den))
    return dense


# -- matrices and vectors -----------------------------------------------


def matrix_to_json(m: Matrix) -> dict:
    to_json = _number_to_json(m.field)
    rows = list(map(list, repeat([to_json(0)] * m.cols, m.rows)))
    for j, col in enumerate(m.sparse_columns):
        for i, c in col.items():
            rows[i][j] = to_json(c)
    return {"rows": m.rows, "cols": m.cols, "entries": rows}


def vector_to_json(field: Field, v: Sequence[Scalar]) -> list:
    return [field.scalar_to_json(x) for x in v]


def subspace_to_json(s: Subspace) -> dict:
    to_json = _number_to_json(s.field)
    zeros = [to_json(0)] * s.ambient
    basis = [_filled(to_json, zeros.copy(), row, d) for row, d in s.scaled_rows]
    return {"ambient_dim": s.ambient, "dim": s.dim, "basis": basis}


# -- algebras -------------------------------------------------------------


def algebra_to_json(a: LeibnizAlgebra) -> dict:
    to_json = _number_to_json(a.field)
    brackets = [[i, j, [[k, to_json(v[k])] for k in sorted(v)]]
                for i, row in enumerate(a.sparse_table) for j, v in enumerate(row) if v]
    out: dict = {"dim": a.dim}
    if a.names is not None:
        out["names"] = list(a.names)
    out["brackets"] = brackets
    return out


# -- action tensors --------------------------------------------------------


def tensor_to_json(field: Field, view: SparseTensor, dim: int) -> list:
    """A stored tensor as dense JSON: each vector lists all dim coordinates."""
    to_json, vecs = _number_to_json(field), list(chain.from_iterable(view))
    dense = list(map(list, repeat([to_json(0)] * dim, len(vecs))))
    for vec, out in compress(zip(vecs, dense), vecs):
        _filled(to_json, out, vec)
    rows = iter(dense)
    return [list(islice(rows, len(row))) for row in view]


def action_block_to_json(d: ActionData) -> dict:
    f, n = d.actor.field, d.target.dim
    return {"left": tensor_to_json(f, d.sparse_left, n), "right": tensor_to_json(f, d.sparse_right, n)}


def action_to_json(d: ActionData) -> dict:
    return {"actor": algebra_to_json(d.actor), "target": algebra_to_json(d.target), **action_block_to_json(d)}


# -- crossed modules -------------------------------------------------------


def xmod_to_json(x: CrossedModule) -> dict:
    return {
        "top": algebra_to_json(x.top),
        "base": algebra_to_json(x.base),
        "boundary": matrix_to_json(x.boundary),
        "action": action_block_to_json(x.action),
    }


# -- crossed-module actions --------------------------------------------------


def xaction_to_json(d: XModActionData) -> dict:
    f = d.field
    return {
        "actor_xmod": xmod_to_json(d.actor_xmod),
        "target_xmod": xmod_to_json(d.target_xmod),
        "p_on_n": action_block_to_json(d.act_on_top),
        "p_on_q": action_block_to_json(d.act_on_base),
        "xi1": tensor_to_json(f, d.sparse_mq, d.target_xmod.top.dim),
        "xi2": tensor_to_json(f, d.sparse_qm, d.target_xmod.top.dim),
    }


# -- morphisms and sequences ---------------------------------------------------


def actor_morphism_to_json(fm: ActorMorphism) -> dict:
    return {
        "source": xmod_to_json(fm.source),
        "actor_of": xmod_to_json(fm.around),
        "top_map": matrix_to_json(fm.top_map),
        "base_map": matrix_to_json(fm.base_map),
    }


def morphism_maps_to_json(f: XModMorphism) -> dict:
    return {"top_map": matrix_to_json(f.top_map), "base_map": matrix_to_json(f.base_map)}


def sequence_to_json(s: ShortExactSequence) -> dict:
    return {
        "first": xmod_to_json(s.first),
        "middle": xmod_to_json(s.middle),
        "last": xmod_to_json(s.last),
        "include": morphism_maps_to_json(s.include),
        "project": morphism_maps_to_json(s.project),
    }
