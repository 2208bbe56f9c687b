"""JSON readers for every object the CLI reads: the inverses of the writers
in ``serialize``, which resolves each of their names on first use.

A reader (``_Reader``) keeps one memo per document: of its scalars, then of
the tensors, matrices and algebras built from it.  It checks the shape and
the type of every list and token over whole levels, looks every token up in
the scalar memo, parsing the unseen ones in document order, and places only
the nonzeros.  A dense part whose tokens are all JSON strings and integers
is built once per distinct shape and token sequence, and an algebra once
per distinct parsed value, so what a document repeats (a crossed module's
top as its base, an action by the bracket, one crossed module twice) is
built once and shared; an action tensor equal to the target's table is that
table.  A dense part that fails the whole-level checks is walked entry by
entry, to raise its first fault in document order, and is never kept.  Only
the readers of crossed-module actions and of morphisms into the actor import
``xaction``, when called.  The CLI imports this module only for an input
file, never for a ``catalog:`` input.
"""

from __future__ import annotations

from itertools import chain, compress
from typing import TYPE_CHECKING, Any, Callable, Iterator

from .action import ActionData
from .algebra import LeibnizAlgebra, SparseTensor, _check_dim
from .fields import Field, InputDataError
from .linalg import Matrix, Number, number
from .xmod import CrossedModule, ShortExactSequence, XModMorphism

if TYPE_CHECKING:
    from .xaction import ActorMorphism, XModActionData


def check_field_tag(obj: Any, field: Field) -> None:
    """Inputs may carry a root "field" key; it must match the active field."""
    if isinstance(obj, dict) and "field" in obj and obj["field"] != field.tag:
        raise InputDataError(
            f"file was written for field {obj['field']!r} but {field.tag!r} was requested")


def _is_int(x: Any) -> bool:
    """A JSON integer: ``bool`` is an ``int`` subclass, but true is not 1 here."""
    return isinstance(x, int) and not isinstance(x, bool)


class _Reader(dict):
    """One document's memos.  As a dict, its scalars: each distinct JSON
    string or integer maps to its stored coefficient (``linalg.number``, or
    0 for zero), parsed by ``field.parse_scalar`` on first lookup.  A failed
    parse is never kept, and a token of any other type (true and 1.0 equal
    1) is parsed on its own.  Then ``parts``: the tensors, matrices and
    algebras built from the document, by kind (a shape of two entries for a
    matrix, three for a tensor; an algebra's dimension), each with the
    value it was built from: its tokens (``dense``), or an algebra's parsed
    names and brackets.  Equal values of one kind build equal parts.  Each
    top-level reader makes its own."""

    def __init__(self, field: Field) -> None:
        super().__init__()
        self.parse = field.parse_scalar
        self.parts: dict[tuple, list[tuple[Any, Any]]] = {}

    def __missing__(self, x: Any) -> Number:
        c = self[x] = number(self.parse(x))
        return c

    def scalar(self, x: Any) -> Number:
        return self[x] if type(x) is str or type(x) is int else number(self.parse(x))

    def part(self, kind: tuple, value: Any, build: Callable[[], Any]) -> Any:
        """The part of the given kind built from value: build() on the first
        request, the same object after.  A document holds few parts of one
        kind, so they are found by comparing values, which stops at the
        first difference, rather than by hashing every value whole."""
        parts = self.parts.setdefault(kind, [])
        for seen, part in parts:
            if seen == value:
                return part
        part = build()
        parts.append((value, part))
        return part

    def dense(self, obj: list, shape: tuple[int, ...], levels: tuple[tuple[int, str], ...],
              build: Callable[[list[Number]], Any]) -> Any:
        """build(coefficients) of a dense nested list of the given shape,
        its coefficients flattened in document order.  Below obj, level t
        holds lists of levels[t][0] entries, the last level scalars; a list
        of another length raises levels[t][1].  The shapes and token types
        are checked over whole levels: a list whose tokens are all exactly
        ``str`` or ``int`` is built once per shape and token sequence, and
        only one that fails the checks is walked entry by entry, to raise
        its first fault in document order, and built on its own."""
        items = obj
        for n, _ in levels:
            if not (set(map(type, items)) <= {list} and set(map(len, items)) <= {n}):
                break
            items = list(chain.from_iterable(items))
        else:
            if set(map(type, items)) <= {str, int}:  # so equal token lists are equal documents
                return self.part(shape, items, lambda: build(list(map(self.__getitem__, items))))
        return build(list(map(self.scalar, _tokens(obj, levels))))


def _tokens(items: list, levels: tuple[tuple[int, str], ...]) -> Iterator[Any]:
    """The scalars of a dense nested list in document order, each list's
    shape checked as it is reached."""
    n, message = levels[0]
    for item in items:
        if not isinstance(item, list) or len(item) != n:
            raise InputDataError(message)
        yield from _tokens(item, levels[1:]) if len(levels) > 1 else item


def _nonzeros(coeffs: list[Number]) -> Iterator[tuple[int, Number]]:
    """(position, coefficient) of each nonzero coefficient."""
    at = list(compress(range(len(coeffs)), coeffs))
    return zip(at, map(coeffs.__getitem__, at))


# -- matrices and vectors -----------------------------------------------


def matrix_from_json(field: Field, obj: Any) -> Matrix:
    return _matrix(field, _Reader(field), obj)


def _matrix(field: Field, read: _Reader, obj: Any) -> Matrix:
    if not isinstance(obj, dict) or not {"rows", "cols", "entries"} <= set(obj):
        raise InputDataError("matrix object needs rows, cols and entries")
    rows, cols = obj["rows"], obj["cols"]
    if not (_is_int(rows) and _is_int(cols) and rows >= 0 and cols >= 0):
        raise InputDataError("matrix dimensions must be non-negative integers")
    _check_dim(cols)  # every input matrix's columns index the basis of an input algebra
    data = obj["entries"]
    if not isinstance(data, list) or len(data) != rows:
        raise InputDataError("matrix entries do not match the declared row count")

    def build(coeffs: list[Number]) -> Matrix:
        columns: tuple[dict[int, Number], ...] = tuple({} for _ in range(cols))
        for pos, c in _nonzeros(coeffs):
            i, j = divmod(pos, cols)
            columns[j][i] = c
        return Matrix(field, rows, cols, columns)

    return read.dense(data, (rows, cols), ((cols, "matrix entries do not match the declared column count"),), build)


# -- algebras -------------------------------------------------------------


def algebra_from_json(field: Field, obj: Any) -> LeibnizAlgebra:
    return _algebra(field, _Reader(field), obj)


def _algebra(field: Field, read: _Reader, obj: Any) -> LeibnizAlgebra:
    if not isinstance(obj, dict) or "dim" not in obj or "brackets" not in obj:
        raise InputDataError("algebra object needs dim and brackets")
    dim = obj["dim"]
    if not _is_int(dim) or dim < 0:
        raise InputDataError("algebra dim must be a non-negative integer")
    names = obj.get("names")
    if names is not None:
        if not isinstance(names, list) or len(names) != dim or not all(isinstance(s, str) for s in names):
            raise InputDataError("algebra names must be a list of dim strings")
    sparse: dict[tuple[int, int], dict[int, Number]] = {}
    if not isinstance(obj["brackets"], list):
        raise InputDataError("algebra brackets must be a list")
    for item in obj["brackets"]:  # type(x) is int: the common case, without a call
        if not (isinstance(item, list) and len(item) == 3 and (type(item[0]) is int or _is_int(item[0]))
                and (type(item[1]) is int or _is_int(item[1])) and isinstance(item[2], list)):
            raise InputDataError(f"bad bracket entry {item!r}")
        i, j, terms = item
        if (i, j) in sparse:
            raise InputDataError(f"duplicate bracket entry for ({i}, {j})")
        parsed: dict[int, Number] = {}
        for term in terms:
            if not (isinstance(term, list) and len(term) == 2 and (type(term[0]) is int or _is_int(term[0]))):
                raise InputDataError(f"bad bracket term {term!r}")
            k, c = term
            if k in parsed:
                raise InputDataError(f"duplicate bracket target {k} in entry ({i}, {j})")
            parsed[k] = read.scalar(c)
        sparse[(i, j)] = parsed
    def build() -> LeibnizAlgebra:
        return LeibnizAlgebra.from_brackets(field, dim, sparse, names)

    # Found by the parsed value, never by the JSON tokens, among which true ==
    # 1 == 1.0.  A target of an int subclass equals its int, but the table
    # refuses it, so such an algebra is built on its own.
    if set(map(type, chain.from_iterable(sparse.values()))) <= {int}:
        return read.part(("algebra", dim), (names, sparse), build)
    return build()


# -- action tensors --------------------------------------------------------


def _tensor(read: _Reader, obj: Any, d0: int, d1: int, d2: int) -> SparseTensor:
    """A dense JSON tensor read into a sparse view: every entry, zeros
    included, is checked, and only the nonzeros are placed."""
    if not isinstance(obj, list) or len(obj) != d0:
        raise InputDataError(f"tensor must have {d0} outer entries")

    def build(coeffs: list[Number]) -> SparseTensor:
        vecs: list[dict[int, Number]] = [{} for _ in range(d0 * d1)]
        for pos, c in _nonzeros(coeffs):
            v, k = divmod(pos, d2)
            vecs[v][k] = c
        return tuple(tuple(vecs[i * d1:(i + 1) * d1]) for i in range(d0))

    return read.dense(obj, (d0, d1, d2), ((d1, f"tensor rows must have {d1} entries"),
                                          (d2, f"tensor vectors must have {d2} entries")), build)


def _action_block(read: _Reader, obj: Any, actor: LeibnizAlgebra, target: LeibnizAlgebra) -> ActionData:
    if not isinstance(obj, dict) or "left" not in obj or "right" not in obj:
        raise InputDataError("action block needs left and right tensors")
    left = _tensor(read, obj["left"], actor.dim, target.dim, target.dim)
    right = _tensor(read, obj["right"], target.dim, actor.dim, target.dim)
    if actor.dim == target.dim:  # a tensor equal to the target's table is that table, stored already
        table = target.sparse_table
        left, right = (table if view == table else view for view in (left, right))
    return ActionData(actor, target, left, right)


def action_from_json(field: Field, obj: Any) -> ActionData:
    if not isinstance(obj, dict) or not {"actor", "target", "left", "right"} <= set(obj):
        raise InputDataError("action object needs actor, target, left, right")
    read = _Reader(field)
    return _action_block(read, obj, _algebra(field, read, obj["actor"]), _algebra(field, read, obj["target"]))


# -- crossed modules -------------------------------------------------------


def xmod_from_json(field: Field, obj: Any) -> CrossedModule:
    return _xmod(field, _Reader(field), obj)


def _xmod(field: Field, read: _Reader, obj: Any) -> CrossedModule:
    if not isinstance(obj, dict) or not {"top", "base", "boundary", "action"} <= set(obj):
        raise InputDataError("crossed module object needs top, base, boundary, action")
    top = _algebra(field, read, obj["top"])
    base = _algebra(field, read, obj["base"])
    boundary = _matrix(field, read, obj["boundary"])
    act = _action_block(read, obj["action"], base, top)
    return CrossedModule(top, base, boundary, act)


# -- crossed-module actions --------------------------------------------------


def xaction_from_json(field: Field, obj: Any) -> XModActionData:
    from .xaction import XModActionData

    needed = {"actor_xmod", "target_xmod", "p_on_n", "p_on_q", "xi1", "xi2"}
    if not isinstance(obj, dict) or not needed <= set(obj):
        raise InputDataError("crossed-module action object needs " + ", ".join(sorted(needed)))
    read = _Reader(field)
    x = _xmod(field, read, obj["actor_xmod"])
    y = _xmod(field, read, obj["target_xmod"])
    pn = _action_block(read, obj["p_on_n"], x.base, y.top)
    pq = _action_block(read, obj["p_on_q"], x.base, y.base)
    cross_mq = _tensor(read, obj["xi1"], x.top.dim, y.base.dim, y.top.dim)
    cross_qm = _tensor(read, obj["xi2"], y.base.dim, x.top.dim, y.top.dim)
    return XModActionData(x, y, pn, pq, cross_mq, cross_qm)


# -- morphisms and sequences ---------------------------------------------------


def actor_morphism_from_json(field: Field, obj: Any) -> ActorMorphism:
    from .xaction import ActorMorphism

    needed = {"source", "actor_of", "top_map", "base_map"}
    if not isinstance(obj, dict) or not needed <= set(obj):
        raise InputDataError("morphism object needs " + ", ".join(sorted(needed)))
    read = _Reader(field)
    source = _xmod(field, read, obj["source"])
    around = _xmod(field, read, obj["actor_of"])
    top_map = _matrix(field, read, obj["top_map"])
    base_map = _matrix(field, read, obj["base_map"])
    return ActorMorphism(source, around, top_map, base_map)


def sequence_from_json(field: Field, obj: Any) -> ShortExactSequence:
    needed = {"first", "middle", "last", "include", "project"}
    if not isinstance(obj, dict) or not needed <= set(obj):
        raise InputDataError("sequence object needs " + ", ".join(sorted(needed)))
    read = _Reader(field)
    first = _xmod(field, read, obj["first"])
    middle = _xmod(field, read, obj["middle"])
    last = _xmod(field, read, obj["last"])

    def maps(sub: Any, source: CrossedModule, target: CrossedModule) -> XModMorphism:
        if not isinstance(sub, dict) or "top_map" not in sub or "base_map" not in sub:
            raise InputDataError("sequence morphisms need top_map and base_map")
        return XModMorphism(source, target,
                            _matrix(field, read, sub["top_map"]), _matrix(field, read, sub["base_map"]))

    return ShortExactSequence(first, middle, last,
                              maps(obj["include"], first, middle),
                              maps(obj["project"], middle, last))


# -- kind sniffing --------------------------------------------------------------


# Each input kind with the keys that mark it and its reader, in the order
# they are tried: a document is of the first kind whose keys it has.
_KINDS = {
    "xaction": (("xi1",), xaction_from_json),
    "sequence": (("middle",), sequence_from_json),
    "morphism": (("actor_of",), actor_morphism_from_json),
    "xmod": (("boundary",), xmod_from_json),
    "action": (("actor", "left"), action_from_json),
    "algebra": (("brackets",), algebra_from_json),
}


def sniff_kind(obj: Any) -> str:
    """Classify an input object by its structural keys."""
    if not isinstance(obj, dict):
        raise InputDataError("input must be a JSON object")
    for kind, (keys, _read) in _KINDS.items():
        if all(key in obj for key in keys):
            return kind
    raise InputDataError("cannot recognize the input object kind from its keys")


def load_any(field: Field, obj: Any):
    """Sniff and parse; returns (kind, parsed object)."""
    check_field_tag(obj, field)
    kind = sniff_kind(obj)
    return kind, _KINDS[kind][1](field, obj)
