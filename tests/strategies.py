"""Hypothesis strategies for generated objects, valid or not: structure
tables, actions, matrices, crossed modules, morphisms and crossed-module
actions over Q, F2 and F3, with entries drawn from a few small values so
that most of them are zero.  ``quadruple_inputs`` draws crossed modules of
each shape the quadruple solver tells apart.  ``respelled`` gives a tensor
as sparse dicts whose entries are spelled in ways the stored form must
normalize."""
from fractions import Fraction

from hypothesis import strategies as st

from lbxmod.action import ActionData
from lbxmod.algebra import LeibnizAlgebra, annihilator, commutator
from lbxmod.linalg import Matrix
from lbxmod.xaction import XModActionData
from lbxmod.xmod import CrossedModule, XModMorphism

VALUES = {"q": (0, 0, 0, 1, -1, 2, Fraction(1, 2)), "f2": (0, 0, 1), "f3": (0, 0, 0, 1, 2)}
DIMS = st.integers(0, 3)


@st.composite
def tensors(draw, field, d0, d1, d2):
    values = VALUES[field.tag]
    flat = iter(draw(st.binary(min_size=d0 * d1 * d2, max_size=d0 * d1 * d2)))
    return tuple(tuple(tuple(field.coerce(values[next(flat) % len(values)]) for _ in range(d2)) for _ in range(d1))
                 for _ in range(d0))


@st.composite
def algebras(draw, field):
    n = draw(DIMS)
    return LeibnizAlgebra(field, n, draw(tensors(field, n, n, n)))


@st.composite
def actions(draw, field, actor_alg=None, target=None):
    p = actor_alg or draw(algebras(field))
    m = target or draw(algebras(field))
    return ActionData(p, m, draw(tensors(field, p.dim, m.dim, m.dim)), draw(tensors(field, m.dim, p.dim, m.dim)))


@st.composite
def matrices(draw, field, rows, cols):
    return Matrix(field, rows, cols, draw(tensors(field, 1, rows, cols))[0] if rows else ())


@st.composite
def xmods(draw, field):
    d = draw(actions(field))
    return CrossedModule(d.target, d.actor, draw(matrices(field, d.actor.dim, d.target.dim)), d)


def null_filiform(field, n: int) -> LeibnizAlgebra:
    """NF_n: [e_i, e_0] = e_{i+1}."""
    return LeibnizAlgebra.from_brackets(field, n, {(i, 0): {i + 1: 1} for i in range(n - 1)})


def sl2(field) -> LeibnizAlgebra:
    return LeibnizAlgebra.from_brackets(field, 3, {(0, 1): {0: -2}, (1, 0): {0: 2}, (0, 2): {1: 1}, (2, 0): {1: -1},
                                                   (1, 2): {2: -2}, (2, 1): {2: 2}})


QUADRUPLE_KINDS = ("identity", "ideal", "zero boundary", "one algebra", "any")


@st.composite
def quadruple_inputs(draw, field, kinds=QUADRUPLE_KINDS):
    """The identity on an algebra, the inclusion of its commutator or
    annihilator ideal, a drawn action with a zero boundary, one algebra on
    both layers acting on itself by a drawn action other than its bracket,
    or any drawn crossed module, of one of the kinds named.  The algebra of
    the first two is drawn, or one of sl2 and NF_2 to NF_4, whose pair
    spaces are larger."""
    kind = draw(st.sampled_from(kinds))
    if kind in ("identity", "ideal"):
        a = draw(algebras(field) | st.sampled_from((2, 3, 4)).map(lambda n: null_filiform(field, n))
                 | st.just(sl2(field)))
        if kind == "identity":
            return CrossedModule.identity_on(a)
        return CrossedModule.inclusion_of_ideal(a, draw(st.sampled_from((commutator, annihilator)))(a))
    if kind == "zero boundary":
        d = draw(actions(field))
        return CrossedModule(d.target, d.actor, Matrix.zeros(field, d.actor.dim, d.target.dim), d)
    if kind == "one algebra":
        a = draw(algebras(field))
        act = draw(actions(field, a, a).filter(lambda d: d != ActionData.by_bracket(a)))
        return CrossedModule(a, a, draw(matrices(field, a.dim, a.dim)), act)
    return draw(xmods(field))


@st.composite
def morphisms(draw, field):
    s, t = draw(xmods(field)), draw(xmods(field))
    return XModMorphism(s, t, draw(matrices(field, t.top.dim, s.top.dim)),
                        draw(matrices(field, t.base.dim, s.base.dim)))


@st.composite
def xactions(draw, field):
    x, y = draw(xmods(field)), draw(xmods(field))
    m, p, n, q = x.top.dim, x.base.dim, y.top.dim, y.base.dim
    return XModActionData(x, y, draw(actions(field, x.base, y.top)), draw(actions(field, x.base, y.base)),
                          draw(tensors(field, m, q, n)), draw(tensors(field, q, m, n)))


def spellings(field, c) -> tuple:
    """Scalars the stored form must read as c: over F_p the element and
    residues off [0, p); over Q the Fraction, Fraction(2a, 2b) (an integral
    one is a Fraction such as Fraction(4, 2)) and, when integral, the int."""
    x = field.coerce(c)
    if field.characteristic:
        p, v = field.p, x.value
        return x, v, v + p, v - p, v + 3 * p
    return (x, Fraction(2 * x.numerator, 2 * x.denominator)) + ((x.numerator,) if x.denominator == 1 else ())


@st.composite
def respelled(draw, field, tensor):
    """A dense tensor as sparse dicts, each entry in a drawn spelling and
    some zero entries kept explicitly."""
    return tuple(tuple({k: draw(st.sampled_from(spellings(field, c)))
                        for k, c in enumerate(v) if c or draw(st.booleans())} for v in row) for row in tensor)


def is_stored(field, view) -> bool:
    """No zero entries; residues in [0, p) over F_p; over Q an int when integral."""
    p = field.characteristic
    return all((type(c) is int and 0 < c < p) if p else
               (type(c) is int and c != 0) or (type(c) is Fraction and c.denominator != 1)
               for row in view for v in row for c in v.values())
