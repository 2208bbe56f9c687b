"""Dense reference implementations of the stages after the actor.

``annihilator``, the invariant and trivially acting subspaces, the ideal
checks, sub-objects, quotients, projections and the canonical morphism are
computed in ``lbxmod`` from sparse rows and one sparse residue.  The versions
here are the dense ones those replaced: brackets of dense unit vectors,
operators built column by column, stacks of their rows (``vstack``) handed
to ``nullspace``, and a plain Gauss-Jordan reduction of dense vectors modulo
a subspace's echelon basis.  ``test_sparse_stages.py`` compares the two.

``MapSpace.sparse_basis`` reads each scaled row's nonzero entries into the
maps of its member; the range-walking version it replaced is kept as
``range_walking_sparse_basis``, and ``test_member_layout.py`` compares the
two.  ``action_from_morphism`` reads the maps of each actor element with
``MapSpace.member_columns``, summed over the members' denominators.  The dense
version it replaced, which combined the dense basis rows and cut the result
into matrices, is kept here under the same name.

``lift_sequence`` pulls the middle's action back through the inclusion and
hands it to the one builder of morphisms into the actor.  The dense version
it replaced, which pulled back every bracket of dense vectors on its own,
is kept here under the same name.

``bider_xmod`` solves the quadruples inside the product of the two pair
spaces, on the pair-space coordinates, and reads the action rows as the pair
rows of the block-diagonal pair on top x| base across its two layers.  The
one system it replaced, the pair rows of both layers beside the boundary and
six hand-written action rows on all 2n^2 + 2q^2 map entries, is kept as
``one_system_bider_xmod``, on its own copy of those constraint blocks;
``test_bider.py`` compares the two.  On an identity crossed module
``bider_xmod`` and ``actor`` read their results off the pair space; the
actor as built on any crossed module, on the one-system quadruples, with its
action tables as hand-written products, is kept as ``general_actor``.
``bider._pair_rows`` builds each list [dd(x), y] once, for the rows at (x, y)
and at (y, x); the block that built it at both is kept as
``pair_rows_sent_twice``, and ``test_bider.py`` compares their rows.

On an identity crossed module with one subspace on both layers,
``sub_xmod`` and ``quotient_xmod`` return the identity on the subalgebra or
the quotient algebra, and ``outer_xmod`` divides the actor by the column
spaces of the canonical morphism without building the inner crossed module.
The sparse constructions they replaced, which restrict or project the
boundary and both action tensors on any crossed module, are kept as
``general_sub_xmod`` and ``general_quotient_xmod``, and the outer part
built through them on the inner crossed module as ``outer_via_inner``;
``test_outer_xmod.py`` compares them.

``lbxmod`` reads solved bases as integer rows over one denominator per
member.  The sparse readers and map products they replaced, on the reduced
echelon rows with ``Fraction`` entries, are kept below as ``fraction_*``;
``test_scaled_rows.py`` compares them with the integer-backed ones.

The validators evaluate each identity over all its witnesses at once.  The
per-witness loops they replaced are kept as ``validate_*``;
``test_validators.py`` compares the full reports.

Direct sums and semidirect products assemble their stored tensors from the
views of their parts, block by block.  The dense loops they replaced, which
padded each dense vector by hand, are kept at the end as ``*_tensors``;
``test_sparse_stages.py`` compares them with the dense views of the new ones.

``readers`` and ``serialize`` read and write each dense JSON tensor and
matrix whole: they check shapes and token types over whole levels, look
every token up in one memo per document and place or write only the
nonzeros, and ``linalg._stored`` recognises a tensor already in stored form
the same way.
The per-entry readers, the writers that filled each dense vector through
``field.scalar_to_json`` and the per-vector stored-form check they replaced
are kept at the end as ``read_*_by_entry``, ``*_to_json_by_row``,
``tensor_to_json_by_vector`` and ``stored_by_vector``; ``test_serialize.py``
and ``test_linalg.py`` compare them.

The CLI declares ``--field`` and ``--out`` once, on a parent parser that
every subcommand shares.  The parser that added both to each subcommand on
its own is kept at the end as ``per_subcommand_parser``; ``test_cli.py``
compares their help texts and usage errors.

Every record hashes the ``_frozen`` key of all its fields.  The rule it
replaced, which six stored classes declared with the names of their stored
views (keyed by ``_frozen``) and which hashed every other field as it is, is
kept at the end as ``stored_hash``; ``test_stored_hash.py`` compares the two.
"""
from __future__ import annotations

import argparse
import random
from fractions import Fraction
from operator import is_
from typing import Sequence

from lbxmod import algebra, bider, xmod
from lbxmod.action import ActionData
from lbxmod.algebra import (
    _ONE,
    LeibnizAlgebra,
    SparseVector,
    ValidationReport,
    Violation,
    _accumulate,
    _check_dim,
    _evaluate,
    _quotient,
    _restricted,
    _units,
)
from lbxmod.bider import (
    LiftResult,
    MapSpace,
    NotExactError,
    ShortExactSequence,
    _layout,
    _scaled_matrix,
    actor,
    bider_qn,
    bider_xmod,
    canonical_morphism,
    outer_xmod,
    sequence_problems,
)
from lbxmod.cli import _COMMANDS
from lbxmod.fields import InputDataError, replace
from lbxmod.linalg import (
    LinearSolveError,
    Matrix,
    Number,
    RrefResult,
    Subspace,
    _Preimages,
    _dense,
    _sparse,
    column_space,
    number,
    nullspace,
    sparse_kernel,
)
from lbxmod.readers import _is_int
from lbxmod.serialize import _number_to_json
from lbxmod.xaction import ActorMorphism, ConditionsNotMetError, InvalidMorphismError, XModActionData
from lbxmod.xmod import (
    NO_CONDITION_WARNING,
    CrossedModule,
    NotAnIdealError,
    QuotientXMod,
    SubXMod,
    XModMorphism,
    check_conditions,
    condition_profile,
)


def unit(field, n, i):
    return tuple(field.one if j == i else field.zero for j in range(n))


def apply(m: Matrix, vec):
    """m times a dense column vector, on its dense rows."""
    return tuple(sum((a * v for a, v in zip(row, vec)), m.field.zero) for row in m.entries)


def column(m: Matrix, j: int):
    """Column j of m, dense."""
    return tuple(row[j] for row in m.entries)


def contract(field, tensor, x, y, dim):
    """sum_{i,j} x[i] y[j] tensor[i][j], on dense vectors."""
    out = [field.zero] * dim
    for i, a in enumerate(x):
        if a:
            for j, b in enumerate(y):
                if b:
                    for k, t in enumerate(tensor[i][j]):
                        if t:
                            out[k] = out[k] + a * b * t
    return tuple(out)


def vstack(a: Matrix, b: Matrix) -> Matrix:
    """The rows of a, then those of b."""
    return Matrix(a.field, a.rows + b.rows, a.cols, a.entries + b.entries)


def negated(m: Matrix) -> Matrix:
    return Matrix(m.field, m.rows, m.cols, tuple(tuple(-c for c in row) for row in m.entries))


def operator(field, tensor, fixed, n, fixed_left):
    """The matrix of y -> tensor(fixed, y) (or tensor(y, fixed)) on k^n."""
    cols = [contract(field, tensor, fixed, unit(field, n, j), n) if fixed_left
            else contract(field, tensor, unit(field, n, j), fixed, n) for j in range(n)]
    return Matrix.from_columns(field, cols, n)


def reference_rref(m):
    """Dense Gauss-Jordan elimination on field scalars, first-nonzero pivots."""
    work = [list(row) for row in m.entries]
    pivots = []
    pr = 0  # next pivot row
    for col in range(m.cols):
        sel = next((r for r in range(pr, m.rows) if work[r][col]), None)
        if sel is None:
            continue
        work[pr], work[sel] = work[sel], work[pr]
        inv = m.field.one / work[pr][col]
        work[pr] = [inv * x for x in work[pr]]
        for r in range(m.rows):
            if r != pr and work[r][col]:
                c = work[r][col]
                work[r] = [x - c * y for x, y in zip(work[r], work[pr])]
        pivots.append(col)
        pr += 1
        if pr == m.rows:
            break
    return RrefResult(Matrix(m.field, m.rows, m.cols, tuple(tuple(row) for row in work)), tuple(pivots))


# -- reduction modulo a subspace -------------------------------------------


def reduce(s: Subspace, vec):
    v = list(vec)
    for t, p in enumerate(s.pivots):
        c = v[p]
        if c:
            for j, y in enumerate(s.basis.entries[t]):
                if y:
                    v[j] = v[j] - c * y
    return tuple(v)


def contains(s: Subspace, vec) -> bool:
    return not any(reduce(s, vec))


def coords(s: Subspace, vec, error="vector left the subspace it was supposed to stay in"):
    if not contains(s, vec):
        raise LinearSolveError(error)
    return tuple(vec[p] for p in s.pivots)


def complement_indices(s: Subspace):
    piv = set(s.pivots)
    return tuple(j for j in range(s.ambient) if j not in piv)


def projection_matrix(s: Subspace) -> Matrix:
    reps = complement_indices(s)
    cols = []
    for j in range(s.ambient):
        rem = reduce(s, unit(s.field, s.ambient, j))
        cols.append(tuple(rem[r] for r in reps))
    return Matrix.from_columns(s.field, cols, len(reps))


# -- algebras -----------------------------------------------------------------


def annihilator(a: LeibnizAlgebra) -> Subspace:
    if a.dim == 0:
        return Subspace.zero(a.field, 0)
    blocks = None
    for i in range(a.dim):
        u = unit(a.field, a.dim, i)
        stack = vstack(operator(a.field, a.table, u, a.dim, True), operator(a.field, a.table, u, a.dim, False))
        blocks = stack if blocks is None else vstack(blocks, stack)
    return nullspace(blocks)


def is_ideal(a: LeibnizAlgebra, s: Subspace) -> bool:
    if s.ambient != a.dim:
        raise InputDataError("subspace does not live in the algebra")
    units = [unit(a.field, a.dim, i) for i in range(a.dim)]
    for v in s.basis.entries:
        for u in units:
            if not contains(s, contract(a.field, a.table, u, v, a.dim)):
                return False
            if not contains(s, contract(a.field, a.table, v, u, a.dim)):
                return False
    return True


def subalgebra_on(a: LeibnizAlgebra, s: Subspace):
    rows = s.basis.entries
    tab = tuple(tuple(coords(s, contract(a.field, a.table, rows[i], rows[j], a.dim),
                             "subspace is not closed under the bracket") for j in range(s.dim))
                for i in range(s.dim))
    return LeibnizAlgebra(a.field, s.dim, tab), Matrix.from_columns(a.field, list(rows), a.dim)


def quotient_algebra(a: LeibnizAlgebra, ideal: Subspace):
    if not is_ideal(a, ideal):
        raise InputDataError("quotient requested by a subspace that is not an ideal")
    reps = complement_indices(ideal)
    proj = projection_matrix(ideal)
    tab = tuple(tuple(apply(proj, a.table[r][s]) for s in reps) for r in reps)
    return LeibnizAlgebra(a.field, len(reps), tab), proj


def inclusion_of_ideal(a: LeibnizAlgebra, s: Subspace) -> CrossedModule:
    sub, incl = subalgebra_on(a, s)
    rows = s.basis.entries
    units = [unit(a.field, a.dim, i) for i in range(a.dim)]
    left = tuple(tuple(coords(s, contract(a.field, a.table, u, v, a.dim)) for v in rows) for u in units)
    right = tuple(tuple(coords(s, contract(a.field, a.table, v, u, a.dim)) for u in units) for v in rows)
    return CrossedModule(sub, a, incl, ActionData(a, sub, left, right))


# -- crossed modules ------------------------------------------------------------


def act_left(x: CrossedModule, q, n):
    return contract(x.top.field, x.action.left, q, n, x.top.dim)


def act_right(x: CrossedModule, n, q):
    return contract(x.top.field, x.action.right, n, q, x.top.dim)


def sub_xmod_parts(x: CrossedModule, top_space: Subspace, base_space: Subspace):
    """The crossed module ``sub_xmod`` induces, and its two inclusions."""
    top_alg, top_incl = subalgebra_on(x.top, top_space)
    base_alg, base_incl = subalgebra_on(x.base, base_space)
    t_rows, b_rows = top_space.basis.entries, base_space.basis.entries
    bdy = Matrix.from_columns(x.top.field, [coords(base_space, apply(x.boundary, v)) for v in t_rows],
                              base_space.dim)
    left = tuple(tuple(coords(top_space, act_left(x, b, v)) for v in t_rows) for b in b_rows)
    right = tuple(tuple(coords(top_space, act_right(x, v, b)) for b in b_rows) for v in t_rows)
    small = CrossedModule(top_alg, base_alg, bdy, ActionData(base_alg, top_alg, left, right))
    return small, top_incl, base_incl


def check_xmod_ideal(x: CrossedModule, top_space: Subspace, base_space: Subspace) -> list[str]:
    problems = []
    if not is_ideal(x.top, top_space):
        problems.append("top subspace is not an ideal of the top algebra")
    if not is_ideal(x.base, base_space):
        problems.append("base subspace is not an ideal of the base algebra")
    for v in top_space.basis.entries:
        if not contains(base_space, apply(x.boundary, v)):
            problems.append("boundary image of the top part leaves the base part")
            break
    f = x.top.field
    base_units = [unit(f, x.base.dim, a) for a in range(x.base.dim)]
    top_units = [unit(f, x.top.dim, i) for i in range(x.top.dim)]
    if not all(contains(top_space, act_left(x, b, u)) and contains(top_space, act_right(x, u, b))
               for b in base_space.basis.entries for u in top_units):
        problems.append("base part does not act into the top part")
    if not all(contains(top_space, act_left(x, q, v)) and contains(top_space, act_right(x, v, q))
               for v in top_space.basis.entries for q in base_units):
        problems.append("top part is not stable under the base action")
    return problems


def quotient_xmod_parts(x: CrossedModule, top_space: Subspace, base_space: Subspace):
    """The crossed module ``quotient_xmod`` builds, and its two projections."""
    problems = check_xmod_ideal(x, top_space, base_space)
    if problems:
        raise NotAnIdealError("; ".join(problems))
    top_q, top_proj = quotient_algebra(x.top, top_space)
    base_q, base_proj = quotient_algebra(x.base, base_space)
    t_reps, b_reps = complement_indices(top_space), complement_indices(base_space)
    bdy = Matrix.from_columns(x.top.field, [apply(base_proj, column(x.boundary, r)) for r in t_reps], base_q.dim)
    left = tuple(tuple(apply(top_proj, x.action.left[a][i]) for i in t_reps) for a in b_reps)
    right = tuple(tuple(apply(top_proj, x.action.right[i][a]) for a in b_reps) for i in t_reps)
    return CrossedModule(top_q, base_q, bdy, ActionData(base_q, top_q, left, right)), top_proj, base_proj


def invariant_top_subspace(x: CrossedModule) -> Subspace:
    f = x.top.field
    if x.base.dim == 0 or x.top.dim == 0:
        return Subspace.full(f, x.top.dim)
    blocks = None
    for a in range(x.base.dim):
        u = unit(f, x.base.dim, a)
        lop = Matrix.from_columns(f, [act_left(x, u, unit(f, x.top.dim, i)) for i in range(x.top.dim)], x.top.dim)
        rop = Matrix.from_columns(f, [act_right(x, unit(f, x.top.dim, i), u) for i in range(x.top.dim)], x.top.dim)
        stack = vstack(lop, rop)
        blocks = stack if blocks is None else vstack(blocks, stack)
    return nullspace(blocks)


def trivially_acting_base_subspace(x: CrossedModule) -> Subspace:
    f = x.top.field
    if x.top.dim == 0:
        return Subspace.full(f, x.base.dim)
    blocks = None
    for i in range(x.top.dim):
        lcols = [x.action.left[a][i] for a in range(x.base.dim)]
        rcols = [x.action.right[i][a] for a in range(x.base.dim)]
        stack = vstack(Matrix.from_columns(f, lcols, x.top.dim), Matrix.from_columns(f, rcols, x.top.dim))
        blocks = stack if blocks is None else vstack(blocks, stack)
    return nullspace(blocks)


def intersect(s: Subspace, t: Subspace) -> Subspace:
    """s ∩ t: the kernel of the rows that span the perpendicular spaces of s and t."""
    return nullspace(vstack(nullspace(s.basis).basis, nullspace(t.basis).basis))


def center_spaces(x: CrossedModule) -> tuple[Subspace, Subspace]:
    return invariant_top_subspace(x), intersect(trivially_acting_base_subspace(x), annihilator(x.base))


# -- the canonical morphism --------------------------------------------------------


def inner_action_pair(x: CrossedModule, nvec):
    f, qd = x.top.field, x.base.dim
    dcols = [tuple(-c for c in act_left(x, unit(f, qd, a), nvec)) for a in range(qd)]
    ddcols = [act_right(x, nvec, unit(f, qd, a)) for a in range(qd)]
    return Matrix.from_columns(f, dcols, x.top.dim), Matrix.from_columns(f, ddcols, x.top.dim)


def inner_quadruple(x: CrossedModule, qvec):
    f, nd, qd = x.top.field, x.top.dim, x.base.dim
    s1_cols = [tuple(-c for c in act_right(x, unit(f, nd, i), qvec)) for i in range(nd)]
    t1_cols = [act_left(x, qvec, unit(f, nd, i)) for i in range(nd)]
    return (Matrix.from_columns(f, s1_cols, nd), Matrix.from_columns(f, t1_cols, nd),
            negated(operator(f, x.base.table, qvec, qd, False)), operator(f, x.base.table, qvec, qd, True))


def _flat(mats):
    return tuple(c for m in mats for row in m.entries for c in row)


def canonical_maps(x: CrossedModule) -> tuple[Matrix, Matrix]:
    """The top and base maps of the canonical morphism x -> actor(x)."""
    pairs, quads, f = bider_qn(x), bider_xmod(x), x.top.field
    top_cols = [coords(pairs.space, _flat(inner_action_pair(x, unit(f, x.top.dim, i))))
                for i in range(x.top.dim)]
    base_cols = [coords(quads.space, _flat(inner_quadruple(x, unit(f, x.base.dim, a))))
                 for a in range(x.base.dim)]
    return Matrix.from_columns(f, top_cols, pairs.dim), Matrix.from_columns(f, base_cols, quads.dim)


# -- the member layout of a map space ----------------------------------------------


def range_walking_sparse_basis(space: MapSpace):
    """``MapSpace.sparse_basis`` as it was built before: every coordinate of
    each map's range in the flat space tested against every member's row."""
    members = []
    for vec, den in space.space.scaled_rows:
        maps = []
        for off, rows, cols in _layout(space.shapes):
            m = {}
            for u in range(off, off + rows * cols):
                if u in vec:
                    i, j = divmod(u - off, cols)
                    m.setdefault(i, {})[j] = vec[u]
            maps.append((m, den))
        members.append(tuple(maps))
    return tuple(members)


# -- action data from a morphism into the actor ------------------------------------


def member_maps(space, coords):
    """The member of a map space with the given coordinates, from the dense
    basis rows, as a tuple of dense matrices."""
    f = space.field
    vec = [f.zero] * space.space.ambient
    for c, row in zip(coords, space.space.basis.entries):
        if c:
            vec = [x + c * y for x, y in zip(vec, row)]
    mats, pos = [], 0
    for r, c in space.shapes:
        mats.append(Matrix(f, r, c, tuple(tuple(vec[pos + i * c:pos + (i + 1) * c]) for i in range(r))))
        pos += r * c
    return tuple(mats)


def action_from_morphism(fm: ActorMorphism) -> XModActionData:
    y = fm.around
    flags = check_conditions(y)
    if not flags.any_holds:
        raise ConditionsNotMetError(flags, condition_profile(y))
    rep = validate_morphism(fm.as_xmod_morphism())
    if not rep.ok:
        raise InvalidMorphismError(
            "the given maps are not a morphism into the actor: " + ", ".join(rep.labels()))

    x = fm.source
    quads = [[m.sparse_columns for m in member_maps(bider_xmod(y), column(fm.base_map, b))]
             for b in range(x.base.dim)]  # (s1, t1, s2, t2), each map as its sparse columns
    pairs = [[m.sparse_columns for m in member_maps(bider_qn(y), column(fm.top_map, i))]
             for i in range(x.top.dim)]   # (d, dd)

    def minus(v):
        return {k: -c for k, c in v.items()}

    act_on_top = ActionData(x.base, y.top, [t1 for _s1, t1, _s2, _t2 in quads],
                            [[minus(member[0][j]) for member in quads] for j in range(y.top.dim)])
    act_on_base = ActionData(x.base, y.base, [t2 for _s1, _t1, _s2, t2 in quads],
                             [[minus(member[2][a]) for member in quads] for a in range(y.base.dim)])
    return XModActionData(x, y, act_on_top, act_on_base, [dd for _d, dd in pairs],
                          [[minus(d[a]) for d, _dd in pairs] for a in range(y.base.dim)])


# -- lifting a short exact sequence ------------------------------------------------


def lift_sequence(s: ShortExactSequence) -> LiftResult:
    """The lift from dense brackets: each value ``act_left``, ``act_right``
    or ``bracket`` gives on dense vectors is pulled back through the
    inclusion on its own, and each middle element's pair and quadruple are
    assembled column by column."""
    problems = sequence_problems(s)
    if problems:
        raise NotExactError("; ".join(problems))
    x, mid, f = s.first, s.middle, s.first.top.field
    ft, fb = s.include.top_map, s.include.base_map
    pairs, quads = bider_qn(x), bider_xmod(x)
    act = mid.action
    qs, ns = [column(fb, a) for a in range(x.base.dim)], [column(ft, i) for i in range(x.top.dim)]
    top_back, base_back = _Preimages(ft), _Preimages(fb)

    def top(v):
        return top_back(_sparse(v))

    def base(v):
        return base_back(_sparse(v))

    alpha_cols = []
    for i in range(mid.top.dim):
        e = unit(f, mid.top.dim, i)
        alpha_cols.append(pairs.read_columns([(-1, [top(act.act_left(q, e)) for q in qs]),
                                              (1, [top(act.act_right(e, q)) for q in qs])],
                                             "lifted pair is not a pair-space solution"))
    alpha = Matrix.from_columns(f, alpha_cols, pairs.dim)

    beta_cols = []
    for a in range(mid.base.dim):
        e = unit(f, mid.base.dim, a)
        beta_cols.append(quads.read_columns([(-1, [top(act.act_right(n, e)) for n in ns]),
                                             (1, [top(act.act_left(e, n)) for n in ns]),
                                             (-1, [base(mid.base.bracket(q, e)) for q in qs]),
                                             (1, [base(mid.base.bracket(e, q)) for q in qs])],
                                            "lifted quadruple is not a quadruple-space solution"))
    beta = Matrix.from_columns(f, beta_cols, quads.dim)

    morphism = XModMorphism(mid, actor(x), alpha, beta)
    out = outer_xmod(x)

    def induced(project: Matrix, lifted: Matrix, onto: Matrix) -> Matrix:
        pull = _Preimages(project)
        ends = [_dense(f, project.cols, pull({r: 1})) for r in range(project.rows)]
        return Matrix.from_columns(f, [apply(onto, apply(lifted, w)) for w in ends], onto.rows)

    warnings = () if check_conditions(x).any_holds else (NO_CONDITION_WARNING,)
    return LiftResult(morphism, out, induced(s.project.top_map, alpha, out.top_project),
                      induced(s.project.base_map, beta, out.base_project), warnings)


def sequence_problems(s: ShortExactSequence) -> list[str]:
    """The exactness check that compared the column space of each inclusion
    with the nullspace of its projection."""
    problems = []
    if s.include.source != s.first or s.include.target != s.middle:
        problems.append("inclusion endpoints do not match the sequence")
    if s.project.source != s.middle or s.project.target != s.last:
        problems.append("projection endpoints do not match the sequence")
    if problems:
        return problems
    if not validate_morphism(s.include).ok:
        problems.append("inclusion is not a morphism")
    if not validate_morphism(s.project).ok:
        problems.append("projection is not a morphism")
    for layer, inc, proj, first_dim, last_dim in (
        ("top", s.include.top_map, s.project.top_map, s.first.top.dim, s.last.top.dim),
        ("base", s.include.base_map, s.project.base_map, s.first.base.dim, s.last.base.dim),
    ):
        if reference_rref(inc).rank != first_dim:
            problems.append(f"{layer} inclusion is not injective")
        if reference_rref(proj).rank != last_dim:
            problems.append(f"{layer} projection is not surjective")
        if column_space(inc) != nullspace(proj):
            problems.append(f"{layer} layer is not exact in the middle")
    return problems


# -- seeded changes of basis --------------------------------------------------------


def change_of_basis(field, rng: random.Random, n: int) -> tuple[Matrix, Matrix]:
    """P = U * (signed permutation), U upper unitriangular with every entry
    above the diagonal 1, and its exact inverse."""
    perm = list(range(n))
    rng.shuffle(perm)
    signs = [rng.choice((-1, 1)) for _ in range(n)]
    u = [[int(j >= i) for j in range(n)] for i in range(n)]
    ui = [[int(j == i) - int(j == i + 1) for j in range(n)] for i in range(n)]
    p = Matrix.from_rows(field, [[u[i][perm[j]] * signs[j] for j in range(n)] for i in range(n)], n)
    pi = Matrix.from_rows(field, [[signs[j] * ui[perm[j]][c] for c in range(n)] for j in range(n)], n)
    return p, pi


def _rebase_tensor(field, tensor, pa: Matrix, pb: Matrix, inv: Matrix):
    ca = [column(pa, i) for i in range(pa.cols)]
    cb = [column(pb, j) for j in range(pb.cols)]
    return tuple(tuple(apply(inv, contract(field, tensor, x, y, inv.cols)) for y in cb) for x in ca)


def rebase_xmod(x: CrossedModule, rng: random.Random, same_basis: bool = False) -> CrossedModule:
    """The same crossed module in seeded integer bases of its two layers;
    ``same_basis`` takes one change of basis for both (the layers must have
    one dimension), so an identity crossed module stays an identity."""
    f = x.top.field
    pt, pti = change_of_basis(f, rng, x.top.dim)
    pb, pbi = (pt, pti) if same_basis else change_of_basis(f, rng, x.base.dim)
    top = LeibnizAlgebra(f, x.top.dim, _rebase_tensor(f, x.top.table, pt, pt, pti))
    base = LeibnizAlgebra(f, x.base.dim, _rebase_tensor(f, x.base.table, pb, pb, pbi))
    act = ActionData(base, top, _rebase_tensor(f, x.action.left, pb, pt, pti),
                     _rebase_tensor(f, x.action.right, pt, pb, pti))
    return CrossedModule(top, base, pbi @ x.boundary @ pt, act)



# -- the quadruple space as one system ----------------------------------------------
#
# The constraint blocks as they stood before ``bider._pair_rows`` took a
# bracket table and column templates: the pair rows through an action, the
# boundary rows and the six action rows, each map addressed by (offset of its
# first entry, rows, cols).

_Map = tuple[int, int, int]
_Row = dict[int, Number]


def _applied(m: _Map, vec: SparseVector):
    """Coordinate k of M(v) for a fixed vector v: sum_c v[c] M[k][c]."""
    off, rows, cols = m
    return [(k, off + k * cols + c, t) for c, t in vec.items() for k in range(rows)]


def _sent(m: _Map, x: int, images: Sequence[SparseVector]):
    """Coordinate k of T(M(e_x)) for a fixed linear T with T(e_i) = images[i]."""
    off, _rows, cols = m
    return [(k, off + i * cols + x, t) for i, img in enumerate(images) for k, t in img.items()]


def _collect(size: int, *terms) -> list[_Row]:
    """The rows of sum(sign * term) = 0, one per output coordinate."""
    rows: list[_Row] = [{} for _ in range(size)]
    for sign, contributions in terms:
        for k, u, t in contributions:
            row = rows[k]
            row[u] = row.get(u, 0) + sign * t
    return [row for row in rows if row]


def _pair_rows(act: ActionData, d: _Map, dd: _Map) -> list[_Row]:
    """(d, dd): actor -> target is a biderivation pair through the action:

    d([a, b]) = [d(a), b] + [a, d(b)],  dd([a, b]) = [dd(a), b] - [dd(b), a],
    [a, d(b) - dd(b)] = 0.
    """
    src, n = act.actor.dim, act.target.dim
    tab = act.actor.sparse_table
    left_of = act.sparse_left                                                      # [e_a, e_i]
    right_by = [[act.sparse_right[i][b] for i in range(n)] for b in range(src)]  # [e_i, e_b]
    rows: list[_Row] = []
    for a in range(src):
        for b in range(src):
            d_b = _sent(d, b, left_of[a])
            rows += _collect(n, (1, _applied(d, tab[a][b])), (-1, _sent(d, a, right_by[b])), (-1, d_b))
            rows += _collect(n, (1, _applied(dd, tab[a][b])), (-1, _sent(dd, a, right_by[b])),
                             (1, _sent(dd, b, right_by[a])))
            rows += _collect(n, (1, d_b), (-1, _sent(dd, b, left_of[a])))
    return rows


def _boundary_rows(mu: Matrix, top: _Map, base: _Map) -> list[_Row]:
    """The boundary intertwines the maps: mu @ top = base @ mu."""
    mu_cols = mu.sparse_columns
    rows: list[_Row] = []
    for j in range(mu.cols):
        rows += _collect(mu.rows, (1, _sent(top, j, mu_cols)), (-1, _applied(base, mu_cols[j])))
    return rows


def _action_rows(act: ActionData, s1: _Map, t1: _Map, s2: _Map, t2: _Map) -> list[_Row]:
    """The quadruple is compatible with the action of the base on the top."""
    q, n = act.actor.dim, act.target.dim
    left_of, right_of = act.sparse_left, act.sparse_right                        # [e_a, e_j], [e_i, e_b]
    left_on = [[left_of[b][i] for b in range(q)] for i in range(n)]              # [e_b, e_i]
    right_by = [[right_of[j][a] for j in range(n)] for a in range(q)]            # [e_j, e_a]
    rows: list[_Row] = []
    for a in range(q):
        for i in range(n):
            la, ra = left_of[a][i], right_of[i][a]
            s1_i, s2_a = _sent(s1, i, left_of[a]), _sent(s2, a, right_of[i])
            t1_i, t2_a = _sent(t1, i, right_by[a]), _sent(t2, a, left_on[i])
            rows += _collect(n, (1, _applied(s1, la)), (-1, _sent(s2, a, left_on[i])), (-1, s1_i))
            rows += _collect(n, (1, _applied(s1, ra)), (-1, _sent(s1, i, right_by[a])), (-1, s2_a))
            rows += _collect(n, (1, _applied(t1, la)), (-1, t2_a), (1, t1_i))
            rows += _collect(n, (1, _applied(t1, ra)), (-1, t1_i), (1, t2_a))
            rows += _collect(n, (1, s1_i), (-1, _sent(t1, i, left_of[a])))
            rows += _collect(n, (1, s2_a), (-1, _sent(t2, a, right_of[i])))
    return rows


def one_system_bider_xmod(x: CrossedModule) -> MapSpace:
    """The quadruple space from one system on every map entry: both layers'
    pair rows through their own brackets, the boundary rows and the action
    rows.  Its table is read with the four-component quadruple bracket, the
    reference for ``bider._pair_bracket`` taken layer by layer."""
    nd, qd = x.top.dim, x.base.dim
    shapes = ((nd, nd), (nd, nd), (qd, qd), (qd, qd))
    s1, t1, s2, t2 = _layout(shapes)
    rows = (_pair_rows(ActionData.by_bracket(x.top), s1, t1)
            + _pair_rows(ActionData.by_bracket(x.base), s2, t2)
            + _boundary_rows(x.boundary, s1, s2)
            + _boundary_rows(x.boundary, t1, t2)
            + _action_rows(x.action, s1, t1, s2, t2))

    def bracket_terms(u, v):
        (s1, t1, s2, t2), (s1p, _t1p, s2p, _t2p) = u, v
        return [[(1, s1, s1p), (-1, s1p, s1)], [(1, t1, s1p), (-1, s1p, t1)],
                [(1, s2, s2p), (-1, s2p, s2)], [(1, t2, s2p), (-1, s2p, t2)]]

    f = x.top.field
    solved = MapSpace(f, shapes, sparse_kernel(f, 2 * nd * nd + 2 * qd * qd, rows), LeibnizAlgebra.abelian(f, 0))
    members = solved.sparse_basis
    table = tuple(tuple(solved.read_products(bracket_terms(u, v), "bracket left the quadruples") for v in members)
                  for u in members)
    return replace(solved, algebra=LeibnizAlgebra(f, solved.dim, table))


def pair_rows_sent_twice(table, left, right, d, dd, indices: range) -> list[dict]:
    """``bider._pair_rows`` as it stood before it built each [dd(x), y] once:
    five ``bider._sent`` lists at every index pair, [dd(a), b] and [dd(b), a]
    among them, which the rows at (b, a) build again."""
    right_by = [[row[b] for row in right] for b in range(len(table))]  # [m_i, e_b]
    rows: list[dict] = []
    for a in indices:
        for b in indices:
            d_b = bider._sent(d, b, left[a])
            rows += bider._collect((1, bider._applied(d, table[a][b])), (-1, bider._sent(d, a, right_by[b])),
                                   (-1, d_b))
            rows += bider._collect((1, bider._applied(dd, table[a][b])), (-1, bider._sent(dd, a, right_by[b])),
                                   (1, bider._sent(dd, b, right_by[a])))
            rows += bider._collect((1, d_b), (-1, bider._sent(dd, b, left[a])))
    return rows


def general_actor(x: CrossedModule) -> CrossedModule:
    """The actor built as on any crossed module, from ``one_system_bider_xmod``:
    ``delta`` composes each pair with the boundary on both sides, and the
    action tables read [quadruple, pair] and [pair, quadruple] back in the
    pair space."""
    pairs, quads = bider_qn(x), one_system_bider_xmod(x)
    mu = _scaled_matrix(x.boundary)
    cols = [quads.read_products([[(1, d, mu)], [(1, dd, mu)], [(1, mu, d)], [(1, mu, dd)]], "not a quadruple")
            for d, dd in pairs.sparse_basis]
    bdy = Matrix(x.top.field, quads.dim, pairs.dim, tuple(cols))

    def read(components):
        return pairs.read_products(components, "actor action left the pair space")

    left = tuple(tuple(read([[(1, s1, d), (-1, d, s2)], [(1, t1, d), (-1, d, t2)]])
                       for d, _dd in pairs.sparse_basis)
                 for s1, t1, s2, t2 in quads.sparse_basis)
    right = tuple(tuple(read([[(1, d, s2), (-1, s1, d)], [(1, dd, s2), (-1, s1, dd)]])
                        for s1, _t1, s2, _t2 in quads.sparse_basis)
                  for d, dd in pairs.sparse_basis)
    return CrossedModule(pairs.algebra, quads.algebra, bdy, ActionData(quads.algebra, pairs.algebra, left, right))


# -- sub and quotient crossed modules as on any crossed module ---------------------


def general_sub_xmod(x: CrossedModule, top_space: Subspace, base_space: Subspace,
                     warnings: tuple[str, ...] = ()) -> SubXMod:
    """Both subalgebras, with the boundary and both action tensors restricted
    to the two subspaces."""
    top_alg, top_incl = algebra.subalgebra_on(x.top, top_space)
    base_alg, base_incl = algebra.subalgebra_on(x.base, base_space)
    t_rows, b_rows = top_space.scaled_rows, base_space.scaled_rows
    left_error = xmod._LEFT_SUBSPACE
    bdy_cols = _restricted(base_space, (x.boundary.sparse_columns,), [(_ONE, 1)], t_rows, left_error)[0]
    bdy = Matrix(x.top.field, base_space.dim, top_space.dim, bdy_cols)
    left = _restricted(top_space, x.action.sparse_left, b_rows, t_rows, left_error)
    right = _restricted(top_space, x.action.sparse_right, t_rows, b_rows, left_error)
    small = CrossedModule(top_alg, base_alg, bdy, ActionData(base_alg, top_alg, left, right))
    return SubXMod(x, small, top_space, base_space, top_incl, base_incl, warnings)


def general_quotient_xmod(x: CrossedModule, top_space: Subspace, base_space: Subspace) -> QuotientXMod:
    """Both quotient algebras, with the boundary and both action tensors
    projected entry by entry at the complement representatives."""
    problems = xmod.check_xmod_ideal(x, top_space, base_space)
    if problems:
        raise NotAnIdealError("; ".join(problems))
    top_q, top_proj = _quotient(x.top, top_space)
    base_q, base_proj = _quotient(x.base, base_space)
    t_reps, b_reps = top_space.complement_indices(), base_space.complement_indices()
    left, right, eta = x.action.sparse_left, x.action.sparse_right, x.boundary.sparse_columns
    bdy = Matrix(x.top.field, base_q.dim, top_q.dim, tuple(base_space.project(eta[r]) for r in t_reps))
    act = ActionData(base_q, top_q, tuple(tuple(top_space.project(left[a][i]) for i in t_reps) for a in b_reps),
                     tuple(tuple(top_space.project(right[i][a]) for a in b_reps) for i in t_reps))
    return QuotientXMod(x, CrossedModule(top_q, base_q, bdy, act), top_proj, base_proj)


def outer_via_inner(x: CrossedModule) -> QuotientXMod:
    """The actor modulo the inner crossed module, built in full on the
    column spaces of the canonical morphism's maps first."""
    can = canonical_morphism(x)
    inn = general_sub_xmod(can.target, column_space(can.top_map), column_space(can.base_map))
    return general_quotient_xmod(actor(x), inn.top_space, inn.base_space)


# -- sparse readers on Fraction rows -----------------------------------------------


def fraction_rows(s: Subspace):
    """The reduced echelon rows by their nonzero entries, as ``number``s."""
    return tuple({k: number(c) for k, c in enumerate(row) if c} for row in s.basis.entries)


def _axpy(dst, f, src, p):
    for c, v in src.items():
        x = dst.get(c, 0) + f * v
        if p:
            x %= p
        if x:
            dst[c] = x
        else:
            dst.pop(c, None)


def fraction_residue(s: Subspace, vec):
    """vec less the combination of the reduced rows given by its pivot entries."""
    p = s.field.characteristic
    at, rows = {u: t for t, u in enumerate(s.pivots)}, fraction_rows(s)
    rest = dict(vec)
    for u, c in vec.items():
        if c and u in at:
            _axpy(rest, -c, rows[at[u]], p)
    if p:
        return {k: c % p for k, c in rest.items() if c % p}
    return {k: c for k, c in rest.items() if c}


def _dense_of(field, dim, vec):
    out = [field.zero] * dim
    for k, c in vec.items():
        out[k] = field.coerce(c)
    return tuple(out)


def fraction_read_coords(s: Subspace, vec, error):
    if fraction_residue(s, vec):
        raise LinearSolveError(error)
    at = {u: t for t, u in enumerate(s.pivots)}
    return _dense_of(s.field, s.dim, {at[u]: c for u, c in vec.items() if u in at})


def fraction_project(s: Subspace, vec):
    at = {j: r for r, j in enumerate(complement_indices(s))}
    return _dense_of(s.field, len(at), {at[k]: c for k, c in fraction_residue(s, vec).items()})


def fraction_basis(space):
    """A map space's echelon basis, each member a tuple of maps {row: {col: c}}."""
    members = []
    for vec in fraction_rows(space.space):
        maps, off = [], 0
        for rows, cols in space.shapes:
            m = {}
            for u, c in vec.items():
                if off <= u < off + rows * cols:
                    i, j = divmod(u - off, cols)
                    m.setdefault(i, {})[j] = c
            maps.append(m)
            off += rows * cols
        members.append(tuple(maps))
    return members


def fraction_products(space, components):
    """The flat sparse vector of the tuple whose component c is the sum of
    the signed products (sign, a, b) of maps listed for it."""
    out, off = {}, 0
    for (rows, cols), terms in zip(space.shapes, components):
        for sign, a, b in terms:
            for i, arow in a.items():
                for j, x in arow.items():
                    for k, y in b.get(j, {}).items():
                        out[off + i * cols + k] = out.get(off + i * cols + k, 0) + sign * x * y
        off += rows * cols
    return out


def _compose(a, b):
    out = {}
    for i, arow in a.items():
        row = out.setdefault(i, {})
        for j, x in arow.items():
            for k, y in b.get(j, {}).items():
                row[k] = row.get(k, 0) + x * y
    return out


def _matrix_map(m: Matrix):
    return {i: {j: number(c) for j, c in enumerate(row) if c} for i, row in enumerate(m.entries)}


def fraction_bracket_tables(x: CrossedModule):
    """The bracket tables of the pair and the quadruple space, the actor's
    left and right action and delta, from Fraction-row products."""
    pairs, quads = bider_qn(x), bider_xmod(x)
    mu = _matrix_map(x.boundary)
    pb, qb = fraction_basis(pairs), fraction_basis(quads)

    def read(space, components, error="left the space"):
        return fraction_read_coords(space.space, fraction_products(space, components), error)

    pair_table = tuple(tuple(read(pairs, [[(1, d1, _compose(mu, d2)), (-1, d2, _compose(mu, d1))],
                                          [(1, dd1, _compose(mu, d2)), (-1, d2, _compose(mu, dd1))]])
                             for d2, _dd2 in pb) for d1, dd1 in pb)
    quad_table = tuple(tuple(read(quads, [[(1, s1, s1p), (-1, s1p, s1)], [(1, t1, s1p), (-1, s1p, t1)],
                                          [(1, s2, s2p), (-1, s2p, s2)], [(1, t2, s2p), (-1, s2p, t2)]])
                             for s1p, _t1p, s2p, _t2p in qb) for s1, t1, s2, t2 in qb)
    left = tuple(tuple(read(pairs, [[(1, s1, d), (-1, d, s2)], [(1, t1, d), (-1, d, t2)]]) for d, _dd in pb)
                 for s1, t1, s2, t2 in qb)
    right = tuple(tuple(read(pairs, [[(1, d, s2), (-1, s1, d)], [(1, dd, s2), (-1, s1, dd)]])
                        for s1, _t1, s2, _t2 in qb) for d, dd in pb)
    delta_cols = [read(quads, [[(1, d, mu)], [(1, dd, mu)], [(1, mu, d)], [(1, mu, dd)]]) for d, dd in pb]
    return pair_table, quad_table, left, right, Matrix.from_columns(x.top.field, delta_cols, quads.dim)


# -- per-witness validators ---------------------------------------------------------
#
# ``lbxmod`` evaluates each identity over all its witnesses at once, from the
# nonzero entries of the sparse views.  These are the loops it replaced: one
# ``check`` per identity per basis triple (or pair), each summing its terms
# (sign, view, x, y) with the contraction kernel.


def _check(bad, field, dim, label, witness, lhs, rhs):
    """Record a violation if sum(lhs) - sum(rhs) is not zero."""
    p = field.characteristic
    diff = {}
    for sign, view, x, y in lhs:
        _accumulate(diff, sign, view, x, y)
    for sign, view, x, y in rhs:
        _accumulate(diff, -sign, view, x, y)
    if any(c % p for c in diff.values()) if p else any(diff.values()):
        bad.append(Violation(label, witness, _dense(field, dim, _evaluate(lhs, p)),
                             _dense(field, dim, _evaluate(rhs, p))))


def validate_leibniz(a: LeibnizAlgebra) -> ValidationReport:
    n, t, e = a.dim, a.sparse_table, _units(a.dim)
    bad = []
    for i in range(n):
        for j in range(n):
            for k in range(n):
                _check(bad, a.field, n, "leibniz", (i, j, k), [(1, t, t[i][j], e[k])],
                       [(1, t, e[i], t[j][k]), (1, t, t[i][k], e[j])])
    return ValidationReport(tuple(bad))


def validate_action(d: ActionData) -> ValidationReport:
    p, m = d.actor, d.target
    f, n, pt, mt = m.field, m.dim, p.sparse_table, m.sparse_table
    left, right = d.sparse_left, d.sparse_right
    e = _units(max(p.dim, n))
    bad = []
    for a in range(p.dim):
        for i in range(n):
            for j in range(n):
                _check(bad, f, n, "act1", (a, i, j), [(1, left, e[a], mt[i][j])],
                       [(1, mt, left[a][i], e[j]), (-1, mt, left[a][j], e[i])])
                _check(bad, f, n, "act2", (i, a, j), [(1, mt, e[i], left[a][j])],
                       [(1, mt, right[i][a], e[j]), (-1, right, mt[i][j], e[a])])
                _check(bad, f, n, "act3", (i, j, a), [(1, mt, e[i], right[j][a])],
                       [(1, right, mt[i][j], e[a]), (-1, mt, right[i][a], e[j])])
    for i in range(n):
        for a in range(p.dim):
            for b in range(p.dim):
                _check(bad, f, n, "act4", (i, a, b), [(1, right, e[i], pt[a][b])],
                       [(1, right, right[i][a], e[b]), (-1, right, right[i][b], e[a])])
    for a in range(p.dim):
        for i in range(n):
            for b in range(p.dim):
                _check(bad, f, n, "act5", (a, i, b), [(1, left, e[a], right[i][b])],
                       [(1, right, left[a][i], e[b]), (-1, left, pt[a][b], e[i])])
                _check(bad, f, n, "act6", (a, b, i), [(1, left, e[a], left[b][i])],
                       [(1, left, pt[a][b], e[i]), (-1, right, left[a][i], e[b])])
    return ValidationReport(tuple(bad))


def _prefixed(prefix, report):
    return [Violation(prefix + v.axiom, v.witness, v.lhs, v.rhs) for v in report.violations]


def validate_xmod(x: CrossedModule, check_components: bool = True) -> ValidationReport:
    bad = []
    if check_components:
        bad += _prefixed("top:", validate_leibniz(x.top))
        bad += _prefixed("base:", validate_leibniz(x.base))
        bad += _prefixed("action:", validate_action(x.action))
    m, p = x.top, x.base
    f, mt, pt = m.field, m.sparse_table, p.sparse_table
    left, right = x.action.sparse_left, x.action.sparse_right
    eta = (x.boundary.sparse_columns,)
    cols = eta[0]
    e = _units(max(m.dim, p.dim))
    for i in range(m.dim):
        for j in range(m.dim):
            _check(bad, f, p.dim, "hom", (i, j), [(1, eta, _ONE, mt[i][j])], [(1, pt, cols[i], cols[j])])
    for a in range(p.dim):
        for i in range(m.dim):
            _check(bad, f, p.dim, "XLb1-left", (a, i), [(1, eta, _ONE, left[a][i])], [(1, pt, e[a], cols[i])])
            _check(bad, f, p.dim, "XLb1-right", (i, a), [(1, eta, _ONE, right[i][a])], [(1, pt, cols[i], e[a])])
    for i in range(m.dim):
        for j in range(m.dim):
            _check(bad, f, m.dim, "XLb2-left", (i, j), [(1, left, cols[i], e[j])], [(1, mt, e[i], e[j])])
            _check(bad, f, m.dim, "XLb2-right", (i, j), [(1, right, e[i], cols[j])], [(1, mt, e[i], e[j])])
    return ValidationReport(tuple(bad))


def validate_morphism(f: XModMorphism) -> ValidationReport:
    bad = []
    s, t = f.source, f.target
    ft, fb = (f.top_map.sparse_columns,), (f.base_map.sparse_columns,)
    top_cols, base_cols = ft[0], fb[0]
    for i in range(s.top.dim):
        for j in range(s.top.dim):
            _check(bad, t.top.field, t.top.dim, "top-hom", (i, j), [(1, ft, _ONE, s.top.sparse_table[i][j])],
                   [(1, t.top.sparse_table, top_cols[i], top_cols[j])])
    for a in range(s.base.dim):
        for b in range(s.base.dim):
            _check(bad, t.base.field, t.base.dim, "base-hom", (a, b), [(1, fb, _ONE, s.base.sparse_table[a][b])],
                   [(1, t.base.sparse_table, base_cols[a], base_cols[b])])
    sq_lhs = t.boundary @ f.top_map
    sq_rhs = f.base_map @ s.boundary
    if sq_lhs != sq_rhs:
        bad.append(Violation("boundary-square", (), tuple(x for r in sq_lhs.entries for x in r),
                             tuple(x for r in sq_rhs.entries for x in r)))
    s_left, s_right = s.action.sparse_left, s.action.sparse_right
    t_left, t_right = t.action.sparse_left, t.action.sparse_right
    for a in range(s.base.dim):
        for i in range(s.top.dim):
            _check(bad, t.top.field, t.top.dim, "action-left", (a, i), [(1, ft, _ONE, s_left[a][i])],
                   [(1, t_left, base_cols[a], top_cols[i])])
            _check(bad, t.top.field, t.top.dim, "action-right", (i, a), [(1, ft, _ONE, s_right[i][a])],
                   [(1, t_right, top_cols[i], base_cols[a])])
    return ValidationReport(tuple(bad))


def validate_xmod_action(d: XModActionData, check_components: bool = True) -> ValidationReport:
    bad = []
    if check_components:
        bad += _prefixed("x:", validate_xmod(d.actor_xmod))
        bad += _prefixed("y:", validate_xmod(d.target_xmod))
        bad += _prefixed("p_on_n:", validate_action(d.act_on_top))
        bad += _prefixed("p_on_q:", validate_action(d.act_on_base))
    x, y = d.actor_xmod, d.target_xmod
    m, p, n, q = x.top, x.base, y.top, y.base
    mt, qt = m.sparse_table, q.sparse_table
    pn_l, pn_r = d.act_on_top.sparse_left, d.act_on_top.sparse_right
    pq_l, pq_r = d.act_on_base.sparse_left, d.act_on_base.sparse_right
    y_l, y_r = y.action.sparse_left, y.action.sparse_right
    x_l, x_r = x.action.sparse_left, x.action.sparse_right
    mq, qm = d.sparse_mq, d.sparse_qm
    mu, eta = (y.boundary.sparse_columns,), (x.boundary.sparse_columns,)
    muj, etai = mu[0], eta[0]
    e = _units(max(m.dim, p.dim, n.dim, q.dim))

    def check(label, witness, lhs, *rhs, dim=n.dim):
        _check(bad, d.field, dim, label, witness, [lhs], rhs)

    for b in range(p.dim):
        for j in range(n.dim):
            check("LbEQ1", (b, j), (1, mu, _ONE, pn_l[b][j]), (1, pq_l, e[b], muj[j]), dim=q.dim)
            check("LbEQ2", (j, b), (1, mu, _ONE, pn_r[j][b]), (1, pq_r, muj[j], e[b]), dim=q.dim)
    for j in range(n.dim):
        for b in range(p.dim):
            for a in range(q.dim):
                check("LbCOM1", (j, b, a), (1, y_r, e[j], pq_l[b][a]),
                      (1, y_r, pn_r[j][b], e[a]), (-1, pn_r, y_r[j][a], e[b]))
                check("LbCOM2", (b, j, a), (1, pn_l, e[b], y_r[j][a]),
                      (1, y_r, pn_l[b][j], e[a]), (-1, y_l, pq_l[b][a], e[j]))
                check("LbCOM3", (b, a, j), (1, pn_l, e[b], y_l[a][j]),
                      (1, y_l, pq_l[b][a], e[j]), (-1, y_r, pn_l[b][j], e[a]))
                check("LbCOM4", (j, a, b), (1, y_r, e[j], pq_r[a][b]),
                      (1, pn_r, y_r[j][a], e[b]), (-1, y_r, pn_r[j][b], e[a]))
                check("LbCOM5", (a, j, b), (1, y_l, e[a], pn_r[j][b]),
                      (1, pn_r, y_l[a][j], e[b]), (-1, y_l, pq_r[a][b], e[j]))
                check("LbCOM6", (a, b, j), (1, y_l, e[a], pn_l[b][j]),
                      (1, y_l, pq_r[a][b], e[j]), (-1, pn_r, y_l[a][j], e[b]))
    for a in range(q.dim):
        for i in range(m.dim):
            check("LbM1a", (a, i), (1, mu, _ONE, qm[a][i]), (1, pq_r, e[a], etai[i]), dim=q.dim)
            check("LbM1b", (i, a), (1, mu, _ONE, mq[i][a]), (1, pq_l, etai[i], e[a]), dim=q.dim)
    for j in range(n.dim):
        for i in range(m.dim):
            check("LbM2a", (j, i), (1, qm, muj[j], e[i]), (1, pn_r, e[j], etai[i]))
            check("LbM2b", (i, j), (1, mq, e[i], muj[j]), (1, pn_l, etai[i], e[j]))
    for a in range(q.dim):
        for b in range(p.dim):
            for i in range(m.dim):
                check("LbM3a", (a, b, i), (1, qm, e[a], x_l[b][i]),
                      (1, qm, pq_r[a][b], e[i]), (-1, pn_r, qm[a][i], e[b]))
                check("LbM3b", (b, i, a), (1, mq, x_l[b][i], e[a]),
                      (1, qm, pq_l[b][a], e[i]), (-1, pn_l, e[b], qm[a][i]))
                check("LbM3c", (a, i, b), (1, qm, e[a], x_r[i][b]),
                      (1, pn_r, qm[a][i], e[b]), (-1, qm, pq_r[a][b], e[i]))
                check("LbM3d", (i, b, a), (1, mq, x_r[i][b], e[a]),
                      (1, pn_r, mq[i][a], e[b]), (-1, mq, e[i], pq_r[a][b]))
    for a in range(q.dim):
        for i in range(m.dim):
            for j in range(m.dim):
                check("LbM4a", (a, i, j), (1, qm, e[a], mt[i][j]),
                      (1, pn_r, qm[a][i], etai[j]), (-1, pn_r, qm[a][j], etai[i]))
                check("LbM4b", (i, j, a), (1, mq, mt[i][j], e[a]),
                      (1, pn_r, mq[i][a], etai[j]), (-1, pn_l, etai[i], qm[a][j]))
    for a in range(q.dim):
        for b in range(q.dim):
            for i in range(m.dim):
                check("LbM5a", (a, b, i), (1, qm, qt[a][b], e[i]),
                      (1, y_r, qm[a][i], e[b]), (1, y_l, e[a], qm[b][i]))
                check("LbM5b", (i, a, b), (1, mq, e[i], qt[a][b]),
                      (1, y_r, mq[i][a], e[b]), (-1, y_r, mq[i][b], e[a]))
                check("LbM5c", (a, i, b), (1, y_l, e[a], mq[i][b]), (-1, y_l, e[a], qm[b][i]))
    for i in range(m.dim):
        for b in range(p.dim):
            for a in range(q.dim):
                check("LbM6a", (i, b, a), (1, mq, e[i], pq_l[b][a]), (-1, mq, e[i], pq_r[a][b]))
                check("LbM6b", (b, i, a), (1, pn_l, e[b], mq[i][a]), (-1, pn_l, e[b], qm[a][i]))
    return ValidationReport(tuple(bad))


# -- dense block assembly --------------------------------------------------------


def direct_sum_table(a: LeibnizAlgebra, b: LeibnizAlgebra):
    """The dense table of ``direct_sum(a, b)``."""
    n = a.dim + b.dim
    z = a.field.zero
    tab = [[[z] * n for _ in range(n)] for _ in range(n)]
    for i in range(a.dim):
        for j in range(a.dim):
            for k in range(a.dim):
                tab[i][j][k] = a.table[i][j][k]
    for i in range(b.dim):
        for j in range(b.dim):
            for k in range(b.dim):
                tab[a.dim + i][a.dim + j][a.dim + k] = b.table[i][j][k]
    return tuple(tuple(tuple(v) for v in row) for row in tab)


def semidirect_algebra_table(d: ActionData):
    """The dense table of ``semidirect_algebra(d).algebra``."""
    m, p = d.target, d.actor
    n = m.dim + p.dim
    z = m.field.zero

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
    return tuple(tuple(row) for row in tab)


def semidirect_xmod_tensors(d: XModActionData):
    """The dense top table, base table and action (left, right) of
    ``semidirect_xmod(d).xmod``."""
    x, y = d.actor_xmod, d.target_xmod
    m, p, eta = x.top, x.base, x.boundary
    n, q = y.top, y.base
    f = d.field

    # action of m on n through the boundary, for the top-layer product
    m_on_n = ActionData(
        m, n,
        tuple(tuple(contract(f, d.act_on_top.left, column(eta, i), unit(f, n.dim, j), n.dim)
                    for j in range(n.dim)) for i in range(m.dim)),
        tuple(tuple(contract(f, d.act_on_top.right, unit(f, n.dim, j), column(eta, i), n.dim)
                    for i in range(m.dim)) for j in range(n.dim)),
    )
    top_dim = n.dim + m.dim
    base_dim = q.dim + p.dim
    z = f.zero

    def pad_n(v):
        return tuple(v) + tuple(z for _ in range(m.dim))

    def pad_m(v):
        return tuple(z for _ in range(n.dim)) + tuple(v)

    yact = y.action
    left = []
    for A in range(base_dim):
        row = []
        for I in range(top_dim):
            if A < q.dim and I < n.dim:
                row.append(pad_n(yact.left[A][I]))
            elif A < q.dim:
                row.append(pad_n(d.cross_qm[A][I - n.dim]))
            elif I < n.dim:
                row.append(pad_n(d.act_on_top.left[A - q.dim][I]))
            else:
                row.append(pad_m(x.action.left[A - q.dim][I - n.dim]))
        left.append(tuple(row))
    right = []
    for I in range(top_dim):
        row = []
        for A in range(base_dim):
            if I < n.dim and A < q.dim:
                row.append(pad_n(yact.right[I][A]))
            elif I < n.dim:
                row.append(pad_n(d.act_on_top.right[I][A - q.dim]))
            elif A < q.dim:
                row.append(pad_n(d.cross_mq[I - n.dim][A]))
            else:
                row.append(pad_m(x.action.right[I - n.dim][A - q.dim]))
        right.append(tuple(row))
    return (semidirect_algebra_table(m_on_n), semidirect_algebra_table(d.act_on_base),
            tuple(left), tuple(right))


# -- the dense JSON codec and the stored form, entry by entry ---------------------


def _dense_json(field, dim, vec, den=1):
    """The sparse vector vec / den as a dense JSON list of dim scalars."""
    to_json, out = _number_to_json(field), [field.scalar_to_json(field.zero)] * dim
    for k, c in vec.items():
        out[k] = to_json(c if den == 1 else Fraction(c, den))
    return out


def matrix_to_json_by_row(m: Matrix) -> dict:
    rows = m.transpose().sparse_columns
    return {"rows": m.rows, "cols": m.cols, "entries": [_dense_json(m.field, m.cols, row) for row in rows]}


def subspace_to_json_by_row(s: Subspace) -> dict:
    basis = [_dense_json(s.field, s.ambient, row, d) for row, d in s.scaled_rows]
    return {"ambient_dim": s.ambient, "dim": s.dim, "basis": basis}


def tensor_to_json_by_vector(field, view, dim) -> list:
    return [[_dense_json(field, dim, v) for v in row] for row in view]


def read_matrix_by_entry(field, read, obj) -> Matrix:
    """A dense JSON matrix read entry by entry; read(token) gives a scalar."""
    if not isinstance(obj, dict) or not {"rows", "cols", "entries"} <= set(obj):
        raise InputDataError("matrix object needs rows, cols and entries")
    rows, cols = obj["rows"], obj["cols"]
    if not (_is_int(rows) and _is_int(cols) and rows >= 0 and cols >= 0):
        raise InputDataError("matrix dimensions must be non-negative integers")
    _check_dim(cols)
    data = obj["entries"]
    if not isinstance(data, list) or len(data) != rows:
        raise InputDataError("matrix entries do not match the declared row count")
    columns = tuple({} for _ in range(cols))
    for i, row in enumerate(data):
        if not isinstance(row, list) or len(row) != cols:
            raise InputDataError("matrix entries do not match the declared column count")
        for j, x in enumerate(row):
            c = read(x)
            if c:
                columns[j][i] = number(c)
    return Matrix(field, rows, cols, columns)


def read_tensor_by_entry(read, obj, d0, d1, d2):
    """A dense JSON tensor read into a sparse view; every entry, zeros
    included, goes through read(token), which gives a scalar."""
    if not isinstance(obj, list) or len(obj) != d0:
        raise InputDataError(f"tensor must have {d0} outer entries")
    out = []
    for row in obj:
        if not isinstance(row, list) or len(row) != d1:
            raise InputDataError(f"tensor rows must have {d1} entries")
        new_row = []
        for vec in row:
            if not isinstance(vec, list) or len(vec) != d2:
                raise InputDataError(f"tensor vectors must have {d2} entries")
            new_row.append(_sparse(map(read, vec)))
        out.append(tuple(new_row))
    return tuple(out)


def stored_by_vector(field, tensor, shape, what):
    """``linalg._stored`` checking and normalizing one vector at a time: a
    tensor already in stored form is recognised when every vector of it
    comes back as itself."""
    d0, d1, d2 = shape
    bad_shape = f"{what} shape is not {d0}x{d1}x{d2}"
    if len(tensor) != d0 or any(len(row) != d1 for row in tensor):
        raise InputDataError(bad_shape)
    p, coerce, scalar = field.characteristic, field.coerce, type(field.zero)

    def kept(c) -> bool:
        return type(c) is int and (0 < c < p if p else c != 0) or not p and type(c) is Fraction and c.denominator != 1

    def vector(v):
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
        out = {}
        for k, c in items:
            if type(c) is not int:
                if type(c) is not scalar or p and c.p != p:
                    c = coerce(c)
                c = number(c) if c else 0
            if p:
                c %= p
            if c:
                out[k] = c
        return out

    rows = tuple(tuple(map(vector, row)) for row in tensor)
    same = type(tensor) is tuple and all(type(r) is tuple and all(map(is_, a, r)) for a, r in zip(rows, tensor))
    return tensor if same else rows


def per_subcommand_parser() -> argparse.ArgumentParser:
    """The CLI's parser with ``--field`` and ``--out`` added to each subcommand."""
    p = argparse.ArgumentParser(
        prog="lbxmod",
        description="exact computations with Leibniz algebras, their crossed "
                    "modules, and actors",
    )
    sub = p.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        sp = sub.add_parser(name, help=command.help, description=command.help)
        if command.inputs:
            sp.add_argument("input", help="JSON file path or catalog:<id>")
        sp.add_argument("--field", default="q",
                        help="scalar field tag: q or f<p> (default: q)")
        sp.add_argument("--out", default=None,
                        help="also write the report to this file")
    return p


def _frozen_view(value):
    """A stored view's hashable key: a dict as the frozenset of its items, a tuple by its parts."""
    if isinstance(value, dict):
        return frozenset(value.items())
    if isinstance(value, tuple):
        return tuple(map(_frozen_view, value))
    return value


def stored_hash(obj, *views: str) -> int:
    """The hash of a record whose named views are keyed by ``_frozen_view``
    and whose other fields are hashed as they are."""
    return hash(tuple(_frozen_view(getattr(obj, name)) if name in views else getattr(obj, name)
                      for name in obj.__match_args__))
