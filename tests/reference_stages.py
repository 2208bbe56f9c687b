"""Dense reference implementations of the stages after the actor.

``annihilator``, the invariant and trivially acting subspaces, the ideal
checks, sub-objects, quotients, projections and the canonical morphism are
computed in ``lbxmod`` from sparse rows and one sparse residue.  The versions
here are the dense ones those replaced: brackets of dense unit vectors,
operators built column by column, ``Matrix.vstack`` chains handed to
``nullspace``, and a plain Gauss-Jordan reduction of dense vectors modulo a
subspace's echelon basis.  ``test_sparse_stages.py`` compares the two.

``lbxmod`` reads solved bases as integer rows over one denominator per
member.  The sparse readers and map products they replaced, on the reduced
echelon rows with ``Fraction`` entries, are kept below as ``fraction_*``;
``test_scaled_rows.py`` compares them with the integer-backed ones.
"""
from __future__ import annotations

import random

from lbxmod.action import ActionData
from lbxmod.algebra import LeibnizAlgebra
from lbxmod.bider import bider_qn, bider_xmod
from lbxmod.fields import InputDataError
from lbxmod.linalg import LinearSolveError, Matrix, Subspace, number, nullspace
from lbxmod.xmod import CrossedModule, NotAnIdealError


def unit(field, n, i):
    return tuple(field.one if j == i else field.zero for j in range(n))


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


def operator(field, tensor, fixed, n, fixed_left):
    """The matrix of y -> tensor(fixed, y) (or tensor(y, fixed)) on k^n."""
    cols = [contract(field, tensor, fixed, unit(field, n, j), n) if fixed_left
            else contract(field, tensor, unit(field, n, j), fixed, n) for j in range(n)]
    return Matrix.from_columns(field, cols, n)


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
        stack = operator(a.field, a.table, u, a.dim, True).vstack(operator(a.field, a.table, u, a.dim, False))
        blocks = stack if blocks is None else blocks.vstack(stack)
    return nullspace(blocks)


def is_ideal(a: LeibnizAlgebra, s: Subspace) -> bool:
    if s.ambient != a.dim:
        raise InputDataError("subspace does not live in the algebra")
    units = [unit(a.field, a.dim, i) for i in range(a.dim)]
    for v in s.basis_vectors():
        for u in units:
            if not contains(s, contract(a.field, a.table, u, v, a.dim)):
                return False
            if not contains(s, contract(a.field, a.table, v, u, a.dim)):
                return False
    return True


def subalgebra_on(a: LeibnizAlgebra, s: Subspace):
    rows = s.basis_vectors()
    tab = tuple(tuple(coords(s, contract(a.field, a.table, rows[i], rows[j], a.dim),
                             "subspace is not closed under the bracket") for j in range(s.dim))
                for i in range(s.dim))
    return LeibnizAlgebra(a.field, s.dim, tab), Matrix.from_columns(a.field, list(rows), a.dim)


def quotient_algebra(a: LeibnizAlgebra, ideal: Subspace):
    if not is_ideal(a, ideal):
        raise InputDataError("quotient requested by a subspace that is not an ideal")
    reps = complement_indices(ideal)
    proj = projection_matrix(ideal)
    tab = tuple(tuple(proj.apply(a.table[r][s]) for s in reps) for r in reps)
    return LeibnizAlgebra(a.field, len(reps), tab), proj


def inclusion_of_ideal(a: LeibnizAlgebra, s: Subspace) -> CrossedModule:
    sub, incl = subalgebra_on(a, s)
    rows = s.basis_vectors()
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
    t_rows, b_rows = top_space.basis_vectors(), base_space.basis_vectors()
    bdy = Matrix.from_columns(x.top.field, [coords(base_space, x.boundary.apply(v)) for v in t_rows],
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
    for v in top_space.basis_vectors():
        if not contains(base_space, x.boundary.apply(v)):
            problems.append("boundary image of the top part leaves the base part")
            break
    f = x.top.field
    base_units = [unit(f, x.base.dim, a) for a in range(x.base.dim)]
    top_units = [unit(f, x.top.dim, i) for i in range(x.top.dim)]
    if not all(contains(top_space, act_left(x, b, u)) and contains(top_space, act_right(x, u, b))
               for b in base_space.basis_vectors() for u in top_units):
        problems.append("base part does not act into the top part")
    if not all(contains(top_space, act_left(x, q, v)) and contains(top_space, act_right(x, v, q))
               for v in top_space.basis_vectors() for q in base_units):
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
    bdy = Matrix.from_columns(x.top.field, [base_proj.apply(x.boundary.column(r)) for r in t_reps], base_q.dim)
    left = tuple(tuple(top_proj.apply(x.action.left[a][i]) for i in t_reps) for a in b_reps)
    right = tuple(tuple(top_proj.apply(x.action.right[i][a]) for a in b_reps) for i in t_reps)
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
        stack = lop.vstack(rop)
        blocks = stack if blocks is None else blocks.vstack(stack)
    return nullspace(blocks)


def trivially_acting_base_subspace(x: CrossedModule) -> Subspace:
    f = x.top.field
    if x.top.dim == 0:
        return Subspace.full(f, x.base.dim)
    blocks = None
    for i in range(x.top.dim):
        lcols = [x.action.left[a][i] for a in range(x.base.dim)]
        rcols = [x.action.right[i][a] for a in range(x.base.dim)]
        stack = Matrix.from_columns(f, lcols, x.top.dim).vstack(Matrix.from_columns(f, rcols, x.top.dim))
        blocks = stack if blocks is None else blocks.vstack(stack)
    return nullspace(blocks)


def center_spaces(x: CrossedModule) -> tuple[Subspace, Subspace]:
    return invariant_top_subspace(x), trivially_acting_base_subspace(x).intersect(annihilator(x.base))


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
            -operator(f, x.base.table, qvec, qd, False), operator(f, x.base.table, qvec, qd, True))


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
    ca = [pa.column(i) for i in range(pa.cols)]
    cb = [pb.column(j) for j in range(pb.cols)]
    return tuple(tuple(inv.apply(contract(field, tensor, x, y, inv.cols)) for y in cb) for x in ca)


def rebase_xmod(x: CrossedModule, rng: random.Random) -> CrossedModule:
    """The same crossed module in seeded integer bases of its two layers."""
    f = x.top.field
    pt, pti = change_of_basis(f, rng, x.top.dim)
    pb, pbi = change_of_basis(f, rng, x.base.dim)
    top = LeibnizAlgebra(f, x.top.dim, _rebase_tensor(f, x.top.table, pt, pt, pti))
    base = LeibnizAlgebra(f, x.base.dim, _rebase_tensor(f, x.base.table, pb, pb, pbi))
    act = ActionData(base, top, _rebase_tensor(f, x.action.left, pb, pt, pti),
                     _rebase_tensor(f, x.action.right, pt, pb, pti))
    return CrossedModule(top, base, pbi @ x.boundary @ pt, act)



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
