"""Seeded inputs for the benchmark, as plain integer structure constants.

Nothing here imports ``lbxmod``: the program under test receives only the
tables built below, converted to its own types by ``to_xmod``.  Integer
crossed modules are dicts with ``top`` and ``base`` bracket tables
(``t[i][j][k]`` = coefficient of e_k in [e_i, e_j]), a ``boundary`` matrix
(base.dim x top.dim) and the action tensors ``left[a][i]`` = [p_a, m_i] and
``right[i][a]`` = [m_i, p_a].
"""

from __future__ import annotations

import random


def _zeros3(n: int, m: int, d: int) -> list:
    return [[[0] * d for _ in range(m)] for _ in range(n)]


def nf(n: int) -> list:
    """Null-filiform Leibniz algebra NF_n: [e_i, e_1] = e_{i+1}."""
    t = _zeros3(n, n, n)
    for i in range(n - 1):
        t[i][0][i + 1] = 1
    return t


def abelian(n: int) -> list:
    return _zeros3(n, n, n)


def sl2() -> list:
    """sl2 in the basis (e, h, f)."""
    t = _zeros3(3, 3, 3)
    for (i, j), (k, c) in {(0, 1): (0, -2), (1, 0): (0, 2), (0, 2): (1, 1),
                           (2, 0): (1, -1), (1, 2): (2, -2), (2, 1): (2, 2)}.items():
        t[i][j][k] = c
    return t


def direct_sum(*tables: list) -> list:
    n = sum(len(t) for t in tables)
    out = _zeros3(n, n, n)
    off = 0
    for t in tables:
        d = len(t)
        for i in range(d):
            for j in range(d):
                for k in range(d):
                    out[off + i][off + j][off + k] = t[i][j][k]
        off += d
    return out


def identity_xmod(t: list) -> dict:
    n = len(t)
    return {
        "top": t, "base": t,
        "boundary": [[int(i == j) for j in range(n)] for i in range(n)],
        "left": [[t[a][i] for i in range(n)] for a in range(n)],
        "right": [[t[i][a] for a in range(n)] for i in range(n)],
    }


def coordinate_ideal_inclusion(t: list, idx: list) -> dict:
    """The ideal spanned by the basis vectors ``idx``, included into t and
    acted on by t's bracket; ValueError if they do not span an ideal."""
    n, m = len(t), len(idx)
    pos = {k: s for s, k in enumerate(idx)}

    def coords(v: list) -> list:
        if any(v[k] for k in range(n) if k not in pos):
            raise ValueError("basis subset does not span an ideal")
        return [v[k] for k in idx]

    return {
        "top": [[coords(t[i][j]) for j in idx] for i in idx],
        "base": t,
        "boundary": [[int(idx[s] == a) for s in range(m)] for a in range(n)],
        "left": [[coords(t[a][k]) for k in idx] for a in range(n)],
        "right": [[coords(t[k][a]) for a in range(n)] for k in idx],
    }


# -- seeded change of basis ------------------------------------------------


def inverse_unitriangular(t: list) -> list:
    """Exact integer inverse by back substitution (determinant is 1)."""
    n = len(t)
    inv = [[int(i == j) for j in range(n)] for i in range(n)]
    for col in range(n):
        for i in range(n - 1, -1, -1):
            inv[i][col] -= sum(t[i][k] * inv[k][col] for k in range(i + 1, n))
    return inv


def _matvec(m: list, v: list) -> list:
    return [sum(r[k] * v[k] for k in range(len(v)) if v[k]) for r in m]


def _combine(tensor: list, ta: list, tb: list, inv_out: list) -> list:
    """out[i][j] = inv_out . sum_{a,b} ta[a][i] tb[b][j] tensor[a][b]."""
    da, db = len(ta), len(tb)
    d = len(inv_out)
    out = []
    for i in range(da):
        row = []
        for j in range(db):
            acc = [0] * d
            for a in range(da):
                if not ta[a][i]:
                    continue
                for b in range(db):
                    c = ta[a][i] * tb[b][j]
                    if c:
                        v = tensor[a][b]
                        for k in range(d):
                            if v[k]:
                                acc[k] += c * v[k]
            row.append(_matvec(inv_out, acc))
        out.append(row)
    return out


def rebase_xmod(x: dict, tt: list, tti: list, tb: list, tbi: list) -> dict:
    """The same crossed module in the bases given by the columns of tt (top)
    and tb (base); tti and tbi are their integer inverses."""
    bd = x["boundary"]
    mid = [[sum(bd[a][k] * tt[k][j] for k in range(len(tt))) for j in range(len(tt))]
           for a in range(len(tb))]
    return {
        "top": _combine(x["top"], tt, tt, tti),
        "base": _combine(x["base"], tb, tb, tbi),
        "boundary": [[sum(tbi[a][b] * mid[b][j] for b in range(len(tb))) for j in range(len(tt))]
                     for a in range(len(tb))],
        "left": _combine(x["left"], tb, tt, tti),
        "right": _combine(x["right"], tt, tb, tti),
    }


def change_of_basis(rng: random.Random, n: int) -> tuple[list, list]:
    """A seeded integer change of basis T = U P and its exact inverse.

    U is the upper unitriangular matrix with every entry above the diagonal
    1, which makes the structure constants dense; P is a seeded signed
    permutation.  So every seed gives constants of the same density and
    size, only permuted and with other signs, and the cost of a rebased job
    hardly depends on the seed.
    """
    u = [[int(j >= i) for j in range(n)] for i in range(n)]
    ui = inverse_unitriangular(u)
    perm = list(range(n))
    rng.shuffle(perm)
    signs = [rng.choice((-1, 1)) for _ in range(n)]
    # Column j of P is signs[j] e_perm[j]; the inverse of P is its transpose.
    t = [[u[i][perm[j]] * signs[j] for j in range(n)] for i in range(n)]
    ti = [[signs[j] * ui[perm[j]][c] for c in range(n)] for j in range(n)]
    return t, ti


def random_rebase(rng: random.Random, x: dict, same_basis: bool) -> dict:
    """Rebase x by seeded changes of basis (``change_of_basis``).

    ``same_basis`` keeps one change for both layers, so an identity crossed
    module stays the identity on the rebased algebra.
    """
    tt, tti = change_of_basis(rng, len(x["top"]))
    tb, tbi = (tt, tti) if same_basis else change_of_basis(rng, len(x["base"]))
    return rebase_xmod(x, tt, tti, tb, tbi)
