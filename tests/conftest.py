"""Shared fixtures plus the composite-map identities used in two test files."""
from __future__ import annotations

import pytest
from reference_stages import column, member_maps, unit

from lbxmod import GF2, GF3, QQ
from lbxmod.bider import bider_algebra, bider_qn, bider_xmod
from lbxmod.catalog import CATALOG, build_entry
from lbxmod.linalg import number

FIELDS = (QQ, GF2, GF3)
XMOD_IDS = tuple(cid for cid, e in CATALOG.items() if e.kind == "xmod")
ALGEBRA_IDS = tuple(cid for cid, e in CATALOG.items() if e.kind == "algebra")


@pytest.fixture(params=[f.tag for f in FIELDS])
def field(request):
    return {f.tag: f for f in FIELDS}[request.param]


@pytest.fixture
def xmods_q():
    return {cid: build_entry(cid, QQ) for cid in XMOD_IDS}


# -- identities satisfied by composites of pairs and quadruples ------------
#
# These are consequences of the defining laws, so they hold for every member
# of the solved spaces; the tests run them over whole basis families.


def _basis(space):
    """The echelon basis of a map space, each member a tuple of dense matrices."""
    return [member_maps(space, unit(space.field, space.dim, t)) for t in range(space.dim)]


def flat(mats):
    """A tuple of dense maps as the sparse vector of their row-major entries."""
    return {k: number(c) for k, c in enumerate(c for m in mats for row in m.entries for c in row) if c}


def difference(*pairs):
    """The row-major entries of a - b for each pair (a, b) of dense maps,
    concatenated, as a sparse vector."""
    return {k: number(c) for k, c in enumerate(x - y for a, b in pairs for ra, rb in zip(a.entries, b.entries)
                                               for x, y in zip(ra, rb)) if c}


def pair_composites_land_in_layer_spaces(x) -> bool:
    """d*mu and dd*mu form a pair on the top algebra; mu*d, mu*dd on the base."""
    mu = x.boundary
    top_space = bider_algebra(x.top)
    base_space = bider_algebra(x.base)
    for d, dd in _basis(bider_qn(x)):
        if top_space.space.residue(flat((d @ mu, dd @ mu))):
            return False
        if base_space.space.residue(flat((mu @ d, mu @ dd))):
            return False
    return True


def pair_pair_composites_agree_under_brackets(x) -> bool:
    """dd1*mu*d2 and dd1*mu*dd2 cannot be told apart by bracketing with base
    elements through the action."""
    act, mu = x.action, x.boundary
    qd = x.base.dim
    qunits = [unit(x.base.field, qd, a) for a in range(qd)]
    pairs = _basis(bider_qn(x))
    for d1, dd1 in pairs:
        for d2, dd2 in pairs:
            m = dd1 @ (mu @ d2)
            mm = dd1 @ (mu @ dd2)
            for a in range(qd):
                ca, cb = column(m, a), column(mm, a)
                for b in range(qd):
                    if act.act_right(ca, qunits[b]) != act.act_right(cb, qunits[b]):
                        return False
                    if act.act_left(qunits[b], ca) != act.act_left(qunits[b], cb):
                        return False
    return True


def _indistinguishable_q_to_n(x, m, mm) -> bool:
    """Maps base -> top that agree after bracketing with base and top elements."""
    act = x.action
    nd, qd = x.top.dim, x.base.dim
    qunits = [unit(x.base.field, qd, a) for a in range(qd)]
    nunits = [unit(x.top.field, nd, i) for i in range(nd)]
    for a in range(qd):
        ca, cb = column(m, a), column(mm, a)
        for b in range(qd):
            if act.act_right(ca, qunits[b]) != act.act_right(cb, qunits[b]):
                return False
            if act.act_left(qunits[b], ca) != act.act_left(qunits[b], cb):
                return False
        for i in range(nd):
            if x.top.bracket(ca, nunits[i]) != x.top.bracket(cb, nunits[i]):
                return False
            if x.top.bracket(nunits[i], ca) != x.top.bracket(nunits[i], cb):
                return False
    return True


def quad_pair_and_quad_quad_composites_agree(x) -> bool:
    """The twelve composite identities mixing pairs with quadruples."""
    act = x.action
    nd, qd = x.top.dim, x.base.dim
    qunits = [unit(x.base.field, qd, a) for a in range(qd)]
    nunits = [unit(x.top.field, nd, i) for i in range(nd)]
    pairs = _basis(bider_qn(x))
    quads = _basis(bider_xmod(x))
    for s1, t1, s2, t2 in quads:
        for d, dd in pairs:
            # dd*s2 vs dd*t2 and t1*d vs t1*dd, tested against base and top
            for m, mm in ((dd @ s2, dd @ t2), (t1 @ d, t1 @ dd)):
                if not _indistinguishable_q_to_n(x, m, mm):
                    return False
        for s1p, t1p, s2p, t2p in quads:
            m, mm = t1 @ s1p, t1 @ t1p  # top -> top
            for i in range(nd):
                ca, cb = column(m, i), column(mm, i)
                for a in range(qd):
                    if act.act_right(ca, qunits[a]) != act.act_right(cb, qunits[a]):
                        return False
                    if act.act_left(qunits[a], ca) != act.act_left(qunits[a], cb):
                        return False
            m, mm = t2 @ s2p, t2 @ t2p  # base -> base
            for a in range(qd):
                ca, cb = column(m, a), column(mm, a)
                for i in range(nd):
                    if act.act_left(ca, nunits[i]) != act.act_left(cb, nunits[i]):
                        return False
                    if act.act_right(nunits[i], ca) != act.act_right(nunits[i], cb):
                        return False
    return True


def nondegenerate_pair_composites_coincide(a) -> bool:
    """With zero annihilator or a perfect algebra, dd1*d2 == dd1*dd2 exactly."""
    pairs = _basis(bider_algebra(a))
    for d1, dd1 in pairs:
        for d2, dd2 in pairs:
            if dd1 @ d2 != dd1 @ dd2:
                return False
    return True


def nondegenerate_quad_pair_composites_coincide(x) -> bool:
    """Same sharpening across the two layers of a crossed module."""
    pairs = _basis(bider_qn(x))
    quads = _basis(bider_xmod(x))
    for s1, t1, s2, t2 in quads:
        for d, dd in pairs:
            if dd @ s2 != dd @ t2:
                return False
            if t1 @ d != t1 @ dd:
                return False
    return True
