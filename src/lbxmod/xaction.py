"""Actions of one crossed module on another, described by equations.

An action of a crossed module (m, p, eta) — the ``actor_xmod`` — on a crossed
module (n, q, mu) — the ``target_xmod`` — consists of ordinary actions of the
algebra p on both n and q, together with two cross pairings m x q -> n and
q x m -> n, all subject to a family of labeled compatibility identities.
Validating those identities, converting such data to and from morphisms into
the actor, and forming the semidirect product crossed module all live here.

Bracket conventions inside the identities: brackets of m with n or q go
through eta (so [m, n] means [eta(m), n] and so on); [q, n]-style brackets are
the target crossed module's own action.  The two pairings are stored as
sparse views ``sparse_mq[i][a]`` and ``sparse_qm[a][i]`` with values in n;
``cross_mq`` and ``cross_qm`` are their dense views.  Only the functions that
solve for the actor's spaces import ``bider``, so validating an action and
forming its semidirect product compile no biderivation code.
"""

from __future__ import annotations

from functools import partial

from .action import ActionData, semidirect_algebra, validate_action
from .algebra import (
    _ONE,
    SparseTensor,
    SparseVector,
    ValidationReport,
    _blocks,
    _dense_view,
    _evaluate,
    _once,
    _prefixed,
    _store,
    _units,
    _violations,
)
from .fields import Field, InputDataError, record
from .linalg import Matrix
from .xmod import (
    ActionAxiomError,
    ConditionFlags,
    ConditionsNotMetError,
    CrossedModule,
    InvalidMorphismError,
    ShortExactSequence,
    XModMorphism,
    condition_profile,
    validate_morphism,
    validate_xmod,
)

#: labels that may fail while still permitting the morphism construction
RELAXABLE_LABELS = ("LbM6a", "LbM6b", "p_on_n:act6", "p_on_q:act6")


@record
class XModActionData:
    actor_xmod: CrossedModule   # (m, p, eta)
    target_xmod: CrossedModule  # (n, q, mu)
    act_on_top: ActionData      # p acting on n
    act_on_base: ActionData     # p acting on q
    sparse_mq: SparseTensor     # sparse_mq[i][a] = the pairing of m_i with q_a, in n
    sparse_qm: SparseTensor     # sparse_qm[a][i] = the pairing of q_a with m_i, in n

    def __post_init__(self) -> None:
        m, p = self.actor_xmod.top, self.actor_xmod.base
        n, q = self.target_xmod.top, self.target_xmod.base
        if self.act_on_top.actor != p or self.act_on_top.target != n:
            raise InputDataError("p-on-n action endpoints do not match the crossed modules")
        if self.act_on_base.actor != p or self.act_on_base.target != q:
            raise InputDataError("p-on-q action endpoints do not match the crossed modules")
        _store(self, "sparse_mq", n.field, (m.dim, q.dim, n.dim), "m-q pairing tensor")
        _store(self, "sparse_qm", n.field, (q.dim, m.dim, n.dim), "q-m pairing tensor")

    cross_mq = _dense_view("sparse_mq", lambda d: (d.field, d.target_xmod.top.dim))
    cross_qm = _dense_view("sparse_qm", lambda d: (d.field, d.target_xmod.top.dim))

    @property
    def field(self) -> Field:
        return self.actor_xmod.top.field


def validate_xmod_action(d: XModActionData) -> ValidationReport:
    """Check every labeled identity of a crossed-module action.

    Component checks (both crossed modules and both algebra actions) get
    prefixed labels; the mixed identities use their own labels LbEQ*,
    LbCOM*, LbM*.  The components share one memo (``algebra._once``): a
    component shared by several roles, or equal to another (as in a crossed
    module acting on itself), is checked once and reported under each, and
    an algebra's Leibniz check also serves the actions on it
    (``validate_action``).
    """
    check = partial(_once, {})
    xmod, action = partial(validate_xmod, check=check), partial(validate_action, check=check)
    bad = _prefixed(("x:", check(xmod, d.actor_xmod)), ("y:", check(xmod, d.target_xmod)),
                    ("p_on_n:", check(action, d.act_on_top)), ("p_on_q:", check(action, d.act_on_base)))

    x, y = d.actor_xmod, d.target_xmod
    m, p, n, q = x.top, x.base, y.top, y.base
    mt, qt = m.sparse_table, q.sparse_table
    pn_l, pn_r = d.act_on_top.sparse_left, d.act_on_top.sparse_right    # p on n
    pq_l, pq_r = d.act_on_base.sparse_left, d.act_on_base.sparse_right  # p on q
    y_l, y_r = y.action.sparse_left, y.action.sparse_right              # q on n
    x_l, x_r = x.action.sparse_left, x.action.sparse_right              # p on m
    mq, qm = d.sparse_mq, d.sparse_qm
    mu, eta = (y.boundary.sparse_columns,), (x.boundary.sparse_columns,)
    one = (_ONE, "")
    muj, etai, etak = (mu[0], "j"), (eta[0], "i"), (eta[0], "k")  # boundary images of the n- and m-bases
    # i, k index m; b indexes p; j indexes n; a, c index q
    dims = {"i": m.dim, "k": m.dim, "b": p.dim, "j": n.dim, "a": q.dim, "c": q.dim}
    bad += _violations(d.field, dims, [
        # boundary equivariance for the p-actions
        ("LbEQ1", "bj", "bj", q.dim, [(1, mu, one, (pn_l, "bj"))], [(1, pq_l, "b", muj)]),
        ("LbEQ2", "jb", "bj", q.dim, [(1, mu, one, (pn_r, "jb"))], [(1, pq_r, muj, "b")]),
        # compatibility of the p- and q-actions on n
        ("LbCOM1", "jba", "jba", n.dim, [(1, y_r, "j", (pq_l, "ba"))],
         [(1, y_r, (pn_r, "jb"), "a"), (-1, pn_r, (y_r, "ja"), "b")]),
        ("LbCOM2", "bja", "jba", n.dim, [(1, pn_l, "b", (y_r, "ja"))],
         [(1, y_r, (pn_l, "bj"), "a"), (-1, y_l, (pq_l, "ba"), "j")]),
        ("LbCOM3", "baj", "jba", n.dim, [(1, pn_l, "b", (y_l, "aj"))],
         [(1, y_l, (pq_l, "ba"), "j"), (-1, y_r, (pn_l, "bj"), "a")]),
        ("LbCOM4", "jab", "jba", n.dim, [(1, y_r, "j", (pq_r, "ab"))],
         [(1, pn_r, (y_r, "ja"), "b"), (-1, y_r, (pn_r, "jb"), "a")]),
        ("LbCOM5", "ajb", "jba", n.dim, [(1, y_l, "a", (pn_r, "jb"))],
         [(1, pn_r, (y_l, "aj"), "b"), (-1, y_l, (pq_r, "ab"), "j")]),
        ("LbCOM6", "abj", "jba", n.dim, [(1, y_l, "a", (pn_l, "bj"))],
         [(1, y_l, (pq_r, "ab"), "j"), (-1, pn_r, (y_l, "aj"), "b")]),
        # pairing identities
        ("LbM1a", "ai", "ai", q.dim, [(1, mu, one, (qm, "ai"))], [(1, pq_r, "a", etai)]),
        ("LbM1b", "ia", "ai", q.dim, [(1, mu, one, (mq, "ia"))], [(1, pq_l, etai, "a")]),
        ("LbM2a", "ji", "ji", n.dim, [(1, qm, muj, "i")], [(1, pn_r, "j", etai)]),
        ("LbM2b", "ij", "ji", n.dim, [(1, mq, "i", muj)], [(1, pn_l, etai, "j")]),
        ("LbM3a", "abi", "abi", n.dim, [(1, qm, "a", (x_l, "bi"))],
         [(1, qm, (pq_r, "ab"), "i"), (-1, pn_r, (qm, "ai"), "b")]),
        ("LbM3b", "bia", "abi", n.dim, [(1, mq, (x_l, "bi"), "a")],
         [(1, qm, (pq_l, "ba"), "i"), (-1, pn_l, "b", (qm, "ai"))]),
        ("LbM3c", "aib", "abi", n.dim, [(1, qm, "a", (x_r, "ib"))],
         [(1, pn_r, (qm, "ai"), "b"), (-1, qm, (pq_r, "ab"), "i")]),
        ("LbM3d", "iba", "abi", n.dim, [(1, mq, (x_r, "ib"), "a")],
         [(1, pn_r, (mq, "ia"), "b"), (-1, mq, "i", (pq_r, "ab"))]),
        ("LbM4a", "aik", "aik", n.dim, [(1, qm, "a", (mt, "ik"))],
         [(1, pn_r, (qm, "ai"), etak), (-1, pn_r, (qm, "ak"), etai)]),
        ("LbM4b", "ika", "aik", n.dim, [(1, mq, (mt, "ik"), "a")],
         [(1, pn_r, (mq, "ia"), etak), (-1, pn_l, etai, (qm, "ak"))]),
        ("LbM5a", "aci", "aci", n.dim, [(1, qm, (qt, "ac"), "i")],
         [(1, y_r, (qm, "ai"), "c"), (1, y_l, "a", (qm, "ci"))]),
        ("LbM5b", "iac", "aci", n.dim, [(1, mq, "i", (qt, "ac"))],
         [(1, y_r, (mq, "ia"), "c"), (-1, y_r, (mq, "ic"), "a")]),
        ("LbM5c", "aic", "aci", n.dim, [(1, y_l, "a", (mq, "ic"))], [(-1, y_l, "a", (qm, "ci"))]),
        ("LbM6a", "iba", "iba", n.dim, [(1, mq, "i", (pq_l, "ba"))], [(-1, mq, "i", (pq_r, "ab"))]),
        ("LbM6b", "bia", "iba", n.dim, [(1, pn_l, "b", (mq, "ia"))], [(-1, pn_l, "b", (qm, "ai"))]),
    ])
    return ValidationReport(tuple(bad))


# -- morphisms into the actor -------------------------------------------


@record
class ActorMorphism:
    """A morphism from ``source`` into the actor of ``around``.

    Stored with the crossed module the actor was built from, so the actor's
    pair/quadruple spaces can be reconstructed without ambiguity.
    """

    source: CrossedModule
    around: CrossedModule
    top_map: Matrix   # into the pair space of `around`
    base_map: Matrix  # into the quadruple space of `around`

    def as_xmod_morphism(self) -> XModMorphism:
        from .bider import actor

        return XModMorphism(self.source, actor(self.around), self.top_map, self.base_map)


@record
class ActionToMorphismResult:
    morphism: ActorMorphism
    relaxed_failures: tuple[str, ...]  # relaxable labels that actually failed


def morphism_from_action(d: XModActionData) -> ActionToMorphismResult:
    """Build the morphism (source -> actor(target)) induced by action data.

    Elements of the actor-side top go to the pairs built from the two cross
    pairings; base elements go to the quadruples built from the two algebra
    actions.  All identities except the relaxable ones must hold.
    """
    report = validate_xmod_action(d)
    hard = tuple(sorted({v.axiom for v in report.violations} - set(RELAXABLE_LABELS)))
    if hard:
        raise ActionAxiomError(hard)
    relaxed = tuple(sorted({v.axiom for v in report.violations} & set(RELAXABLE_LABELS)))

    from .bider import _induced_maps

    x, y = d.actor_xmod, d.target_xmod
    top_map, base_map = _induced_maps(y, d.act_on_top, d.act_on_base, d.sparse_mq, d.sparse_qm)
    morphism = ActorMorphism(x, y, top_map, base_map)
    return ActionToMorphismResult(morphism, relaxed)


def action_from_morphism(fm: ActorMorphism) -> XModActionData:
    """Recover action data from a morphism into the actor.

    Requires at least one support condition on the target crossed module;
    refuses otherwise, naming the failed conditions.
    """
    y = fm.around
    profile = condition_profile(y)
    flags = ConditionFlags.from_profile(profile)
    if not flags.any_holds:
        raise ConditionsNotMetError(flags, profile)
    rep = validate_morphism(fm.as_xmod_morphism())
    if not rep.ok:
        raise InvalidMorphismError(
            "the given maps are not a morphism into the actor: " + ", ".join(rep.labels()))

    from .bider import bider_qn, bider_xmod

    x = fm.source
    # (s1, t1, s2, t2) and (d, dd), each map as its sparse columns
    quads = [bider_xmod(y).member_columns(col) for col in fm.base_map.sparse_columns]
    pairs = [bider_qn(y).member_columns(col) for col in fm.top_map.sparse_columns]

    def minus(v: SparseVector) -> SparseVector:
        return {k: -c for k, c in v.items()}

    act_on_top = ActionData(x.base, y.top, [t1 for _s1, t1, _s2, _t2 in quads],
                            [[minus(member[0][j]) for member in quads] for j in range(y.top.dim)])
    act_on_base = ActionData(x.base, y.base, [t2 for _s1, _t1, _s2, t2 in quads],
                             [[minus(member[2][a]) for member in quads] for a in range(y.base.dim)])
    return XModActionData(x, y, act_on_top, act_on_base, [dd for _d, dd in pairs],
                          [[minus(d[a]) for d, _dd in pairs] for a in range(y.base.dim)])


# -- semidirect product of crossed modules --------------------------------


@record
class SemidirectXMod:
    """The split extension built from crossed-module action data."""

    xmod: CrossedModule
    include: XModMorphism   # target crossed module -> semidirect
    project: XModMorphism   # semidirect -> actor crossed module
    section: XModMorphism   # actor crossed module -> semidirect

    def sequence(self) -> ShortExactSequence:
        return ShortExactSequence(
            self.include.source, self.xmod, self.project.target, self.include, self.project)


def semidirect_xmod(d: XModActionData) -> SemidirectXMod:
    """Top and base semidirect algebras with the block boundary and the
    mixed action; includes the canonical splitting morphisms."""
    x, y = d.actor_xmod, d.target_xmod
    m, p, eta = x.top, x.base, x.boundary
    n, q, mu = y.top, y.base, y.boundary
    f = d.field

    # action of m on n through the boundary, for the top-layer product
    char, pn, etas, units = f.characteristic, d.act_on_top, eta.sparse_columns, _units(n.dim)
    m_on_n = ActionData(m, n, [[_evaluate([(1, pn.sparse_left, e, u)], char) for u in units] for e in etas],
                        [[_evaluate([(1, pn.sparse_right, u, e)], char) for e in etas] for u in units])
    top_semi = semidirect_algebra(m_on_n)
    base_semi = semidirect_algebra(d.act_on_base)

    bdy_cols = mu.sparse_columns + tuple({q.dim + k: c for k, c in col.items()} for col in etas)
    boundary = Matrix(f, q.dim + p.dim, n.dim + m.dim, bdy_cols)

    left = _blocks((q.dim, p.dim), (n.dim, m.dim), [[(y.action.sparse_left, 0), (d.sparse_qm, 0)],
                                                    [(pn.sparse_left, 0), (x.action.sparse_left, n.dim)]])
    right = _blocks((n.dim, m.dim), (q.dim, p.dim), [[(y.action.sparse_right, 0), (pn.sparse_right, 0)],
                                                     [(d.sparse_mq, 0), (x.action.sparse_right, n.dim)]])
    act = ActionData(base_semi.algebra, top_semi.algebra, left, right)
    semi = CrossedModule(top_semi.algebra, base_semi.algebra, boundary, act)

    include = XModMorphism(y, semi, top_semi.include_target, base_semi.include_target)
    proj_top = Matrix(f, m.dim, n.dim + m.dim, ({},) * n.dim + tuple(_units(m.dim)))
    proj_base = Matrix(f, p.dim, q.dim + p.dim, ({},) * q.dim + tuple(_units(p.dim)))
    project = XModMorphism(semi, x, proj_top, proj_base)
    section = XModMorphism(x, semi, top_semi.include_actor, base_semi.include_actor)
    return SemidirectXMod(semi, include, project, section)
