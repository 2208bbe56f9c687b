"""Actions of one crossed module on another, described by equations.

An action of a crossed module (m, p, eta) — the ``actor_xmod`` — on a crossed
module (n, q, mu) — the ``target_xmod`` — consists of ordinary actions of the
algebra p on both n and q, together with two cross pairings m x q -> n and
q x m -> n, all subject to a family of labeled compatibility identities.
Validating those identities, converting such data to and from morphisms into
the actor, and forming the semidirect product crossed module all live here.

Bracket conventions inside the identities: brackets of m with n or q go
through eta (so [m, n] means [eta(m), n] and so on); [q, n]-style brackets are
the target crossed module's own action.  The two pairings are written as
tensors ``cross_mq[i][a]`` and ``cross_qm[a][i]`` with values in n.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

from .action import ActionData, Tensor, semidirect_algebra, validate_action
from .algebra import (
    _ONE,
    SparseTensor,
    ValidationReport,
    _contract,
    _prefixed,
    _sparse_map,
    _sparse_tensor,
    _unit,
    _violations,
)
from .fields import Field, InputDataError, Scalar
from .linalg import Matrix, zero_vector
from .bider import ShortExactSequence, actor, bider_qn, bider_xmod
from .xmod import (
    ConditionFlags,
    CrossedModule,
    XModMorphism,
    check_conditions,
    condition_profile,
    validate_morphism,
    validate_xmod,
)

#: labels that may fail while still permitting the morphism construction
RELAXABLE_LABELS = ("LbM6a", "LbM6b", "p_on_n:act6", "p_on_q:act6")


class ActionAxiomError(ValueError):
    """The action data violates identities that the construction needs."""

    def __init__(self, labels: Sequence[str]):
        super().__init__("action data violates " + ", ".join(labels))
        self.labels = tuple(labels)


class InvalidMorphismError(ValueError):
    """The given maps are not a morphism of crossed modules."""


class ConditionsNotMetError(ValueError):
    """Recovering an action from a morphism needs one support condition."""

    def __init__(self, flags: ConditionFlags, profile: dict):
        msg = (
            "cannot recover an action: none of the support conditions hold "
            f"(failed: {', '.join(flags.failed())}; top annihilator dim "
            f"{profile['ann_top_dim']}, base annihilator dim {profile['ann_base_dim']}, "
            f"top perfect: {profile['top_perfect']}, base perfect: {profile['base_perfect']})"
        )
        super().__init__(msg)
        self.flags = flags
        self.profile = profile


@dataclass(frozen=True)
class XModActionData:
    actor_xmod: CrossedModule   # (m, p, eta)
    target_xmod: CrossedModule  # (n, q, mu)
    act_on_top: ActionData      # p acting on n
    act_on_base: ActionData     # p acting on q
    cross_mq: Tensor            # cross_mq[i][a] = the pairing of m_i with q_a, in n
    cross_qm: Tensor            # cross_qm[a][i] = the pairing of q_a with m_i, in n

    def __post_init__(self) -> None:
        m, p = self.actor_xmod.top, self.actor_xmod.base
        n, q = self.target_xmod.top, self.target_xmod.base
        if self.act_on_top.actor != p or self.act_on_top.target != n:
            raise InputDataError("p-on-n action endpoints do not match the crossed modules")
        if self.act_on_base.actor != p or self.act_on_base.target != q:
            raise InputDataError("p-on-q action endpoints do not match the crossed modules")
        if len(self.cross_mq) != m.dim or any(
            len(r) != q.dim or any(len(v) != n.dim for v in r) for r in self.cross_mq
        ):
            raise InputDataError("m-q pairing tensor has the wrong shape")
        if len(self.cross_qm) != q.dim or any(
            len(r) != m.dim or any(len(v) != n.dim for v in r) for r in self.cross_qm
        ):
            raise InputDataError("q-m pairing tensor has the wrong shape")

    @cached_property
    def sparse_mq(self) -> SparseTensor:
        return _sparse_tensor(self.cross_mq)

    @cached_property
    def sparse_qm(self) -> SparseTensor:
        return _sparse_tensor(self.cross_qm)

    # bilinear evaluation of the two pairings
    def pair_mq(self, mvec: Sequence[Scalar], qvec: Sequence[Scalar]):
        return _contract(self.field, self.sparse_mq, mvec, qvec, self.target_xmod.top.dim)

    def pair_qm(self, qvec: Sequence[Scalar], mvec: Sequence[Scalar]):
        return _contract(self.field, self.sparse_qm, qvec, mvec, self.target_xmod.top.dim)

    @property
    def field(self) -> Field:
        return self.actor_xmod.top.field


def validate_xmod_action(d: XModActionData, check_components: bool = True) -> ValidationReport:
    """Check every labeled identity of a crossed-module action.

    Component checks (both crossed modules and both algebra actions) get
    prefixed labels; the mixed identities use their own labels LbEQ*,
    LbCOM*, LbM*.  A component shared by several roles (as in a crossed
    module acting on itself) is checked once and reported under each.
    """
    reports: dict[int, ValidationReport] = {}  # this call's, by identity: one validator per object

    def once(validate, obj) -> ValidationReport:
        if id(obj) not in reports:
            reports[id(obj)] = validate(obj)
        return reports[id(obj)]

    def xmod_report(c: CrossedModule) -> ValidationReport:
        return validate_xmod(c, check=once)

    bad = _prefixed(("x:", once(xmod_report, d.actor_xmod)), ("y:", once(xmod_report, d.target_xmod)),
                    ("p_on_n:", once(validate_action, d.act_on_top)),
                    ("p_on_q:", once(validate_action, d.act_on_base))) if check_components else []

    x, y = d.actor_xmod, d.target_xmod
    m, p, n, q = x.top, x.base, y.top, y.base
    mt, qt = m.sparse_table, q.sparse_table
    pn_l, pn_r = d.act_on_top.sparse_left, d.act_on_top.sparse_right    # p on n
    pq_l, pq_r = d.act_on_base.sparse_left, d.act_on_base.sparse_right  # p on q
    y_l, y_r = y.action.sparse_left, y.action.sparse_right              # q on n
    x_l, x_r = x.action.sparse_left, x.action.sparse_right              # p on m
    mq, qm = d.sparse_mq, d.sparse_qm
    mu, eta = _sparse_map(y.boundary), _sparse_map(x.boundary)
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


@dataclass(frozen=True)
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
        return XModMorphism(self.source, actor(self.around), self.top_map, self.base_map)


@dataclass(frozen=True)
class ActionToMorphismResult:
    morphism: ActorMorphism
    relaxed_failures: tuple[str, ...]  # relaxable labels that actually failed


def morphism_from_action(d: XModActionData) -> ActionToMorphismResult:
    """Build the morphism (source -> actor(target)) induced by action data.

    Elements of the actor-side top go to the pairs built from the two cross
    pairings; base elements go to the quadruples built from the two algebra
    actions.  All identities except the relaxable ones must hold.
    """
    report = validate_xmod_action(d, check_components=True)
    hard = tuple(sorted({v.axiom for v in report.violations} - set(RELAXABLE_LABELS)))
    if hard:
        raise ActionAxiomError(hard)
    relaxed = tuple(sorted({v.axiom for v in report.violations} & set(RELAXABLE_LABELS)))

    x, y = d.actor_xmod, d.target_xmod
    f = d.field
    pairs = bider_qn(y)
    quads = bider_xmod(y)

    mq, qm, qs, ns = d.sparse_mq, d.sparse_qm, range(y.base.dim), range(y.top.dim)
    top_cols = [pairs.read_columns([(-1, [qm[a][i] for a in qs]), (1, mq[i])],
                                   "pairing maps do not form a pair-space solution") for i in range(x.top.dim)]
    pn, pq = d.act_on_top, d.act_on_base
    base_cols = [quads.read_columns([(-1, [pn.sparse_right[j][b] for j in ns]), (1, pn.sparse_left[b]),
                                     (-1, [pq.sparse_right[a][b] for a in qs]), (1, pq.sparse_left[b])],
                                    "action maps do not form a quadruple-space solution")
                 for b in range(x.base.dim)]

    morphism = ActorMorphism(
        x, y,
        Matrix.from_columns(f, top_cols, pairs.dim),
        Matrix.from_columns(f, base_cols, quads.dim),
    )
    return ActionToMorphismResult(morphism, relaxed)


def action_from_morphism(fm: ActorMorphism) -> XModActionData:
    """Recover action data from a morphism into the actor.

    Requires at least one support condition on the target crossed module;
    refuses otherwise, naming the failed conditions.
    """
    y = fm.around
    flags = check_conditions(y)
    if not flags.any_holds:
        raise ConditionsNotMetError(flags, condition_profile(y))
    rep = validate_morphism(fm.as_xmod_morphism())
    if not rep.ok:
        raise InvalidMorphismError(
            "the given maps are not a morphism into the actor: " + ", ".join(rep.labels()))

    x = fm.source
    f = y.top.field
    pairs = bider_qn(y)
    quads = bider_xmod(y)
    n_dim, q_dim = y.top.dim, y.base.dim

    pn_left = []
    pn_right = [[None] * x.base.dim for _ in range(n_dim)]
    pq_left = []
    pq_right = [[None] * x.base.dim for _ in range(q_dim)]
    for b in range(x.base.dim):
        s1, t1, s2, t2 = quads.member_from_coords(fm.base_map.column(b))
        pn_left.append(tuple(t1.column(j) for j in range(n_dim)))
        for j in range(n_dim):
            pn_right[j][b] = tuple(-c for c in s1.column(j))
        pq_left.append(tuple(t2.column(a) for a in range(q_dim)))
        for a in range(q_dim):
            pq_right[a][b] = tuple(-c for c in s2.column(a))

    act_on_top = ActionData(x.base, y.top, tuple(pn_left),
                            tuple(tuple(row) for row in pn_right))
    act_on_base = ActionData(x.base, y.base, tuple(pq_left),
                             tuple(tuple(row) for row in pq_right))

    cross_mq = [[None] * q_dim for _ in range(x.top.dim)]
    cross_qm = [[None] * x.top.dim for _ in range(q_dim)]
    for i in range(x.top.dim):
        dmat, ddmat = pairs.member_from_coords(fm.top_map.column(i))
        for a in range(q_dim):
            cross_mq[i][a] = ddmat.column(a)
            cross_qm[a][i] = tuple(-c for c in dmat.column(a))

    return XModActionData(
        x, y, act_on_top, act_on_base,
        tuple(tuple(row) for row in cross_mq),
        tuple(tuple(row) for row in cross_qm),
    )


# -- semidirect product of crossed modules --------------------------------


@dataclass(frozen=True)
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
    m_on_n = ActionData(
        m, n,
        tuple(tuple(d.act_on_top.act_left(eta.column(i), _unit(f, n.dim, j))
                    for j in range(n.dim)) for i in range(m.dim)),
        tuple(tuple(d.act_on_top.act_right(_unit(f, n.dim, j), eta.column(i))
                    for i in range(m.dim)) for j in range(n.dim)),
    )
    top_semi = semidirect_algebra(m_on_n)
    base_semi = semidirect_algebra(ActionData(p, q, d.act_on_base.left, d.act_on_base.right))

    top_dim = n.dim + m.dim
    base_dim = q.dim + p.dim
    z = f.zero

    def pad_n(v):
        return tuple(v) + tuple(z for _ in range(m.dim))

    def pad_m(v):
        return tuple(z for _ in range(n.dim)) + tuple(v)

    bdy_cols = [tuple(mu.column(j)) + tuple(z for _ in range(p.dim)) for j in range(n.dim)]
    bdy_cols += [tuple(z for _ in range(q.dim)) + tuple(eta.column(i)) for i in range(m.dim)]
    boundary = Matrix.from_columns(f, bdy_cols, base_dim)

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

    act = ActionData(base_semi.algebra, top_semi.algebra, tuple(left), tuple(right))
    semi = CrossedModule(top_semi.algebra, base_semi.algebra, boundary, act)

    include = XModMorphism(y, semi, top_semi.include_target, base_semi.include_target)
    proj_top = Matrix.from_columns(
        f, [zero_vector(f, m.dim) for _ in range(n.dim)] + [_unit(f, m.dim, i) for i in range(m.dim)], m.dim)
    proj_base = Matrix.from_columns(
        f, [zero_vector(f, p.dim) for _ in range(q.dim)] + [_unit(f, p.dim, b) for b in range(p.dim)], p.dim)
    project = XModMorphism(semi, x, proj_top, proj_base)
    section = XModMorphism(x, semi, top_semi.include_actor, base_semi.include_actor)
    return SemidirectXMod(semi, include, project, section)
