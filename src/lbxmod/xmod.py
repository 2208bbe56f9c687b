"""Crossed modules of Leibniz algebras: validation, sub/quotient objects,
morphisms, short exact sequences, kernels, images, centers and the support
conditions used by the reconstruction theorems, with the errors that the
constructions on them raise.

A crossed module is a boundary homomorphism ``top -> base`` together with an
action of the base on the top satisfying the two usual compatibility laws:
the boundary is equivariant (XLb1) and boundary images act like the internal
bracket (XLb2, the Peiffer identities).
"""

from __future__ import annotations

from functools import partial
from typing import Sequence

from .action import ActionData, validate_action
from .algebra import (
    _ONE,
    LeibnizAlgebra,
    ValidationReport,
    Violation,
    _annihilator_rows,
    _closed,
    _image_rows,
    _once,
    _prefixed,
    _quotient,
    _restricted,
    _units,
    _violations,
    annihilator,
    commutator,
    is_ideal,
    subalgebra_on,
    validate_leibniz,
)
from .fields import InputDataError, record
from .linalg import Matrix, Subspace, column_space, nullspace, sparse_kernel


class NotAnIdealError(ValueError):
    """The requested sub-object is not a crossed-module ideal."""


class NotExactError(ValueError):
    """A claimed short exact sequence fails one of its checks."""


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


_LEFT_SUBSPACE = "vector left the subspace it was supposed to stay in"


@record
class CrossedModule:
    top: LeibnizAlgebra
    base: LeibnizAlgebra
    boundary: Matrix          # base.dim x top.dim
    action: ActionData        # base acting on top

    def __post_init__(self) -> None:
        if self.boundary.rows != self.base.dim or self.boundary.cols != self.top.dim:
            raise InputDataError("boundary matrix shape does not match the two algebras")
        if self.action.actor is not self.base and self.action.actor != self.base:
            raise InputDataError("action actor is not the base algebra")
        if self.action.target is not self.top and self.action.target != self.top:
            raise InputDataError("action target is not the top algebra")

    def is_identity(self) -> bool:
        """The base is the top, acting on itself by its bracket, and the
        boundary is the identity; evaluated on every call, never cached.
        ``validate_xmod`` (a passing top decides), ``bider_xmod`` and
        ``actor`` (read off the pair space), and ``sub_xmod``,
        ``check_xmod_ideal`` and ``quotient_xmod`` (one subspace on both
        layers) take shortcuts on it."""
        return (self.base == self.top and self.action == ActionData.by_bracket(self.top)
                and self.boundary == Matrix.identity(self.top.field, self.top.dim))

    @classmethod
    def identity_on(cls, a: LeibnizAlgebra) -> "CrossedModule":
        return cls(a, a, Matrix.identity(a.field, a.dim), ActionData.by_bracket(a))

    @classmethod
    def inclusion_of_ideal(cls, a: LeibnizAlgebra, s: Subspace) -> "CrossedModule":
        """An ideal of a, included into a, acted on by the bracket of a."""
        sub, incl = subalgebra_on(a, s)
        t, e, rows = a.sparse_table, [(u, 1) for u in _units(a.dim)], s.scaled_rows
        left, right = _restricted(s, t, e, rows, _LEFT_SUBSPACE), _restricted(s, t, rows, e, _LEFT_SUBSPACE)
        return cls(sub, a, incl, ActionData(a, sub, left, right))


def validate_xmod(x: CrossedModule, check=None) -> ValidationReport:
    """Full validity check; labels are prefixed with the failing layer.
    Components are checked by ``check(validator, component)``, the top
    algebra first: a caller's memo (``algebra._once``), or this call's own.

    On an identity crossed module (``is_identity``) hom, XLb1 and XLb2 hold
    by construction and act1..act6 are the Leibniz identity, so a passing
    top decides: its empty report is returned.  Otherwise the base, the
    action (``validate_action``) and the five identities hom, XLb1 and XLb2
    are checked; a base or an action target equal to the top reuses the
    top's report from the memo, under its own prefix.
    """
    check = check or partial(_once, {})
    top = check(validate_leibniz, x.top)
    if top.ok and x.is_identity():
        return top
    bad = _prefixed(("top:", top), ("base:", check(validate_leibniz, x.base)),
                    ("action:", check(partial(validate_action, check=check), x.action)))

    m, p = x.top, x.base
    mt, pt = m.sparse_table, p.sparse_table
    left, right = x.action.sparse_left, x.action.sparse_right
    cols = x.boundary.sparse_columns  # boundary images of the top basis; i, j index the top, a the base
    eta = (cols,)
    bad += _violations(m.field, {"i": m.dim, "j": m.dim, "a": p.dim}, [
        # boundary is a homomorphism
        ("hom", "ij", "ij", p.dim, [(1, eta, (_ONE, ""), (mt, "ij"))], [(1, pt, (cols, "i"), (cols, "j"))]),
        # XLb1: the boundary intertwines both action brackets
        ("XLb1-left", "ai", "ai", p.dim, [(1, eta, (_ONE, ""), (left, "ai"))], [(1, pt, "a", (cols, "i"))]),
        ("XLb1-right", "ia", "ai", p.dim, [(1, eta, (_ONE, ""), (right, "ia"))], [(1, pt, (cols, "i"), "a")]),
        # XLb2: boundary images act by the internal bracket (Peiffer)
        ("XLb2-left", "ij", "ij", m.dim, [(1, left, (cols, "i"), "j")], [(1, mt, "i", "j")]),
        ("XLb2-right", "ij", "ij", m.dim, [(1, right, "i", (cols, "j"))], [(1, mt, "i", "j")]),
    ])
    return ValidationReport(tuple(bad))


@record
class XModMorphism:
    source: CrossedModule
    target: CrossedModule
    top_map: Matrix   # target.top.dim x source.top.dim
    base_map: Matrix  # target.base.dim x source.base.dim

    def __post_init__(self) -> None:
        if self.top_map.rows != self.target.top.dim or self.top_map.cols != self.source.top.dim:
            raise InputDataError("top map has the wrong shape")
        if self.base_map.rows != self.target.base.dim or self.base_map.cols != self.source.base.dim:
            raise InputDataError("base map has the wrong shape")


@record
class ShortExactSequence:
    first: CrossedModule
    middle: CrossedModule
    last: CrossedModule
    include: XModMorphism
    project: XModMorphism


def identity_morphism(x: CrossedModule) -> XModMorphism:
    f = x.top.field
    return XModMorphism(x, x, Matrix.identity(f, x.top.dim), Matrix.identity(f, x.base.dim))


def compose_morphisms(g: XModMorphism, f: XModMorphism) -> XModMorphism:
    if g.source != f.target:
        raise InputDataError("morphisms do not compose")
    return XModMorphism(f.source, g.target, g.top_map @ f.top_map, g.base_map @ f.base_map)


def validate_morphism(f: XModMorphism) -> ValidationReport:
    """Homomorphism on both layers, boundary square, action equivariance."""
    s, t = f.source, f.target
    ft, fb = (f.top_map.sparse_columns,), (f.base_map.sparse_columns,)
    top, base = (ft[0], "i"), (fb[0], "a")  # images of the source bases
    top2, base2 = (ft[0], "j"), (fb[0], "b")
    dims = {"i": s.top.dim, "j": s.top.dim, "a": s.base.dim, "b": s.base.dim}
    field, one = t.top.field, (_ONE, "")
    bad = _violations(field, dims, [
        ("top-hom", "ij", "ij", t.top.dim, [(1, ft, one, (s.top.sparse_table, "ij"))],
         [(1, t.top.sparse_table, top, top2)]),
        ("base-hom", "ab", "ab", t.base.dim, [(1, fb, one, (s.base.sparse_table, "ab"))],
         [(1, t.base.sparse_table, base, base2)]),
    ])

    sq_lhs = t.boundary @ f.top_map
    sq_rhs = f.base_map @ s.boundary
    if sq_lhs != sq_rhs:
        bad.append(Violation("boundary-square", (), tuple(x for r in sq_lhs.entries for x in r),
                             tuple(x for r in sq_rhs.entries for x in r)))

    bad += _violations(field, dims, [
        ("action-left", "ai", "ai", t.top.dim, [(1, ft, one, (s.action.sparse_left, "ai"))],
         [(1, t.action.sparse_left, base, top)]),
        ("action-right", "ia", "ai", t.top.dim, [(1, ft, one, (s.action.sparse_right, "ia"))],
         [(1, t.action.sparse_right, top, base)]),
    ])
    return ValidationReport(tuple(bad))


# -- embedded sub-objects and quotients --------------------------------


@record
class SubXMod:
    """A crossed module carried by a pair of subspaces of a parent."""

    parent: CrossedModule
    xmod: CrossedModule
    top_space: Subspace
    base_space: Subspace
    top_include: Matrix
    base_include: Matrix
    warnings: tuple[str, ...] = ()

    def inclusion(self) -> XModMorphism:
        return XModMorphism(self.xmod, self.parent, self.top_include, self.base_include)


def sub_xmod(x: CrossedModule, top_space: Subspace, base_space: Subspace,
             warnings: tuple[str, ...] = ()) -> SubXMod:
    """Induce a crossed module on bracket/action/boundary-closed subspaces."""
    top_alg, top_incl = subalgebra_on(x.top, top_space)
    if top_space == base_space and x.is_identity():  # the restrictions would repeat that closure check
        return SubXMod(x, CrossedModule.identity_on(top_alg), top_space, base_space, top_incl, top_incl, warnings)
    base_alg, base_incl = subalgebra_on(x.base, base_space)
    t_rows, b_rows = top_space.scaled_rows, base_space.scaled_rows
    bdy_cols = _restricted(base_space, (x.boundary.sparse_columns,), [(_ONE, 1)], t_rows, _LEFT_SUBSPACE)[0]
    bdy = Matrix(x.top.field, base_space.dim, top_space.dim, bdy_cols)
    left = _restricted(top_space, x.action.sparse_left, b_rows, t_rows, _LEFT_SUBSPACE)
    right = _restricted(top_space, x.action.sparse_right, t_rows, b_rows, _LEFT_SUBSPACE)
    act = ActionData(base_alg, top_alg, left, right)
    small = CrossedModule(top_alg, base_alg, bdy, act)
    return SubXMod(x, small, top_space, base_space, top_incl, base_incl, warnings)


def kernel(f: XModMorphism) -> SubXMod:
    return sub_xmod(f.source, nullspace(f.top_map), nullspace(f.base_map))


def image(f: XModMorphism) -> SubXMod:
    return sub_xmod(f.target, column_space(f.top_map), column_space(f.base_map))


@record
class QuotientXMod:
    parent: CrossedModule
    xmod: CrossedModule
    top_project: Matrix
    base_project: Matrix

    def projection(self) -> XModMorphism:
        return XModMorphism(self.parent, self.xmod, self.top_project, self.base_project)


_IDEAL_PROBLEMS = (
    "top subspace is not an ideal of the top algebra", "base subspace is not an ideal of the base algebra",
    "boundary image of the top part leaves the base part", "base part does not act into the top part",
    "top part is not stable under the base action")


def check_xmod_ideal(x: CrossedModule, top_space: Subspace, base_space: Subspace) -> list[str]:
    """Reasons the pair fails to be a crossed-module ideal (empty = fine).

    On an identity crossed module with one subspace S on both layers, the
    boundary check holds trivially and each of the other four says that S
    is an ideal of the algebra, so that is checked once."""
    if top_space == base_space and x.is_identity():
        ideal = is_ideal(x.top, top_space)
        checks = (ideal, ideal, True, ideal, ideal)
    else:
        left, right = x.action.sparse_left, x.action.sparse_right
        tops = [v for v, _d in top_space.scaled_rows]  # membership does not see the scale
        eta = (x.boundary.sparse_columns,)
        checks = (is_ideal(x.top, top_space), is_ideal(x.base, base_space),
                  _closed(base_space, ((1, eta, _ONE, v) for v in tops)),
                  _closed(top_space, (term for b, _d in base_space.scaled_rows for u in _units(x.top.dim)
                                      for term in ((1, left, b, u), (1, right, u, b)))),
                  _closed(top_space, (term for v in tops for q in _units(x.base.dim)
                                      for term in ((1, left, q, v), (1, right, v, q)))))
    return [problem for problem, ok in zip(_IDEAL_PROBLEMS, checks) if not ok]


def quotient_xmod(x: CrossedModule, top_space: Subspace, base_space: Subspace) -> QuotientXMod:
    problems = check_xmod_ideal(x, top_space, base_space)
    if problems:
        raise NotAnIdealError("; ".join(problems))
    top_q, top_proj = _quotient(x.top, top_space)
    if top_space == base_space and x.is_identity():  # one quotient algebra on both layers
        return QuotientXMod(x, CrossedModule.identity_on(top_q), top_proj, top_proj)
    base_q, base_proj = _quotient(x.base, base_space)
    t_reps, b_reps = top_space.complement_indices(), base_space.complement_indices()
    left, right, eta = x.action.sparse_left, x.action.sparse_right, x.boundary.sparse_columns
    bdy = Matrix(x.top.field, base_q.dim, top_q.dim, tuple(base_space.project(eta[r]) for r in t_reps))
    act = ActionData(base_q, top_q, tuple(tuple(top_space.project(left[a][i]) for i in t_reps) for a in b_reps),
                     tuple(tuple(top_space.project(right[i][a]) for a in b_reps) for i in t_reps))
    return QuotientXMod(x, CrossedModule(top_q, base_q, bdy, act), top_proj, base_proj)


# -- support conditions and the center ---------------------------------


@record
class ConditionFlags:
    """The three alternative hypotheses for reconstructing actions from
    morphisms into the actor: con1 = both annihilators vanish, con2 = the
    top annihilator vanishes and the base is perfect, con3 = both layers
    are perfect."""

    con1: bool
    con2: bool
    con3: bool

    @property
    def any_holds(self) -> bool:
        return self.con1 or self.con2 or self.con3

    def failed(self) -> tuple[str, ...]:
        return tuple(name for name, v in (("con1", self.con1), ("con2", self.con2), ("con3", self.con3)) if not v)

    @classmethod
    def from_profile(cls, prof: dict) -> "ConditionFlags":
        """The flags read off a ``condition_profile``."""
        ann_top0 = prof["ann_top_dim"] == 0
        return cls(con1=ann_top0 and prof["ann_base_dim"] == 0, con2=ann_top0 and prof["base_perfect"],
                   con3=prof["top_perfect"] and prof["base_perfect"])


def condition_profile(x: CrossedModule) -> dict:
    """Raw facts behind the flags, convenient for reports; when both layers
    are one algebra, its facts are computed once."""
    facts = [(annihilator(a).dim, commutator(a).dim == a.dim) for a in dict.fromkeys((x.top, x.base))]
    (ann_top, top_perfect), (ann_base, base_perfect) = facts[0], facts[-1]
    return {
        "ann_top_dim": ann_top,
        "ann_base_dim": ann_base,
        "top_perfect": top_perfect,
        "base_perfect": base_perfect,
    }


def check_conditions(x: CrossedModule) -> ConditionFlags:
    return ConditionFlags.from_profile(condition_profile(x))


NO_CONDITION_WARNING = (
    "none of con1/con2/con3 hold; the result is the canonical construction "
    "but the reconstruction theorems do not apply"
)


def _condition_warnings(x: CrossedModule) -> tuple[str, ...]:
    """(NO_CONDITION_WARNING,) unless ``check_conditions(x).any_holds``,
    decided from as few facts as decide it: ann(top) = 0 first, then
    whether the base is perfect, then the rest; one algebra on both layers
    is asked once."""
    def perfect(a: LeibnizAlgebra) -> bool:
        return commutator(a).dim == a.dim

    if not annihilator(x.top).dim:  # con1 or con2 holds: ann(base) = 0 or the base is perfect
        holds = x.base == x.top or perfect(x.base) or not annihilator(x.base).dim
    else:  # only con3 can hold: both layers are perfect
        holds = perfect(x.base) and (x.top == x.base or perfect(x.top))
    return () if holds else (NO_CONDITION_WARNING,)


def invariant_top_subspace(x: CrossedModule) -> Subspace:
    """{v in top : [q, v] = 0 = [v, q] for the whole base}."""
    left, right, n, q = x.action.sparse_left, x.action.sparse_right, range(x.top.dim), range(x.base.dim)
    rows = _image_rows(*(left[a] for a in q), *([right[i][a] for i in n] for a in q))
    return sparse_kernel(x.top.field, x.top.dim, rows)


def _trivially_acting_rows(x: CrossedModule) -> list:
    """[q, e_i] = 0 = [e_i, q] for every top basis element e_i."""
    left, right, n, q = x.action.sparse_left, x.action.sparse_right, range(x.top.dim), range(x.base.dim)
    return _image_rows(*([left[a][i] for a in q] for i in n), *(right[i] for i in n))


def trivially_acting_base_subspace(x: CrossedModule) -> Subspace:
    """{q in base : [q, top] = 0 = [top, q]}."""
    return sparse_kernel(x.base.field, x.base.dim, _trivially_acting_rows(x))


def center(x: CrossedModule) -> SubXMod:
    """The central sub-crossed-module: invariant top part over the part of
    the base that acts trivially and annihilates the base algebra."""
    top_space = invariant_top_subspace(x)
    base_space = sparse_kernel(x.base.field, x.base.dim, _trivially_acting_rows(x) + _annihilator_rows(x.base))
    return sub_xmod(x, top_space, base_space, _condition_warnings(x))
