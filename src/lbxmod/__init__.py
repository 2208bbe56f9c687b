"""Exact linear algebra for Leibniz algebras, their crossed modules, and actors.

Everything is computed over an exact field (rationals or a prime field), so
all results are reproducible decisions, never floating-point approximations.
"""

from .fields import (
    Field,
    FpElement,
    GF2,
    GF3,
    InputDataError,
    PrimeField,
    QQ,
    Rationals,
    get_field,
)
from .linalg import (
    LinearSolveError,
    Matrix,
    Subspace,
    column_space,
    nullspace,
    rref,
    sparse_kernel,
)
from .algebra import (
    MAX_DIM,
    LeibnizAlgebra,
    ValidationReport,
    Violation,
    annihilator,
    commutator,
    direct_sum,
    is_ideal,
    quotient_algebra,
    subalgebra_on,
    validate_leibniz,
)
from .action import (
    ActionData,
    SemidirectAlgebra,
    semidirect_algebra,
    validate_action,
)
from .xmod import (
    ConditionFlags,
    CrossedModule,
    NO_CONDITION_WARNING,
    NotAnIdealError,
    QuotientXMod,
    SubXMod,
    XModMorphism,
    center,
    check_conditions,
    check_xmod_ideal,
    compose_morphisms,
    condition_profile,
    identity_morphism,
    image,
    invariant_top_subspace,
    kernel,
    quotient_xmod,
    sub_xmod,
    trivially_acting_base_subspace,
    validate_morphism,
    validate_xmod,
)
from .bider import (
    LiftResult,
    MapSpace,
    NotExactError,
    ShortExactSequence,
    actor,
    bider_algebra,
    bider_qn,
    bider_xmod,
    canonical_morphism,
    delta,
    inner_xmod,
    lift_sequence,
    outer_xmod,
    sequence_problems,
)
from .xaction import (
    ActionAxiomError,
    ActorMorphism,
    ConditionsNotMetError,
    InvalidMorphismError,
    RELAXABLE_LABELS,
    SemidirectXMod,
    XModActionData,
    action_from_morphism,
    morphism_from_action,
    semidirect_xmod,
    validate_xmod_action,
)

__version__ = "0.1.0"

__all__ = [
    "Field", "FpElement", "GF2", "GF3", "InputDataError", "PrimeField", "QQ",
    "Rationals", "get_field",
    "LinearSolveError", "Matrix", "Subspace", "column_space", "nullspace",
    "rref", "sparse_kernel",
    "MAX_DIM", "LeibnizAlgebra", "ValidationReport", "Violation", "annihilator",
    "commutator", "direct_sum", "is_ideal", "quotient_algebra", "subalgebra_on",
    "validate_leibniz",
    "ActionData", "SemidirectAlgebra", "semidirect_algebra", "validate_action",
    "ConditionFlags", "CrossedModule", "NO_CONDITION_WARNING", "NotAnIdealError",
    "QuotientXMod", "SubXMod", "XModMorphism", "center", "check_conditions",
    "check_xmod_ideal", "compose_morphisms", "condition_profile",
    "identity_morphism", "image", "invariant_top_subspace", "kernel",
    "quotient_xmod", "sub_xmod", "trivially_acting_base_subspace",
    "validate_morphism", "validate_xmod",
    "LiftResult", "MapSpace", "NotExactError", "ShortExactSequence", "actor",
    "bider_algebra", "bider_qn", "bider_xmod", "canonical_morphism", "delta",
    "inner_xmod",
    "lift_sequence", "outer_xmod",
    "sequence_problems",
    "ActionAxiomError", "ActorMorphism", "ConditionsNotMetError",
    "InvalidMorphismError", "RELAXABLE_LABELS", "SemidirectXMod",
    "XModActionData", "action_from_morphism", "morphism_from_action",
    "semidirect_xmod", "validate_xmod_action",
    "__version__",
]
