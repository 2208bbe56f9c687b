"""Exact linear algebra for Leibniz algebras, their crossed modules, and actors.

Everything is computed over an exact field (rationals or a prime field), so
all results are reproducible decisions, never floating-point approximations.

``import lbxmod`` loads no submodule: each public name is imported from its
module on first use (PEP 562), so a process compiles only what it touches.
"""

from importlib import import_module

__version__ = "0.1.0"

#: each module with the public names it defines
_PUBLIC = {
    "fields": "Field FpElement GF2 GF3 InputDataError PrimeField QQ Rationals get_field",
    "linalg": "LinearSolveError Matrix Subspace column_space nullspace rref sparse_kernel",
    "algebra": "MAX_DIM LeibnizAlgebra ValidationReport Violation annihilator commutator direct_sum is_ideal "
               "quotient_algebra subalgebra_on validate_leibniz",
    "action": "ActionData SemidirectAlgebra semidirect_algebra validate_action",
    "xmod": "ConditionFlags CrossedModule NO_CONDITION_WARNING NotAnIdealError QuotientXMod SubXMod XModMorphism "
            "center check_conditions check_xmod_ideal compose_morphisms condition_profile identity_morphism image "
            "invariant_top_subspace kernel quotient_xmod sub_xmod trivially_acting_base_subspace validate_morphism "
            "validate_xmod NotExactError ShortExactSequence ActionAxiomError ConditionsNotMetError "
            "InvalidMorphismError",
    "bider": "LiftResult MapSpace actor bider_algebra bider_qn bider_xmod canonical_morphism delta inner_xmod "
             "lift_sequence outer_xmod sequence_problems",
    "xaction": "ActorMorphism RELAXABLE_LABELS SemidirectXMod XModActionData action_from_morphism "
               "morphism_from_action semidirect_xmod validate_xmod_action",
}
_HOME = {name: module for module, names in _PUBLIC.items() for name in names.split()}

__all__ = [*_HOME, "__version__"]


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{_HOME[name]}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
