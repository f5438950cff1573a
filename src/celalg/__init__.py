"""Exact symbolic verifier for celestial current algebras.

Submodules:
  liealg      simple Lie algebras in Chevalley bases, exact pairing
  adinv       adjoint trace invariants and the quartic classification
  lambdacalc  the lambda-bracket engine on tensor words
  celestial   rule tables, Jacobi defects, deformation-constant solver
  cli         command-line verification suites
"""

from .liealg import (
    ConfigurationError,
    ConstructionError,
    LieAlgebra,
    RootSystem,
    UsageError,
    build_root_system,
    chevalley_basis,
    simple_lie_algebra,
)
from .lambdacalc import (
    E,
    F,
    GenSymbol,
    I,
    J,
    InternalConsistencyError,
    UndefinedBracket,
)
from .celestial import (
    ConstantSolution,
    DomainError,
    ModelError,
    RuleIntegrityError,
    RuleSet,
    closed_form_constants,
    closed_form_fractions,
    jacobi_defect,
    rules_deformed,
    rules_extended,
    solve_constants,
    verify_jacobi_grid,
)
from .report import Report

__all__ = [
    "ConfigurationError", "ConstructionError", "LieAlgebra", "RootSystem",
    "UsageError", "build_root_system", "chevalley_basis", "simple_lie_algebra",
    "E", "F", "GenSymbol", "I", "J", "InternalConsistencyError",
    "UndefinedBracket", "ConstantSolution", "DomainError", "ModelError",
    "RuleIntegrityError", "RuleSet", "closed_form_constants",
    "closed_form_fractions", "jacobi_defect", "rules_deformed", "rules_extended",
    "solve_constants", "verify_jacobi_grid", "Report",
]

__version__ = "0.1.0"
