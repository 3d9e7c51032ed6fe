"""Iterative linear solvers, operator-parameterised (the paper's Code 1)."""

from repro.solvers.base import (
    ConvergenceCriterion,
    LinearOperator,
    MatrixOperator,
    SolverResult,
    as_operator,
    operator_matmat,
)
from repro.solvers.bicgstab import bicgstab
from repro.solvers.cg import cg
from repro.solvers.lockstep import solve_lockstep
from repro.solvers.refinement import RefinementResult, iterative_refinement

__all__ = [
    "ConvergenceCriterion",
    "LinearOperator",
    "MatrixOperator",
    "SolverResult",
    "as_operator",
    "operator_matmat",
    "bicgstab",
    "cg",
    "solve_lockstep",
    "RefinementResult",
    "iterative_refinement",
]
