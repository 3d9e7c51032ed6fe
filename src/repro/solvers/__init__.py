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
from repro.solvers.gmres import gmres
from repro.solvers.lockstep import solve_lockstep
from repro.solvers.precond import (
    ilu_preconditioner,
    jacobi_preconditioner,
    ssor_preconditioner,
)
from repro.solvers.refinement import RefinementResult, iterative_refinement
from repro.solvers.stationary import jacobi, richardson

__all__ = [
    "ConvergenceCriterion",
    "LinearOperator",
    "MatrixOperator",
    "SolverResult",
    "as_operator",
    "operator_matmat",
    "bicgstab",
    "cg",
    "gmres",
    "solve_lockstep",
    "ilu_preconditioner",
    "jacobi_preconditioner",
    "ssor_preconditioner",
    "RefinementResult",
    "iterative_refinement",
    "jacobi",
    "richardson",
]
