"""Mixed-precision iterative refinement (extension).

Classic Wilkinson/Moler refinement, recast for quantised accelerators: run an
inner solve on the *quantised* operator (cheap, on the crossbars), compute the
residual with the *exact* operator (the host FPU), and repeat.  This is the
natural systems answer to "what if the quantised solve stalls above the
target residual?" — it restores full-precision attainable accuracy while
keeping most work on the accelerator, and is the paper's implicit fallback
story for extreme bit budgets.

No paper experiment runs it: ``examples/bit_budget_ablation.py`` uses it to
refine an f=3 ReFloat solve, and ``TestIterativeRefinement`` in
``tests/test_solvers.py`` pins that use.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

import numpy as np

from repro.solvers.base import ConvergenceCriterion, SolverResult, as_operator
from repro.solvers.cg import cg

__all__ = ["RefinementResult", "iterative_refinement"]


@dataclass
class RefinementResult:
    """Outcome of iterative refinement.

    ``inner_iterations`` counts all inner-solver iterations across outer
    steps; ``outer_history`` records the exact residual after each outer
    correction.
    """

    x: np.ndarray
    converged: bool
    outer_iterations: int
    inner_iterations: int
    residual_norm: float
    outer_history: List[float]


def iterative_refinement(
    exact_A,
    inner_A,
    b,
    inner_solver: Callable[..., SolverResult] = cg,
    outer_tol: float = 1e-12,
    inner_tol: float = 1e-6,
    max_outer: int = 20,
    inner_criterion: Optional[ConvergenceCriterion] = None,
) -> RefinementResult:
    """Refine ``exact_A x = b`` using inner solves on ``inner_A``.

    Parameters
    ----------
    exact_A : matrix/operator used for true residuals (FP64).
    inner_A : matrix/operator used inside the correction solves (quantised).
    inner_solver : cg-compatible solver function.
    outer_tol : relative target for the exact residual.
    inner_tol : relative tolerance of each inner solve.
    """
    exact = as_operator(exact_A)
    b = np.asarray(b, dtype=np.float64)
    b_norm = float(np.linalg.norm(b))
    if b_norm == 0.0:
        return RefinementResult(np.zeros(b.size), True, 0, 0, 0.0, [0.0])

    crit = inner_criterion or ConvergenceCriterion(tol=inner_tol, max_iterations=5000)
    x = np.zeros(b.size)
    r = b.copy()
    r_norm = float(np.linalg.norm(r))
    history = [r_norm]
    inner_total = 0
    for outer in range(1, max_outer + 1):
        result = inner_solver(inner_A, r, criterion=crit)
        inner_total += result.iterations
        x += result.x
        r = b - exact.matvec(x)
        r_norm = float(np.linalg.norm(r))
        history.append(r_norm)
        if r_norm < outer_tol * b_norm:
            return RefinementResult(x, True, outer, inner_total, r_norm, history)
        if not np.isfinite(r_norm) or (len(history) > 2 and r_norm >= history[-2]):
            # Refinement stalled: quantised correction no longer reduces the
            # exact residual.
            return RefinementResult(x, False, outer, inner_total, r_norm, history)
    return RefinementResult(x, r_norm < outer_tol * b_norm, max_outer,
                            inner_total, r_norm, history)
