"""Conjugate Gradient (Hestenes & Stiefel), operator-parameterised.

Implemented exactly as the paper's Code 1 specialises for CG: one SpMV per
iteration (on the direction vector ``p``) and a recursive residual update.
All vector arithmetic is FP64; the operator may quantise.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from repro.solvers.base import (
    ConvergenceCriterion,
    SolverResult,
    as_operator,
    check_initial_guess,
    check_system,
    quiet_fp_errors,
)

__all__ = ["cg"]


@quiet_fp_errors
def cg(
    A,
    b,
    x0: Optional[np.ndarray] = None,
    criterion: Optional[ConvergenceCriterion] = None,
) -> SolverResult:
    """Solve SPD ``A x = b`` by conjugate gradients.

    Parameters
    ----------
    A : sparse matrix or LinearOperator
        The SpMV platform (exact, ReFloat, Feinberg, noisy, ...).
    b : array_like
        Right-hand side.
    x0 : array_like, optional
        Initial guess (paper: the all-zero vector).
    criterion : ConvergenceCriterion
        Stopping rule; defaults to the paper's ``||r|| < 1e-8 ||b||`` with a
        20000-iteration budget.

    Returns
    -------
    SolverResult
    """
    op = as_operator(A)
    b = check_system(op, b)
    crit = criterion or ConvergenceCriterion()
    n = b.size
    x0 = check_initial_guess(x0, (n,))
    x = np.zeros(n) if x0 is None else x0

    matvecs = 0
    if x0 is None or not np.any(x):
        r = b.copy()
    else:
        r = b - op.matvec(x)
        matvecs += 1
    b_norm = float(np.linalg.norm(b))
    if b_norm == 0.0:
        return SolverResult(x=np.zeros(n), converged=True, iterations=0,
                            residual_norm=0.0, residual_history=[0.0],
                            matvecs=matvecs)
    threshold = crit.threshold(b_norm)
    r_norm = float(np.linalg.norm(r))
    history = [r_norm]
    if r_norm < threshold:
        return SolverResult(x=x, converged=True, iterations=0,
                            residual_norm=r_norm, residual_history=history,
                            matvecs=matvecs)

    p = r.copy()
    rho = float(r @ r)

    for k in range(1, crit.max_iterations + 1):
        if not np.isfinite(p).all():
            return SolverResult(x=x, converged=False, iterations=k - 1,
                                residual_norm=r_norm, residual_history=history,
                                breakdown="non-finite direction", matvecs=matvecs)
        q = op.matvec(p)
        matvecs += 1
        pq = float(p @ q)
        if not math.isfinite(pq) or pq == 0.0:
            return SolverResult(x=x, converged=False, iterations=k - 1,
                                residual_norm=r_norm, residual_history=history,
                                breakdown="p'Ap breakdown", matvecs=matvecs)
        alpha = rho / pq
        x += alpha * p
        r -= alpha * q
        r_norm = math.sqrt(r.dot(r))  # np.linalg.norm's own 1-D formula
        history.append(r_norm)
        if r_norm < threshold:
            return SolverResult(x=x, converged=True, iterations=k,
                                residual_norm=r_norm, residual_history=history,
                                matvecs=matvecs)
        if not math.isfinite(r_norm) or r_norm > crit.divergence_factor * history[0]:
            return SolverResult(x=x, converged=False, iterations=k,
                                residual_norm=r_norm, residual_history=history,
                                breakdown="divergence", matvecs=matvecs)
        rho_new = float(r @ r)
        if rho == 0.0:
            return SolverResult(x=x, converged=False, iterations=k,
                                residual_norm=r_norm, residual_history=history,
                                breakdown="rho breakdown", matvecs=matvecs)
        beta = rho_new / rho
        rho = rho_new
        p = r + beta * p

    return SolverResult(x=x, converged=False, iterations=crit.max_iterations,
                        residual_norm=r_norm, residual_history=history,
                        matvecs=matvecs)
