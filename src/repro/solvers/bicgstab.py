"""Stabilised BiConjugate Gradient (van der Vorst 1992).

Two SpMVs per iteration (the paper: "for BiCGSTAB solver, there are two SpMV
on the whole matrix" per iteration).  Works for general nonsymmetric systems;
the evaluation uses it on the same SPD suite as CG, as the paper does.
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

__all__ = ["bicgstab"]


@quiet_fp_errors
def bicgstab(
    A,
    b,
    x0: Optional[np.ndarray] = None,
    criterion: Optional[ConvergenceCriterion] = None,
) -> SolverResult:
    """Solve ``A x = b`` by BiCGSTAB.  See :func:`repro.solvers.cg.cg` for the
    parameter/return conventions (identical)."""
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

    r_hat = r.copy()  # shadow residual
    rho_prev = alpha = omega = 1.0
    v = np.zeros(n)
    p = np.zeros(n)

    def _fail(k: int, why: str) -> SolverResult:
        return SolverResult(x=x, converged=False, iterations=k,
                            residual_norm=r_norm, residual_history=history,
                            breakdown=why, matvecs=matvecs)

    for k in range(1, crit.max_iterations + 1):
        rho = float(r_hat @ r)
        if not math.isfinite(rho) or rho == 0.0:
            return _fail(k - 1, "rho breakdown")
        beta = (rho / rho_prev) * (alpha / omega)
        p = r + beta * (p - omega * v)
        if not np.isfinite(p).all():
            return _fail(k - 1, "non-finite direction")
        v = op.matvec(p)
        matvecs += 1
        denom = float(r_hat @ v)
        if not math.isfinite(denom) or denom == 0.0:
            return _fail(k - 1, "r_hat'v breakdown")
        alpha = rho / denom
        s = r - alpha * v
        s_norm = math.sqrt(s.dot(s))  # np.linalg.norm's own 1-D formula
        if s_norm < threshold:
            # Early half-step convergence.
            x += alpha * p
            r_norm = s_norm
            history.append(r_norm)
            return SolverResult(x=x, converged=True, iterations=k,
                                residual_norm=r_norm, residual_history=history,
                                matvecs=matvecs)
        if not np.isfinite(s).all():
            return _fail(k - 1, "non-finite half-step")
        t = op.matvec(s)
        matvecs += 1
        tt = float(t @ t)
        if not math.isfinite(tt) or tt == 0.0:
            return _fail(k - 1, "t't breakdown")
        omega = float(t @ s) / tt
        if not math.isfinite(omega) or omega == 0.0:
            return _fail(k - 1, "omega breakdown")
        x += alpha * p + omega * s
        r = s - omega * t
        rho_prev = rho
        r_norm = math.sqrt(r.dot(r))
        history.append(r_norm)
        if r_norm < threshold:
            return SolverResult(x=x, converged=True, iterations=k,
                                residual_norm=r_norm, residual_history=history,
                                matvecs=matvecs)
        if not math.isfinite(r_norm) or r_norm > crit.divergence_factor * history[0]:
            return _fail(k, "divergence")

    return SolverResult(x=x, converged=False, iterations=crit.max_iterations,
                        residual_norm=r_norm, residual_history=history,
                        matvecs=matvecs)
