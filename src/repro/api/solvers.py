"""Builtin solver registrations.

Folds the old ``SOLVERS`` callable dict and the parallel ``_SOLVER_SHAPE``
per-iteration operation counts into single :class:`SolverSpec` entries
(Section VI-B: BiCGSTAB does two whole-matrix SpMVs per iteration; the GPU
roofline charges 5/10 vector kernels where the accelerators stream 6/12
n-length ops).  The paper's two single-RHS solvers are the only builtin
registrants; the solve service batches concurrent requests by running the
registered ``solve`` once per column in a lockstep gang
(:func:`repro.solvers.lockstep.solve_lockstep`).
"""

from __future__ import annotations

from repro.api.registry import register_solver
from repro.solvers import bicgstab, cg

__all__ = ["DEFAULT_SOLVERS"]

#: The paper's evaluation solvers (every experiment sweeps these two).
DEFAULT_SOLVERS = ("cg", "bicgstab")

register_solver(
    "cg", spmvs_per_iteration=1, vector_ops_per_iteration=6,
    gpu_vector_kernels_per_iteration=5,
    description="conjugate gradients (SPD systems)")(cg)

register_solver(
    "bicgstab", spmvs_per_iteration=2, vector_ops_per_iteration=12,
    gpu_vector_kernels_per_iteration=10,
    description="BiCGSTAB (general systems; two SpMVs per iteration)")(bicgstab)
