"""Solver infrastructure: operator protocol, results, convergence control.

The solvers in this package are written against a minimal operator interface
(``shape`` + ``matvec``) so the same CG/BiCGSTAB code runs in exact FP64, in
ReFloat, in the Feinberg model, or with noise injection — the quantised
platform *is* the operator (Code 1 of the paper runs unchanged; only the SpMV
changes).  All vector arithmetic outside the SpMV is FP64, matching the
accelerator's double-precision MAC units (Fig. 6a).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Protocol, runtime_checkable

import numpy as np
import scipy.sparse as sp

try:  # scipy's private compiled CSR kernel, the one ``A @ x`` ends in
    from scipy.sparse._sparsetools import csr_matvec as _csr_matvec_kernel
except ImportError:  # pragma: no cover - a scipy that no longer exposes it
    _csr_matvec_kernel = None

__all__ = [
    "LinearOperator",
    "MatrixOperator",
    "SolverResult",
    "ConvergenceCriterion",
    "as_operator",
    "csr_matvec",
    "operator_matmat",
    "check_system",
    "check_block_system",
    "check_initial_guess",
    "quiet_fp_errors",
]


def quiet_fp_errors(fn):
    """Run a solver under ``np.errstate(all='ignore')``.

    Divergence on the quantised platforms legitimately drives iterates through
    overflow before the explicit divergence check fires; the solvers detect
    and report non-finite states themselves, so the global warnings are noise.
    """
    import functools

    @functools.wraps(fn)
    def wrapped(*args, **kwargs):
        with np.errstate(over="ignore", invalid="ignore", divide="ignore",
                         under="ignore"):
            return fn(*args, **kwargs)

    return wrapped


@runtime_checkable
class LinearOperator(Protocol):
    """Anything with a shape and a matvec (the platform abstraction)."""

    shape: tuple

    def matvec(self, x: np.ndarray) -> np.ndarray:  # pragma: no cover - protocol
        ...


def csr_matvec(A, x, data=None) -> np.ndarray:
    """``A @ x`` for a CSR matrix, calling scipy's compiled kernel directly.

    The platform operators' per-apply SpMV.  At solver sizes an apply costs
    more in scipy's ``@`` dispatch than in the kernel, so when ``A`` is CSR,
    ``x`` is a 1-D float64 ndarray of length ``A.shape[1]`` and the values
    are float64 of ``A.data``'s shape, this allocates the output and calls
    ``csr_matvec`` itself, as scipy's ``_matmul_vector`` does: the same
    kernel over the same index order, so the result is bit-identical to
    ``A @ x``.  ``data`` replaces ``A.data`` as the values (the noisy
    operator's per-apply conductances) without building a matrix.

    Every other input goes through ``A @ x`` (with ``data``, over a CSR
    built from ``(data, A.indices, A.indptr)``), so scipy still converts
    lists and int vectors and rejects a wrong length or a short ``data``.
    Without the kernel (a scipy that stops exposing it) the helper is
    just ``A @ x``.
    """
    vals = A.data if data is None else data
    if (_csr_matvec_kernel is not None and A.format == "csr"
            and type(x) is np.ndarray and x.dtype == np.float64
            and vals.dtype == np.float64 and vals.shape == A.data.shape):
        m, n = A.shape
        if x.shape == (n,):
            y = np.zeros(m)  # the kernel adds each row's sum into y
            _csr_matvec_kernel(m, n, A.indptr, A.indices, vals, x, y)
            return y
    if data is not None:
        A = sp.csr_matrix((data, A.indices, A.indptr), shape=A.shape)
    return A @ x


class MatrixOperator:
    """Exact FP64 SpMV backed by a scipy sparse matrix."""

    def __init__(self, A):
        self.A = sp.csr_matrix(A, dtype=np.float64)
        self.shape = self.A.shape

    def matvec(self, x: np.ndarray) -> np.ndarray:
        return csr_matvec(self.A, x)

    def matmat(self, X: np.ndarray) -> np.ndarray:
        """Batched :meth:`matvec`: one SpMM over ``(n, k)`` columns.

        CSR SpMM accumulates every output element over the same index order
        as the matvec kernel, so column ``j`` is bit-identical to
        ``matvec(X[:, j])``.
        """
        return self.A @ np.asarray(X, dtype=np.float64)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"MatrixOperator(shape={self.shape}, nnz={self.A.nnz})"


def as_operator(A) -> LinearOperator:
    """Coerce a sparse matrix / operator-like object to a LinearOperator."""
    if isinstance(A, LinearOperator) and not sp.issparse(A):
        return A
    return MatrixOperator(A)


def operator_matmat(op: LinearOperator, X: np.ndarray) -> np.ndarray:
    """Apply an operator to ``k`` columns, batched when the operator can.

    Routes through ``op.matmat`` (the fast multi-RHS path of the platform
    operators) when present; any operator exposing only the minimal
    ``matvec`` protocol gets a per-column loop, so the lockstep gang
    (:func:`repro.solvers.lockstep.solve_lockstep`) runs on every platform.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError(f"X must be 2-D (n, k), got shape {X.shape}")
    if X.shape[1] == 0:
        raise ValueError("X must have at least one column")
    mm = getattr(op, "matmat", None)
    if mm is not None:
        return np.asarray(mm(X), dtype=np.float64)
    out = np.empty((op.shape[0], X.shape[1]), dtype=np.float64)
    for j in range(X.shape[1]):
        out[:, j] = op.matvec(X[:, j])
    return out


@dataclass
class SolverResult:
    """Outcome of an iterative solve.

    Attributes
    ----------
    x : ndarray
        Final iterate.
    converged : bool
        Whether the convergence criterion was met.
    iterations : int
        Iterations executed (matching the paper's "#ite": one correction per
        iteration; BiCGSTAB counts one iteration per full two-SpMV step).
    residual_norm : float
        Final (recursive) residual 2-norm.
    residual_history : list of float
        ``||r||_2`` after every iteration, starting with the initial residual
        at index 0 — the Fig. 9 trace.
    breakdown : str or None
        Set when the solve stopped on a numerical breakdown (division by ~0,
        non-finite values) rather than convergence/budget exhaustion.
    matvecs : int
        Number of operator applications performed.
    """

    x: np.ndarray
    converged: bool
    iterations: int
    residual_norm: float
    residual_history: List[float] = field(default_factory=list)
    breakdown: Optional[str] = None
    matvecs: int = 0

    @property
    def not_converged(self) -> bool:
        return not self.converged


@dataclass(frozen=True)
class ConvergenceCriterion:
    """Paper criterion: residual 2-norm below a threshold, or budget hit.

    ``relative=True`` scales the threshold by ``||b||_2`` (scale-invariant;
    see DESIGN.md).  ``divergence_factor`` declares breakdown once the
    residual exceeds that multiple of the initial residual — this is how the
    non-convergent Feinberg runs terminate in bounded time.
    """

    tol: float = 1e-8
    max_iterations: int = 20000
    relative: bool = True
    divergence_factor: float = 1e12

    def threshold(self, b_norm: float) -> float:
        return self.tol * b_norm if self.relative else self.tol


def check_block_system(op: LinearOperator, B) -> np.ndarray:
    """Validate operator/block compatibility; return ``B`` as (n, k) float64."""
    B = np.asarray(B, dtype=np.float64)
    if B.ndim != 2:
        raise ValueError(f"B must be 2-D (n, k), got shape {B.shape}")
    m, n = op.shape
    if m != n:
        raise ValueError(f"operator must be square, got {op.shape}")
    if B.shape[0] != n:
        raise ValueError(
            f"dimension mismatch: operator {op.shape}, B {B.shape}")
    if B.shape[1] == 0:
        raise ValueError("B must have at least one column")
    if not np.all(np.isfinite(B)):
        raise ValueError("B contains non-finite values")
    return B


def check_initial_guess(x0, shape, name: str = "x0",
                        copy: bool = True) -> Optional[np.ndarray]:
    """Validate an initial guess against the expected shape; ``None`` passes.

    Returns a float64 array — a fresh copy by default, since solvers update
    the iterate in place — or ``None`` when no guess was given.  Callers
    that only *read* the guess (e.g. ``solve_lockstep``, whose per-column
    solvers make their own copies) pass ``copy=False`` to skip the block
    duplication.  A wrong-length, wrongly-shaped or non-finite guess fails
    here with a named error instead of crashing deep inside the first
    matvec with an opaque broadcast message.
    """
    if x0 is None:
        return None
    arr = (np.array(x0, dtype=np.float64) if copy
           else np.asarray(x0, dtype=np.float64))
    expected = tuple(shape)
    if arr.shape != expected:
        raise ValueError(f"{name} must have shape {expected}, got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite values")
    return arr


def check_system(op: LinearOperator, b: np.ndarray) -> np.ndarray:
    """Validate operator/vector compatibility; return b as float64 array."""
    b = np.asarray(b, dtype=np.float64)
    if b.ndim != 1:
        raise ValueError(f"b must be a vector, got shape {b.shape}")
    m, n = op.shape
    if m != n:
        raise ValueError(f"operator must be square, got {op.shape}")
    if b.size != n:
        raise ValueError(f"dimension mismatch: operator {op.shape}, b {b.size}")
    if not np.all(np.isfinite(b)):
        raise ValueError("b contains non-finite values")
    return b
