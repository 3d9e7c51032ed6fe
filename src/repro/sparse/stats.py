"""Matrix statistics: the Table V columns."""

from __future__ import annotations

import warnings
import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla


__all__ = [
    "is_symmetric",
    "nnz_per_row",
    "extreme_eigenvalues",
    "condition_number",
]


def is_symmetric(A, tol: float = 0.0) -> bool:
    """Exact (tol=0) or tolerant structural+value symmetry check."""
    A = sp.csr_matrix(A)
    if A.shape[0] != A.shape[1]:
        return False
    D = (A - A.T).tocoo()
    if D.nnz == 0:
        return True
    return bool(np.max(np.abs(D.data)) <= tol * max(np.max(np.abs(A.data)), 1e-300))


def nnz_per_row(A) -> float:
    A = sp.csr_matrix(A)
    return A.nnz / A.shape[0]


def extreme_eigenvalues(A, tol: float = 1e-6, maxiter: int = 5000):
    """(lambda_min, lambda_max) of a symmetric matrix via Lanczos.

    lambda_max uses plain Lanczos; lambda_min uses shift-invert when a sparse
    factorisation succeeds, else LOBPCG with a Jacobi preconditioner.  Returns
    floats (possibly approximate — intended for reporting, not algorithms).
    """
    A = sp.csr_matrix(A).astype(np.float64)
    n = A.shape[0]
    if n < 3:
        w = np.linalg.eigvalsh(A.toarray())
        return float(w[0]), float(w[-1])
    lam_max = float(spla.eigsh(A, k=1, which="LA", tol=tol,
                               maxiter=maxiter, return_eigenvectors=False)[0])
    try:
        lam_min = float(spla.eigsh(A, k=1, sigma=0, which="LM", tol=tol,
                                   maxiter=maxiter, return_eigenvectors=False)[0])
    except (RuntimeError, ValueError, spla.ArpackError,
            np.linalg.LinAlgError):
        # Shift-invert needs a sparse factorisation of A; a singular or
        # otherwise unfactorisable matrix lands here (ARPACK convergence
        # failures too).  Anything else — a genuine bug — propagates.
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            rng = np.random.default_rng(0)
            X = rng.standard_normal((n, 1))
            diag = A.diagonal()
            M = sp.diags(1.0 / np.where(diag > 0, diag, 1.0))
            vals, _ = spla.lobpcg(A, X, M=M, largest=False, tol=tol, maxiter=500)
            lam_min = float(vals[0])
    return lam_min, lam_max


def condition_number(A, tol: float = 1e-6) -> float:
    """2-norm condition number estimate for a symmetric positive matrix."""
    lam_min, lam_max = extreme_eigenvalues(A, tol=tol)
    if lam_min <= 0:
        return float("inf")
    return lam_max / lam_min
