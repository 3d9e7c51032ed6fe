"""Raw-array interchange for CSR matrices.

:func:`csr_to_arrays` and :func:`csr_from_arrays` round-trip a CSR matrix
through its three raw arrays without copying or re-canonicalising.  The
on-disk asset store (:mod:`repro.experiments.store`) builds on them, and
its arrays come back as read-only ``np.load(..., mmap_mode="r")`` views;
:class:`repro.operators.ReFloatOperator` uses :func:`csr_from_arrays` to
put quantised values on the exact matrix's index arrays.
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np
import scipy.sparse as sp

__all__ = [
    "csr_to_arrays",
    "csr_from_arrays",
]


def csr_to_arrays(A) -> Tuple[Dict[str, np.ndarray], Tuple[int, int]]:
    """Decompose a sparse matrix into its raw CSR arrays plus its shape.

    The arrays are the matrix's own buffers (no copy) in their native dtypes
    — preserving the index dtype matters because rebuilding with a different
    one changes scipy's kernel dispatch.  A CSR input is **not**
    canonicalised: duplicate or unsorted entries round-trip exactly, so the
    rebuilt matrix's matvec accumulates in the same order as the original's
    (bit-identical results).  Non-CSR inputs are converted first, which for
    e.g. COO sums duplicates and sorts indices — the exact-layout guarantee
    applies only to what the conversion produced, so pass CSR when the
    original nonzero order matters.
    """
    A = sp.csr_matrix(A)
    return ({"data": A.data, "indices": A.indices, "indptr": A.indptr},
            tuple(A.shape))


def csr_from_arrays(
    data: np.ndarray,
    indices: np.ndarray,
    indptr: np.ndarray,
    shape: Tuple[int, int],
    canonical: bool = False,
    checked: bool = True,
) -> sp.csr_matrix:
    """Rebuild a CSR matrix from :func:`csr_to_arrays` output without copying.

    The arrays may be read-only (e.g. memory-mapped); nothing here writes to
    them.  ``canonical=True`` marks the result as having sorted, duplicate-
    free indices so later scipy operations do not attempt an in-place
    canonicalisation pass — only pass it for matrices that were canonical
    when serialised (``BlockedMatrix.A`` always is).  ``checked=False``
    skips the O(nnz) column-bounds scan (which pages a memory-mapped
    ``indices`` fully in) — only for callers that have already verified the
    arrays or explicitly trust their source; out-of-range columns reach
    scipy's C kernels as out-of-bounds reads, not exceptions.
    """
    n_rows = int(len(indptr)) - 1
    if n_rows < 0 or len(shape) != 2:
        raise ValueError("indptr must have n_rows + 1 entries and shape 2 dims")
    if n_rows != shape[0]:
        raise ValueError(
            f"indptr describes {n_rows} rows, shape says {shape[0]}")
    if len(data) != len(indices):
        raise ValueError(
            f"data ({len(data)}) and indices ({len(indices)}) lengths differ")
    if n_rows and (int(indptr[0]) != 0 or int(indptr[-1]) != len(data)):
        raise ValueError(
            f"indptr must run from 0 to nnz={len(data)}, "
            f"got [{int(indptr[0])}, {int(indptr[-1])}]")
    if checked and len(indices) and (int(indices.min()) < 0
                                     or int(indices.max()) >= shape[1]):
        # Out-of-range columns would reach scipy's C kernels as silent
        # out-of-bounds reads (or a segfault), not an exception.
        raise ValueError(
            f"column indices must lie in [0, {shape[1]}), got "
            f"[{int(indices.min())}, {int(indices.max())}]")
    A = sp.csr_matrix(tuple(shape), dtype=data.dtype)
    A.data, A.indices, A.indptr = data, indices, indptr
    if canonical:
        A.has_sorted_indices = True
        A.has_canonical_format = True
    return A

