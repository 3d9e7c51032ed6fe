"""SpMV operators modelling Feinberg et al. [32].

Two variants, matching the paper's Figure 8 legend:

* :class:`FeinbergOperator` — the *functional* model with the vector flaw:
  matrix exact (FPU-assisted), vector pushed through the 64-binade window
  anchored at the matrix exponent.  Non-convergent on the all-positive mass
  matrices, like the paper reports.
* :class:`FeinbergFcOperator` — "Feinberg-fc", the paper's strong baseline
  that *assumes* functional correctness: numerically identical to FP64 (it
  exists so the hardware timing model can be charged with FP64 iteration
  counts).
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.formats.feinberg import (
    FeinbergSpec,
    matrix_anchor_exponent,
    quantize_vector_feinberg,
)
from repro.solvers.base import csr_matvec
from repro.sparse.blocked import canonical_csr

__all__ = ["FeinbergOperator", "FeinbergFcOperator"]


class FeinbergOperator:
    """[32]'s datapath: exact matrix, window-quantised vector per apply.

    The padding window is anchored at the matrix's maximum entry exponent
    (``block_b=None``, the default): the crossbar mapping aligns its 64
    exponent slots against the largest stored value, and the input vector is
    driven through that window; the scalar ``anchor`` takes the bit-pattern
    path of :func:`quantize_vector_feinberg`.  Passing ``block_b`` anchors
    per block-column instead (each column stripe's own max) — a strictly
    harsher model, kept for ablation, whose per-element anchors run the
    reference quantiser.

    ``A`` is held as :func:`repro.sparse.blocked.canonical_csr` (a copy with
    duplicates summed), so the anchor is the exponent of the entries the
    SpMV multiplies by.  ``blocked`` optionally supplies a prebuilt
    :class:`repro.sparse.blocked.BlockedMatrix` whose canonical CSR is reused
    directly (``A`` is then ignored), so suite runs that already partitioned
    the matrix pay no second conversion.  The operator is read-only after
    construction and may be shared across solves.
    """

    def __init__(self, A, spec: FeinbergSpec = FeinbergSpec(),
                 block_b: int = None, blocked=None):
        from repro.formats import ieee

        self.A = blocked.A if blocked is not None else canonical_csr(A)
        self.spec = spec
        self.block_b = block_b
        self.shape = self.A.shape
        self.anchor = matrix_anchor_exponent(self.A.data)  # global fallback
        if block_b is not None:
            n_cols = self.A.shape[1]
            _, exp, _ = ieee.decompose(self.A.data)
            seg = self.A.indices.astype(np.int64) >> block_b
            nseg = -(-n_cols // (1 << block_b))
            anchors = np.full(nseg, np.iinfo(np.int32).min, dtype=np.int64)
            np.maximum.at(anchors, seg, exp.astype(np.int64))
            # Columns with no entries: anchor irrelevant, use the global one.
            anchors = np.where(anchors == np.iinfo(np.int32).min,
                               self.anchor, anchors)
            self._per_elem_anchor = np.repeat(anchors, 1 << block_b)[:n_cols]

    def matvec(self, x: np.ndarray) -> np.ndarray:
        return csr_matvec(self.A, self.quantize_input(x))

    def matmat(self, X: np.ndarray) -> np.ndarray:
        """Batched :meth:`matvec`: window-quantise ``k`` columns, one SpMM.

        The window quantisation is element-wise (each element sees its own
        anchor), so the batch is bit-identical per column to the matvec path.
        """
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2:
            raise ValueError(f"X must be 2-D (n, k), got shape {X.shape}")
        anchor = (self.anchor if self.block_b is None
                  else self._per_elem_anchor[:, None])
        return self.A @ quantize_vector_feinberg(X, anchor, self.spec)

    def quantize_input(self, x: np.ndarray) -> np.ndarray:
        anchor = self.anchor if self.block_b is None else self._per_elem_anchor
        return quantize_vector_feinberg(x, anchor, self.spec)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"FeinbergOperator(exp_bits={self.spec.exp_bits}, "
                f"policy={self.spec.policy!r}, anchor={self.anchor})")


class FeinbergFcOperator:
    """Feinberg-fc: numerically FP64; exists to carry the [32] timing model."""

    def __init__(self, A):
        self.A = sp.csr_matrix(A, dtype=np.float64)
        self.shape = self.A.shape

    def matvec(self, x: np.ndarray) -> np.ndarray:
        return csr_matvec(self.A, np.asarray(x, dtype=np.float64))

    def matmat(self, X: np.ndarray) -> np.ndarray:
        return self.A @ np.asarray(X, dtype=np.float64)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"FeinbergFcOperator(shape={self.shape})"
