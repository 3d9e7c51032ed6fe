"""Plain truncated-IEEE SpMV operator — the Table I sweep platform.

Table I studies naive bit truncation: fix one field of the IEEE layout and
shrink the other.  The matrix is truncated once; the SpMV input vector is
truncated on every apply (both through
:func:`repro.formats.ieee.quantize_ieee`, whose exponent-wrap semantics model
the mod-2^bits padding of [32]).
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.formats.ieee import quantize_ieee
from repro.solvers.base import csr_matvec

__all__ = ["TruncatedOperator"]


class TruncatedOperator:
    """SpMV with exp/frac-truncated matrix (once) and vector (per apply)."""

    def __init__(self, A, exp_bits: int = 11, frac_bits: int = 52,
                 rounding: str = "truncate", truncate_vector: bool = True):
        base = sp.csr_matrix(A, dtype=np.float64)
        qdata = quantize_ieee(base.data, exp_bits, frac_bits, rounding=rounding)
        self.A = sp.csr_matrix((qdata, base.indices, base.indptr), shape=base.shape)
        self.exp_bits = exp_bits
        self.frac_bits = frac_bits
        self.rounding = rounding
        self.truncate_vector = truncate_vector
        self.shape = base.shape

    def matvec(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if self.truncate_vector:
            x = quantize_ieee(x, self.exp_bits, self.frac_bits, rounding=self.rounding)
        return csr_matvec(self.A, x)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"TruncatedOperator(exp={self.exp_bits}, frac={self.frac_bits})"
