"""The ReFloat SpMV operator (Eq. 9 as a functional platform model).

The matrix is block-partitioned and quantised **once** (matrix values never
change during the solve); the input vector is quantised **per apply** through
the vector converter (Fig. 6d) — exactly the accelerator's dataflow.  The
arithmetic equivalence is Eq. 9: per-block fixed-point MVMs scaled by
``2^(eb + ebv)`` reproduce the FP64 product of the *quantised* values, so the
functional model is ``y = ~A @ ~x`` computed in FP64 (the engine's output and
accumulation precision).  Bit-exactness of this shortcut against the
crossbar-level datapath is verified in :mod:`repro.hardware.engine` tests.

Hot path: ``matvec`` converts through a cached
:class:`repro.formats.refloat.VectorConverterPlan`, so a solver iteration
re-derives no segment structure and allocates nothing for the conversion
(the plan's per-thread scratch buffers are reused).  The SpMV then calls
scipy's compiled CSR kernel through :func:`repro.solvers.base.csr_matvec`,
skipping the ``@`` dispatch that costs more than the kernel at solver
sizes; the result is bit-identical to ``A @ xq``.  Callers that already
partitioned the matrix pass it via ``blocked=`` to skip the second partition
the constructor would otherwise redo.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.formats.refloat import (
    DEFAULT_SPEC,
    ReFloatSpec,
    vector_converter_plan,
)
from repro.solvers.base import csr_matvec
from repro.sparse.blocked import BlockedMatrix
from repro.sparse.mmio import csr_from_arrays

__all__ = ["ReFloatOperator"]


class ReFloatOperator:
    """SpMV in ``ReFloat(b, e, f)(ev, fv)``.

    Parameters
    ----------
    A : sparse matrix
        The FP64 system matrix.  May be ``None`` when ``blocked`` is given.
    spec : ReFloatSpec
        Bit configuration (paper default ``ReFloat(7,3,3)(3,8)``).
    blocked : BlockedMatrix, optional
        A prebuilt block partition of ``A`` (must use ``b == spec.b``).
        Passing it avoids re-partitioning the same matrix — ``run_matrix``
        already holds one for its own accounting.
    quantized : ndarray, optional
        The pre-quantised matrix values, e.g. reloaded from the persistent
        asset store: a 1-D ``(nnz,)`` array in canonical CSR order, exactly
        ``blocked.quantize(spec).data``.  Skips the quantisation pass; the
        caller vouches that the data matches ``(blocked, spec)`` (the store
        checksums it and keys it by spec).  Only valid together with
        ``blocked``.

    Attributes
    ----------
    A : csr_matrix
        The quantised matrix ``~A`` (what the crossbars hold).
    exact : csr_matrix
        The original FP64 matrix.
    blocked : BlockedMatrix
        Block partition with per-block exponent bases.
    """

    def __init__(self, A, spec: ReFloatSpec = DEFAULT_SPEC,
                 blocked: Optional[BlockedMatrix] = None,
                 quantized: Optional[np.ndarray] = None):
        self.spec = spec
        if blocked is None:
            if quantized is not None:
                raise ValueError("quantized= requires a blocked= partition")
            blocked = BlockedMatrix(A, b=spec.b)
        elif blocked.b != spec.b:
            raise ValueError(
                f"blocked partition uses b={blocked.b}, spec requires b={spec.b}"
            )
        self.blocked = blocked
        self.exact = self.blocked.A
        if quantized is not None:
            if quantized.shape != self.exact.data.shape:
                raise ValueError(
                    f"quantized data has {quantized.shape[0]} values, "
                    f"matrix has {self.exact.nnz} nonzeros")
            self.A = csr_from_arrays(quantized, self.exact.indices,
                                     self.exact.indptr, self.exact.shape,
                                     canonical=True)
        else:
            self.A = self.blocked.quantize(spec)
        self.shape = self.A.shape
        self._plan = vector_converter_plan(self.shape[1], spec)

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """Quantise the vector segment-wise, multiply by the quantised matrix.

        The conversion runs through the cached plan's scratch buffers; only
        the SpMV output is a fresh array.
        """
        xq, _ = self._plan.convert(np.asarray(x, dtype=np.float64))
        return csr_matvec(self.A, xq)

    def matmat(self, X: np.ndarray) -> np.ndarray:
        """Batched :meth:`matvec`: quantise and multiply ``k`` columns at once.

        One plan-backed batch conversion plus one sparse SpMM serve every
        right-hand side; column ``j`` is bit-identical to ``matvec(X[:, j])``
        (CSR accumulates each output element over the same index order in
        both kernels — asserted by the fast-path tests).
        """
        Xq, _ = self._plan.convert_batch(np.asarray(X, dtype=np.float64))
        return self.A @ Xq

    def quantize_input_batch(self, X: np.ndarray, reuse: bool = False) -> np.ndarray:
        """Batched :meth:`quantize_input` — ``(n, k)`` columns at once.

        ``reuse=True`` returns the plan's per-thread batch scratch buffer
        (overwritten by the next batch conversion of the same width on this
        thread) for hot-path wrapping operators.
        """
        Xq, _ = self._plan.convert_batch(np.asarray(X, dtype=np.float64),
                                         reuse=reuse)
        return Xq

    def quantize_input(self, x: np.ndarray, reuse: bool = False) -> np.ndarray:
        """The vector the crossbars actually see (for diagnostics).

        ``reuse=True`` returns the plan's per-thread scratch buffer —
        overwritten by the next conversion on this thread — for hot-path
        callers (e.g. wrapping operators) that consume it immediately.
        """
        xq, _ = self._plan.convert(np.asarray(x, dtype=np.float64), reuse=reuse)
        return xq

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ReFloatOperator({self.spec}, shape={self.shape})"
