"""Bit-exact functional simulation of fixed-point MVM in ReRAM (Fig. 2).

The hardware computes ``y = M^T x`` (wordlines driven by the vector, bitlines
accumulating down matrix columns) on unsigned integers by

1. bit-slicing the matrix into 1-bit conductance planes, one crossbar each;
2. streaming the vector in bit-serially (1-bit DAC), MSB first;
3. sampling each bitline (S/H), digitising (ADC), and reducing all partial
   sums with the shift-and-add pipeline.

This module reproduces that datapath exactly at the level of integer
arithmetic, including the per-step partial-sum sequence of the worked example
in Fig. 2, and reports the cycle count ``C_int = N_v + N_M - 1``.  It is the
ground-truth reference the ReFloat processing engine is verified against;
no CLI command or daemon path runs it.

Two execution modes produce identical integers: ``record_trace=True`` runs
the cycle-by-cycle shift-and-add schedule (the Fig. 2 reference); the
default fast path collapses both pipeline phases into one batched
contraction over all bit-planes — through BLAS in float64 whenever the
operand widths make that exact (<= 53 bits), in int64 otherwise.
``tests/test_fast_paths.py::TestCrossbarBatched`` diffs the two modes, and
``tests/test_hardware.py::TestCrossbar`` checks the fast path against an
integer matmul and the Fig. 2 worked example.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

import numpy as np

from repro.hardware.cost import fixed_point_mvm_cycles

__all__ = ["bit_slice", "CrossbarMVM", "integer_mvm"]


def bit_slice(values: np.ndarray, bits: int) -> np.ndarray:
    """Slice unsigned integers into 1-bit planes, MSB first.

    Returns an array of shape ``(bits,) + values.shape`` with entries in
    {0, 1}; plane ``k`` holds bit ``bits - 1 - k``.
    """
    values = np.asarray(values, dtype=np.uint64)
    if bits < 1 or bits > 63:
        raise ValueError(f"bits must be in [1, 63], got {bits}")
    if values.size and int(values.max()) >= (1 << bits):
        raise ValueError(f"value {int(values.max())} does not fit in {bits} bits")
    shifts = np.arange(bits - 1, -1, -1, dtype=np.uint64)
    shifts = shifts.reshape((bits,) + (1,) * values.ndim)
    return ((values[None, ...] >> shifts) & np.uint64(1)).astype(np.uint8)


@dataclass
class CrossbarMVM:
    """One fixed-point MVM on bit-sliced crossbars, with cycle accounting.

    Parameters
    ----------
    matrix : (m, n) unsigned integers (the block, already aligned).
    matrix_bits, vector_bits : widths N_M and N_v.
    record_trace : keep the per-cycle partial sums (the S/O sequence of
        Fig. 2) for inspection/tests.  Forces the cycle-by-cycle schedule;
        without it, :meth:`multiply` computes the identical integers with a
        single batched tensordot over all vector bit-planes.
    """

    matrix: np.ndarray
    matrix_bits: int
    vector_bits: int
    record_trace: bool = False
    trace: List[np.ndarray] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.matrix = np.asarray(self.matrix, dtype=np.uint64)
        if self.matrix.ndim != 2:
            raise ValueError("matrix must be 2-D")
        self.planes = bit_slice(self.matrix, self.matrix_bits)
        # Hoisted once: the planes as int64 (tensordot operand) and the
        # power-of-two weight of each vector bit-plane, MSB first.
        self._width = (self.matrix_bits + self.vector_bits
                       + int(self.matrix.shape[0]).bit_length())
        self._planes_flat = None
        if not self.record_trace:
            # Traced instances skip this (the cycle-accurate reference never
            # touches the batched operands); flipping record_trace off later
            # still works — the fast path builds them lazily on first use.
            self._build_batched_operands()

    def _build_batched_operands(self) -> None:
        """Hoist the fast path's contraction operands (built once).

        The batched fast path contracts vector planes against matrix planes
        as one flat matmul: (m, N_M * n) is the pre-transposed, pre-reshaped
        tensordot operand.  All partial sums are bounded by 2^width, so
        whenever width <= 53 the whole schedule is exact in float64 and can
        ride BLAS; wider (exotic) configurations fall back to exact int64.
        """
        m, n = self.matrix.shape
        flat = np.ascontiguousarray(
            self.planes.transpose(1, 0, 2).reshape(m, self.matrix_bits * n))
        self._vweights = (np.int64(1) << np.arange(
            self.vector_bits - 1, -1, -1, dtype=np.int64))
        self._mweights = (np.int64(1) << np.arange(
            self.matrix_bits - 1, -1, -1, dtype=np.int64))
        if self._width <= 53:
            self._planes_flat = flat.astype(np.float64)
            self._vweights_f = self._vweights.astype(np.float64)
            self._mweights_f = self._mweights.astype(np.float64)
        else:
            self._planes_flat = flat.astype(np.int64)

    @property
    def cycles(self) -> int:
        """Total pipeline cycles: input phase + cross-crossbar reduction."""
        return fixed_point_mvm_cycles(self.matrix_bits, self.vector_bits)

    def multiply(self, vector: np.ndarray) -> np.ndarray:
        """Compute ``y = M^T x`` exactly via the bit-serial schedule.

        The returned array is int64 (all intermediate values are exact;
        widths are validated to stay below 2^62).
        """
        vector = np.asarray(vector, dtype=np.uint64)
        if vector.shape != (self.matrix.shape[0],):
            raise ValueError(
                f"vector must have shape ({self.matrix.shape[0]},), got {vector.shape}"
            )
        vplanes = bit_slice(vector, self.vector_bits)
        if self._width > 62:
            raise ValueError("operand widths would overflow the exact int64 model")

        n_cols = self.matrix.shape[1]
        if self.record_trace:
            # Cycle-accurate reference: stream vector bits MSB-first (Phase 1,
            # cycles C1..C_Nv of Fig. 2); each crossbar k accumulates
            # S <- (S << 1) + O where O is the 1-bit dot product of the
            # current vector bit-plane with its matrix plane.
            self.trace = []
            per_plane = np.zeros((self.matrix_bits, n_cols), dtype=np.int64)
            for j in range(self.vector_bits):
                contrib = np.einsum("i,kij->kj", vplanes[j].astype(np.int64),
                                    self.planes.astype(np.int64))
                per_plane = (per_plane << 1) + contrib
                self.trace.append(per_plane.copy())
            total = np.zeros(n_cols, dtype=np.int64)
            for k in range(self.matrix_bits):
                total = (total << 1) + per_plane[k]
                self.trace.append(total.copy())
            return total
        # Fast path: all the Phase-1 shift-and-adds collapse into one batched
        # integer tensordot over every vector bit-plane at once — plane j
        # carries weight 2^(N_v - 1 - j), so the weighted contraction equals
        # the bit-serial accumulator exactly; Phase 2 collapses the same way
        # with the matrix-plane weights (all values are exact int64).
        return self._batched(vplanes[:, None, :])[0]

    def _batched(self, vplanes: np.ndarray) -> np.ndarray:
        """The collapsed bit-serial schedule for ``(N_v, B, m)`` bit-planes.

        One matmul against the pre-reshaped matrix planes replaces the
        per-bit loop; the two weighted contractions reproduce the Phase-1
        and Phase-2 shift-and-add pipelines.  Every partial sum stays below
        ``2^width``, so the float64/BLAS route (width <= 53) is bit-exact —
        identical integers to the int64 route, just much faster.
        """
        if self._planes_flat is None:
            self._build_batched_operands()
        n_v, batch, m = vplanes.shape
        n_cols = self.matrix.shape[1]
        if self._width <= 53:
            contrib = (vplanes.reshape(n_v * batch, m).astype(np.float64)
                       @ self._planes_flat)             # (N_v*B, N_M*n_cols)
            per_plane = self._vweights_f @ contrib.reshape(n_v, -1)
            per_plane = per_plane.reshape(batch, self.matrix_bits, n_cols)
            return (self._mweights_f @ per_plane).astype(np.int64)
        contrib = (vplanes.reshape(n_v * batch, m).astype(np.int64)
                   @ self._planes_flat)                 # (N_v*B, N_M*n_cols)
        contrib = contrib.reshape(n_v, batch, self.matrix_bits, n_cols)
        per_plane = np.tensordot(self._vweights, contrib, axes=([0], [0]))
        return np.tensordot(self._mweights, per_plane, axes=([0], [1]))

    def multiply_batch(self, vectors: np.ndarray) -> np.ndarray:
        """Batched :meth:`multiply`: ``(B, m)`` vectors to ``(B, n)`` results.

        Bit-identical to calling :meth:`multiply` per row, but one flat
        integer contraction serves the whole batch — the engine's four
        sign-quadrant MVMs ride through here in two calls.  Not available
        with ``record_trace`` (the trace is inherently per-vector).
        """
        if self.record_trace:
            raise ValueError("multiply_batch does not record traces; "
                             "use multiply per vector")
        vectors = np.asarray(vectors, dtype=np.uint64)
        if vectors.ndim != 2 or vectors.shape[1] != self.matrix.shape[0]:
            raise ValueError(
                f"vectors must have shape (B, {self.matrix.shape[0]}), "
                f"got {vectors.shape}")
        if self._width > 62:
            raise ValueError("operand widths would overflow the exact int64 model")
        return self._batched(bit_slice(vectors, self.vector_bits))


def integer_mvm(matrix: np.ndarray, vector: np.ndarray,
                matrix_bits: int, vector_bits: int) -> Tuple[np.ndarray, int]:
    """Convenience wrapper: exact bit-serial ``M^T x`` plus cycle count."""
    engine = CrossbarMVM(matrix, matrix_bits, vector_bits)
    return engine.multiply(vector), engine.cycles
