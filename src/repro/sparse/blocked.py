"""Block partitioning of sparse matrices (the granularity of ReRAM compute).

A :class:`BlockedMatrix` partitions a CSR matrix into ``2^b x 2^b`` square
blocks — the unit mapped onto one crossbar cluster — and exposes the
partition through an index-only :class:`repro.sparse.bsr.BSRBlocks` view
(``.bsr``): block ``indptr``/``indices`` plus ``block_of_nnz``, the block of
each canonical-CSR nonzero.  Values stay in the canonical CSR (``.A``), so
the partition costs O(nnz) memory however sparse its blocks are.
Everything block-granular derives from the CSR through that view, fully
vectorised:

* the per-block optimal ReFloat exponent base ``eb`` (Eq. 5) and the exact
  per-block exponent spread (the "locality" of Fig. 3d) — per-block
  reductions of the per-nonzero exponents over ``block_of_nnz``;
* ``dense_block`` — one tile built on demand from the block's nonzeros
  (what one crossbar cluster holds);
* the ReFloat-quantised matrix as a plain CSR with the same sparsity
  pattern (functionally what the crossbars compute, see Eq. 9), via a
  single per-nonzero gather of the block bases;
* storage/occupancy statistics used by the accelerator mapping and the
  Table VIII memory accounting.

The block-grouping arrays (``order``, ``group_starts``, ``block_nnz``)
remain for ``dense_block`` and for cross-checking; on a store attach they
are derived lazily from the BSR view instead of being persisted.
"""

from __future__ import annotations

from functools import cached_property
from typing import Tuple

import numpy as np
import scipy.sparse as sp

from repro.formats import ieee
from repro.formats.refloat import ReFloatSpec, quantize_values
from repro.sparse.bsr import BSRBlocks
from repro.util.validation import check_nonnegative_int

__all__ = ["BlockedMatrix", "block_coordinates", "canonical_csr"]


def canonical_csr(A) -> sp.csr_matrix:
    """A float64 CSR copy of ``A`` with duplicates summed, explicit zeros
    eliminated and column indices sorted.  ``A`` itself is never modified
    (``sp.csr_matrix`` alone would share a float64 CSR's arrays)."""
    A = sp.csr_matrix(A, dtype=np.float64, copy=True)
    A.sum_duplicates()
    A.eliminate_zeros()
    A.sort_indices()
    return A


def block_coordinates(A: sp.csr_matrix, b: int) -> Tuple[np.ndarray, np.ndarray]:
    """Per-nonzero (block-row, block-col) coordinates of a CSR matrix."""
    A = sp.csr_matrix(A)
    rows = np.repeat(np.arange(A.shape[0], dtype=np.int64), np.diff(A.indptr))
    cols = A.indices.astype(np.int64)
    return rows >> b, cols >> b


class BlockedMatrix:
    """A sparse matrix partitioned into ``2^b x 2^b`` blocks.

    Parameters
    ----------
    A : scipy sparse matrix
        Converted to canonical CSR (duplicates summed, indices sorted).
        Explicit zeros are eliminated — they would otherwise occupy crossbar
        cells and distort exponent statistics.
    b : int
        log2 of the block edge (paper: 7, i.e. 128x128 crossbars).
    """

    def __init__(self, A, b: int = 7):
        b = check_nonnegative_int(b, "b")
        if b > 12:
            raise ValueError(f"b must be <= 12, got {b}")
        A = canonical_csr(A)
        if not np.all(np.isfinite(A.data)):
            raise ValueError("matrix contains non-finite values")
        self.A = A
        self.b = b
        n_rows, n_cols = A.shape
        self.block_grid = (-(-n_rows // (1 << b)), -(-n_cols // (1 << b)))

        bi, bj = block_coordinates(A, b)
        key = bi * self.block_grid[1] + bj
        # Stable permutation of nonzeros into block-grouped order.
        order = np.argsort(key, kind="stable")
        sorted_key = key[order]
        if sorted_key.size:
            boundaries = np.flatnonzero(np.diff(sorted_key)) + 1
            group_starts = np.concatenate(([0], boundaries))
            self.block_keys = sorted_key[group_starts]
            block_nnz = np.diff(np.concatenate((group_starts,
                                                [sorted_key.size])))
        else:
            group_starts = np.zeros(0, dtype=np.int64)
            self.block_keys = np.zeros(0, dtype=np.int64)
            block_nnz = np.zeros(0, dtype=np.int64)
        self._order_arr = order
        self._group_starts_arr = group_starts
        self._block_nnz_arr = block_nnz

    # ------------------------------------------------------------------
    # The contiguous layout and the (lazily derivable) grouping arrays.

    @cached_property
    def bsr(self) -> BSRBlocks:
        """The index-only BSR view — every block consumer's block structure.

        Built once per partition (O(nnz) integers); a store-attached
        partition arrives with this view pre-populated from the
        memory-mapped index arrays, so nothing is rebuilt.
        """
        return BSRBlocks.from_partition(self.A, self.b, self.block_grid,
                                        self.order, self.block_keys,
                                        self.block_nnz)

    @property
    def order(self) -> np.ndarray:
        """Stable permutation of nonzeros into block-grouped order."""
        if self._order_arr is None:
            # Stable argsort of the per-nonzero block index gives the same
            # permutation as the original block-key argsort (the block index
            # is the rank of the key — a monotone relabelling).
            self._order_arr = np.argsort(self.bsr.block_of_nnz, kind="stable")
        return self._order_arr

    @property
    def group_starts(self) -> np.ndarray:
        if self._group_starts_arr is None:
            block_nnz = self.block_nnz
            self._group_starts_arr = (
                np.concatenate(([0], np.cumsum(block_nnz)[:-1]))
                if block_nnz.size else np.zeros(0, dtype=np.int64))
        return self._group_starts_arr

    @property
    def block_nnz(self) -> np.ndarray:
        if self._block_nnz_arr is None:
            self._block_nnz_arr = self.bsr.block_nnz
        return self._block_nnz_arr

    @classmethod
    def from_bsr(cls, A: sp.csr_matrix, bsr: BSRBlocks) -> "BlockedMatrix":
        """Attach a partition to a prebuilt :class:`BSRBlocks` view.

        The asset-store load path: ``A`` is the canonical CSR (values and
        in-block positions) and ``bsr`` the memory-mapped index layout.
        The grouping arrays (``order``, ``group_starts``, ...) derive
        lazily on first access; the hot paths (quantisation, the engine)
        never need them, and ``dense_block`` derives them on first use.
        """
        nnz = int(A.nnz)
        if bsr.shape != tuple(A.shape):
            raise ValueError(
                f"BSR layout is for shape {bsr.shape}, matrix is {A.shape}")
        if bsr.nnz != nnz:
            raise ValueError(
                f"BSR layout holds {bsr.nnz} nonzeros, matrix has {nnz}")
        self = object.__new__(cls)
        self.A = A
        self.b = bsr.b
        self.block_grid = bsr.block_grid
        self.block_keys = (bsr.block_rows * bsr.block_grid[1]
                           + bsr.indices.astype(np.int64))
        self._order_arr = None
        self._group_starts_arr = None
        self._block_nnz_arr = None
        self.__dict__["bsr"] = bsr
        return self

    # ------------------------------------------------------------------
    @property
    def shape(self) -> Tuple[int, int]:
        return self.A.shape

    @property
    def nnz(self) -> int:
        return int(self.A.nnz)

    @property
    def block_size(self) -> int:
        return 1 << self.b

    @property
    def n_blocks(self) -> int:
        """Number of occupied (nonzero) blocks = crossbar clusters required."""
        return int(self.block_keys.size)

    def block_coords(self) -> Tuple[np.ndarray, np.ndarray]:
        """(block-row, block-col) arrays of the occupied blocks."""
        nbc = self.block_grid[1]
        return self.block_keys // nbc, self.block_keys % nbc

    def dense_block(self, bi: int, bj: int) -> np.ndarray:
        """One ``2^b x 2^b`` dense block, zero-padded at ragged edges.

        This is exactly what a single crossbar cluster holds — the unit a
        :class:`repro.hardware.engine.ProcessingEngine` consumes.  A binary
        search in the block row finds the block; its nonzeros (an
        ``order``/``group_starts`` slice of the canonical CSR) are written
        into a fresh zero tile.  Unoccupied blocks come back as zeros.
        """
        size = self.block_size
        nbr, nbc = self.block_grid
        if not (0 <= bi < nbr and 0 <= bj < nbc):
            raise IndexError(f"block ({bi}, {bj}) outside grid {self.block_grid}")
        tile = np.zeros((size, size), dtype=np.float64)
        bsr = self.bsr
        lo, hi = int(bsr.indptr[bi]), int(bsr.indptr[bi + 1])
        pos = lo + int(np.searchsorted(bsr.indices[lo:hi], bj))
        if pos < hi and int(bsr.indices[pos]) == bj:
            start = int(self.group_starts[pos])
            nz = self.order[start:start + int(self.block_nnz[pos])]
            rows = np.searchsorted(self.A.indptr, nz, side="right") - 1
            tile[rows & (size - 1), self.A.indices[nz] & (size - 1)] = \
                self.A.data[nz]
        return tile

    # ------------------------------------------------------------------
    @cached_property
    def _exponents(self) -> np.ndarray:
        _, exp, _ = ieee.decompose(self.A.data)
        return exp

    @cached_property
    def _block_exp_extrema(self) -> Tuple[np.ndarray, np.ndarray]:
        """Per-block (max, min) stored exponent of the block's nonzeros.

        ``np.maximum.at`` / ``np.minimum.at`` of the cached per-nonzero
        exponents over ``bsr.block_of_nnz`` — no grouping sort.  The IEEE
        exponent is monotone in magnitude (with subnormals mapping to the
        ``EXP_ZERO`` sentinel below every normal exponent, exactly as
        :func:`repro.formats.ieee.decompose` reports them), so these are
        also the exponents of the blockwise extreme magnitudes.
        """
        if self.n_blocks == 0:
            empty = np.zeros(0, dtype=np.int64)
            return empty, empty
        exps = self._exponents
        g = self.bsr.block_of_nnz
        mx = np.full(self.n_blocks, np.iinfo(exps.dtype).min, exps.dtype)
        mn = np.full(self.n_blocks, np.iinfo(exps.dtype).max, exps.dtype)
        np.maximum.at(mx, g, exps)
        np.minimum.at(mn, g, exps)
        return mx.astype(np.int64), mn.astype(np.int64)

    @cached_property
    def block_eb(self) -> np.ndarray:
        """Per-block Eq. 5 exponent base (round of mean), block-grouped order.

        The exponent sums accumulate per block via ``bincount`` over the BSR
        per-nonzero block index — every partial sum is an exact integer in
        float64, so the result is bit-identical to any other summation order
        over the same per-block exponent multisets.
        """
        if self.nnz == 0:
            return np.zeros(0, dtype=np.int32)
        sums = np.bincount(self.bsr.block_of_nnz,
                           weights=self._exponents.astype(np.float64),
                           minlength=self.n_blocks)
        means = sums / self.block_nnz
        return np.floor(means + 0.5).astype(np.int32)

    def exponent_bases(self, e: int, policy: str = "cover") -> np.ndarray:
        """Per-block exponent base under a policy (see ``ReFloatSpec.eb_policy``)."""
        if policy == "mean":
            return self.block_eb
        if policy != "cover":
            raise ValueError(f"policy must be 'cover' or 'mean', got {policy!r}")
        if self.nnz == 0:
            return np.zeros(0, dtype=np.int32)
        mx, _ = self._block_exp_extrema
        hi = (1 << (e - 1)) - 1 if e > 0 else 0
        return (mx - hi).astype(np.int32)

    @cached_property
    def block_exponent_range(self) -> np.ndarray:
        """Per-block (max - min) exponent spread, block-grouped order."""
        if self.nnz == 0:
            return np.zeros(0, dtype=np.int32)
        mx, mn = self._block_exp_extrema
        return (mx - mn).astype(np.int32)

    def per_nnz_eb(self, e: int = 3, policy: str = "cover") -> np.ndarray:
        """Exponent base of each nonzero's block, in CSR nonzero order.

        One gather through the BSR per-nonzero block index (the old path
        expanded the bases with ``repeat`` and inverse-permuted them)."""
        bases = self.exponent_bases(e, policy)
        if self.nnz == 0:
            return np.zeros(0, dtype=np.int32)
        return bases[self.bsr.block_of_nnz]

    def locality_bits(self) -> int:
        """Fig. 3d "locality": offset bits covering every block's exponent range.

        A block whose exponents span ``range = max - min`` binades is covered
        exactly by an ``e``-bit offset window when ``range <= 2^e - 1``; the
        matrix locality is the smallest such ``e`` over all blocks (>= 1).
        The paper's suite measures at most 7 binades per block, i.e. locality
        <= 3 — which is why ``e = 3`` loses nothing on exponents.
        """
        if self.nnz == 0:
            return 1
        max_range = int(self.block_exponent_range.max())
        e = 1
        while ((1 << e) - 1) < max_range:
            e += 1
        return e

    def matrix_exponent_bits(self) -> int:
        """Bits to cover the whole-matrix exponent span (the FP64 bar of Fig. 3d
        is 11; real matrices typically need fewer but we report the exact need)."""
        if self.nnz == 0:
            return 1
        exps = self._exponents
        span = int(exps.max()) - int(exps.min())
        bits = 1
        while ((1 << bits) - 1) < span:
            bits += 1
        return bits

    # ------------------------------------------------------------------
    def quantize(self, spec: ReFloatSpec) -> sp.csr_matrix:
        """Materialise the ReFloat-quantised matrix (same sparsity, new values).

        Functionally this *is* what the accelerator computes: by Eq. 9 the
        block MVMs with shared bases reproduce ``~A x`` where ``~A`` holds the
        per-block quantised values.  Symmetric inputs stay symmetric because
        blocks (i, j) and (j, i) see identical value multisets.
        """
        if spec.b != self.b:
            raise ValueError(
                f"spec block size 2^{spec.b} does not match partition 2^{self.b}"
            )
        qdata, _ = quantize_values(
            self.A.data, spec.e, spec.f,
            eb=self.per_nnz_eb(spec.e, spec.eb_policy),
            rounding=spec.rounding, underflow=spec.underflow,
        )
        Q = sp.csr_matrix((qdata, self.A.indices.copy(), self.A.indptr.copy()),
                          shape=self.A.shape)
        return Q

    def quantization_error(self, spec: ReFloatSpec) -> dict:
        """Elementwise relative-error statistics of :meth:`quantize`."""
        Q = self.quantize(spec)
        rel = np.abs(Q.data - self.A.data) / np.abs(self.A.data)
        return {
            "max_rel": float(rel.max()) if rel.size else 0.0,
            "mean_rel": float(rel.mean()) if rel.size else 0.0,
            "frobenius_rel": float(
                np.linalg.norm(Q.data - self.A.data) / np.linalg.norm(self.A.data)
            ) if rel.size else 0.0,
        }

    # ------------------------------------------------------------------
    def storage_bits_refloat(self, spec: ReFloatSpec) -> int:
        """Total bits to store the matrix in ReFloat format (Sec. IV-A accounting).

        Per nonzero: 2 in-block index fields of ``b`` bits each plus the
        ``1 + e + f`` value bits.  Per occupied block: two ``(32 - b)``-bit
        block indices plus the 11-bit exponent base.
        """
        if spec.b != self.b:
            raise ValueError("spec.b must match the partition b")
        per_nnz = 2 * self.b + spec.matrix_value_bits
        per_block = 2 * (32 - self.b) + 11
        return int(self.nnz * per_nnz + self.n_blocks * per_block)

    def storage_bits_double(self) -> int:
        """Bits for the COO double-precision baseline: 32+32 index + 64 value."""
        return int(self.nnz * (32 + 32 + 64))

    def occupancy_stats(self) -> dict:
        """Block-occupancy summary (drives the accelerator mapping rounds)."""
        if self.n_blocks == 0:
            return {"n_blocks": 0, "mean_nnz": 0.0, "max_nnz": 0, "density": 0.0}
        return {
            "n_blocks": self.n_blocks,
            "mean_nnz": float(self.block_nnz.mean()),
            "max_nnz": int(self.block_nnz.max()),
            "density": float(self.block_nnz.mean()) / (self.block_size ** 2),
        }
