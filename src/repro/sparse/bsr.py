"""Index-only block-sparse-row (BSR) layout — the single block representation.

A :class:`BSRBlocks` describes every occupied ``2^b x 2^b`` block of a
sparse matrix with the classic BSR index arrays (block ``indptr`` over
block rows, block column ``indices``, mirroring the fealpy ``BSRMatrix``
layout) plus one per-nonzero array, :attr:`BSRBlocks.block_of_nnz`: the
block index ``g`` of each nonzero of the canonical CSR matrix, in CSR
order.  It holds no values.  A nonzero's value and in-block position
(``row & (2^b - 1)``, ``col & (2^b - 1)``) already live in the canonical
CSR, so the layout costs O(nnz) integers however sparse the blocks are —
the Sec. IV-A format likewise charges in-block indices per nonzero, not
per cell.  Every block consumer reads the CSR through it:

* :class:`repro.sparse.blocked.BlockedMatrix` reduces the per-nonzero
  exponents over ``block_of_nnz`` for its block statistics and builds
  ``dense_block`` tiles on demand;
* :class:`repro.hardware.engine.BlockedEngine` writes its signed cells at
  ``(block_of_nnz, row & m, col & m)``;
* the asset store (:mod:`repro.experiments.store`) persists the three index
  arrays next to the canonical CSR, so a warm attach memory-maps O(nnz)
  arrays and reassembles nothing.

Blocks are addressed in block-row-major order of the *occupied* blocks
only (the same order ``BlockedMatrix.block_keys`` always used), so block
index ``g`` means the same block everywhere.
"""

from __future__ import annotations

from functools import cached_property
from typing import Tuple

import numpy as np
import scipy.sparse as sp

from repro.util.validation import check_nonnegative_int

__all__ = ["BSRBlocks"]


class BSRBlocks:
    """Occupied blocks of a ``2^b``-partitioned sparse matrix, index only.

    Parameters
    ----------
    b : int
        log2 of the (square) block edge.
    shape : (n_rows, n_cols)
        Shape of the underlying matrix (blocks at ragged edges are partial).
    indptr : (n_block_rows + 1,) integer ndarray
        Block-row pointer into ``indices`` (classic BSR).
    indices : (n_blocks,) integer ndarray
        Block-column index of each occupied block, ascending within each
        block row.
    block_of_nnz : (nnz,) integer ndarray
        For each nonzero of the canonical CSR matrix, in CSR order, the
        index ``g`` of its block — the bridge from the CSR's values and
        in-block positions to the block structure.
    checked : bool
        Run the always-on structural validation (shapes, bounds, sorted
        block columns).  Constructors that just built the arrays pass
        ``False``; anything attaching to external data (the asset store)
        keeps the default.  :meth:`check_matches` is the deeper check
        against the matrix itself.

    All arrays may be read-only (e.g. memory-mapped); nothing here writes
    to them.
    """

    def __init__(self, b: int, shape: Tuple[int, int], indptr: np.ndarray,
                 indices: np.ndarray, block_of_nnz: np.ndarray,
                 checked: bool = True):
        self.b = check_nonnegative_int(b, "b")
        self.shape = (int(shape[0]), int(shape[1]))
        self.indptr = indptr
        self.indices = indices
        self.block_of_nnz = block_of_nnz
        if checked:
            self._check_structure()

    # ------------------------------------------------------------------
    @property
    def block_size(self) -> int:
        return 1 << self.b

    @property
    def n_blocks(self) -> int:
        return int(self.indices.shape[0])

    @property
    def nnz(self) -> int:
        return int(self.block_of_nnz.shape[0])

    @property
    def block_grid(self) -> Tuple[int, int]:
        size = self.block_size
        return (-(-self.shape[0] // size), -(-self.shape[1] // size))

    @cached_property
    def block_rows(self) -> np.ndarray:
        """Block-row index of each occupied block (expanded from ``indptr``)."""
        nbr = self.indptr.shape[0] - 1
        return np.repeat(np.arange(nbr, dtype=np.int64),
                         np.diff(self.indptr.astype(np.int64)))

    @cached_property
    def block_nnz(self) -> np.ndarray:
        """Nonzero count of each occupied block."""
        return np.bincount(self.block_of_nnz,
                           minlength=self.n_blocks).astype(np.int64)

    # ------------------------------------------------------------------
    def _check_structure(self) -> None:
        """Cheap always-on consistency checks (O(nnz) scans, no sorting)."""
        nbr, nbc = self.block_grid
        G = self.n_blocks
        for name in ("indptr", "indices", "block_of_nnz"):
            arr = getattr(self, name)
            if arr.ndim != 1 or not np.issubdtype(arr.dtype, np.integer):
                raise ValueError(
                    f"{name} must be a 1-D integer array, got "
                    f"{arr.dtype}{arr.shape}")
        if self.indptr.shape[0] != nbr + 1:
            raise ValueError(
                f"indptr must have {nbr + 1} entries for {nbr} block rows, "
                f"got {self.indptr.shape[0]}")
        if int(self.indptr[0]) != 0 or int(self.indptr[-1]) != G:
            raise ValueError(
                f"indptr must run from 0 to n_blocks={G}, got "
                f"[{int(self.indptr[0])}, {int(self.indptr[-1])}]")
        diffs = np.diff(self.indptr.astype(np.int64))
        if diffs.size and int(diffs.min()) < 0:
            raise ValueError("indptr must be non-decreasing")
        if G and (int(self.indices.min()) < 0
                  or int(self.indices.max()) >= nbc):
            raise ValueError(
                f"block columns must lie in [0, {nbc}), got "
                f"[{int(self.indices.min())}, {int(self.indices.max())}]")
        # Ascending block columns within each block row (binary search in
        # dense_block depends on it): adjacent pairs must increase except
        # across block-row boundaries.
        if G > 1:
            idx = self.indices.astype(np.int64)
            same_row = np.diff(self.block_rows) == 0
            if bool((np.diff(idx)[same_row] <= 0).any()):
                raise ValueError(
                    "block columns must be strictly ascending within each "
                    "block row")
        g = self.block_of_nnz
        if self.nnz and (int(g.min()) < 0 or int(g.max()) >= G):
            raise ValueError(
                f"block_of_nnz entries must lie in [0, {G}), got "
                f"[{int(g.min())}, {int(g.max())}]")

    def check_matches(self, A: sp.csr_matrix) -> None:
        """Require the layout to describe ``A``'s occupied blocks exactly.

        Recomputes each nonzero's ``(row >> b, col >> b)`` and requires it
        to equal ``(block_rows[g], indices[g])`` for its ``g`` in
        :attr:`block_of_nnz`, and every block to hold a nonzero.  ``A`` is
        the canonical CSR the layout indexes.  O(nnz) — run under
        ``store_verify``, not on every attach.
        """
        if tuple(A.shape) != self.shape or int(A.nnz) != self.nnz:
            raise ValueError(
                f"layout is for {self.shape} with {self.nnz} nonzeros, "
                f"matrix is {A.shape} with {A.nnz}")
        g = self.block_of_nnz
        rows = np.repeat(np.arange(A.shape[0], dtype=np.int64),
                         np.diff(A.indptr))
        if not (np.array_equal(rows >> self.b, self.block_rows[g])
                and np.array_equal(A.indices >> self.b, self.indices[g])):
            raise ValueError("block_of_nnz puts a nonzero in the wrong block")
        if self.n_blocks and int(self.block_nnz.min()) == 0:
            raise ValueError("the layout lists a block with no nonzero")

    # ------------------------------------------------------------------
    @classmethod
    def from_partition(cls, A: sp.csr_matrix, b: int,
                       block_grid: Tuple[int, int], order: np.ndarray,
                       block_keys: np.ndarray, block_nnz: np.ndarray,
                       ) -> "BSRBlocks":
        """Build the layout from a :class:`BlockedMatrix` partition.

        ``A`` must be the canonical CSR (sorted, duplicate-free) the
        partition was computed from; ``order``/``block_keys``/``block_nnz``
        are its block-grouping arrays.  The resulting block order is the
        ascending-``block_keys`` order, i.e. block-row-major over occupied
        blocks — identical to the partition's group order, so per-block
        quantities (exponent bases, engine cells) index both the same way.
        ``block_of_nnz`` takes ``A``'s index dtype: it always fits, because
        there are never more blocks than nonzeros.
        """
        nbr, nbc = block_grid
        G = int(block_keys.shape[0])
        block_keys = block_keys.astype(np.int64)
        indptr = np.zeros(nbr + 1, dtype=np.int64)
        np.cumsum(np.bincount(block_keys // nbc, minlength=nbr),
                  out=indptr[1:])
        block_of_nnz = np.empty(int(A.nnz), dtype=A.indices.dtype)
        block_of_nnz[order] = np.repeat(
            np.arange(G, dtype=A.indices.dtype), block_nnz)
        return cls(b, A.shape, indptr, block_keys % nbc, block_of_nnz,
                   checked=False)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"BSRBlocks(b={self.b}, shape={self.shape}, "
                f"n_blocks={self.n_blocks}, nnz={self.nnz})")
