"""Sparse-matrix substrate: blocking, the BSR layout, statistics, gallery."""

from repro.sparse.blocked import BlockedMatrix, block_coordinates
from repro.sparse.bsr import BSRBlocks
from repro.sparse.stats import (
    condition_number,
    extreme_eigenvalues,
    is_symmetric,
    nnz_per_row,
)

__all__ = [
    "BSRBlocks",
    "BlockedMatrix",
    "block_coordinates",
    "condition_number",
    "extreme_eigenvalues",
    "is_symmetric",
    "nnz_per_row",
]
