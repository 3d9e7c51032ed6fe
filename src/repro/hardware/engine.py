"""Bit-exact ReFloat processing engine (Fig. 6b/6c datapath).

A processing engine multiplies one ReFloat matrix block with one vector
segment.  This module reproduces the integer-domain datapath:

* matrix elements become ``(2^e + f)``-bit aligned integers
  ``(2^f + frac) << (offset - lo)`` on two sign-quadrant crossbar clusters;
* vector elements become ``(2^ev + fv)``-bit fixed-point integers from the
  DAC path of :func:`repro.formats.refloat.quantize_vector`;
* four quadrant MVMs run on the bit-serial crossbar model and are combined
  as ``(P+ x+ + P- x-) - (P+ x- + P- x+)`` (the ④→⑤ subtraction);
* the integer result is rescaled by ``2^(eb + lo - f) * 2^(ebv + lo_v - fv)``
  — the ⑦+⑧ exponent add — giving the double-precision output ⑨.

Because every step is exact integer arithmetic within 2^53, the engine output
equals the FP64 shortcut ``~A_c @ ~x_c`` *bit for bit*; that equivalence is
what licenses :class:`repro.operators.ReFloatOperator`'s fast path.  The one
conversion the integer datapath cannot express is an *exact-grid* segment
(near-lossless vector configs or very tiny values, where the segment's ulp
exponent falls below the binary64 normal range and the converter passes
values through unquantised) — the engines reject it with ``ValueError``
rather than round it silently; the FP64 shortcut handles it exactly.

No CLI command or daemon path runs an engine: both are differential
oracles.  ``tests/test_hardware.py::TestEngine`` diffs
:class:`ProcessingEngine` against :func:`block_mvm_reference` (the FP64
shortcut for one block), and ``tests/test_fast_paths.py::TestBlockedEngine``
diffs :class:`BlockedEngine` against one :class:`ProcessingEngine` per block.

Hot-path architecture
---------------------
:class:`ProcessingEngine` hoists everything invariant across ``multiply``
calls into ``__init__``: the sign-quadrant :class:`CrossbarMVM` instances
(each construction bit-slices the block into ``N_M`` planes) are built once,
and the vector conversion goes through the cached
:class:`repro.formats.refloat.VectorConverterPlan`.  :class:`BlockedEngine`
extends the same bit-exact datapath to a whole :class:`BlockedMatrix`: all
occupied blocks are encoded once into a dense integer tensor and every
``multiply`` runs one batched integer contraction over all blocks — the
vectorised functional model of the accelerator's engine array.  Both
engines take one vector per call; multi-RHS applies (operator ``matmat``,
driven by the solve service's lockstep gang) run on the operators' FP64
shortcut that the engines are pinned against.
"""

from __future__ import annotations

import numpy as np

from repro.formats import ieee
from repro.formats.refloat import (
    ReFloatSpec,
    covering_exponent_base,
    offset_bounds,
    quantize_vector,
    vector_converter_plan,
)
from repro.hardware.cost import cycles_for_spec
from repro.hardware.crossbar import CrossbarMVM
from repro.sparse.blocked import BlockedMatrix

__all__ = ["ProcessingEngine", "BlockedEngine", "block_mvm_reference"]


def _aligned_cells(values: np.ndarray, eb, spec: ReFloatSpec):
    """Signed aligned integer cell values for nonzeros against base(s) ``eb``.

    The Fig. 6b matrix conversion both engines share: magnitude
    ``(2^f + frac) << (offset - lo)`` with the below-window flush keyed to
    the *unrounded* exponent (the datapath drops a value whose stored
    exponent sits below the window before any fraction rounding).  ``eb``
    may be a scalar (one block), a per-value array (all blocks at once), or
    ``None`` to derive the cover base from the values themselves.
    Returns ``(cells, eb)`` — int64 cells (negative for sign-bit-set values,
    0 for flushed ones) and the base(s) actually used.
    """
    lo, hi = offset_bounds(spec.e)
    sign, exp, frac = ieee.decompose(values)
    exp64 = exp.astype(np.int64)
    if eb is None:
        eb = covering_exponent_base(int(exp64.max()), spec.e)
    if spec.rounding == "truncate":
        qfrac = ieee.truncate_fraction(frac, spec.f)
        carry = np.zeros(values.shape, dtype=np.int64)
    else:
        qfrac, carry_b = ieee.round_fraction(frac, spec.f)
        carry = carry_b.astype(np.int64)
    eb64 = np.asarray(eb, dtype=np.int64)
    offset = np.clip(exp64 + carry - eb64, lo, hi)
    frac_small = (qfrac >> np.uint64(ieee.FRAC_BITS - spec.f)
                  if spec.f < ieee.FRAC_BITS else qfrac).astype(np.int64)
    mag = ((np.int64(1) << np.int64(spec.f)) + frac_small) << (offset - lo)
    if spec.underflow == "flush":
        mag = np.where((exp64 - eb64) < lo, np.int64(0), mag)
    return np.where(sign.astype(bool), -mag, mag), eb


class ProcessingEngine:
    """Bit-exact floating-point block MVM on the crossbar substrate.

    Parameters
    ----------
    block : (2^b, 2^b) dense float64 array
        One matrix block (zeros allowed; they map to zero conductance in
        every bit plane).
    spec : ReFloatSpec
    """

    def __init__(self, block: np.ndarray, spec: ReFloatSpec):
        block = np.asarray(block, dtype=np.float64)
        n = 1 << spec.b
        if block.shape != (n, n):
            raise ValueError(f"block must be ({n}, {n}), got {block.shape}")
        self.spec = spec
        self.block = block
        nz = block != 0.0
        pos = np.zeros(block.shape, dtype=np.uint64)
        neg = np.zeros(block.shape, dtype=np.uint64)
        if np.any(nz):
            # Shared sign-quadrant cell alignment; eb=None derives the cover
            # base over this block's nonzeros (what encode_values picks).
            cells, self.eb = _aligned_cells(block[nz], None, spec)
            pos[nz] = np.maximum(cells, 0).astype(np.uint64)
            neg[nz] = (-np.minimum(cells, 0)).astype(np.uint64)
        else:
            self.eb = 0
        self._pos, self._neg = pos, neg
        self.matrix_bits = (1 << spec.e) + spec.f
        self.vector_bits = (1 << spec.ev) + spec.fv
        # Hoisted: the two sign-quadrant crossbar stacks (each construction
        # bit-slices its matrix into N_M planes) and the vector plan.  The
        # four quadrant MVMs of `multiply` reuse these.
        self._mvm_pos = CrossbarMVM(self._pos, self.matrix_bits, self.vector_bits)
        self._mvm_neg = CrossbarMVM(self._neg, self.matrix_bits, self.vector_bits)
        self._plan = vector_converter_plan(n, spec)

    @property
    def cycles(self) -> int:
        """Eq. (3) latency of one block MVM."""
        return cycles_for_spec(self.spec)

    def multiply(self, segment: np.ndarray) -> np.ndarray:
        """One block MVM: returns the FP64 segment ``~A_c^T @ ~x_c``.

        (ReRAM computes the transpose product — wordlines are rows; callers
        orient blocks accordingly.)
        """
        spec = self.spec
        segment = np.asarray(segment, dtype=np.float64)
        if segment.size != self._plan.n:
            raise ValueError("segment must be exactly one block long")
        xq, ebv = self._plan.convert(segment)
        lo_v, hi_v = offset_bounds(spec.ev)
        ulp_exp = int(ebv[0]) + lo_v - spec.fv
        if ulp_exp < -1022:
            raise ValueError(
                f"segment ulp exponent {ulp_exp} is below the binary64 "
                "normal range (exact-grid passthrough): the fixed-point "
                "wordline model cannot represent this conversion — use the "
                "FP64 shortcut (block_mvm_reference / ReFloatOperator)")
        xint = np.rint(np.abs(xq) * np.ldexp(1.0, -ulp_exp)).astype(np.uint64)
        xpos = np.where(xq >= 0, xint, np.uint64(0))
        xneg = np.where(xq < 0, xint, np.uint64(0))

        # Four quadrant MVMs, two per sign-quadrant crossbar stack, batched.
        pp, pn = self._mvm_pos.multiply_batch(np.stack((xpos, xneg)))
        nn, np_ = self._mvm_neg.multiply_batch(np.stack((xneg, xpos)))
        signed = (pp + nn) - (pn + np_)

        lo, _ = offset_bounds(spec.e)
        scale_exp = (self.eb + lo - spec.f) + ulp_exp
        return signed.astype(np.float64) * np.ldexp(1.0, scale_exp)


class BlockedEngine:
    """Batched multi-block engine: every occupied block in one vectorised pass.

    The functional model of the accelerator's engine *array*: each occupied
    block of a :class:`BlockedMatrix` is one :class:`ProcessingEngine`, all
    operating in parallel on their row segment of the input vector, with the
    per-block outputs accumulated into the output column segments in block
    order.  ``multiply`` is bit-identical to running one
    :class:`ProcessingEngine` per occupied block (same accumulation order) —
    asserted by the fast-path tests — but performs a single integer
    ``einsum`` over a precomputed ``(n_blocks, 2^b, 2^b)`` signed-cell
    tensor instead of thousands of per-block bit-serial simulations.

    Exactness argument: the four sign-quadrant products combine as
    ``(P+ x+ + P- x-) - (P+ x- + P- x+) = (P+ - P-)^T (x+ - x-)``, and every
    quantity is an exact int64 (widths validated at construction), so
    storing the *signed* cells loses nothing.

    Like :class:`ProcessingEngine`, block exponent bases always use the
    ``"cover"`` policy (the hardware padding alignment), regardless of
    ``spec.eb_policy``.

    Memory: the dense int64 cell tensor is this class's own operand and
    costs ``8 * n_blocks * 4^b`` bytes — fine for the functional-simulation
    scales it targets.  The partition it reads stays index-only (O(nnz));
    production SpMV goes through :class:`repro.operators.ReFloatOperator`'s
    CSR shortcut and never builds a tile.
    """

    def __init__(self, blocked: BlockedMatrix, spec: ReFloatSpec):
        if spec.b != blocked.b:
            raise ValueError(
                f"spec block size 2^{spec.b} does not match partition 2^{blocked.b}"
            )
        self.blocked = blocked
        self.spec = spec
        self.matrix_bits = (1 << spec.e) + spec.f
        self.vector_bits = (1 << spec.ev) + spec.fv
        size = blocked.block_size
        width = self.matrix_bits + self.vector_bits + int(size).bit_length()
        if width > 62:
            raise ValueError("operand widths would overflow the exact int64 model")
        bsr = blocked.bsr
        self.block_rows = bsr.block_rows.astype(np.int64)
        self.block_cols = bsr.indices.astype(np.int64)
        lo, hi = offset_bounds(spec.e)
        self._lo = lo
        G = blocked.n_blocks
        #: Per-block cover exponent bases (block-grouped order).
        self.eb = blocked.exponent_bases(spec.e, "cover").astype(np.int64)
        cells = np.zeros((G, size, size), dtype=np.int64)
        if blocked.nnz:
            # per_nnz_eb would recompute exponent_bases; gather self.eb
            # (already the cover bases, block-grouped) per nonzero, then
            # write each signed cell at (its block, its in-block position).
            A = blocked.A
            g = bsr.block_of_nnz
            signed, _ = _aligned_cells(A.data, self.eb[g], spec)
            rows = np.repeat(np.arange(A.shape[0], dtype=np.int64),
                             np.diff(A.indptr))
            cells[g, rows & (size - 1), A.indices & (size - 1)] = signed
        self._cells = cells
        self._plan = vector_converter_plan(blocked.shape[0], spec)

    @property
    def n_engines(self) -> int:
        """Processing engines required (= occupied blocks)."""
        return int(self.blocked.n_blocks)

    @property
    def cycles(self) -> int:
        """Eq. (3) latency of one (parallel) block-MVM wave."""
        return cycles_for_spec(self.spec)

    def multiply(self, x: np.ndarray) -> np.ndarray:
        """Full SpMV ``~A^T @ ~x`` through every occupied block at once.

        ``x`` is indexed by matrix rows (the wordline side); the result is
        indexed by columns, exactly like stacking per-block
        ``ProcessingEngine.multiply`` outputs.
        """
        spec = self.spec
        n_rows, n_cols = self.blocked.shape
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (n_rows,):
            raise ValueError(f"x must have shape ({n_rows},), got {x.shape}")
        size = self.blocked.block_size
        nseg_r = -(-n_rows // size)
        nseg_c = -(-n_cols // size)
        xq, ebv = self._plan.convert(x)
        lo_v, _ = offset_bounds(spec.ev)
        ulp_exp = ebv.astype(np.int64) + lo_v - spec.fv
        if bool((ulp_exp < -1022).any()):
            raise ValueError(
                "a segment ulp exponent is below the binary64 normal range "
                "(exact-grid passthrough): the fixed-point wordline model "
                "cannot represent this conversion — use the FP64 shortcut "
                "(block_mvm_reference / ReFloatOperator)")
        xpad = np.zeros(nseg_r * size, dtype=np.float64)
        xpad[:n_rows] = xq
        X = xpad.reshape(nseg_r, size)
        xint = np.rint(np.abs(X) * np.ldexp(1.0, -ulp_exp)[:, None]).astype(np.int64)
        if xint.size and int(xint.max()) >= (1 << self.vector_bits):
            raise ValueError(
                f"vector word does not fit in {self.vector_bits} bits")
        xs = np.where(X >= 0, xint, -xint)
        # One batched integer contraction over all occupied blocks (the
        # per-block ④→⑤ quadrant combination, collapsed to signed cells).
        V = xs[self.block_rows]                       # (G, size)
        signed = np.einsum("gij,gi->gj", self._cells, V)
        scale_exp = (self.eb + self._lo - spec.f) + ulp_exp[self.block_rows]
        contrib = signed.astype(np.float64) * np.ldexp(1.0, scale_exp)[:, None]
        out = np.zeros((nseg_c, size), dtype=np.float64)
        # add.at accumulates in block order — the same order as a Python loop
        # over occupied blocks, so float rounding matches the per-block path.
        np.add.at(out, self.block_cols, contrib)
        return out.ravel()[:n_cols]


def block_mvm_reference(block: np.ndarray, segment: np.ndarray,
                        spec: ReFloatSpec) -> np.ndarray:
    """The FP64 shortcut the engine must match: ``quantize(block)^T @ quantize(seg)``."""
    from repro.formats.refloat import quantize_values

    block = np.asarray(block, dtype=np.float64)
    nz = block != 0.0
    qblock = np.zeros_like(block)
    if np.any(nz):
        qblock[nz], _ = quantize_values(block[nz], spec.e, spec.f,
                                        rounding=spec.rounding,
                                        eb_policy="cover",
                                        underflow=spec.underflow)
    xq, _ = quantize_vector(np.asarray(segment, dtype=np.float64), spec)
    return qblock.T @ xq
