"""The ReFloat data format (Section IV of the paper).

``ReFloat(b, e, f)(ev, fv)`` represents a ``2^b × 2^b`` matrix block by

* one shared exponent base ``eb`` per block — the round-to-nearest mean of the
  element exponents, which is the closed-form minimiser of the paper's loss
  (Eq. 5);
* per element: 1 sign bit, an ``e``-bit signed exponent *offset* from ``eb``
  saturated to ``[-(2^(e-1)-1), +(2^(e-1)-1)]``, and the leading ``f`` bits of
  the IEEE fraction.

Vector segments of length ``2^b`` use the same scheme with ``(ev, fv)`` bits
and their own base ``ebv`` (Section V-B's vector converter).

This module implements the scalar/array codec; the sparse-block machinery that
applies it per matrix block lives in :mod:`repro.sparse.blocked`.

Hot-path architecture
---------------------
The vector converter runs once per solver iteration, so it is the hottest
format kernel in the package.  Two mechanisms keep it allocation- and
redundancy-free:

* segment reductions use ``np.maximum.reduceat`` / ``np.logical_or.reduceat``
  over the precomputed contiguous segment boundaries (segments of a vector
  are contiguous runs of ``2^b`` elements) instead of ``np.ufunc.at``
  scatters, which are an order of magnitude slower;
* :class:`VectorConverterPlan` precomputes, once per ``(n, spec)`` pair,
  everything :func:`quantize_vector` would otherwise rebuild per call —
  segment ids, reduceat boundaries, and reusable per-thread output buffers —
  and is cached process-wide by :func:`vector_converter_plan`.  Plan-backed
  callers (``ReFloatOperator.matvec``, the processing engines) perform no
  avoidable allocations per conversion.

:func:`quantize_vector_reference` keeps the original straight-line
implementation; the property tests assert the plan path is bit-identical.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field, replace
from functools import lru_cache
from typing import Optional, Tuple

import numpy as np

from repro.formats import ieee
from repro.util.validation import check_nonnegative_int

__all__ = [
    "ReFloatSpec",
    "DEFAULT_SPEC",
    "EncodedBlock",
    "VectorConverterPlan",
    "vector_converter_plan",
    "optimal_exponent_base",
    "covering_exponent_base",
    "exponent_loss",
    "offset_bounds",
    "quantize_values",
    "encode_values",
    "decode_values",
    "quantize_vector",
    "quantize_vector_reference",
    "vector_segment_bases",
]


def _check_bits(value: int, name: str, hi: int) -> int:
    value = check_nonnegative_int(value, name)
    if value > hi:
        raise ValueError(f"{name} must be <= {hi}, got {value}")
    return value


@dataclass(frozen=True)
class ReFloatSpec:
    """Hyper-parameters of a ``ReFloat(b, e, f)(ev, fv)`` format.

    Parameters
    ----------
    b : int
        log2 of the square block edge; blocks are ``2^b x 2^b`` and vector
        segments have length ``2^b``.  The paper uses ``b = 7`` (128x128
        crossbars).
    e, f : int
        Exponent-offset and fraction bit counts for matrix blocks.
    ev, fv : int
        Exponent-offset and fraction bit counts for vector segments.
    rounding : str
        ``"truncate"`` (paper default: keep leading fraction bits) or
        ``"nearest"``.
    underflow : str
        Treatment of values whose exponent falls *below* the offset window:
        ``"flush"`` (default) drops them to zero — the fixed-point semantics
        of a window-aligned datapath (the value is below the representable
        LSB), matching how crossbar bit-slices behave; ``"saturate"`` clamps
        the offset at its minimum, *inflating* tiny values to the window
        bottom.  Values above the window always saturate downward at the top
        (only reachable with ``eb_policy="mean"``).
    eb_policy : str
        How the per-block exponent base is chosen:

        * ``"cover"`` (default) — ``eb = e_max - (2^(e-1) - 1)``, anchoring
          the offset window at the block's largest exponent, exactly like the
          padding alignment of the crossbar mapping.  Whenever the block's
          exponent range fits the ``2^e``-binade window (the paper's Fig. 3d
          locality data: every evaluated matrix fits with e=3), exponents are
          represented *exactly*; out-of-window small values saturate upward —
          a bounded error of at most ``2^(e_max - 2^e + 1)``, i.e. relative to
          the block's largest value, which preserves positive-definiteness.
        * ``"mean"`` — the literal Eq. 5 closed form (round of the mean
          exponent).  Minimises the unclipped exponent loss, but on blocks
          with skewed exponent distributions it can push the *largest*
          entries out of window and shrink them by power-of-two factors,
          destroying SPD-ness.  Kept for fidelity/ablation.
    """

    b: int = 7
    e: int = 3
    f: int = 3
    ev: int = 3
    fv: int = 8
    rounding: str = "truncate"
    underflow: str = "flush"
    eb_policy: str = "cover"

    def __post_init__(self) -> None:
        _check_bits(self.b, "b", 12)
        _check_bits(self.e, "e", 11)
        _check_bits(self.f, "f", ieee.FRAC_BITS)
        _check_bits(self.ev, "ev", 11)
        _check_bits(self.fv, "fv", ieee.FRAC_BITS)
        if self.rounding not in ("truncate", "nearest"):
            raise ValueError(
                f"rounding must be 'truncate' or 'nearest', got {self.rounding!r}"
            )
        if self.underflow not in ("flush", "saturate"):
            raise ValueError(
                f"underflow must be 'flush' or 'saturate', got {self.underflow!r}"
            )
        if self.eb_policy not in ("cover", "mean"):
            raise ValueError(
                f"eb_policy must be 'cover' or 'mean', got {self.eb_policy!r}"
            )

    # ---- derived sizes -------------------------------------------------
    @property
    def block_size(self) -> int:
        """Edge length of a square block (= vector segment length)."""
        return 1 << self.b

    @property
    def matrix_value_bits(self) -> int:
        """Stored bits per matrix element: sign + offset + fraction."""
        return 1 + self.e + self.f

    @property
    def vector_value_bits(self) -> int:
        """Stored bits per vector element: sign + offset + fraction."""
        return 1 + self.ev + self.fv

    def with_vector_bits(self, ev: Optional[int] = None, fv: Optional[int] = None) -> "ReFloatSpec":
        """Copy of this spec with different vector bit counts."""
        return replace(
            self,
            ev=self.ev if ev is None else ev,
            fv=self.fv if fv is None else fv,
        )

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"ReFloat({self.b},{self.e},{self.f})({self.ev},{self.fv})"


#: The paper's default evaluation configuration (Table VII).
DEFAULT_SPEC = ReFloatSpec(b=7, e=3, f=3, ev=3, fv=8)


def offset_bounds(e: int) -> Tuple[int, int]:
    """Saturation range of an ``e``-bit two's-complement exponent offset.

    We use the full signed range ``[-2^(e-1), 2^(e-1) - 1]`` (what an e-bit
    hardware field holds).  The paper's text states the symmetric window
    ``[eb - 2^(e-1) + 1, eb + 2^(e-1) - 1]``; the one extra negative code only
    widens the representable window downward and is required for the Fig. 3d
    locality argument (e=3 covering a 7-binade spread) to hold exactly.
    ``e = 0`` degenerates to the single offset 0 (pure BFP exponent-wise).
    """
    if e <= 0:
        return (0, 0)
    half = 1 << (e - 1)
    return (-half, half - 1)


def optimal_exponent_base(exponents: np.ndarray) -> int:
    """Closed-form minimiser of the exponent loss (Eq. 5): round(mean).

    ``exponents`` must be the unbiased exponents of the *nonzero* elements of
    one block.  Empty input returns base 0 (any base represents an all-zero
    block exactly).
    Round-half-up is used so the result is deterministic across platforms.
    """
    exps = np.asarray(exponents, dtype=np.float64)
    if exps.size == 0:
        return 0
    return int(np.floor(exps.mean() + 0.5))


def covering_exponent_base(max_exponent: int, e: int) -> int:
    """Base anchoring the offset window at the block's largest exponent.

    ``eb = e_max - (2^(e-1) - 1)`` puts the top of the two's-complement
    window exactly on ``e_max`` — the hardware padding alignment.  The
    largest entries are never shrunk; entries more than ``2^e - 1`` binades
    below the max saturate upward with error bounded relative to the block
    maximum.
    """
    if e <= 0:
        return int(max_exponent)
    return int(max_exponent) - ((1 << (e - 1)) - 1)


def exponent_loss(exponents: np.ndarray, eb: int) -> float:
    """The paper's loss L(eb) = sum over block of ((a)_e - eb)^2 (Eq. 4)."""
    exps = np.asarray(exponents, dtype=np.float64)
    return float(np.sum((exps - eb) ** 2))


def quantize_values(
    values,
    e: int,
    f: int,
    eb=None,
    rounding: str = "truncate",
    eb_policy: str = "cover",
    underflow: str = "flush",
) -> Tuple[np.ndarray, np.ndarray]:
    """Quantise values to ReFloat with a shared (or per-value) exponent base.

    Parameters
    ----------
    values : array_like of float64
        Finite values; zeros pass through exactly.
    e, f : int
        Offset / fraction bit counts.
    eb : int, array_like of int, or None
        Exponent base.  ``None`` computes the base over the nonzero values
        (treating the whole input as one block) according to ``eb_policy``.
        An array gives each value its own base (used for grouped per-block
        quantisation).
    rounding : str
        ``"truncate"`` or ``"nearest"``.
    eb_policy : str
        ``"cover"`` or ``"mean"`` — used only when ``eb`` is ``None``.

    Returns
    -------
    quantized : ndarray of float64
        The decoded (reconstructed) quantised values.
    eb_used : ndarray of int32
        Exponent base applied to each value.
    """
    values = np.asarray(values, dtype=np.float64)
    sign, exp, frac = ieee.decompose(values)
    zero = exp == ieee.EXP_ZERO

    if eb is None:
        nz_exp = exp[~zero]
        if nz_exp.size == 0:
            eb_scalar = 0
        elif eb_policy == "cover":
            eb_scalar = covering_exponent_base(int(nz_exp.max()), e)
        elif eb_policy == "mean":
            eb_scalar = optimal_exponent_base(nz_exp)
        else:
            raise ValueError(f"eb_policy must be 'cover' or 'mean', got {eb_policy!r}")
        eb_arr = np.full(values.shape, eb_scalar, dtype=np.int32)
    else:
        eb_arr = np.broadcast_to(np.asarray(eb, dtype=np.int32), values.shape).copy()

    if rounding == "truncate":
        qfrac = ieee.truncate_fraction(frac, f)
        carry = np.zeros(values.shape, dtype=bool)
    elif rounding == "nearest":
        qfrac, carry = ieee.round_fraction(frac, f)
    else:
        raise ValueError(f"rounding must be 'truncate' or 'nearest', got {rounding!r}")

    lo, hi = offset_bounds(e)
    exp_adj = exp.astype(np.int64) + carry
    raw_offset = exp_adj - eb_arr
    offset = np.clip(raw_offset, lo, hi)
    qexp = eb_arr + offset
    if underflow == "flush":
        below = (~zero) & (raw_offset < lo)
        qexp = np.where(below, np.int64(ieee.EXP_ZERO), qexp)
        qfrac = np.where(below, np.uint64(0), qfrac)
    elif underflow != "saturate":
        raise ValueError(f"underflow must be 'flush' or 'saturate', got {underflow!r}")
    qexp = np.where(zero, np.int64(ieee.EXP_ZERO), qexp)
    out = ieee.compose(sign, qexp, qfrac)
    return out, eb_arr


@dataclass(frozen=True)
class EncodedBlock:
    """Explicit bit-level encoding of one block's nonzero values.

    This is the representation a processing engine consumes: integer fields
    rather than reconstructed floats.  ``frac`` holds the *f*-bit fraction as
    the top bits already shifted down (an integer in ``[0, 2^f)``).
    """

    eb: int
    sign: np.ndarray  # int8, 0/1
    offset: np.ndarray  # int32 in [lo, hi]
    frac: np.ndarray  # uint64 in [0, 2^f)
    e: int
    f: int

    @property
    def size(self) -> int:
        return int(self.sign.size)


def encode_values(values, e: int, f: int, eb: Optional[int] = None,
                  rounding: str = "truncate",
                  eb_policy: str = "cover") -> EncodedBlock:
    """Encode values into explicit ReFloat fields (one shared base).

    Zeros are not representable in an :class:`EncodedBlock`; callers encode
    only the nonzeros of a sparse block.  Passing zeros raises ``ValueError``.
    """
    values = np.asarray(values, dtype=np.float64)
    if np.any(values == 0.0):
        raise ValueError("encode_values encodes nonzeros only; filter zeros first")
    sign, exp, frac = ieee.decompose(values)
    if eb is None:
        if eb_policy == "cover":
            eb = covering_exponent_base(int(exp.max()), e)
        else:
            eb = optimal_exponent_base(exp)
    if rounding == "truncate":
        qfrac = ieee.truncate_fraction(frac, f)
        carry = np.zeros(values.shape, dtype=np.int64)
    else:
        qfrac, carry_b = ieee.round_fraction(frac, f)
        carry = carry_b.astype(np.int64)
    lo, hi = offset_bounds(e)
    offset = np.clip(exp.astype(np.int64) + carry - eb, lo, hi).astype(np.int32)
    frac_small = (qfrac >> np.uint64(ieee.FRAC_BITS - f)) if f < ieee.FRAC_BITS else qfrac
    return EncodedBlock(eb=int(eb), sign=sign, offset=offset,
                        frac=frac_small.astype(np.uint64), e=e, f=f)


def decode_values(block: EncodedBlock) -> np.ndarray:
    """Reconstruct float64 values from an :class:`EncodedBlock`."""
    f = block.f
    frac52 = (block.frac << np.uint64(ieee.FRAC_BITS - f)) if f < ieee.FRAC_BITS else block.frac
    qexp = block.eb + block.offset.astype(np.int64)
    return ieee.compose(block.sign, qexp, frac52)


def vector_segment_bases(x, b: int, ev: Optional[int] = None,
                         eb_policy: str = "cover") -> np.ndarray:
    """Per-segment exponent bases for a vector (the Fig. 6d converter).

    The vector is split into contiguous segments of ``2^b`` (the last segment
    may be shorter).  Policy ``"cover"`` (requires ``ev``) anchors each
    segment's window at its largest exponent; ``"mean"`` applies Eq. 5 per
    segment.  Segments with no nonzero entries get base 0.

    Segments are contiguous, so all per-segment reductions run as
    ``np.ufunc.reduceat`` over the segment start offsets — much faster than
    the ``np.maximum.at`` scatter this function used to perform.

    Returns an int32 array of length ``ceil(len(x) / 2^b)``.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.size == 0:
        return np.zeros(0, dtype=np.int32)
    size = 1 << b
    starts = np.arange(0, x.size, size, dtype=np.intp)
    _, exp, _ = ieee.decompose(x)
    nonzero = exp != ieee.EXP_ZERO
    counts = np.add.reduceat(nonzero.astype(np.int64), starts)
    if eb_policy == "cover":
        if ev is None:
            raise ValueError("eb_policy='cover' requires ev")
        # Segment maxima (the EXP_ZERO sentinel is far below any real
        # exponent, so zeros never win the max of a nonempty segment).
        maxima = np.maximum.reduceat(exp.astype(np.int64), starts)
        bases = maxima - ((1 << (ev - 1)) - 1 if ev > 0 else 0)
        return np.where(counts > 0, bases, 0).astype(np.int32)
    if eb_policy != "mean":
        raise ValueError(f"eb_policy must be 'cover' or 'mean', got {eb_policy!r}")
    sums = np.add.reduceat(np.where(nonzero, exp, 0).astype(np.float64), starts)
    with np.errstate(invalid="ignore", divide="ignore"):
        means = np.where(counts > 0, sums / np.maximum(counts, 1), 0.0)
    return np.floor(means + 0.5).astype(np.int32)


def quantize_vector_reference(x, spec: ReFloatSpec) -> Tuple[np.ndarray, np.ndarray]:
    """Straight-line vector converter (the original, unplanned implementation).

    Kept verbatim as the ground truth the plan-backed fast path of
    :class:`VectorConverterPlan` is property-tested against (bit identity).
    Use :func:`quantize_vector` in production code.

    Hardware semantics (Section V-B): each vector element drives the wordlines
    as a **(2^ev + fv + 1)-bit fixed-point word** ("a total number of
    (2^ev + fv + 1) bits are applied to the driver") aligned to the segment's
    exponent base — the ``2^ev`` positions align the exponent and the ``fv+1``
    mantissa bits extend below.  So the representable grid of a segment whose
    largest exponent is ``top`` has unit-in-last-place
    ``2^(top - (2^ev - 1) - fv)``; elements keep fraction bits progressively
    as they shrink and underflow to zero only ``2^ev - 1 + fv`` binades below
    the top.  (This is *not* the same as storing the vector in 1+ev+fv bits —
    vectors are produced by the FP64 MAC units each iteration and converted
    on the fly, never stored in ReFloat format.)

    Returns
    -------
    xq : ndarray of float64
        Quantised vector, same length as ``x``.  Exact zeros stay zero.
    ebv : ndarray of int32
        Per-segment exponent bases (length ``ceil(n / 2^b)``) — the scale
        factor the engine multiplies back into the output (Eq. 9).
    """
    x = np.asarray(x, dtype=np.float64)
    if x.size == 0:
        return x.copy(), np.zeros(0, dtype=np.int32)
    ebv = vector_segment_bases(x, spec.b, ev=spec.ev, eb_policy="cover")
    size = 1 << spec.b
    nseg = ebv.size
    # Segment top exponent = ebv + hi under the cover policy.
    _, hi = offset_bounds(spec.ev)
    tops = ebv.astype(np.int64) + hi
    ulp_exp = tops - ((1 << spec.ev) - 1) - spec.fv
    seg_ids = np.arange(x.size) >> spec.b
    # Grids finer than the binary64 normal range are exact: skip them (this
    # happens for near-lossless configs like ev=11, fv=52).
    exact_grid = ulp_exp < -1022
    ulp = np.ldexp(1.0, np.maximum(ulp_exp, -1022))[seg_ids]
    # Mask empty segments (base 0 would otherwise impose a spurious grid).
    _, exp, _ = ieee.decompose(x)
    nonzero = exp != ieee.EXP_ZERO
    counts = np.bincount(seg_ids, weights=nonzero.astype(np.float64), minlength=nseg)
    live = (counts[seg_ids] > 0) & ~exact_grid[seg_ids]
    scaled = np.where(live, x / ulp, 0.0)
    if spec.rounding == "nearest":
        quantized = np.sign(scaled) * np.floor(np.abs(scaled) + 0.5)
    else:
        quantized = np.trunc(scaled)
    passthrough = exact_grid[seg_ids] & (counts[seg_ids] > 0)
    xq = np.where(live, quantized * ulp, np.where(passthrough, x, 0.0))
    return xq, ebv


class VectorConverterPlan:
    """Precomputed state for converting length-``n`` vectors under one spec.

    A CG/BiCGSTAB solve converts the same-length vector thousands of times
    with an unchanging spec, yet :func:`quantize_vector_reference` rebuilds
    the segment index map, the reduceat boundaries and every intermediate
    array on each call.  The plan hoists all of that out:

    * ``seg_ids`` / ``starts`` — the per-element segment id and the contiguous
      reduceat boundaries, built once;
    * per-thread scratch buffers in a *padded 2-D layout*: the vector is
      copied into a ``(nseg, 2^b)`` zero-padded buffer whose ``uint64`` bit
      view is precomputed, so the whole fast path is a handful of ufunc
      calls with ``out=`` and no O(n) allocations;
    * per-segment statistics drop to Python scalars when ``nseg`` is small
      (``<= _PY_SEG_LIMIT``) — at solver sizes the per-call cost is NumPy
      dispatch overhead, not arithmetic — and stay vectorised for huge
      segment counts;
    * the fast lane covers the common solver case (every segment has a
      nonzero and no segment's grid is finer than binary64); anything else
      falls back to the general masked path.

    All paths are bit-identical to :func:`quantize_vector_reference`
    (asserted by the property tests).  Plans are shared process-wide via
    :func:`vector_converter_plan`; thread safety comes from the scratch
    buffers being ``threading.local``.

    .. warning:: with ``reuse=True`` the returned arrays are owned by the
       plan and overwritten by the next ``convert`` call on the same thread.
       Copy them (or pass ``reuse=False``) to keep them.
    """

    #: Segment counts up to this use Python-scalar per-segment statistics.
    _PY_SEG_LIMIT = 4096

    def __init__(self, n: int, spec: ReFloatSpec):
        self.n = int(check_nonnegative_int(n, "n"))
        self.spec = spec
        size = 1 << spec.b
        self.size = size
        self.nseg = -(-self.n // size)
        self.seg_ids = np.arange(self.n, dtype=np.intp) >> spec.b
        #: Contiguous segment boundaries for ``np.ufunc.reduceat``.
        self.starts = np.arange(0, self.n, size, dtype=np.intp)
        lo, hi = offset_bounds(spec.ev)
        self._hi = hi
        # ulp_exp = ebv + hi - (2^ev - 1) - fv  =  ebv + lo - fv.
        self._ulp_off = hi - ((1 << spec.ev) - 1) - spec.fv
        self._tls = threading.local()

    def _scratch(self) -> dict:
        bufs = getattr(self._tls, "bufs", None)
        if bufs is None:
            bufs = self._tls.bufs = self._alloc()
        return bufs

    def _alloc(self) -> dict:
        n_pad = self.nseg * self.size
        xpad = np.zeros(n_pad, dtype=np.float64)   # tail beyond n stays zero
        out = np.empty((self.nseg, self.size), dtype=np.float64)
        return {
            "xpad": xpad,
            "x2d": xpad.reshape(self.nseg, self.size),
            "xpad_n": xpad[:self.n],
            "bits": xpad.view(np.uint64),
            "field": (field := np.empty(n_pad, dtype=np.uint64)),
            "field2d": field.reshape(self.nseg, self.size),
            "maxima": np.empty(self.nseg, dtype=np.uint64),
            "sc": np.empty((self.nseg, self.size), dtype=np.float64),
            "out": out,
            "xq": out.reshape(-1)[:self.n],
            "ulp": np.empty((self.nseg, 1), dtype=np.float64),
            "ebv": np.empty(self.nseg, dtype=np.int32),
        }

    def _batch_scratch(self, k: int) -> dict:
        batches = getattr(self._tls, "batches", None)
        if batches is None:
            batches = self._tls.batches = {}
        bufs = batches.get(k)
        if bufs is None:
            bufs = batches[k] = self._alloc_batch(k)
        return bufs

    def _alloc_batch(self, k: int) -> dict:
        n_pad = self.nseg * self.size
        # Column-major working layout: one contiguous row per RHS column, so
        # every per-segment reduction is a reduction over the last axis.
        xpad = np.zeros((k, n_pad), dtype=np.float64)
        field = np.empty((k, n_pad), dtype=np.uint64)
        return {
            "xpad": xpad,
            "x3d": xpad.reshape(k, self.nseg, self.size),
            "xpad_n": xpad[:, :self.n],
            "bits": xpad.view(np.uint64),
            "field": field,
            "field3d": field.reshape(k, self.nseg, self.size),
            "maxima": np.empty((k, self.nseg), dtype=np.uint64),
            "sc": np.empty((k, self.nseg, self.size), dtype=np.float64),
            "out": np.empty((k, self.nseg, self.size), dtype=np.float64),
            "out_nk": np.empty((self.n, k), dtype=np.float64),
            "ebv": np.empty((self.nseg, k), dtype=np.int32),
        }

    def convert_batch(self, X, reuse: bool = True) -> Tuple[np.ndarray, np.ndarray]:
        """Batched :meth:`convert`: ``(n, k)`` columns to ``(Xq, ebv)``.

        Column ``j`` of the result is bit-identical to ``convert(X[:, j])``
        (asserted by the fast-path tests): the batch runs the same ufunc
        sequence over a ``(k, nseg, 2^b)`` layout, so one call amortises the
        conversion dispatch across all right-hand sides of a block solve.
        ``ebv`` has shape ``(nseg, k)`` — per-segment bases per column.

        The vectorised lane covers the common solver case (every segment of
        every column holds a nonzero and no grid is finer than binary64);
        anything else falls back to per-column :meth:`convert` calls, which
        handle empty segments and exact-grid passthrough.  With
        ``reuse=True`` the outputs live in per-thread scratch keyed by ``k``.
        """
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2:
            raise ValueError(f"X must be 2-D (n, k), got shape {X.shape}")
        n, k = X.shape
        if n != self.n:
            raise ValueError(f"plan is for length {self.n}, got {n}")
        if k == 0:
            raise ValueError("X must have at least one column")
        if self.n == 0:
            return X.copy(), np.zeros((0, k), dtype=np.int32)
        spec = self.spec
        bufs = self._batch_scratch(k) if reuse else self._alloc_batch(k)
        np.copyto(bufs["xpad_n"], X.T)
        field = np.right_shift(bufs["bits"], np.uint64(ieee.FRAC_BITS),
                               out=bufs["field"])
        np.bitwise_and(field, np.uint64(0x7FF), out=field)
        maxima = bufs["field3d"].max(axis=2, out=bufs["maxima"])
        maxima = maxima.astype(np.int64)
        if int(maxima.max()) == 0x7FF:
            raise ValueError(ieee.NONFINITE_MSG)
        seg_live = maxima != 0
        hi_const = ieee.EXP_BIAS + self._hi
        eb = (maxima - hi_const) * seg_live          # (k, nseg)
        ulp_exp = eb + self._ulp_off
        if bool(seg_live.all()) and not bool((ulp_exp < -1022).any()):
            # Vectorised lane: same ufunc sequence as the 1-D fast lane, with
            # the per-(column, segment) ulp broadcast over the segment axis.
            ulp = np.ldexp(1.0, ulp_exp)[:, :, None]
            sc, out = bufs["sc"], bufs["out"]
            scaled = np.divide(bufs["x3d"], ulp, out=sc)
            if spec.rounding == "nearest":
                sgn = np.sign(scaled, out=out)
                mag = np.abs(scaled, out=scaled)
                np.add(mag, 0.5, out=mag)
                np.floor(mag, out=mag)
                quantized = np.multiply(sgn, mag, out=out)
            else:
                quantized = np.trunc(scaled, out=scaled)
            np.multiply(quantized, ulp, out=out)
            Xq, ebv = bufs["out_nk"], bufs["ebv"]
            np.copyto(Xq, out.reshape(k, -1)[:, :self.n].T)
            np.copyto(ebv, eb.T, casting="unsafe")
            return Xq, ebv
        # General path (empty segments / exact grids somewhere in the batch):
        # delegate to the scalar converter column by column — it is the
        # reference-pinned implementation of exactly those cases.
        Xq, ebv = bufs["out_nk"], bufs["ebv"]
        for j in range(k):
            xq_j, ebv_j = self.convert(X[:, j], reuse=False)
            Xq[:, j] = xq_j
            ebv[:, j] = ebv_j
        return Xq, ebv

    def convert(self, x, reuse: bool = True) -> Tuple[np.ndarray, np.ndarray]:
        """Plan-backed :func:`quantize_vector`: returns ``(xq, ebv)``.

        Bit-identical to :func:`quantize_vector_reference`.  With
        ``reuse=True`` the result lives in per-thread scratch buffers.
        """
        x = np.asarray(x, dtype=np.float64)
        if x.size != self.n:
            raise ValueError(f"plan is for length {self.n}, got {x.size}")
        if self.n == 0:
            return x.copy(), np.zeros(0, dtype=np.int32)
        spec = self.spec
        bufs = self._scratch() if reuse else self._alloc()
        # Copy into the zero-padded 2-D layout; the pad tail (never written
        # again) reads as zeros, which cannot win a segment max or change
        # liveness, and is sliced off the output.
        np.copyto(bufs["xpad_n"], x)
        # Inline specialisation of ieee.exponent_field over the precomputed
        # bit view (same flush-to-zero/inf conventions, zero allocations).
        # One max over the raw biased exponent fields yields every
        # per-segment statistic the reference derives from decompose():
        # field == 0 iff decompose reports EXP_ZERO (zeros and subnormals),
        # so a segment max of 0 means "no nonzeros" (the counts > 0 test),
        # a max of 0x7FF means inf/nan (decompose's ValueError), and a live
        # segment's max is the reference's unbiased max plus the bias.
        field = np.right_shift(bufs["bits"], np.uint64(ieee.FRAC_BITS),
                               out=bufs["field"])
        np.bitwise_and(field, np.uint64(0x7FF), out=field)
        maxima = bufs["field2d"].max(axis=1, out=bufs["maxima"])
        ebv = bufs["ebv"]
        hi_const = ieee.EXP_BIAS + self._hi
        if self.nseg <= self._PY_SEG_LIMIT:
            # Per-segment stats as Python scalars: at solver sizes the cost
            # of this stage is ufunc dispatch, not arithmetic.
            eb_list = maxima.tolist()
            ulp_list = [0.0] * self.nseg
            fast = True
            for i, mb in enumerate(eb_list):
                if mb == 0:
                    fast = False
                    eb = 0
                elif mb == 0x7FF:
                    raise ValueError(ieee.NONFINITE_MSG)
                else:
                    eb = mb - hi_const
                ue = eb + self._ulp_off
                if ue < -1022:
                    fast = False
                    ue = -1022
                eb_list[i] = eb
                ulp_list[i] = math.ldexp(1.0, ue)
            ebv[...] = eb_list
            if fast:
                bufs["ulp"].ravel()[...] = ulp_list
        else:
            maxima = maxima.astype(np.int64)
            if int(maxima.max()) == 0x7FF:
                raise ValueError(ieee.NONFINITE_MSG)
            seg_live = maxima != 0
            np.multiply(maxima - hi_const, seg_live, out=ebv, casting="unsafe")
            ulp_exp = ebv.astype(np.int64) + self._ulp_off
            fast = bool(seg_live.all()) and not bool((ulp_exp < -1022).any())
            if fast:
                bufs["ulp"].ravel()[...] = np.ldexp(1.0, ulp_exp)
        if fast:
            # Fast lane: every element is live, no masking needed; the
            # per-segment ulp broadcasts down the 2-D layout.
            ulp, sc, out = bufs["ulp"], bufs["sc"], bufs["out"]
            scaled = np.divide(bufs["x2d"], ulp, out=sc)
            if spec.rounding == "nearest":
                sgn = np.sign(scaled, out=out)
                mag = np.abs(scaled, out=scaled)
                np.add(mag, 0.5, out=mag)
                np.floor(mag, out=mag)
                quantized = np.multiply(sgn, mag, out=out)
            else:
                quantized = np.trunc(scaled, out=scaled)
            np.multiply(quantized, ulp, out=out)
            return bufs["xq"], ebv
        # General path (empty segments / exact grids): same masked formulas
        # as the reference, with the precomputed index structures.
        ulp_exp = ebv.astype(np.int64) + self._ulp_off
        exact_grid = ulp_exp < -1022
        seg_live = bufs["maxima"] != 0   # field max 0 <=> no nonzeros
        live_seg = seg_live & ~exact_grid
        ulp = np.ldexp(1.0, np.maximum(ulp_exp, -1022))[self.seg_ids]
        live = live_seg[self.seg_ids]
        scaled = np.where(live, x / ulp, 0.0)
        if spec.rounding == "nearest":
            quantized = np.sign(scaled) * np.floor(np.abs(scaled) + 0.5)
        else:
            quantized = np.trunc(scaled)
        passthrough = (exact_grid & seg_live)[self.seg_ids]
        xq = np.where(live, quantized * ulp, np.where(passthrough, x, 0.0))
        if reuse:
            bufs["xq"][...] = xq
            xq = bufs["xq"]
        return xq, ebv


@lru_cache(maxsize=256)
def vector_converter_plan(n: int, spec: ReFloatSpec) -> VectorConverterPlan:
    """Process-wide cache of :class:`VectorConverterPlan` keyed ``(n, spec)``.

    ``ReFloatSpec`` is a frozen dataclass, so the pair is hashable; the LRU
    bound only matters for pathological workloads that sweep vector lengths.
    """
    return VectorConverterPlan(n, spec)


def quantize_vector(x, spec: ReFloatSpec) -> Tuple[np.ndarray, np.ndarray]:
    """Quantise a vector segment-wise through the DAC path (vector converter).

    See :func:`quantize_vector_reference` for the hardware semantics and the
    return convention; this entry point routes through the cached
    :class:`VectorConverterPlan` (bit-identical, much faster) and always
    returns freshly-owned arrays.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.size == 0:
        return x.copy(), np.zeros(0, dtype=np.int32)
    return vector_converter_plan(x.size, spec).convert(x, reuse=False)
