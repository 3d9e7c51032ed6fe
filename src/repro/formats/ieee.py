"""Vectorised IEEE-754 double-precision bit manipulation.

Every quantised format in this package (ReFloat, Feinberg's truncated format,
plain truncated floats, block floating point) is defined in terms of the IEEE
double-precision fields::

    value = (-1)^sign * (1.f51 f50 ... f0) * 2^(e_biased - 1023)

This module provides the vectorised decompose/compose primitives on top of
NumPy bit views, plus fraction truncation/rounding.  Conventions:

* **Exponents are unbiased** everywhere in this package (``e = e_biased - 1023``),
  matching the paper's ``(a)_e`` notation.
* **Fractions** are 52-bit unsigned integers (the stored mantissa field); the
  implied leading 1 is *not* included.  The paper's ``(a)_f in (1, 2)`` real
  fraction is ``1 + frac / 2**52``.
* **Zeros** are reported with exponent :data:`EXP_ZERO` (a large negative
  sentinel) so downstream reductions can mask them out cheaply.
* **Subnormals** flush to zero (sentinel exponent) — ReRAM mappings have no
  subnormal path, and all evaluated matrices are far from the subnormal range.
* **Inf/NaN** raise ``ValueError``: they cannot be mapped to crossbars and
  indicate an upstream bug.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

__all__ = [
    "EXP_ZERO",
    "FRAC_BITS",
    "EXP_BIAS",
    "decompose",
    "compose",
    "exponent_of",
    "exponent_field",
    "truncate_fraction",
    "round_fraction",
    "quantize_ieee",
]

#: Number of stored fraction bits in IEEE-754 binary64.
FRAC_BITS = 52

#: Exponent bias in IEEE-754 binary64.
EXP_BIAS = 1023

#: Sentinel unbiased exponent reported for (flushed-to-)zero values.  Chosen
#: far below any representable exponent (min normal is -1022) so masked
#: arithmetic never confuses it with a real exponent.
EXP_ZERO = -(1 << 20)

_FRAC_MASK = np.uint64((1 << FRAC_BITS) - 1)
_EXP_MASK = np.uint64(0x7FF)


#: Single source of the non-finite rejection message (decompose,
#: exponent_field, and the vector-converter fast path all raise it).
NONFINITE_MSG = "decompose/quantize requires finite values (no inf/nan)"


def _as_float_array(x) -> np.ndarray:
    arr = np.asarray(x, dtype=np.float64)
    if not np.all(np.isfinite(arr)):
        raise ValueError(NONFINITE_MSG)
    return arr


def decompose(x) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Split float64 values into ``(sign, exponent, fraction)`` arrays.

    Parameters
    ----------
    x : array_like of float64
        Finite values.  Subnormals are flushed to zero.

    Returns
    -------
    sign : ndarray of int8
        0 for non-negative, 1 for negative (IEEE sign bit; sign of -0.0 is
        reported but the value is treated as zero).
    exponent : ndarray of int32
        Unbiased exponent; :data:`EXP_ZERO` for zeros/subnormals.
    fraction : ndarray of uint64
        The 52-bit stored fraction field (0 for zeros/subnormals).
    """
    arr = _as_float_array(x)
    bits = arr.view(np.uint64) if arr.flags.c_contiguous else np.ascontiguousarray(arr).view(np.uint64)
    sign = (bits >> np.uint64(63)).astype(np.int8)
    exp_biased = ((bits >> np.uint64(FRAC_BITS)) & _EXP_MASK).astype(np.int32)
    frac = bits & _FRAC_MASK
    exponent = exp_biased - EXP_BIAS
    # Zeros and subnormals share exp_biased == 0; flush both to exact zero.
    zero_mask = exp_biased == 0
    exponent = np.where(zero_mask, np.int32(EXP_ZERO), exponent)
    frac = np.where(zero_mask, np.uint64(0), frac)
    return sign, exponent.astype(np.int32), frac


def compose(sign, exponent, fraction) -> np.ndarray:
    """Inverse of :func:`decompose` (for normal values and the zero sentinel).

    Values whose exponent would leave the normal range of binary64 raise
    ``ValueError`` — quantised formats in this package never produce them.
    """
    sign = np.asarray(sign)
    exponent = np.asarray(exponent, dtype=np.int64)
    fraction = np.asarray(fraction, dtype=np.uint64)
    zero_mask = exponent <= -EXP_BIAS  # includes the EXP_ZERO sentinel
    exp_b = np.where(zero_mask, 0, exponent + EXP_BIAS)
    if np.any((exp_b < 0) | (exp_b > 2046)):
        raise ValueError("composed exponent outside binary64 normal range")
    frac_clean = np.where(zero_mask, np.uint64(0), fraction & _FRAC_MASK)
    bits = (
        (sign.astype(np.uint64) << np.uint64(63))
        | (exp_b.astype(np.uint64) << np.uint64(FRAC_BITS))
        | frac_clean
    )
    out = bits.view(np.float64)
    # Normalise -0.0 to +0.0 so round-trips are exact for the zero sentinel.
    return out + 0.0


def exponent_of(x) -> np.ndarray:
    """Unbiased exponent (``floor(log2|x|)``) of each value; EXP_ZERO for 0."""
    _, e, _ = decompose(x)
    return e


def exponent_field(x) -> np.ndarray:
    """The raw *biased* 11-bit exponent field of each float64, as uint64.

    The cheap sibling of :func:`decompose` for exponent-only consumers:
    no sign/fraction extraction and no separate float finiteness pass.
    Zeros *and subnormals* report field 0 (matching :func:`decompose`'s
    flush-to-zero convention: ``field == 0`` iff ``decompose`` reports
    :data:`EXP_ZERO`); normal values report ``unbiased + EXP_BIAS``.
    inf/NaN (field 2047) raise ``ValueError`` like :func:`decompose`.
    """
    arr = np.asarray(x, dtype=np.float64)
    bits = arr.view(np.uint64) if arr.flags.c_contiguous else np.ascontiguousarray(arr).view(np.uint64)
    field = (bits >> np.uint64(FRAC_BITS)) & _EXP_MASK
    if np.any(field == 0x7FF):
        raise ValueError(NONFINITE_MSG)
    return field


def truncate_fraction(fraction, f: int) -> np.ndarray:
    """Keep the leading ``f`` bits of 52-bit fractions, zeroing the rest.

    This is the paper's conversion rule ("we only keep the leading f bits from
    the original fraction bits and remove the rest").
    """
    if not 0 <= f <= FRAC_BITS:
        raise ValueError(f"fraction bit count must be in [0, {FRAC_BITS}], got {f}")
    fraction = np.asarray(fraction, dtype=np.uint64)
    shift = np.uint64(FRAC_BITS - f)
    return (fraction >> shift) << shift


def round_fraction(fraction, f: int) -> Tuple[np.ndarray, np.ndarray]:
    """Round 52-bit fractions to ``f`` bits (round-half-up on the cut bit).

    Returns
    -------
    rounded : ndarray of uint64
        Fraction with only the top ``f`` bits significant.
    carry : ndarray of bool
        True where rounding overflowed the fraction (1.111... -> 10.0), in
        which case the caller must increment the exponent and use fraction 0.
    """
    if not 0 <= f <= FRAC_BITS:
        raise ValueError(f"fraction bit count must be in [0, {FRAC_BITS}], got {f}")
    fraction = np.asarray(fraction, dtype=np.uint64)
    if f == FRAC_BITS:
        return fraction.copy(), np.zeros(fraction.shape, dtype=bool)
    shift = np.uint64(FRAC_BITS - f)
    half = np.uint64(1) << np.uint64(FRAC_BITS - f - 1)
    bumped = fraction + half
    # The fraction field is 52 bits wide inside the uint64; mantissa overflow
    # (1.111... -> 10.000...) sets bit 52.
    carry = (bumped >> np.uint64(FRAC_BITS)) != 0
    rounded = (bumped >> shift) << shift
    rounded = np.where(carry, np.uint64(0), rounded)
    return rounded, carry


def quantize_ieee(x, exp_bits: int, frac_bits: int, rounding: str = "truncate") -> np.ndarray:
    """Quantise values to a reduced IEEE-like format (Table I semantics).

    The fraction keeps ``frac_bits`` leading bits.  The *biased* exponent keeps
    its low ``exp_bits`` bits — the mod-2^exp_bits truncation that [32]'s
    padding scheme performs — reconstructed against the high bits of the bias
    (1023), so values near magnitude 1 survive and values whose exponent
    differs in a dropped high bit are wrapped to the wrong binade.  This is
    the mechanism behind the non-convergence rows of Table I.

    Zeros pass through exactly.
    """
    if not 1 <= exp_bits <= 11:
        raise ValueError(f"exp_bits must be in [1, 11], got {exp_bits}")
    sign, e, frac = decompose(x)
    zero = e == EXP_ZERO
    if rounding == "truncate":
        qfrac = truncate_fraction(frac, frac_bits)
        carry = np.zeros(qfrac.shape, dtype=bool)
    elif rounding == "nearest":
        qfrac, carry = round_fraction(frac, frac_bits)
    else:
        raise ValueError(f"rounding must be 'truncate' or 'nearest', got {rounding!r}")
    e_adj = e.astype(np.int64) + carry.astype(np.int64)
    if exp_bits == 11:
        qe = e_adj
    else:
        mod = 1 << exp_bits
        biased = e_adj + EXP_BIAS
        # Keep the low exp_bits; splice onto the high bits of the bias itself.
        base_high = (EXP_BIAS // mod) * mod
        qe = base_high + (biased % mod) - EXP_BIAS
    qe = np.where(zero, np.int64(EXP_ZERO), qe)
    return compose(sign, qe, qfrac)
