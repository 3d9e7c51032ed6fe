"""Model of the Feinberg et al. [32] (ISCA'18) floating-point mapping.

[32] maps double-precision matrices to crossbars by keeping the full 52-bit
fraction and aligning exponents inside a 64-slot "padding" window (6 exponent
bits).  Matrix values whose exponents exceed the window are handled by FPUs,
so *matrix* values are effectively exact.  The paper's Section III-C critique
is that the *vector* has no such fallback: at every iteration the solver's
vectors are driven through the fixed-point window that the matrix mapping
defines, and values falling outside that window are mangled — which is why
[32] fails to converge on half of the evaluation suite.

We model the vector datapath as a fixed-point window of ``2^exp_bits`` binades
anchored at the matrix's maximum entry exponent:

* magnitudes *above* the window top ``2^(anchor+1)`` are out of range: policy
  ``"wrap"`` (default; exponent high bits dropped, value lands in a wrong
  binade — the mod-64 behaviour), ``"clamp"`` (saturate to the window top) or
  ``"flush"`` (drop to zero);
* magnitudes *below* the window bottom are below the fixed-point resolution
  and flush to zero;
* inside the window, the value keeps ``frac_bits`` fraction bits (52 in [32],
  i.e. effectively exact).

The anchor is computed once from the matrix ("the matrix value does not
change") — this staleness is exactly the flaw the paper identifies.

:func:`quantize_vector_feinberg` runs once per solver apply.  For a scalar
anchor whose window lies in the normal exponent range (biased exponents
1..2046, as every suite anchor's does) it works on the float64 bit pattern:
one read of the exponent field, then integer masks per policy.
:func:`quantize_vector_feinberg_reference` (decompose, select, compose) is
its bit-identity oracle and runs every other anchor: per-element
(``block_b``) anchors and windows reaching below the normal range.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from repro.formats import ieee

__all__ = [
    "FeinbergSpec",
    "matrix_anchor_exponent",
    "quantize_vector_feinberg",
    "quantize_vector_feinberg_reference",
]

_SHIFT = np.int64(ieee.FRAC_BITS)
_SIGN_BIT = np.int64(np.iinfo(np.int64).min)


@dataclass(frozen=True)
class FeinbergSpec:
    """Configuration of the [32] vector datapath model.

    Parameters
    ----------
    exp_bits : int
        Exponent bits of the padding window (6 in [32] -> 64 binades).
    frac_bits : int
        Fraction bits kept inside the window (52 in [32]).
    policy : str
        Out-of-range-above policy: ``"wrap"`` | ``"clamp"`` | ``"flush"``.
    """

    exp_bits: int = 6
    frac_bits: int = 52
    policy: str = "wrap"

    def __post_init__(self) -> None:
        if not 1 <= self.exp_bits <= 11:
            raise ValueError(f"exp_bits must be in [1, 11], got {self.exp_bits}")
        if not 0 <= self.frac_bits <= ieee.FRAC_BITS:
            raise ValueError(f"frac_bits must be in [0, 52], got {self.frac_bits}")
        if self.policy not in ("wrap", "clamp", "flush"):
            raise ValueError(f"policy must be wrap|clamp|flush, got {self.policy!r}")

    @property
    def window(self) -> int:
        """Number of binades covered by the padding window (the "64 paddings")."""
        return 1 << self.exp_bits


def matrix_anchor_exponent(matrix_values) -> int:
    """Window anchor: the maximum unbiased exponent over the matrix nonzeros.

    [32] aligns fraction slices against the largest exponent of the mapped
    (sub)matrix; the vector fixed-point window inherits that anchor.
    """
    field = ieee.exponent_field(matrix_values)
    nz = field[field != 0]
    if nz.size == 0:
        raise ValueError("matrix has no nonzero values")
    return int(nz.max()) - ieee.EXP_BIAS


def quantize_vector_feinberg(x, anchor, spec: FeinbergSpec) -> np.ndarray:
    """Push a vector through the [32] fixed-point window.

    Bit-identical to :func:`quantize_vector_feinberg_reference`.  A scalar
    ``anchor`` whose window ``[anchor - 2^exp_bits + 1, anchor]`` lies in the
    normal exponent range takes the bit-pattern path; an array anchor, or a
    window reaching below it, runs the reference.

    Parameters
    ----------
    x : array_like of float64
    anchor : int or int array broadcastable to ``x``
        Window top exponent (from :func:`matrix_anchor_exponent`); an array
        gives each element its own anchor (per-block-column windows).
    spec : FeinbergSpec

    Returns
    -------
    ndarray of float64 — the values the crossbar datapath actually sees (a
    new array; ``x`` is never written).
    """
    x = np.asarray(x, dtype=np.float64)
    if not isinstance(anchor, (int, np.integer)):
        return quantize_vector_feinberg_reference(x, anchor, spec)
    top = int(anchor) + ieee.EXP_BIAS  # biased window top
    lo = top - spec.window + 1  # biased window bottom
    if lo < 1 or top > 2046:
        return quantize_vector_feinberg_reference(x, anchor, spec)

    bits = x.view(np.int64)
    # The biased exponent field: 0 for zeros and subnormals, 0x7FF for
    # inf/NaN.  The mask drops the arithmetic shift's sign extension.
    field = (bits >> _SHIFT) & np.int64(0x7FF)
    if field.max(initial=0) == 0x7FF:
        raise ValueError(ieee.NONFINITE_MSG)
    d = field - np.int64(lo)  # binades above the window bottom
    # Keep the sign, the exponent and the top frac_bits fraction bits.
    out = bits & np.int64(-(1 << (ieee.FRAC_BITS - spec.frac_bits)))
    if spec.policy == "wrap":
        # Drop whole windows from the exponent: a value d binades above the
        # bottom lands d mod 2^exp_bits above it.  In-window values keep d.
        out -= (d & np.int64(-spec.window)) << _SHIFT
    else:
        above = d >= spec.window
        if spec.policy == "clamp":
            top_bits = np.int64(top << ieee.FRAC_BITS)
            out[above] = (bits[above] & _SIGN_BIT) | top_bits
        else:
            out[above] = 0
    # Zeros, subnormals and values below the window all become +0.0.
    out[d < 0] = 0
    return out.view(np.float64)


def quantize_vector_feinberg_reference(x, anchor, spec: FeinbergSpec) -> np.ndarray:
    """Reference :func:`quantize_vector_feinberg`: decompose, select, compose.

    Same parameters and result.  The differential-test oracle, and the path
    for array anchors and for windows reaching below the normal range.
    """
    x = np.asarray(x, dtype=np.float64)
    sign, exp, frac = ieee.decompose(x)
    zero = exp == ieee.EXP_ZERO
    qfrac = ieee.truncate_fraction(frac, spec.frac_bits)

    anchor = np.broadcast_to(np.asarray(anchor, dtype=np.int64), x.shape)
    lo = anchor - spec.window + 1  # lowest representable exponent
    e64 = exp.astype(np.int64)
    above = (~zero) & (e64 > anchor)
    below = (~zero) & (e64 < lo)

    qexp = e64.copy()
    if spec.policy == "wrap":
        # Only the low exp_bits of the (biased) exponent are kept; reconstruct
        # against the anchor's high bits.  Values above the window reappear
        # 2^exp_bits binades lower (mod-64 aliasing).
        mod = spec.window
        wrapped = lo + ((e64 - lo) % mod)
        qexp = np.where(above, wrapped, qexp)
    elif spec.policy == "clamp":
        qexp = np.where(above, anchor, qexp)
        qfrac = np.where(above, np.uint64(0), qfrac)
    else:  # flush
        qexp = np.where(above, np.int64(ieee.EXP_ZERO), qexp)
        qfrac = np.where(above, np.uint64(0), qfrac)

    # Below the fixed-point resolution: flush to zero in every policy.
    qexp = np.where(below, np.int64(ieee.EXP_ZERO), qexp)
    qfrac = np.where(below, np.uint64(0), qfrac)
    qexp = np.where(zero, np.int64(ieee.EXP_ZERO), qexp)
    return ieee.compose(sign, qexp, qfrac)
