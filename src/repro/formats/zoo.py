"""Named floating-point formats as ReFloat special cases (Table III).

The paper observes that ReFloat generalises the common reduced-precision
formats: with block size 1 (``b = 0``) the block exponent base is the value's
own exponent, offsets are 0, and the format degenerates to a plain
(sign, exponent, fraction) float with the given bit budget.  Table III:

====================  =====================
Int8                  ReFloat(0, 0, 7)
Int16                 ReFloat(0, 0, 15)
bfloat16              ReFloat(0, 8, 7)
ms-fp9                ReFloat(0, 5, 3)
FP32 (float)          ReFloat(0, 8, 23)
TensorFloat32         ReFloat(0, 8, 10)
FP64 (double)         ReFloat(0, 11, 52)
BFP64                 ReFloat(6, 0, 52)
====================  =====================

The named specs here set ``ev/fv`` equal to ``e/f`` (vector treated the same
as the matrix) — these are format descriptions, not accelerator configs.
No paper experiment runs them; ``examples/format_explorer.py`` prints the
table through :func:`quantize_to_named_format`.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.formats.refloat import ReFloatSpec, quantize_values

__all__ = ["FORMAT_ZOO", "named_spec", "quantize_to_named_format"]


def _spec(b: int, e: int, f: int) -> ReFloatSpec:
    return ReFloatSpec(b=b, e=e, f=f, ev=e, fv=f)


#: Table III, exactly.
FORMAT_ZOO: Dict[str, ReFloatSpec] = {
    "int8": _spec(0, 0, 7),
    "int16": _spec(0, 0, 15),
    "bfloat16": _spec(0, 8, 7),
    "ms-fp9": _spec(0, 5, 3),
    "fp32": _spec(0, 8, 23),
    "tensorfloat32": _spec(0, 8, 10),
    "fp64": _spec(0, 11, 52),
    "bfp64": _spec(6, 0, 52),
}


def named_spec(name: str) -> ReFloatSpec:
    """Look up a Table III format by (case-insensitive) name."""
    key = name.lower()
    if key not in FORMAT_ZOO:
        raise KeyError(
            f"unknown format {name!r}; available: {sorted(FORMAT_ZOO)}"
        )
    return FORMAT_ZOO[key]


def quantize_to_named_format(x, name: str) -> np.ndarray:
    """Quantise values elementwise under a Table III format.

    For ``b = 0`` formats each value is its own block, so the exponent base is
    the value's own exponent and only the fraction truncation bites (the
    *exponent field width* of e.g. bfloat16 constrains range, which float64
    inputs in this package never exceed — consistent with treating these as
    fraction-budget comparisons, as the paper's Figure 1 does).
    """
    spec = named_spec(name)
    x = np.asarray(x, dtype=np.float64)
    if spec.b == 0:
        out, _ = quantize_values(x, spec.e, spec.f, eb=None if x.size == 1 else _own_base(x),
                                 rounding=spec.rounding)
        return out
    # Blocked formats (BFP64): quantise per block of 2^b.
    size = spec.block_size
    out = np.empty_like(x)
    for start in range(0, x.size, size):
        seg = x[start:start + size]
        out[start:start + size], _ = quantize_values(seg, spec.e, spec.f,
                                                     rounding=spec.rounding)
    return out


def _own_base(x: np.ndarray) -> np.ndarray:
    """Per-element exponent base = each value's own exponent (b = 0 case)."""
    from repro.formats import ieee

    _, exp, _ = ieee.decompose(x)
    return np.where(exp == ieee.EXP_ZERO, 0, exp).astype(np.int32)
