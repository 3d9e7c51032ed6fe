"""Number formats: IEEE-754 bit tools, ReFloat, Feinberg, format zoo."""

from repro.formats.ieee import (
    EXP_ZERO,
    FRAC_BITS,
    EXP_BIAS,
    decompose,
    compose,
    exponent_of,
    truncate_fraction,
    round_fraction,
    quantize_ieee,
)
from repro.formats.refloat import (
    ReFloatSpec,
    DEFAULT_SPEC,
    EncodedBlock,
    optimal_exponent_base,
    covering_exponent_base,
    exponent_loss,
    offset_bounds,
    quantize_values,
    encode_values,
    decode_values,
    quantize_vector,
    vector_segment_bases,
)
from repro.formats.feinberg import (
    FeinbergSpec,
    matrix_anchor_exponent,
    quantize_vector_feinberg,
)
from repro.formats.zoo import FORMAT_ZOO, named_spec, quantize_to_named_format

__all__ = [
    "EXP_ZERO",
    "FRAC_BITS",
    "EXP_BIAS",
    "decompose",
    "compose",
    "exponent_of",
    "truncate_fraction",
    "round_fraction",
    "quantize_ieee",
    "ReFloatSpec",
    "DEFAULT_SPEC",
    "EncodedBlock",
    "optimal_exponent_base",
    "covering_exponent_base",
    "exponent_loss",
    "offset_bounds",
    "quantize_values",
    "encode_values",
    "decode_values",
    "quantize_vector",
    "vector_segment_bases",
    "FeinbergSpec",
    "matrix_anchor_exponent",
    "quantize_vector_feinberg",
    "FORMAT_ZOO",
    "named_spec",
    "quantize_to_named_format",
]
