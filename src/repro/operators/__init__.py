"""SpMV platform operators: exact, ReFloat, Feinberg, truncated, noisy."""

from repro.operators.feinberg_op import FeinbergFcOperator, FeinbergOperator
from repro.operators.noisy import NoisyReFloatOperator
from repro.operators.refloat_op import ReFloatOperator
from repro.operators.truncated_op import TruncatedOperator
from repro.solvers.base import MatrixOperator as ExactOperator

__all__ = [
    "FeinbergFcOperator",
    "FeinbergOperator",
    "NoisyReFloatOperator",
    "ReFloatOperator",
    "TruncatedOperator",
    "ExactOperator",
]
