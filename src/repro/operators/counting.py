"""Instrumentation wrappers around SpMV operators."""

from __future__ import annotations

from typing import List

import numpy as np

from repro.solvers.base import as_operator, operator_matmat

__all__ = ["CountingOperator", "TracingOperator"]


class CountingOperator:
    """Counts operator applications (feeds the hardware timing model).

    ``count`` is the number of *engine contractions*: a ``matvec`` is one,
    and a batched ``matmat`` is also one — the accelerator programs its
    bit-sliced operand once and streams the whole batch through it, which is
    exactly the economy the service's lockstep gang exploits.  ``columns``
    tracks the total number of right-hand-side columns pushed (a ``matvec``
    adds 1, a ``matmat`` adds ``k``), so ``columns / count`` is the achieved
    batching factor.
    """

    def __init__(self, inner):
        self.inner = as_operator(inner)
        self.shape = self.inner.shape
        self.count = 0
        self.columns = 0

    def matvec(self, x: np.ndarray) -> np.ndarray:
        y = self.inner.matvec(x)
        self.count += 1
        self.columns += 1
        return y

    def matmat(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        # Count only successful applies: a failed call must not skew the
        # contraction accounting the timing model and tests read.
        Y = operator_matmat(self.inner, X)
        self.count += 1
        self.columns += X.shape[1]
        return Y

    def reset(self) -> None:
        self.count = 0
        self.columns = 0


class TracingOperator:
    """Records input/output norms of every apply (quantisation diagnostics)."""

    def __init__(self, inner):
        self.inner = as_operator(inner)
        self.shape = self.inner.shape
        self.input_norms: List[float] = []
        self.output_norms: List[float] = []

    def matvec(self, x: np.ndarray) -> np.ndarray:
        y = self.inner.matvec(x)
        self.input_norms.append(float(np.linalg.norm(x)))
        self.output_norms.append(float(np.linalg.norm(y)))
        return y

    def matmat(self, X: np.ndarray) -> np.ndarray:
        """Batched apply; records the Frobenius norms of the batch."""
        Y = operator_matmat(self.inner, X)
        self.input_norms.append(float(np.linalg.norm(X)))
        self.output_norms.append(float(np.linalg.norm(Y)))
        return Y
