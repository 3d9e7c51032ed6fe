"""Lockstep gang batching: many single-RHS solves, one ``matmat`` per round.

The solve service (:mod:`repro.service`) coalesces concurrent same-key
vector jobs and wants two things at once: one operator application per
iteration across the ``k`` right-hand sides, and results **bit-identical**
to running each request through the plain single-vector solver on its own.

:func:`solve_lockstep` gets both by construction.  Each column runs the
*unmodified* single-vector solver it is handed (the daemon passes the
registered ``SolverSpec.solve``) on its own worker thread, against a proxy
operator whose ``matvec`` rendezvous at a shared gate.  Once every
still-active column has submitted its vector, one
:func:`~repro.solvers.base.operator_matmat` over the stacked columns serves
the whole round, and each column receives exactly its output column back.
Every platform operator's ``matmat`` is pinned bit-identical per column to
its ``matvec`` (see :class:`~repro.solvers.base.MatrixOperator`), so each
column's iterates, iteration count, residual history and breakdown
behaviour are bit-identical to calling the solver once per column — while
the engine sees one contraction per round instead of ``k``.

Columns are allowed heterogeneous lifetimes: a column that converges,
breaks down, or exits before its first apply simply leaves the gang, and
later rounds batch only the survivors (``bicgstab``'s two applies per
iteration stay in lockstep with themselves the same way).
"""

from __future__ import annotations

import threading
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.solvers.base import (
    ConvergenceCriterion,
    SolverResult,
    as_operator,
    check_block_system,
    check_initial_guess,
    operator_matmat,
)

__all__ = ["solve_lockstep"]


class _GateAborted(RuntimeError):
    """Internal: the shared operator application failed; unwind the column
    threads so the original error can propagate from the gang call."""


class _LockstepGate:
    """The rendezvous point: collects one vector per active column, applies
    the operator once, and demuxes the output columns."""

    def __init__(self, op, n_cols: int):
        self._op = op
        self._cond = threading.Condition()
        self._active = n_cols
        self._pending: Dict[int, np.ndarray] = {}
        self._outputs: Dict[int, np.ndarray] = {}
        self._round = 0
        self.rounds = 0
        self.round_widths: List[int] = []
        self.error: Optional[BaseException] = None

    def apply(self, col: int, x: np.ndarray) -> np.ndarray:
        with self._cond:
            if self.error is not None:
                raise _GateAborted()
            token = self._round
            self._pending[col] = x
            if len(self._pending) == self._active:
                self._flush()
            else:
                while self._round == token and self.error is None:
                    self._cond.wait()
            if self.error is not None:
                raise _GateAborted()
            return self._outputs.pop(col)

    def leave(self, col: int) -> None:
        """A column's solver returned (or raised): shrink the gang.

        If every remaining active column is already waiting at the gate,
        this departure is what completes the round — flush it.
        """
        with self._cond:
            self._active -= 1
            if (self.error is None and self._pending
                    and len(self._pending) == self._active):
                self._flush()

    def _flush(self) -> None:
        # Caller holds the lock; every other active column is parked in
        # wait(), so doing the batched apply under the lock serialises
        # nothing that could otherwise run.
        cols = sorted(self._pending)
        X = np.stack([self._pending[c] for c in cols], axis=1)
        try:
            Y = operator_matmat(self._op, X)
        except BaseException as exc:  # surface from the gang call itself
            self.error = exc
            self._pending.clear()
            self._cond.notify_all()
            return
        for i, c in enumerate(cols):
            # Contiguous per-column copies: the solver's vector arithmetic
            # must see exactly what a standalone matvec would have returned.
            self._outputs[c] = np.ascontiguousarray(Y[:, i])
        self._pending.clear()
        self.round_widths.append(len(cols))
        self._round += 1
        self.rounds += 1
        self._cond.notify_all()


class _GangColumn:
    """One column's operator proxy: ``matvec`` rendezvous at the gate."""

    def __init__(self, gate: _LockstepGate, col: int, shape: tuple):
        self._gate = gate
        self._col = col
        self.shape = shape

    def matvec(self, x: np.ndarray) -> np.ndarray:
        return self._gate.apply(self._col,
                                np.asarray(x, dtype=np.float64))


def solve_lockstep(
    A,
    B,
    solver: Callable[..., SolverResult],
    X0: Optional[np.ndarray] = None,
    criterion: Optional[ConvergenceCriterion] = None,
    batch_stats: Optional[dict] = None,
    **kwargs,
) -> List[SolverResult]:
    """Solve ``A x_j = b_j`` for every column of ``B``, gang-scheduled.

    Parameters
    ----------
    A : sparse matrix or LinearOperator
        The shared operator; built once.  Its ``matmat`` (when present)
        serves each lockstep round in one batched application.
    B : array_like of shape (n, k)
        Right-hand sides.  Duplicated or correlated columns are fine —
        columns never mix numerically.
    solver : callable
        A *single-vector* solver with the ``solver(A, b, x0=...,
        criterion=..., **kwargs)`` convention (``cg``, ``bicgstab``, a
        registered ``SolverSpec.solve``); each column runs it verbatim.
    X0 : array_like of shape (n, k), optional
        Per-column initial guesses.
    criterion : ConvergenceCriterion, optional
    batch_stats : dict, optional
        When given, updated in place with the batching economy achieved:
        ``{"columns": k, "matmats": rounds, "round_widths": [...]}`` —
        ``matmats`` is the number of batched applications the operator saw
        (serial execution would have paid ``sum(round_widths)`` matvecs).
    **kwargs
        Forwarded to the underlying solver.

    Returns
    -------
    list of SolverResult, one per column of ``B`` (in column order), each
    bit-identical to ``solver(A, B[:, j], ...)`` run on its own.
    """
    op = as_operator(A)
    B = check_block_system(op, B)
    X0 = check_initial_guess(X0, B.shape, name="X0", copy=False)
    k = B.shape[1]
    gate = _LockstepGate(op, k)
    results: List[Optional[SolverResult]] = [None] * k
    errors: List[Optional[BaseException]] = [None] * k

    def column(j: int) -> None:
        proxy = _GangColumn(gate, j, op.shape)
        b = np.ascontiguousarray(B[:, j])
        x0 = None if X0 is None else np.ascontiguousarray(X0[:, j])
        try:
            results[j] = solver(proxy, b, x0=x0, criterion=criterion,
                                **kwargs)
        except BaseException as exc:
            errors[j] = exc
        finally:
            gate.leave(j)

    if k == 1:
        column(0)  # no thread needed: a gang of one still rounds trivially
    else:
        threads = [threading.Thread(target=column, args=(j,),
                                    name=f"lockstep-{j}", daemon=True)
                   for j in range(k)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    if gate.error is not None:
        raise gate.error
    for exc in errors:
        if exc is not None and not isinstance(exc, _GateAborted):
            raise exc
    if batch_stats is not None:
        batch_stats["columns"] = k
        batch_stats["matmats"] = gate.rounds
        batch_stats["round_widths"] = list(gate.round_widths)
    return results  # type: ignore[return-value]
