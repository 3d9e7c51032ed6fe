"""Tests for the lockstep gang solver behind the service coalescer.

The coalescer's bit-identity guarantee rests on ``solve_lockstep``: the
unmodified single-RHS solver runs once per column, every column's matvec
rendezvous at a shared gate, and one ``operator_matmat`` serves each
round.  These tests pin the guarantee (outputs exactly equal to the
solver run once per column on its own) and the batching economy (one
matmat per gang round instead of one matvec per column per round).
"""

import numpy as np
import pytest

from repro.experiments.common import platform_operator
from repro.solvers import bicgstab, cg, solve_lockstep
from repro.sparse.gallery import build_matrix


class _CountingOperator:
    """Minimal operator protocol plus a batched matmat, both counted."""

    def __init__(self, A):
        self._A = A
        self.shape = A.shape
        self.n_matvecs = 0
        self.n_matmats = 0

    def matvec(self, x):
        self.n_matvecs += 1
        return self._A @ x

    def matmat(self, X):
        self.n_matmats += 1
        return self._A @ X


def _rhs_block(n, k, seed=11):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, k))


def _per_column(op, B, solver, X0=None):
    """The serial reference: ``solver`` once per column, on its own."""
    return [solver(op, B[:, j], x0=None if X0 is None else X0[:, j])
            for j in range(B.shape[1])]


@pytest.fixture
def spd_op():
    return _CountingOperator(build_matrix(2257, "test"))


class TestBitIdentity:
    @pytest.mark.parametrize("solver", [cg, bicgstab],
                             ids=["cg", "bicgstab"])
    def test_matches_per_column_on_counting_operator(self, spd_op, solver):
        B = _rhs_block(spd_op.shape[0], 5)
        serial = _per_column(spd_op, B, solver)
        gang = solve_lockstep(spd_op, B, solver)
        assert len(gang) == len(serial)
        for got, ref in zip(gang, serial):
            assert np.array_equal(got.x, ref.x)
            assert got.converged == ref.converged
            assert got.iterations == ref.iterations
            assert got.matvecs == ref.matvecs
            assert got.residual_history == ref.residual_history

    @pytest.mark.parametrize("platform", ["refloat", "gpu"])
    def test_matches_per_column_on_platform_operator(self, platform):
        _, op = platform_operator(2257, "test", platform=platform)
        B = _rhs_block(op.shape[0], 4)
        serial = _per_column(op, B, cg)
        gang = solve_lockstep(op, B, cg)
        for got, ref in zip(gang, serial):
            assert np.array_equal(got.x, ref.x)
            assert got.iterations == ref.iterations

    def test_single_column_and_1d_rhs(self, spd_op):
        b = _rhs_block(spd_op.shape[0], 1)
        one = solve_lockstep(spd_op, b, cg)
        ref = cg(spd_op, b[:, 0])
        assert len(one) == 1
        assert np.array_equal(one[0].x, ref.x)

    def test_initial_guess_columns(self, spd_op):
        B = _rhs_block(spd_op.shape[0], 3)
        X0 = _rhs_block(spd_op.shape[0], 3, seed=5) * 0.1
        gang = solve_lockstep(spd_op, B, cg, X0=X0)
        serial = _per_column(spd_op, B, cg, X0=X0)
        for got, ref in zip(gang, serial):
            assert np.array_equal(got.x, ref.x)


class TestBatchingEconomy:
    def test_one_matmat_per_round_no_per_column_matvecs(self, spd_op):
        k = 6
        B = _rhs_block(spd_op.shape[0], k)
        stats = {}
        gang = solve_lockstep(spd_op, B, cg, batch_stats=stats)
        # Every round was served by exactly one matmat: the gang never
        # fell back to per-column matvecs.
        assert spd_op.n_matvecs == 0
        assert spd_op.n_matmats == stats["matmats"] > 0
        assert stats["columns"] == k
        # The batch is an economy, not just a reshuffle: far fewer
        # operator applications than the serial path's sum of matvecs.
        assert stats["matmats"] < sum(r.matvecs for r in gang)

    def test_gang_shrinks_as_columns_converge(self, spd_op):
        n = spd_op.shape[0]
        rng = np.random.default_rng(3)
        # One trivially easy column (b = A @ e scaled) converges far
        # earlier than the random ones, so later rounds must be narrower.
        easy = spd_op._A @ np.ones(n) * 1e-12
        B = np.stack([easy, rng.standard_normal(n),
                      rng.standard_normal(n)], axis=1)
        stats = {}
        gang = solve_lockstep(spd_op, B, cg, batch_stats=stats)
        serial = _per_column(spd_op, B, cg)
        for got, ref in zip(gang, serial):
            assert np.array_equal(got.x, ref.x)
            assert got.iterations == ref.iterations
        widths = stats["round_widths"]
        assert widths[0] == 3
        assert widths[-1] < widths[0]


class TestValidation:
    def test_rejects_bad_initial_guess_shape(self, spd_op):
        B = _rhs_block(spd_op.shape[0], 2)
        with pytest.raises(ValueError, match="X0"):
            solve_lockstep(spd_op, B, cg, X0=np.zeros((spd_op.shape[0], 3)))

    def test_operator_failure_propagates(self):
        class Exploding:
            shape = (8, 8)

            def matvec(self, x):
                return x

            def matmat(self, X):
                raise RuntimeError("boom in matmat")

        with pytest.raises(RuntimeError, match="boom in matmat"):
            solve_lockstep(Exploding(), np.ones((8, 2)), cg)
