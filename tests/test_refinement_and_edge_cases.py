"""Edge cases across solvers, operators, and codecs."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.formats import (
    DEFAULT_SPEC,
    ReFloatSpec,
    decompose,
    quantize_values,
    quantize_vector,
)
from repro.operators import ExactOperator, ReFloatOperator
from repro.solvers import ConvergenceCriterion, bicgstab, cg
from repro.solvers.base import as_operator, check_system
from repro.sparse.blocked import BlockedMatrix
from repro.sparse.gallery import laplacian_2d


class TestSolverEdgeCases:
    def test_one_by_one_system(self):
        A = sp.csr_matrix(np.array([[4.0]]))
        for solver in (cg, bicgstab):
            res = solver(A, np.array([8.0]))
            assert res.converged
            assert res.x[0] == pytest.approx(2.0)

    def test_identity_converges_in_one(self):
        A = sp.identity(50, format="csr")
        b = np.arange(50, dtype=float)
        res = cg(A, b)
        assert res.converged and res.iterations == 1
        assert np.allclose(res.x, b)

    def test_rectangular_operator_rejected(self):
        A = sp.csr_matrix(np.ones((3, 4)))
        with pytest.raises(ValueError):
            cg(A, np.ones(4))

    def test_b_must_be_vector(self):
        A = laplacian_2d(3)
        with pytest.raises(ValueError):
            check_system(as_operator(A), np.ones((3, 3)))

    @pytest.mark.parametrize("solver", [cg, bicgstab], ids=["cg", "bicgstab"])
    def test_divergence_detection(self, solver):
        # A strongly non-normal upper-bidiagonal matrix (1 on the diagonal,
        # 10 above it): the residual of either solver grows past twice its
        # initial norm within three iterations, and the guard must stop it
        # there rather than run to the iteration cap.
        A = sp.diags([np.ones(8), np.full(7, 10.0)], [0, 1], format="csr")
        b = A @ np.ones(8)
        crit = ConvergenceCriterion(tol=1e-12, max_iterations=1000,
                                    divergence_factor=2)
        res = solver(A, b, criterion=crit)
        assert not res.converged
        assert res.breakdown == "divergence"
        assert res.iterations == 3
        assert res.residual_norm > 2 * res.residual_history[0]

    def test_criterion_threshold(self):
        crit = ConvergenceCriterion(tol=1e-6, relative=True)
        assert crit.threshold(100.0) == pytest.approx(1e-4)
        crit_abs = ConvergenceCriterion(tol=1e-6, relative=False)
        assert crit_abs.threshold(100.0) == pytest.approx(1e-6)


class TestOperatorEdgeCases:
    def test_refloat_on_diagonal_matrix(self):
        A = sp.diags(np.linspace(1, 2, 64)).tocsr()
        op = ReFloatOperator(A, ReFloatSpec(b=4, e=3, f=8, ev=3, fv=16))
        x = np.ones(64)
        assert np.allclose(op.matvec(x), A @ x, rtol=1e-2)

    def test_refloat_rejects_nonfinite_matrix(self):
        A = sp.csr_matrix(np.array([[np.nan]]))
        with pytest.raises(ValueError):
            ReFloatOperator(A, ReFloatSpec(b=0))

    def test_matrix_smaller_than_block(self):
        A = sp.csr_matrix(np.array([[2.0, 1.0], [1.0, 2.0]]))
        op = ReFloatOperator(A, DEFAULT_SPEC)  # 128-blocks, 2x2 matrix
        res = cg(op, np.array([3.0, 3.0]))
        assert res.converged
        assert np.allclose(res.x, [1.0, 1.0], atol=1e-4)

    def test_exact_operator_repr(self):
        assert "MatrixOperator" in repr(ExactOperator(laplacian_2d(2)))


class TestCodecEdgeCases:
    def test_decompose_scalar_input(self):
        s, e, f = decompose(1.0)
        assert e == 0

    def test_quantize_single_value(self):
        q, eb = quantize_values(np.array([3.0]), 3, 3)
        assert q[0] == 3.0  # 1.1b x 2^1, fraction fits exactly

    def test_vector_shorter_than_segment(self):
        xq, ebv = quantize_vector(np.array([1.0, 2.0]), DEFAULT_SPEC)
        assert xq.shape == (2,) and ebv.shape == (1,)

    def test_negative_power_of_two_exact(self):
        q, _ = quantize_values(np.array([-0.25, -4.0]), 3, 0)
        assert q.tolist() == [-0.25, -4.0]

    def test_blocked_matrix_single_block(self):
        A = laplacian_2d(3)  # 9x9 inside one 128-block
        bm = BlockedMatrix(A, b=7)
        assert bm.n_blocks == 1
        assert bm.block_eb.shape == (1,)

    def test_spec_zero_fraction_bits(self):
        # f=0: magnitudes collapse to powers of two within the window.
        q, _ = quantize_values(np.array([3.0, 5.0, 9.0]), 3, 0)
        assert q.tolist() == [2.0, 4.0, 8.0]
