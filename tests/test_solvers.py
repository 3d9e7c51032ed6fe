"""Tests for the CG and BiCGSTAB solvers (exact operator).

``TestSolverLoop`` also runs ``cg`` and ``bicgstab`` on every platform
operator against a plain ``A @ q(x)`` oracle.
"""

import math

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.formats import ReFloatSpec
from repro.formats.feinberg import quantize_vector_feinberg_reference
from repro.formats.ieee import quantize_ieee
from repro.operators import (
    ExactOperator,
    FeinbergOperator,
    NoisyReFloatOperator,
    ReFloatOperator,
    TruncatedOperator,
)
from repro.solvers import (
    ConvergenceCriterion,
    bicgstab,
    cg,
    iterative_refinement,
)
from repro.sparse.gallery import hex_mass_matrix, laplacian_2d, wathen


def system(n=10):
    A = laplacian_2d(n)
    x_true = np.ones(A.shape[0])
    return A, A @ x_true, x_true


CRIT = ConvergenceCriterion(tol=1e-10, max_iterations=5000)


class TestCG:
    def test_solves_spd(self):
        A, b, x_true = system()
        res = cg(A, b, criterion=CRIT)
        assert res.converged
        assert np.linalg.norm(res.x - x_true) < 1e-7
        assert res.matvecs == res.iterations

    def test_residual_history_matches_true_residual(self):
        A, b, _ = system(6)
        res = cg(A, b, criterion=CRIT)
        true_res = np.linalg.norm(b - A @ res.x)
        assert abs(true_res - res.residual_norm) < 1e-9 * np.linalg.norm(b)
        assert res.residual_history[0] == pytest.approx(np.linalg.norm(b))
        assert len(res.residual_history) == res.iterations + 1

    def test_exact_in_n_iterations(self):
        # CG terminates in at most n steps in exact arithmetic.
        rng = np.random.default_rng(1)
        M = rng.standard_normal((12, 12))
        A = sp.csr_matrix(M @ M.T + 12 * np.eye(12))
        b = rng.standard_normal(12)
        res = cg(A, b, criterion=ConvergenceCriterion(tol=1e-12))
        assert res.converged and res.iterations <= 12

    def test_x0_respected(self):
        A, b, x_true = system()
        res = cg(A, b, x0=x_true.copy(), criterion=CRIT)
        assert res.converged and res.iterations == 0

    def test_zero_rhs(self):
        A, _, _ = system()
        res = cg(A, np.zeros(A.shape[0]))
        assert res.converged and res.iterations == 0
        assert np.all(res.x == 0)

    def test_max_iterations_respected(self):
        A, b, _ = system()
        res = cg(A, b, criterion=ConvergenceCriterion(tol=1e-30,
                                                      max_iterations=3))
        assert not res.converged and res.iterations == 3

    def test_dimension_mismatch(self):
        A, _, _ = system()
        with pytest.raises(ValueError):
            cg(A, np.ones(3))

    def test_nonfinite_rhs(self):
        A, b, _ = system()
        b[0] = np.inf
        with pytest.raises(ValueError):
            cg(A, b)

    def test_relative_vs_absolute_tolerance(self):
        A, b, _ = system()
        rel = cg(A, b, criterion=ConvergenceCriterion(tol=1e-6, relative=True))
        absb = cg(A, b, criterion=ConvergenceCriterion(tol=1e-6, relative=False))
        assert absb.residual_norm <= 1e-6
        assert rel.residual_norm <= 1e-6 * np.linalg.norm(b)


class TestBiCGSTAB:
    def test_solves_spd(self):
        A, b, x_true = system()
        res = bicgstab(A, b, criterion=CRIT)
        assert res.converged
        assert np.linalg.norm(res.x - x_true) < 1e-6

    def test_solves_nonsymmetric(self):
        rng = np.random.default_rng(2)
        n = 40
        A = sp.csr_matrix(np.eye(n) * 4 + 0.5 * rng.standard_normal((n, n)) / np.sqrt(n))
        x_true = rng.standard_normal(n)
        res = bicgstab(A, A @ x_true, criterion=CRIT)
        assert res.converged
        assert np.linalg.norm(res.x - x_true) < 1e-6

    def test_two_matvecs_per_iteration(self):
        A, b, _ = system()
        res = bicgstab(A, b, criterion=CRIT)
        assert res.matvecs <= 2 * res.iterations + 1

    def test_zero_rhs(self):
        A, _, _ = system()
        res = bicgstab(A, np.zeros(A.shape[0]))
        assert res.converged and res.iterations == 0


#: Signed zeros, subnormals, values whose squares overflow, infinities, NaN.
_EDGE_VALUES = [0.0, -0.0, 5e-324, -2.5e-310, 1e-200, 1e200, -1e200, 1.0,
                -3.5, np.inf, -np.inf, np.nan]


class _MatmulOracle:
    """A platform's SpMV as the plain ``A @ q(x)`` expression.

    With ``noise=(sigma, seed)`` every apply multiplies the values by its
    own ``1 + sigma * N(0, 1)`` draw and builds that apply's noisy CSR.
    """

    def __init__(self, A, quantize, noise=None):
        self.A, self.shape, self.quantize = A, A.shape, quantize
        self.noise = None
        if noise is not None:
            self.noise = (noise[0], np.random.default_rng(noise[1]))

    def matvec(self, x):
        xq = self.quantize(np.asarray(x, dtype=np.float64))
        if self.noise is None:
            return self.A @ xq
        sigma, rng = self.noise
        factor = 1.0 + sigma * rng.standard_normal(self.A.nnz)
        noisy = sp.csr_matrix((self.A.data * factor, self.A.indices,
                               self.A.indptr), shape=self.shape)
        return noisy @ xq


def _platform_pair(platform, A):
    """A platform operator and its ``A @ q(x)`` oracle."""
    spec = ReFloatSpec(b=5)
    if platform == "exact":
        return ExactOperator(A), _MatmulOracle(sp.csr_matrix(A), lambda x: x)
    if platform == "refloat":
        op = ReFloatOperator(A, spec)
        return op, _MatmulOracle(op.A, op.quantize_input)
    if platform == "feinberg":
        op = FeinbergOperator(A)
        return op, _MatmulOracle(op.A, lambda x: quantize_vector_feinberg_reference(
            x, op.anchor, op.spec))
    if platform == "truncated":
        op = TruncatedOperator(A, exp_bits=6)
        return op, _MatmulOracle(op.A, lambda x: quantize_ieee(x, 6, 52))
    op = NoisyReFloatOperator(A, spec, sigma=0.25, seed=5)
    clean = ReFloatOperator(A, spec)
    return op, _MatmulOracle(clean.A, clean.quantize_input, noise=(0.25, 5))


class TestSolverLoop:
    """The cg/bicgstab loops keep every bit of the numpy-wrapper versions."""

    @given(st.lists(st.one_of(st.sampled_from(_EDGE_VALUES), st.floats()),
                    max_size=40))
    @settings(max_examples=300, deadline=None)
    def test_primitives_match_numpy(self, values):
        v = np.array(values, dtype=np.float64)
        with np.errstate(over="ignore", invalid="ignore"):
            ours, ref = math.sqrt(v.dot(v)), float(np.linalg.norm(v))
        if math.isnan(ref):
            assert math.isnan(ours)
        else:
            assert (np.float64(ours).view(np.uint64)
                    == np.float64(ref).view(np.uint64))
        assert np.isfinite(v).all() == np.all(np.isfinite(v))
        # The loops test their scalars (norms, inner products) this way.
        for scalar in values:
            assert math.isfinite(scalar) == np.isfinite(scalar)

    @pytest.mark.parametrize("matrix", ["wathen", "hex-mass"])
    @pytest.mark.parametrize("platform", ["exact", "refloat", "feinberg",
                                          "truncated", "noisy"])
    @pytest.mark.parametrize("solver", [cg, bicgstab], ids=["cg", "bicgstab"])
    def test_platform_solve_matches_matmul_oracle(self, solver, platform,
                                                  matrix):
        A = (wathen(4, 4, seed=3) if matrix == "wathen"
             else hex_mass_matrix(3, seed=4))
        b = np.random.default_rng(2).standard_normal(A.shape[0])
        op, oracle = _platform_pair(platform, A)
        crit = ConvergenceCriterion(tol=1e-12, max_iterations=500)
        ours = solver(op, b, criterion=crit)
        ref = solver(oracle, b, criterion=crit)
        np.testing.assert_array_equal(ours.x.view(np.uint64),
                                      ref.x.view(np.uint64))
        assert ours.iterations == ref.iterations
        assert ours.breakdown == ref.breakdown
        np.testing.assert_array_equal(
            np.array(ours.residual_history).view(np.uint64),
            np.array(ref.residual_history).view(np.uint64))


#: Every solver taking an initial guess.
GUESS_SOLVERS = [cg, bicgstab]
GUESS_IDS = ["cg", "bicgstab"]


class TestInitialGuessValidation:
    """x0 must fail fast with a named error, not a deep broadcast crash."""

    @pytest.mark.parametrize("solver", GUESS_SOLVERS, ids=GUESS_IDS)
    def test_wrong_length_x0(self, solver):
        A, b, _ = system()
        with pytest.raises(ValueError, match="x0 must have shape"):
            solver(A, b, x0=np.ones(b.size + 3))

    @pytest.mark.parametrize("solver", GUESS_SOLVERS, ids=GUESS_IDS)
    def test_wrong_ndim_x0(self, solver):
        A, b, _ = system()
        with pytest.raises(ValueError, match="x0 must have shape"):
            solver(A, b, x0=np.ones((b.size, 1)))

    @pytest.mark.parametrize("solver", GUESS_SOLVERS, ids=GUESS_IDS)
    def test_non_finite_x0(self, solver):
        A, b, _ = system()
        x0 = np.zeros(b.size)
        x0[3] = np.nan
        with pytest.raises(ValueError, match="x0 contains non-finite"):
            solver(A, b, x0=x0)

    @pytest.mark.parametrize("solver", GUESS_SOLVERS, ids=GUESS_IDS)
    def test_x0_not_mutated(self, solver):
        A, b, _ = system()
        x0 = np.full(b.size, 0.5)
        keep = x0.copy()
        solver(A, b, x0=x0, criterion=CRIT)
        np.testing.assert_array_equal(x0, keep)


class TestIterativeRefinement:
    def test_refines_quantized_inner_solver(self):
        from repro.operators import ReFloatOperator
        from repro.formats import ReFloatSpec

        A = laplacian_2d(12)
        b = A @ np.ones(A.shape[0])
        inner = ReFloatOperator(A, ReFloatSpec(b=5, e=3, f=3, ev=3, fv=8))
        out = iterative_refinement(A, inner, b, outer_tol=1e-12,
                                   inner_tol=1e-6)
        assert out.converged
        assert out.residual_norm <= 1e-12 * np.linalg.norm(b)
        assert out.outer_iterations >= 2  # genuinely needed refinement

    def test_zero_rhs(self):
        A = laplacian_2d(4)
        out = iterative_refinement(A, A, np.zeros(A.shape[0]))
        assert out.converged and out.outer_iterations == 0
