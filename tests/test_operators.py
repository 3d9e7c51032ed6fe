"""Tests for the SpMV platform operators."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.formats import ReFloatSpec
from repro.formats.feinberg import quantize_vector_feinberg_reference
from repro.operators import (
    ExactOperator,
    FeinbergFcOperator,
    FeinbergOperator,
    NoisyReFloatOperator,
    ReFloatOperator,
    TruncatedOperator,
)
from repro.sparse.blocked import BlockedMatrix
from repro.sparse.gallery import hex_mass_matrix, laplacian_2d, wathen


class TestExact:
    def test_matches_scipy(self, rng):
        A = laplacian_2d(6)
        x = rng.standard_normal(A.shape[0])
        assert np.array_equal(ExactOperator(A).matvec(x), A @ x)


class TestReFloat:
    def test_matrix_quantized_once_vector_per_apply(self, rng):
        A = wathen(6, 6, seed=1)
        spec = ReFloatSpec(b=5, e=3, f=3, ev=3, fv=8)
        op = ReFloatOperator(A, spec)
        # The stored matrix is the blockwise quantisation.
        assert op.A.nnz == sp.csr_matrix(A).nnz
        x = rng.standard_normal(A.shape[0])
        y = op.matvec(x)
        assert np.array_equal(y, op.A @ op.quantize_input(x))

    def test_full_precision_spec_is_exact(self, rng):
        A = laplacian_2d(8)
        spec = ReFloatSpec(b=5, e=11, f=52, ev=11, fv=52)
        op = ReFloatOperator(A, spec)
        x = rng.standard_normal(A.shape[0])
        # fv=52 with the 2^ev-binade DAC grid is exact for moderate ranges.
        assert np.allclose(op.matvec(x), A @ x, rtol=1e-12)

    def test_error_decreases_with_f(self, rng):
        A = wathen(6, 6, seed=2)
        x = rng.standard_normal(A.shape[0])
        y_exact = A @ x
        errs = []
        for f in (2, 6, 12):
            op = ReFloatOperator(A, ReFloatSpec(b=5, e=3, f=f, ev=3, fv=20))
            errs.append(np.linalg.norm(op.matvec(x) - y_exact))
        assert errs[0] > errs[1] > errs[2]

    def test_shape(self):
        A = laplacian_2d(5)
        assert ReFloatOperator(A, ReFloatSpec(b=4)).shape == A.shape


class TestFeinberg:
    def test_matrix_exact(self, rng):
        A = laplacian_2d(8)
        op = FeinbergOperator(A)
        # Vector within every window: matvec exact.
        x = np.ones(A.shape[0])
        assert np.allclose(op.matvec(x), A @ x)

    def test_mass_matrix_vector_wraps(self):
        # All-positive matrix: b = A @ ones exceeds per-column windows.
        A = hex_mass_matrix(4, seed=3)
        op = FeinbergOperator(A)
        b = A @ np.ones(A.shape[0])
        q = op.quantize_input(b)
        assert np.any(q != b)
        assert np.any(q < b * 2.0 ** -32)  # catastrophic wrap somewhere

    def test_global_anchor_mode(self, rng):
        # Every element is windowed against the one matrix anchor.
        A = laplacian_2d(6)
        op = FeinbergOperator(A, block_b=None)
        n = A.shape[0]
        x = rng.standard_normal(n) * np.exp2(rng.uniform(-80, 80, n))
        expected = quantize_vector_feinberg_reference(
            x, np.full(n, op.anchor), op.spec)
        assert np.array_equal(op.quantize_input(x), expected)

    def test_duplicate_entries_summed_like_partition(self):
        # (0,0) stored twice as 0.75: the entry the SpMV applies is 1.5, so
        # the window anchor is 0, as it is through BlockedMatrix.
        A = sp.csr_matrix((np.array([0.75, 0.75, 0.5]), np.array([0, 0, 1]),
                           np.array([0, 2, 3])), shape=(2, 2))
        kept = (A.data.copy(), A.indices.copy(), A.indptr.copy())
        op = FeinbergOperator(A)
        ref = FeinbergOperator(None, blocked=BlockedMatrix(A))
        assert op.anchor == ref.anchor == 0
        assert (op.A != ref.A).nnz == 0
        x = np.array([2.0 ** -63, 1.0])
        assert np.array_equal(op.matvec(x), ref.matvec(x))
        assert op.matvec(x)[1] == 0.5
        for arr, before in zip((A.data, A.indices, A.indptr), kept):
            assert np.array_equal(arr, before)
        assert not A.has_canonical_format

    def test_fc_is_fp64(self, rng):
        A = wathen(5, 5, seed=4)
        x = rng.standard_normal(A.shape[0])
        assert np.array_equal(FeinbergFcOperator(A).matvec(x), A @ x)


class TestTruncated:
    def test_full_width_exact(self, rng):
        A = laplacian_2d(6)
        x = rng.standard_normal(A.shape[0])
        op = TruncatedOperator(A, exp_bits=11, frac_bits=52)
        assert np.array_equal(op.matvec(x), A @ x)

    def test_fraction_truncation_applied_to_matrix(self):
        A = sp.csr_matrix(np.array([[1.0 + 2.0 ** -30]]))
        op = TruncatedOperator(A, exp_bits=11, frac_bits=20)
        assert op.A[0, 0] == 1.0

    def test_vector_truncation_toggle(self, rng):
        A = laplacian_2d(5)
        x = rng.standard_normal(A.shape[0]) * 1e-20
        with_vec = TruncatedOperator(A, 6, 52, truncate_vector=True)
        without = TruncatedOperator(A, 6, 52, truncate_vector=False)
        assert not np.array_equal(with_vec.matvec(x), without.matvec(x))


class TestNoisy:
    def test_zero_sigma_equals_refloat(self, rng):
        A = wathen(5, 5, seed=5)
        spec = ReFloatSpec(b=5)
        x = rng.standard_normal(A.shape[0])
        clean = ReFloatOperator(A, spec).matvec(x)
        noisy = NoisyReFloatOperator(A, spec, sigma=0.0).matvec(x)
        assert np.array_equal(clean, noisy)

    def test_fresh_noise_each_apply(self, rng):
        A = wathen(5, 5, seed=6)
        op = NoisyReFloatOperator(A, ReFloatSpec(b=5), sigma=0.05, seed=1)
        x = rng.standard_normal(A.shape[0])
        assert not np.array_equal(op.matvec(x), op.matvec(x))

    def test_frozen_noise_is_deterministic(self, rng):
        A = wathen(5, 5, seed=6)
        op = NoisyReFloatOperator(A, ReFloatSpec(b=5), sigma=0.05, seed=1,
                                  fresh_per_apply=False)
        x = rng.standard_normal(A.shape[0])
        assert np.array_equal(op.matvec(x), op.matvec(x))

    @pytest.mark.parametrize("fresh", [True, False], ids=["fresh", "frozen"])
    def test_noise_stream_pinned(self, rng, fresh):
        # Five applies against the noisy matrix built the long way: one
        # ``1 + sigma * N(0, 1)`` draw per apply (or one at construction
        # when frozen) from an identically seeded generator.
        A = wathen(5, 5, seed=8)
        spec, sigma, seed = ReFloatSpec(b=5), 0.25, 31
        op = NoisyReFloatOperator(A, spec, sigma=sigma, seed=seed,
                                  fresh_per_apply=fresh)
        clean = ReFloatOperator(A, spec)
        ref_rng = np.random.default_rng(seed)
        nnz = clean.A.nnz

        def draw():
            return 1.0 + sigma * ref_rng.standard_normal(nnz)

        frozen = None if fresh else draw()
        for _ in range(5):
            x = rng.standard_normal(A.shape[0])
            factor = draw() if fresh else frozen
            noisy = sp.csr_matrix(
                (clean.A.data * factor, clean.A.indices, clean.A.indptr),
                shape=clean.A.shape)
            ref = noisy @ clean.quantize_input(x)
            np.testing.assert_array_equal(op.matvec(x).view(np.uint64),
                                          ref.view(np.uint64))
        assert op.rng.standard_normal() == ref_rng.standard_normal()

    def test_noise_magnitude_scales_with_sigma(self, rng):
        A = wathen(5, 5, seed=7)
        x = rng.standard_normal(A.shape[0])
        base = ReFloatOperator(A, ReFloatSpec(b=5)).matvec(x)
        errs = []
        for sigma in (0.01, 0.1):
            op = NoisyReFloatOperator(A, ReFloatSpec(b=5), sigma=sigma, seed=2)
            errs.append(np.linalg.norm(op.matvec(x) - base))
        assert errs[1] > 3 * errs[0]

    def test_sigma_validated(self):
        with pytest.raises(ValueError):
            NoisyReFloatOperator(laplacian_2d(4), ReFloatSpec(b=4), sigma=1.5)

