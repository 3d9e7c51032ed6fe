"""Unit tests for the ReFloat format codec."""

import numpy as np
import pytest

from repro.formats.refloat import (
    DEFAULT_SPEC,
    ReFloatSpec,
    covering_exponent_base,
    decode_values,
    encode_values,
    exponent_loss,
    offset_bounds,
    optimal_exponent_base,
    quantize_values,
    quantize_vector,
    vector_segment_bases,
)


class TestSpec:
    def test_default_matches_table7(self):
        assert (DEFAULT_SPEC.b, DEFAULT_SPEC.e, DEFAULT_SPEC.f,
                DEFAULT_SPEC.ev, DEFAULT_SPEC.fv) == (7, 3, 3, 3, 8)

    def test_block_size(self):
        assert ReFloatSpec(b=7).block_size == 128
        assert ReFloatSpec(b=0).block_size == 1

    def test_value_bits(self):
        spec = ReFloatSpec(b=2, e=2, f=3)
        assert spec.matrix_value_bits == 6  # the Sec. IV-A example: 1+2+3

    def test_validation(self):
        with pytest.raises(ValueError):
            ReFloatSpec(b=-1)
        with pytest.raises(ValueError):
            ReFloatSpec(f=53)
        with pytest.raises(ValueError):
            ReFloatSpec(rounding="round")
        with pytest.raises(ValueError):
            ReFloatSpec(eb_policy="median")
        with pytest.raises(ValueError):
            ReFloatSpec(underflow="wrap")

    def test_with_vector_bits(self):
        spec = DEFAULT_SPEC.with_vector_bits(fv=16)
        assert spec.fv == 16 and spec.ev == DEFAULT_SPEC.ev
        assert DEFAULT_SPEC.fv == 8  # original untouched (frozen)

    def test_str(self):
        assert str(DEFAULT_SPEC) == "ReFloat(7,3,3)(3,8)"


class TestExponentBases:
    def test_offset_bounds_full_signed_range(self):
        assert offset_bounds(3) == (-4, 3)
        assert offset_bounds(1) == (-1, 0)
        assert offset_bounds(0) == (0, 0)

    def test_optimal_base_is_round_mean(self):
        assert optimal_exponent_base(np.array([7, 8, 9, 7])) == 8  # Eq. 6 example
        assert optimal_exponent_base(np.array([0, 1])) == 1  # half rounds up
        assert optimal_exponent_base(np.array([])) == 0

    def test_mean_base_minimises_loss(self, rng):
        exps = rng.integers(-20, 20, 64)
        eb = optimal_exponent_base(exps)
        for other in (eb - 1, eb + 1):
            assert exponent_loss(exps, eb) <= exponent_loss(exps, other)

    def test_covering_base_puts_max_at_window_top(self):
        eb = covering_exponent_base(10, 3)
        lo, hi = offset_bounds(3)
        assert eb + hi == 10
        assert covering_exponent_base(10, 0) == 10


class TestQuantizeValues:
    def test_paper_eq6_eq7_worked_example(self):
        vals = np.array([-248.0, 336.0, -512.0, 136.0])
        q, eb = quantize_values(vals, e=2, f=2)
        assert eb[0] == 8
        assert np.array_equal(q, [-224.0, 320.0, -512.0, 128.0])

    def test_mean_policy_same_example(self):
        vals = np.array([-248.0, 336.0, -512.0, 136.0])
        q, eb = quantize_values(vals, e=2, f=2, eb_policy="mean")
        assert eb[0] == 8
        assert np.array_equal(q, [-224.0, 320.0, -512.0, 128.0])

    def test_full_precision_is_identity(self, rng):
        x = rng.standard_normal(500) * np.exp2(rng.uniform(-30, 30, 500))
        q, _ = quantize_values(x, e=11, f=52)
        assert np.array_equal(q, x)

    def test_zero_passthrough(self):
        q, _ = quantize_values(np.array([0.0, 4.0]), e=3, f=3)
        assert q[0] == 0.0 and q[1] == 4.0

    def test_in_window_error_bound(self, rng):
        # All exponents within the window: error purely from the fraction.
        x = np.exp2(rng.uniform(0, 2.9, 200))
        q, _ = quantize_values(x, e=3, f=4)
        rel = np.abs(q - x) / x
        assert np.all(rel < 2.0 ** -4)

    def test_truncation_never_increases_magnitude_in_window(self, rng):
        x = np.exp2(rng.uniform(0, 2.9, 200)) * np.sign(rng.standard_normal(200))
        q, _ = quantize_values(x, e=3, f=3)
        assert np.all(np.abs(q) <= np.abs(x))

    def test_cover_policy_never_shrinks_largest(self):
        x = np.array([1024.0, 1.0, 2.0 ** -20])
        q, _ = quantize_values(x, e=3, f=3, eb_policy="cover")
        assert q[0] == 1024.0  # top of window, fraction exact (power of two)

    def test_underflow_flush_vs_saturate(self):
        x = np.array([1024.0, 2.0 ** -20])
        qf, _ = quantize_values(x, e=3, f=3, underflow="flush")
        qs, _ = quantize_values(x, e=3, f=3, underflow="saturate")
        assert qf[1] == 0.0
        lo, _ = offset_bounds(3)
        eb = covering_exponent_base(10, 3)
        assert qs[1] == 2.0 ** (eb + lo)  # inflated to the window bottom

    def test_mean_policy_saturates_above(self):
        # Outlier far above the mean-based window is shrunk (saturated at hi).
        x = np.concatenate((np.ones(63), [2.0 ** 20]))
        q, eb = quantize_values(x, e=3, f=3, eb_policy="mean")
        assert q[-1] < 2.0 ** 20

    def test_idempotent(self, rng):
        x = rng.standard_normal(256) * np.exp2(rng.uniform(-3, 3, 256))
        q1, eb = quantize_values(x, e=3, f=3)
        q2, _ = quantize_values(q1, e=3, f=3, eb=eb)
        assert np.array_equal(q1, q2)

    def test_rejects_bad_policy(self):
        with pytest.raises(ValueError):
            quantize_values(np.ones(4), 3, 3, eb_policy="nope")
        with pytest.raises(ValueError):
            quantize_values(np.ones(4), 3, 3, underflow="nope")
        with pytest.raises(ValueError):
            quantize_values(np.ones(4), 3, 3, rounding="nope")


class TestEncodeDecode:
    def test_roundtrip_matches_quantize(self, rng):
        vals = rng.standard_normal(64) * np.exp2(rng.uniform(-3, 3, 64))
        enc = encode_values(vals, e=3, f=5)
        dec = decode_values(enc)
        q, _ = quantize_values(vals, e=3, f=5, eb=enc.eb, underflow="saturate")
        assert np.array_equal(dec, q)

    def test_fields_in_range(self, rng):
        vals = rng.standard_normal(64) * np.exp2(rng.uniform(-10, 10, 64))
        enc = encode_values(vals, e=3, f=4)
        lo, hi = offset_bounds(3)
        assert enc.offset.min() >= lo and enc.offset.max() <= hi
        assert int(enc.frac.max()) < (1 << 4)
        assert set(np.unique(enc.sign)) <= {0, 1}
        assert enc.size == 64

    def test_rejects_zeros(self):
        with pytest.raises(ValueError):
            encode_values(np.array([1.0, 0.0]), 3, 3)


class TestVectorConverter:
    def test_segment_bases_cover(self):
        x = np.concatenate((np.full(128, 8.0), np.full(128, 0.5)))
        ebv = vector_segment_bases(x, b=7, ev=3)
        assert ebv.tolist() == [3 - 3, -1 - 3]

    def test_empty_segment_base_zero(self):
        x = np.zeros(256)
        x[0] = 4.0
        ebv = vector_segment_bases(x, b=7, ev=3)
        assert ebv[1] == 0

    def test_dac_grid_quantisation(self):
        spec = ReFloatSpec(b=2, e=3, f=3, ev=3, fv=4)
        # segment of 4; top exponent 0 -> ulp = 2^(0-7-4) = 2^-11
        x = np.array([1.0, 2.0 ** -11, 2.0 ** -12, 0.75])
        xq, ebv = quantize_vector(x, spec)
        assert xq[0] == 1.0
        assert xq[1] == 2.0 ** -11      # exactly one ulp
        assert xq[2] == 0.0             # below the ulp -> truncates to zero
        assert xq[3] == 0.75            # on the grid
        assert ebv.shape == (1,)

    def test_dac_truncates_toward_zero(self):
        spec = ReFloatSpec(b=2, e=3, f=3, ev=3, fv=4)
        x = np.array([-1.0, -(2.0 ** -12), 1.5 * 2.0 ** -11, 0.0])
        xq, _ = quantize_vector(x, spec)
        assert xq[0] == -1.0
        assert xq[1] == 0.0             # magnitude truncation
        assert xq[2] == 2.0 ** -11
        assert xq[3] == 0.0

    def test_zero_vector(self):
        xq, ebv = quantize_vector(np.zeros(300), DEFAULT_SPEC)
        assert np.all(xq == 0)
        assert ebv.shape == (3,)

    def test_empty_vector(self):
        xq, ebv = quantize_vector(np.zeros(0), DEFAULT_SPEC)
        assert xq.size == 0 and ebv.size == 0

    def test_relative_error_bound(self, rng):
        spec = DEFAULT_SPEC
        x = rng.standard_normal(1024)
        xq, _ = quantize_vector(x, spec)
        # Per segment, error <= ulp = 2^(top - 7 - 8) <= |seg|_max * 2^-14.
        for s in range(0, 1024, 128):
            seg, segq = x[s:s + 128], xq[s:s + 128]
            assert np.max(np.abs(seg - segq)) <= np.max(np.abs(seg)) * 2.0 ** -14
