"""Tests for the Table III format zoo (BFP64 among them, as a ReFloat spec)."""

import numpy as np
import pytest

from repro.formats.zoo import FORMAT_ZOO, named_spec, quantize_to_named_format


class TestZoo:
    def test_table3_entries(self):
        assert named_spec("bfloat16").e == 8 and named_spec("bfloat16").f == 7
        assert named_spec("ms-fp9").e == 5 and named_spec("ms-fp9").f == 3
        assert named_spec("fp64").f == 52
        assert named_spec("tensorfloat32").f == 10
        assert named_spec("bfp64").b == 6 and named_spec("bfp64").e == 0
        assert len(FORMAT_ZOO) == 8

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            named_spec("fp8")

    def test_fp64_identity(self, rng):
        x = rng.standard_normal(50)
        assert np.array_equal(quantize_to_named_format(x, "fp64"), x)

    def test_bfloat16_fraction_budget(self):
        q = quantize_to_named_format(np.array([1.0 / 3.0]), "bfloat16")
        # 7 fraction bits, truncated.
        assert q[0] == 0.33203125

    def test_elementwise_formats_keep_exponent(self, rng):
        # b=0 formats never change the binade, only the fraction.
        x = np.exp2(rng.uniform(-100, 100, 100)) * np.sign(rng.standard_normal(100))
        q = quantize_to_named_format(x, "ms-fp9")
        assert np.all(np.floor(np.log2(np.abs(q))) == np.floor(np.log2(np.abs(x))))
