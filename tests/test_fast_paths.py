"""Bit-identity tests for the hot-path fast lanes.

Every optimised path in this PR keeps a slower reference implementation
around; these tests pin the equivalences:

* plan-backed :func:`quantize_vector` vs :func:`quantize_vector_reference`
  (specs with ``ev = 0``, empty segments, lengths not a multiple of ``2^b``,
  all-zero vectors, exact-grid configs);
* the bit-pattern :func:`quantize_vector_feinberg` vs
  :func:`quantize_vector_feinberg_reference` (every spec and policy, anchors
  on both sides of the normal-range boundary, subnormals, signed zeros,
  ``±max`` and values far above the window);
* the batched :class:`CrossbarMVM` contraction vs the cycle-accurate
  ``record_trace`` loop;
* :class:`BlockedEngine` vs one :class:`ProcessingEngine` per occupied block;
* operators built from a prebuilt :class:`BlockedMatrix` vs from scratch;
* parallel :func:`run_suite` vs a serial :func:`run_matrix`;
* :func:`repro.solvers.base.csr_matvec` (scipy's CSR kernel called
  directly) vs ``A @ x``, on every CSR layout and on the inputs it hands
  back to ``A @ x``.
"""

import threading

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.formats import DEFAULT_SPEC, FeinbergSpec, ReFloatSpec
from repro.formats import ieee
from repro.formats.feinberg import (
    quantize_vector_feinberg,
    quantize_vector_feinberg_reference,
)
from repro.formats.refloat import (
    quantize_vector,
    quantize_vector_reference,
    vector_converter_plan,
    vector_segment_bases,
)
from repro.hardware import BlockedEngine, CrossbarMVM, ProcessingEngine
from repro.operators import FeinbergOperator, NoisyReFloatOperator, ReFloatOperator
from repro.solvers import base as solvers_base
from repro.solvers.base import csr_matvec
from repro.sparse.blocked import BlockedMatrix
from repro.sparse.mmio import csr_from_arrays

def random_float_array(rng, n, exp_range=(-20, 20), include_zero=False):
    """Random finite doubles with a controlled exponent spread."""
    vals = rng.standard_normal(n) * np.exp2(rng.uniform(*exp_range, n))
    if include_zero and n > 2:
        vals[rng.integers(0, n, max(1, n // 10))] = 0.0
    return vals


#: Edge-case specs named by the issue: ev = 0, tiny blocks, near-lossless
#: (exact-grid) vector configs, nearest rounding, mean policy.
EDGE_SPECS = [
    DEFAULT_SPEC,
    ReFloatSpec(b=3, e=3, f=3, ev=3, fv=8),
    ReFloatSpec(b=3, e=0, f=2, ev=0, fv=4),
    ReFloatSpec(b=2, e=3, f=3, ev=11, fv=52),
    ReFloatSpec(b=4, e=2, f=5, ev=2, fv=6, rounding="nearest"),
    ReFloatSpec(b=5, e=3, f=3, ev=3, fv=8, eb_policy="mean"),
]


def _assert_same_conversion(x, spec):
    ref_xq, ref_ebv = quantize_vector_reference(x, spec)
    xq, ebv = quantize_vector(x, spec)
    np.testing.assert_array_equal(xq, ref_xq)
    np.testing.assert_array_equal(ebv, ref_ebv)
    assert ebv.dtype == ref_ebv.dtype
    if x.size:
        plan = vector_converter_plan(x.size, spec)
        pxq, pebv = plan.convert(x)
        np.testing.assert_array_equal(pxq, ref_xq)
        np.testing.assert_array_equal(pebv, ref_ebv)


class TestConverterPlan:
    @pytest.mark.parametrize("spec", EDGE_SPECS, ids=str)
    @pytest.mark.parametrize("shape", ["multiple", "ragged", "short", "one"])
    def test_bit_identical_random(self, rng, spec, shape):
        size = 1 << spec.b
        n = {"multiple": 3 * size, "ragged": 3 * size + size // 2 + 1,
             "short": max(1, size // 2), "one": 1}[shape]
        for trial in range(5):
            x = random_float_array(rng, n, exp_range=(-30, 30),
                                   include_zero=True)
            _assert_same_conversion(x, spec)

    @pytest.mark.parametrize("spec", EDGE_SPECS, ids=str)
    def test_empty_segment_and_all_zero(self, rng, spec):
        size = 1 << spec.b
        x = random_float_array(rng, 3 * size, include_zero=True)
        x[size:2 * size] = 0.0          # interior all-zero segment
        _assert_same_conversion(x, spec)
        x[:] = 0.0                       # fully zero vector
        _assert_same_conversion(x, spec)
        _assert_same_conversion(np.zeros(0), spec)

    def test_tiny_values_exact_grid_mix(self, rng):
        # Segments whose ulp grid falls below the binary64 normal range
        # (passthrough) mixed with ordinary segments.
        spec = ReFloatSpec(b=3, e=3, f=3, ev=11, fv=52)
        x = random_float_array(rng, 32, exp_range=(-600, -400))
        x[8:16] = random_float_array(rng, 8, exp_range=(-2, 2))
        _assert_same_conversion(x, spec)

    def test_subnormals_flush_like_reference(self, rng):
        x = random_float_array(rng, 16)
        x[3] = 5e-320                    # subnormal
        x[11] = -2e-310
        _assert_same_conversion(x, DEFAULT_SPEC)

    def test_nonfinite_raises(self):
        plan = vector_converter_plan(8, DEFAULT_SPEC)
        x = np.ones(8)
        x[5] = np.inf
        with pytest.raises(ValueError):
            plan.convert(x)
        x[5] = np.nan
        with pytest.raises(ValueError):
            plan.convert(x)

    def test_scratch_reuse_and_fresh_copies(self, rng):
        plan = vector_converter_plan(64, DEFAULT_SPEC)
        x1 = random_float_array(rng, 64)
        x2 = random_float_array(rng, 64)
        r1, _ = plan.convert(x1)
        kept = r1.copy()
        r2, _ = plan.convert(x2)
        assert r2 is r1                  # same scratch buffer...
        assert not np.array_equal(kept, r2)
        fresh, _ = plan.convert(x1, reuse=False)
        assert fresh is not r1           # ...unless a copy is requested
        np.testing.assert_array_equal(fresh, kept)

    def test_thread_safety_of_shared_plan(self, rng):
        plan = vector_converter_plan(256, DEFAULT_SPEC)
        xs = [random_float_array(rng, 256, include_zero=True)
              for _ in range(8)]
        refs = [quantize_vector_reference(x, DEFAULT_SPEC)[0] for x in xs]
        failures = []

        def worker(i):
            for _ in range(50):
                out, _ = plan.convert(xs[i])
                if not np.array_equal(out, refs[i]):
                    failures.append(i)

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not failures

    def test_vectorised_segment_stats_path(self, rng, monkeypatch):
        """nseg above _PY_SEG_LIMIT switches to the NumPy stats pipeline."""
        from repro.formats.refloat import VectorConverterPlan

        monkeypatch.setattr(VectorConverterPlan, "_PY_SEG_LIMIT", 2)
        spec = ReFloatSpec(b=3, e=3, f=3, ev=3, fv=8)
        for trial in range(3):
            x = random_float_array(rng, 85, include_zero=True)
            if trial == 1:
                x[8:16] = 0.0            # dead segment -> general path
            plan = VectorConverterPlan(85, spec)
            assert plan.nseg > plan._PY_SEG_LIMIT
            ref_xq, ref_ebv = quantize_vector_reference(x, spec)
            xq, ebv = plan.convert(x)
            np.testing.assert_array_equal(xq, ref_xq)
            np.testing.assert_array_equal(ebv, ref_ebv)
        x = random_float_array(rng, 85)
        x[3] = np.inf
        with pytest.raises(ValueError):
            VectorConverterPlan(85, spec).convert(x)

    @given(st.integers(0, 2 ** 31), st.integers(1, 70))
    @settings(max_examples=40, deadline=None)
    def test_bit_identical_hypothesis(self, seed, n):
        rng = np.random.default_rng(seed)
        spec = ReFloatSpec(b=3, e=3, f=3, ev=3, fv=8)
        x = random_float_array(rng, n, exp_range=(-40, 40), include_zero=True)
        _assert_same_conversion(x, spec)

    def test_exponent_field_matches_decompose(self, rng):
        x = random_float_array(rng, 100, include_zero=True)
        x[7] = 4e-320                    # subnormal flushes in both
        field = ieee.exponent_field(x)
        _, exp, _ = ieee.decompose(x)
        zero = exp == ieee.EXP_ZERO
        np.testing.assert_array_equal(field == 0, zero)
        np.testing.assert_array_equal(
            field[~zero].astype(np.int64) - ieee.EXP_BIAS, exp[~zero])
        with pytest.raises(ValueError):
            ieee.exponent_field([1.0, np.inf])


POLICIES = ("wrap", "clamp", "flush")


def _assert_same_bits(a, b):
    assert a.shape == b.shape and a.dtype == b.dtype == np.float64
    np.testing.assert_array_equal(a.view(np.uint64), b.view(np.uint64))


def _window_edge_array(rng, shape, anchor, spec):
    """Doubles around and far from the window ``[anchor - 2^e + 1, anchor]``:
    exponents over the whole binary64 range (subnormals included), a band
    around the window reaching 64+ binades above it, and the edge values
    (signed zeros, subnormals, ``±max``, the window's own edges)."""
    n = int(np.prod(shape))
    lo = anchor - spec.window + 1
    exps = np.where(rng.random(n) < 0.5,
                    rng.integers(-1080, 1024, n),
                    rng.integers(lo - 4, anchor + 80, n))
    mant = 1.0 + rng.random(n)
    x = np.ldexp(mant, np.clip(exps, -1100, 1023)) * rng.choice([-1.0, 1.0], n)
    edges = [0.0, -0.0, 5e-324, -2.5e-310, np.finfo(np.float64).max,
             -np.finfo(np.float64).max, np.finfo(np.float64).tiny,
             np.ldexp(1.0, min(anchor, 1023)),
             -np.ldexp(1.75, min(anchor, 1023)),
             np.ldexp(1.5, max(lo, -1074)), np.ldexp(1.0, max(lo - 1, -1074)),
             np.ldexp(1.0, min(anchor + 1, 1023)),
             np.ldexp(1.0, min(anchor + spec.window, 1023))]
    pos = rng.integers(0, n, min(n, len(edges)))
    x[pos] = np.asarray(edges[:pos.size])
    return x.reshape(shape)


@st.composite
def _feinberg_cases(draw):
    spec = FeinbergSpec(exp_bits=draw(st.integers(1, 11)),
                        frac_bits=draw(st.integers(0, 52)),
                        policy=draw(st.sampled_from(POLICIES)))
    # Biased window bottom == 1 at this anchor: the bit-pattern path's edge.
    boundary = spec.window - ieee.EXP_BIAS
    anchor = draw(st.one_of(st.integers(-3, 3).map(lambda k: boundary + k),
                            st.integers(-1080, 1023)))
    shape = draw(st.one_of(st.tuples(st.integers(1, 80)),
                           st.tuples(st.integers(1, 40), st.integers(1, 4))))
    return spec, min(anchor, 1023), shape, draw(st.integers(0, 2 ** 31))


class TestFeinbergBitPattern:
    """The bit-pattern window vs the decompose/compose reference."""

    @given(_feinberg_cases())
    @settings(max_examples=300, deadline=None)
    def test_bit_identical_hypothesis(self, case):
        spec, anchor, shape, seed = case
        x = _window_edge_array(np.random.default_rng(seed), shape, anchor,
                               spec)
        for a in (anchor, np.int64(anchor)):
            _assert_same_bits(quantize_vector_feinberg(x, a, spec),
                              quantize_vector_feinberg_reference(x, a, spec))

    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    @pytest.mark.parametrize("anchor", [-3, -960])
    def test_nonfinite_raises_on_both_paths(self, rng, policy, bad, anchor):
        spec = FeinbergSpec(policy=policy)
        x = random_float_array(rng, 20)
        x[7] = bad
        for fn in (quantize_vector_feinberg,
                   quantize_vector_feinberg_reference):
            with pytest.raises(ValueError, match="finite"):
                fn(x, anchor, spec)

    @pytest.mark.parametrize("policy", POLICIES)
    def test_input_untouched_and_not_shared(self, rng, policy):
        spec = FeinbergSpec(exp_bits=4, frac_bits=20, policy=policy)
        x = _window_edge_array(rng, (64,), -3, spec)
        kept = x.copy()
        for view in (x, x[::2], np.asfortranarray(x.reshape(8, 8))):
            out = quantize_vector_feinberg(view, -3, spec)
            assert not np.shares_memory(out, x)
            _assert_same_bits(
                out, quantize_vector_feinberg_reference(view, -3, spec))
        _assert_same_bits(x, kept)

    @pytest.mark.parametrize("policy", POLICIES)
    def test_per_element_anchors_match_reference(self, rng, small_wathen,
                                                 policy):
        spec = FeinbergSpec(policy=policy)
        op = FeinbergOperator(small_wathen, spec, block_b=5)
        n = small_wathen.shape[0]
        x = _window_edge_array(rng, (n,), op.anchor, spec)
        _assert_same_bits(
            op.quantize_input(x),
            quantize_vector_feinberg_reference(x, op._per_elem_anchor, spec))
        anchors = rng.integers(-40, 40, n)
        _assert_same_bits(
            quantize_vector_feinberg(x, anchors, spec),
            quantize_vector_feinberg_reference(x, anchors, spec))

    @pytest.mark.parametrize("policy", POLICIES)
    def test_cg_solve_matches_reference_quantiser(self, small_wathen,
                                                  monkeypatch, policy):
        import repro.operators.feinberg_op as feinberg_op
        from repro.solvers import ConvergenceCriterion, cg

        op = FeinbergOperator(small_wathen, FeinbergSpec(policy=policy))
        b = small_wathen @ np.ones(small_wathen.shape[0])
        crit = ConvergenceCriterion(max_iterations=400)
        fast = cg(op, b, criterion=crit)
        monkeypatch.setattr(feinberg_op, "quantize_vector_feinberg",
                            quantize_vector_feinberg_reference)
        ref = cg(op, b, criterion=crit)
        assert fast.iterations == ref.iterations > 0
        assert fast.matvecs == ref.matvecs
        _assert_same_bits(fast.x, ref.x)


class TestSegmentBasesReduceat:
    """vector_segment_bases now reduces contiguous segments with reduceat."""

    @pytest.mark.parametrize("policy", ["cover", "mean"])
    @pytest.mark.parametrize("n", [1, 5, 8, 24, 29])
    def test_matches_per_segment_loop(self, rng, policy, n):
        b, ev = 3, 3
        x = random_float_array(rng, n, exp_range=(-9, 9), include_zero=True)
        got = vector_segment_bases(x, b, ev=ev, eb_policy=policy)
        size = 1 << b
        expected = []
        for s in range(-(-n // size)):
            seg = x[s * size:(s + 1) * size]
            _, exp, _ = ieee.decompose(seg)
            exp = exp[exp != ieee.EXP_ZERO]
            if exp.size == 0:
                expected.append(0)
            elif policy == "cover":
                expected.append(int(exp.max()) - ((1 << (ev - 1)) - 1))
            else:
                expected.append(int(np.floor(exp.mean() + 0.5)))
        assert got.tolist() == expected

    def test_empty_vector(self):
        assert vector_segment_bases(np.zeros(0), 3, ev=3).size == 0


class TestCrossbarBatched:
    @given(st.integers(1, 12), st.integers(1, 12),
           st.integers(2, 8), st.integers(2, 8), st.integers(0, 2 ** 31))
    @settings(max_examples=60, deadline=None)
    def test_fast_path_matches_trace_loop(self, m, n, mb, vb, seed):
        rng = np.random.default_rng(seed)
        M = rng.integers(0, 1 << mb, (m, n)).astype(np.uint64)
        v = rng.integers(0, 1 << vb, m).astype(np.uint64)
        fast = CrossbarMVM(M, mb, vb).multiply(v)
        slow = CrossbarMVM(M, mb, vb, record_trace=True).multiply(v)
        np.testing.assert_array_equal(fast, slow)
        assert fast.dtype == np.int64

    def test_batch_matches_per_vector(self, rng):
        M = rng.integers(0, 1 << 5, (9, 7)).astype(np.uint64)
        eng = CrossbarMVM(M, 5, 6)
        V = rng.integers(0, 1 << 6, (4, 9)).astype(np.uint64)
        batched = eng.multiply_batch(V)
        for i in range(4):
            np.testing.assert_array_equal(batched[i], eng.multiply(V[i]))

    def test_batch_validates(self, rng):
        eng = CrossbarMVM(np.zeros((3, 3), dtype=np.uint64), 2, 2)
        with pytest.raises(ValueError):
            eng.multiply_batch(np.zeros((2, 4), dtype=np.uint64))
        traced = CrossbarMVM(np.zeros((3, 3), dtype=np.uint64), 2, 2,
                             record_trace=True)
        with pytest.raises(ValueError):
            traced.multiply_batch(np.zeros((2, 3), dtype=np.uint64))

    def test_record_trace_flip_off_still_multiplies(self, rng):
        # record_trace is a plain dataclass field; clearing it after
        # construction must lazily build the batched operands, not crash.
        M = rng.integers(0, 1 << 4, (5, 5)).astype(np.uint64)
        eng = CrossbarMVM(M, 4, 4, record_trace=True)
        v = rng.integers(0, 1 << 4, 5).astype(np.uint64)
        traced = eng.multiply(v)
        eng.record_trace = False
        np.testing.assert_array_equal(eng.multiply(v), traced)

    def test_wide_config_int64_fallback(self, rng):
        # width > 53 exercises the exact-int64 route.
        M = (rng.integers(0, 1 << 30, (4, 3)).astype(np.uint64) << np.uint64(2))
        eng = CrossbarMVM(M, 32, 20)
        assert eng._width > 53
        v = rng.integers(0, 1 << 20, 4).astype(np.uint64)
        slow = CrossbarMVM(M, 32, 20, record_trace=True).multiply(v)
        np.testing.assert_array_equal(eng.multiply(v), slow)


def _reference_blocked_mvm(blocked, spec, x):
    """One ProcessingEngine per occupied block, accumulated in block order."""
    size = blocked.block_size
    n_rows, n_cols = blocked.shape
    nseg_r = -(-n_rows // size)
    nseg_c = -(-n_cols // size)
    xpad = np.zeros(nseg_r * size)
    xpad[:n_rows] = x
    y = np.zeros(nseg_c * size)
    bi, bj = blocked.block_coords()
    for g in range(blocked.n_blocks):
        block = blocked.dense_block(int(bi[g]), int(bj[g]))
        engine = ProcessingEngine(block, spec)
        seg = engine.multiply(xpad[bi[g] * size:(bi[g] + 1) * size])
        y[bj[g] * size:(bj[g] + 1) * size] += seg
    return y[:n_cols]


class TestBlockedEngine:
    @pytest.mark.parametrize("b,n,density", [(3, 24, 0.3), (3, 29, 0.2),
                                             (2, 17, 0.4), (4, 40, 0.1)])
    def test_matches_per_block_engines(self, rng, b, n, density):
        spec = ReFloatSpec(b=b, e=3, f=3, ev=3, fv=8)
        A = sp.random(n, n, density=density, random_state=int(n + b),
                      data_rvs=lambda k: random_float_array(rng, k, (-4, 4)))
        blocked = BlockedMatrix(A, b=b)
        engine = BlockedEngine(blocked, spec)
        x = random_float_array(rng, n, exp_range=(-5, 3), include_zero=True)
        np.testing.assert_array_equal(engine.multiply(x),
                                      _reference_blocked_mvm(blocked, spec, x))

    def test_e_zero_and_nearest(self, rng, small_spd):
        blocked = BlockedMatrix(small_spd, b=3)
        x = random_float_array(rng, small_spd.shape[0], include_zero=True)
        for spec in (ReFloatSpec(b=3, e=0, f=2, ev=0, fv=4),
                     ReFloatSpec(b=3, e=2, f=4, ev=2, fv=6,
                                 rounding="nearest")):
            engine = BlockedEngine(blocked, spec)
            np.testing.assert_array_equal(
                engine.multiply(x), _reference_blocked_mvm(blocked, spec, x))

    def test_empty_matrix_and_validation(self):
        blocked = BlockedMatrix(sp.csr_matrix((16, 16)), b=3)
        engine = BlockedEngine(blocked, ReFloatSpec(b=3))
        assert np.all(engine.multiply(np.ones(16)) == 0.0)
        assert engine.n_engines == 0
        with pytest.raises(ValueError):
            BlockedEngine(blocked, ReFloatSpec(b=4))
        with pytest.raises(ValueError):
            engine.multiply(np.ones(17))

    def test_exact_grid_segments_rejected(self):
        # The bounded-integer wordline cannot represent a segment whose grid
        # is finer than binary64 (the converter's passthrough case); both
        # engines must refuse loudly instead of returning silent zeros.
        spec = ReFloatSpec(b=2, e=3, f=3, ev=3, fv=8)
        x = np.full(4, 2.0 ** -1015)
        engine = ProcessingEngine(np.eye(4), spec)
        with pytest.raises(ValueError, match="binary64 normal range"):
            engine.multiply(x)
        blocked_eng = BlockedEngine(
            BlockedMatrix(sp.eye(4, format="csr"), b=2), spec)
        with pytest.raises(ValueError, match="binary64 normal range"):
            blocked_eng.multiply(x)

    def test_repeated_calls_stable(self, rng, small_spd):
        blocked = BlockedMatrix(small_spd, b=3)
        engine = BlockedEngine(blocked, ReFloatSpec(b=3))
        x = random_float_array(rng, small_spd.shape[0])
        first = engine.multiply(x).copy()
        np.testing.assert_array_equal(engine.multiply(x), first)


class TestConverterBatch:
    """convert_batch must be bit-identical per column to the 1-D converter."""

    @pytest.mark.parametrize("spec", EDGE_SPECS, ids=str)
    def test_bit_identical_per_column(self, rng, spec):
        size = 1 << spec.b
        for n in (3 * size, 3 * size + size // 2 + 1, max(1, size // 2)):
            X = np.column_stack([
                random_float_array(rng, n, exp_range=(-30, 30),
                                   include_zero=True)
                for _ in range(5)])
            plan = vector_converter_plan(n, spec)
            Xq, ebv = plan.convert_batch(X)
            assert Xq.shape == X.shape and ebv.shape == (plan.nseg, 5)
            for j in range(5):
                ref_xq, ref_ebv = quantize_vector_reference(X[:, j], spec)
                np.testing.assert_array_equal(Xq[:, j], ref_xq)
                np.testing.assert_array_equal(ebv[:, j], ref_ebv)

    def test_dead_segment_and_exact_grid_fallback(self, rng):
        # A dead segment (or an exact-grid segment) anywhere in the batch
        # routes through the per-column reference path; identity must hold
        # for every column, not just the offending one.
        spec = ReFloatSpec(b=3, e=3, f=3, ev=3, fv=8)
        n = 4 * 8
        X = np.column_stack([random_float_array(rng, n, include_zero=True)
                             for _ in range(3)])
        X[8:16, 1] = 0.0                 # dead segment, middle column
        plan = vector_converter_plan(n, spec)
        Xq, ebv = plan.convert_batch(X)
        for j in range(3):
            ref_xq, ref_ebv = quantize_vector_reference(X[:, j], spec)
            np.testing.assert_array_equal(Xq[:, j], ref_xq)
            np.testing.assert_array_equal(ebv[:, j], ref_ebv)
        tiny = ReFloatSpec(b=3, e=3, f=3, ev=11, fv=52)
        T = np.column_stack([random_float_array(rng, 16, exp_range=(-600, -400)),
                             random_float_array(rng, 16, exp_range=(-2, 2))])
        bq, bebv = vector_converter_plan(16, tiny).convert_batch(T)
        for j in range(2):
            ref_xq, ref_ebv = quantize_vector_reference(T[:, j], tiny)
            np.testing.assert_array_equal(bq[:, j], ref_xq)
            np.testing.assert_array_equal(bebv[:, j], ref_ebv)

    def test_validation_and_nonfinite(self, rng):
        plan = vector_converter_plan(16, DEFAULT_SPEC)
        with pytest.raises(ValueError):
            plan.convert_batch(np.ones(16))            # 1-D
        with pytest.raises(ValueError):
            plan.convert_batch(np.ones((8, 2)))        # wrong length
        with pytest.raises(ValueError):
            plan.convert_batch(np.ones((16, 0)))       # no columns
        X = np.ones((16, 2))
        X[3, 1] = np.inf
        with pytest.raises(ValueError):
            plan.convert_batch(X)

    def test_scratch_reuse_and_fresh_copies(self, rng):
        plan = vector_converter_plan(64, DEFAULT_SPEC)
        X1 = np.column_stack([random_float_array(rng, 64) for _ in range(3)])
        X2 = np.column_stack([random_float_array(rng, 64) for _ in range(3)])
        r1, _ = plan.convert_batch(X1)
        kept = r1.copy()
        r2, _ = plan.convert_batch(X2)
        assert r2 is r1                  # same per-(thread, k) scratch...
        assert not np.array_equal(kept, r2)
        fresh, _ = plan.convert_batch(X1, reuse=False)
        assert fresh is not r1           # ...unless a copy is requested
        np.testing.assert_array_equal(fresh, kept)

    def test_single_column_matches_convert(self, rng):
        plan = vector_converter_plan(40, DEFAULT_SPEC)
        x = random_float_array(rng, 40, include_zero=True)
        xq, ebv = plan.convert(x, reuse=False)
        bq, bebv = plan.convert_batch(x[:, None])
        np.testing.assert_array_equal(bq[:, 0], xq)
        np.testing.assert_array_equal(bebv[:, 0], ebv)


class TestOperatorMatmat:
    """Operator matmat must be bit-identical per column to matvec."""

    def _assert_columns_match(self, op, X):
        Y = op.matmat(X)
        assert Y.shape == X.shape
        for j in range(X.shape[1]):
            np.testing.assert_array_equal(Y[:, j], op.matvec(X[:, j]))

    def test_refloat_matmat(self, rng, small_wathen):
        spec = ReFloatSpec(b=7, e=3, f=3, ev=3, fv=8)
        op = ReFloatOperator(small_wathen, spec)
        X = np.column_stack([random_float_array(rng, small_wathen.shape[0])
                             for _ in range(6)])
        self._assert_columns_match(op, X)
        np.testing.assert_array_equal(
            op.quantize_input_batch(X)[:, 2],
            quantize_vector_reference(X[:, 2], spec)[0])

    def test_feinberg_matmat(self, rng, small_wathen):
        op = FeinbergOperator(small_wathen)
        X = np.column_stack([random_float_array(rng, small_wathen.shape[0])
                             for _ in range(4)])
        self._assert_columns_match(op, X)
        with pytest.raises(ValueError):
            op.matmat(X[:, 0])

    def test_feinberg_block_anchor_matmat(self, rng, small_wathen):
        op = FeinbergOperator(small_wathen, block_b=5)
        X = np.column_stack([random_float_array(rng, small_wathen.shape[0])
                             for _ in range(3)])
        self._assert_columns_match(op, X)

    def test_noisy_matmat_sigma_zero(self, rng, small_spd):
        op = NoisyReFloatOperator(small_spd, sigma=0.0)
        X = np.column_stack([random_float_array(rng, small_spd.shape[0])
                             for _ in range(3)])
        self._assert_columns_match(op, X)

    def test_noisy_matmat_one_draw_per_batch(self, rng, small_spd):
        # The batch sees ONE conductance realisation; a seed-matched looped
        # matvec draws k times, so equality must hold against a single-draw
        # reference instead.
        spec = ReFloatSpec(b=7, e=3, f=3, ev=3, fv=8)
        op = NoisyReFloatOperator(small_spd, spec, sigma=0.05, seed=11)
        ref = NoisyReFloatOperator(small_spd, spec, sigma=0.05, seed=11)
        X = np.column_stack([random_float_array(rng, small_spd.shape[0])
                             for _ in range(3)])
        Y = op.matmat(X)
        factor = 1.0 + ref.sigma * ref.rng.standard_normal(ref.A.nnz)
        noisy = sp.csr_matrix(
            (ref.A.data * factor, ref.A.indices, ref.A.indptr),
            shape=ref.shape)
        Xq = ref._base.quantize_input_batch(X)
        np.testing.assert_array_equal(Y, noisy @ Xq)

    def test_exact_operator_matmat(self, rng, small_spd):
        from repro.operators import ExactOperator

        op = ExactOperator(small_spd)
        X = np.column_stack([random_float_array(rng, small_spd.shape[0])
                             for _ in range(5)])
        self._assert_columns_match(op, X)

    def test_operator_matmat_fallback_loop(self, rng, small_spd):
        from repro.solvers.base import operator_matmat

        class MatvecOnly:
            def __init__(self, A):
                self.A = A
                self.shape = A.shape

            def matvec(self, x):
                return self.A @ x

        op = MatvecOnly(small_spd)
        X = np.column_stack([random_float_array(rng, small_spd.shape[0])
                             for _ in range(3)])
        Y = operator_matmat(op, X)
        for j in range(3):
            np.testing.assert_array_equal(Y[:, j], op.matvec(X[:, j]))
        with pytest.raises(ValueError):
            operator_matmat(op, X[:, 0])


def _csr_case(rng, m, n, nnz, index_dtype, layout):
    """An ``m x n`` CSR with ``nnz`` stored entries in one of three layouts.

    Rows are filled in order but columns are drawn at random, so rows hold
    unsorted columns and duplicates; about a fifth of the values are
    explicit zeros, and short rows leave some rows empty.  ``"scipy"``
    builds through the constructor (which may narrow the index dtype),
    ``"canonical"`` is that matrix after ``sum_duplicates``, and
    ``"read-only"`` wraps write-protected arrays of exactly ``index_dtype``
    with :func:`csr_from_arrays`, as the asset store attaches them.
    """
    rows = np.sort(rng.integers(0, m, nnz))
    indices = rng.integers(0, n, nnz).astype(index_dtype)
    indptr = np.zeros(m + 1, dtype=index_dtype)
    np.cumsum(np.bincount(rows, minlength=m), out=indptr[1:])
    data = random_float_array(rng, nnz, exp_range=(-60, 60))
    data[rng.random(nnz) < 0.2] = 0.0
    if layout == "read-only":
        for arr in (data, indices, indptr):
            arr.setflags(write=False)
        return csr_from_arrays(data, indices, indptr, (m, n))
    A = sp.csr_matrix((data, indices, indptr), shape=(m, n))
    if layout == "canonical":
        A.sum_duplicates()
    return A


def _strided(rng, n, stride):
    """A length-``n`` float64 vector, a strided view when ``stride > 1``."""
    return random_float_array(rng, n * stride, exp_range=(-60, 60))[::stride]


CSR_LAYOUTS = ("scipy", "canonical", "read-only")


class TestCsrMatvec:
    """``csr_matvec`` vs ``A @ x``: the same kernel, so the same bits."""

    def _assert_same_as_matmul(self, A, x, rng):
        _assert_same_bits(csr_matvec(A, x), A @ x)
        data = random_float_array(rng, A.nnz, exp_range=(-60, 60))
        ref = sp.csr_matrix((data, A.indices, A.indptr), shape=A.shape) @ x
        _assert_same_bits(csr_matvec(A, x, data=data), ref)

    @given(st.integers(1, 9), st.integers(1, 9), st.integers(0, 40),
           st.sampled_from([np.int32, np.int64]),
           st.sampled_from(CSR_LAYOUTS), st.sampled_from([1, 3]),
           st.integers(0, 2 ** 31))
    @settings(max_examples=200, deadline=None)
    def test_bit_identical_hypothesis(self, m, n, nnz, index_dtype, layout,
                                      stride, seed):
        rng = np.random.default_rng(seed)
        A = _csr_case(rng, m, n, nnz, index_dtype, layout)
        self._assert_same_as_matmul(A, _strided(rng, n, stride), rng)

    @pytest.mark.parametrize("m, n, nnz", [(1, 1, 1), (1, 1, 0), (5, 5, 0),
                                           (3, 8, 6), (8, 3, 6), (9, 9, 3)])
    @pytest.mark.parametrize("index_dtype", [np.int32, np.int64])
    @pytest.mark.parametrize("layout", CSR_LAYOUTS)
    def test_edge_shapes(self, rng, m, n, nnz, index_dtype, layout):
        A = _csr_case(rng, m, n, nnz, index_dtype, layout)
        self._assert_same_as_matmul(A, _strided(rng, n, 1), rng)
        self._assert_same_as_matmul(A, _strided(rng, n, 2), rng)

    def test_kernel_runs_on_the_guarded_path_only(self, rng, small_spd,
                                                   monkeypatch):
        kernel = solvers_base._csr_matvec_kernel
        calls = []

        def spy(*args):
            calls.append(args)
            return kernel(*args)

        monkeypatch.setattr(solvers_base, "_csr_matvec_kernel", spy)
        A = sp.csr_matrix(small_spd)
        x = rng.standard_normal(A.shape[1])
        csr_matvec(A, x)
        csr_matvec(A, x, data=A.data * 2.0)
        assert len(calls) == 2
        csr_matvec(A, x.astype(np.float32))
        csr_matvec(A, x.reshape(-1, 1))
        csr_matvec(A, x, data=A.data.astype(np.float32))
        csr_matvec(A.tocsc(), x)
        assert len(calls) == 2

    def test_wrong_length_raises_like_matmul(self, rng, small_spd):
        A = sp.csr_matrix(small_spd)
        x = rng.standard_normal(A.shape[1] + 1)
        with pytest.raises(ValueError) as ours:
            csr_matvec(A, x)
        with pytest.raises(ValueError) as theirs:
            A @ x
        assert str(ours.value) == str(theirs.value)

    @pytest.mark.parametrize("convert", [
        lambda x: np.rint(x).astype(np.int64),
        lambda x: [float(v) for v in x],
        lambda x: x.reshape(-1, 1),
    ], ids=["int-vector", "list", "column"])
    def test_other_inputs_fall_back_to_matmul(self, rng, small_spd, convert):
        A = sp.csr_matrix(small_spd)
        x = convert(4.0 * rng.standard_normal(A.shape[1]))
        ours, ref = csr_matvec(A, x), A @ x
        assert ours.shape == ref.shape and ours.dtype == ref.dtype
        np.testing.assert_array_equal(ours, ref)

    def test_short_data_falls_back_and_raises(self, rng, small_spd):
        A = sp.csr_matrix(small_spd)
        x = rng.standard_normal(A.shape[1])
        short = A.data[:-1] * 2.0
        with pytest.raises(ValueError) as ours:
            csr_matvec(A, x, data=short)
        with pytest.raises(ValueError) as theirs:
            sp.csr_matrix((short, A.indices, A.indptr), shape=A.shape)
        assert str(ours.value) == str(theirs.value)

    def test_without_the_kernel_is_matmul(self, rng, small_spd, monkeypatch):
        monkeypatch.setattr(solvers_base, "_csr_matvec_kernel", None)
        A = sp.csr_matrix(small_spd)
        self._assert_same_as_matmul(A, rng.standard_normal(A.shape[1]), rng)


class TestPrebuiltBlocked:
    def test_refloat_operator_accepts_partition(self, rng, small_wathen):
        spec = ReFloatSpec(b=7, e=3, f=3, ev=3, fv=8)
        blocked = BlockedMatrix(small_wathen, b=7)
        fresh = ReFloatOperator(small_wathen, spec)
        shared = ReFloatOperator(None, spec, blocked=blocked)
        assert shared.blocked is blocked
        assert (fresh.A != shared.A).nnz == 0
        x = random_float_array(rng, small_wathen.shape[0])
        np.testing.assert_array_equal(fresh.matvec(x).copy(),
                                      shared.matvec(x))
        np.testing.assert_array_equal(shared.quantize_input(x),
                                      quantize_vector_reference(x, spec)[0])

    def test_refloat_operator_rejects_mismatched_b(self, small_spd):
        blocked = BlockedMatrix(small_spd, b=3)
        with pytest.raises(ValueError):
            ReFloatOperator(small_spd, ReFloatSpec(b=7), blocked=blocked)

    def test_feinberg_operator_accepts_partition(self, rng, small_wathen):
        blocked = BlockedMatrix(small_wathen, b=7)
        fresh = FeinbergOperator(small_wathen)
        shared = FeinbergOperator(None, blocked=blocked)
        assert shared.A is blocked.A
        x = random_float_array(rng, small_wathen.shape[0])
        np.testing.assert_array_equal(fresh.matvec(x), shared.matvec(x))

    def test_noisy_operator_accepts_partition(self, rng, small_spd):
        blocked = BlockedMatrix(small_spd, b=7)
        spec = ReFloatSpec(b=7, e=3, f=3, ev=3, fv=8)
        fresh = NoisyReFloatOperator(small_spd, spec, sigma=0.05, seed=9)
        shared = NoisyReFloatOperator(None, spec, sigma=0.05, seed=9,
                                      blocked=blocked)
        x = random_float_array(rng, small_spd.shape[0])
        np.testing.assert_array_equal(fresh.matvec(x), shared.matvec(x))


class TestParallelSuite:
    def test_parallel_matches_serial_run(self):
        from repro.experiments.common import run_matrix, run_suite

        runs = run_suite("cg", "test", max_workers=4)
        assert list(runs) == list(__import__(
            "repro.sparse.gallery.suite", fromlist=["suite_ids"]).suite_ids())
        serial = run_matrix(353, "cg", "test")
        parallel = runs[353]
        assert parallel.results["refloat"].iterations == \
            serial.results["refloat"].iterations
        assert parallel.results["gpu"].residual_norm == \
            serial.results["gpu"].residual_norm
        assert parallel.times_s == serial.times_s

    def test_assets_cached_and_shared(self):
        from repro.experiments.common import matrix_assets

        a1 = matrix_assets(353, "test")
        a2 = matrix_assets(353, "test")
        assert a1 is a2
        assert a1.refloat_op.blocked is a1.blocked
