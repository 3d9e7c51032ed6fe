"""Tests for the hardware substrate: cost model, crossbar, engine, timing."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.formats import DEFAULT_SPEC, ReFloatSpec
from repro.hardware import (
    AcceleratorConfig,
    CrossbarMVM,
    FEINBERG_CROSSBARS_PER_ENGINE,
    FEINBERG_CYCLES,
    GPUSolverModel,
    MappingPlan,
    ProcessingEngine,
    SolverTimingModel,
    bit_slice,
    block_mvm_reference,
    crossbars_per_engine,
    cycles_per_block_mvm,
    fixed_point_mvm_cycles,
    integer_mvm,
)


class TestCostModel:
    """The paper's quoted constants, pinned exactly."""

    def test_fp64_crossbars_8404(self):
        assert crossbars_per_engine(11, 52) == 8404

    def test_fp64_cycles_4201(self):
        assert cycles_per_block_mvm(11, 52, 11, 52) == 4201

    def test_refloat_default_28_cycles(self):
        assert cycles_per_block_mvm(3, 3, 3, 8) == 28

    def test_feinberg_233_cycles(self):
        assert FEINBERG_CYCLES == 233

    def test_refloat_engine_48_crossbars(self):
        assert crossbars_per_engine(3, 3) == 48

    def test_refloat_2_2_3_is_16_crossbars_per_sign_pair(self):
        # Sec. IV-A: "our design only requires 16 crossbars with ReFloat(2,2,3)"
        assert crossbars_per_engine(2, 3) // 2 == 16

    def test_fig2_pipeline_cycles(self):
        assert fixed_point_mvm_cycles(4, 4) == 7

    def test_validation(self):
        with pytest.raises(ValueError):
            crossbars_per_engine(-1, 3)
        with pytest.raises(ValueError):
            fixed_point_mvm_cycles(0, 4)


class TestCrossbar:
    def test_fig2_worked_example(self):
        M = np.array([[0, 13, 7, 11], [11, 14, 3, 8],
                      [9, 5, 2, 5], [14, 6, 9, 15]], dtype=np.uint64)
        x = np.array([6, 12, 6, 13], dtype=np.uint64)
        y, cycles = integer_mvm(M, x, 4, 4)
        assert y.tolist() == [368, 354, 207, 387]
        assert cycles == 7

    def test_fig2_partial_sum_trace(self):
        M = np.array([[0, 13, 7, 11], [11, 14, 3, 8],
                      [9, 5, 2, 5], [14, 6, 9, 15]], dtype=np.uint64)
        x = np.array([6, 12, 6, 13], dtype=np.uint64)
        eng = CrossbarMVM(M, 4, 4, record_trace=True)
        eng.multiply(x)
        # Final reduction step equals the Fig. 2 S-sequence endpoint.
        assert eng.trace[-1].tolist() == [368, 354, 207, 387]
        assert len(eng.trace) == 8  # 4 input steps + 4 reduction steps

    def test_bit_slice_msb_first(self):
        planes = bit_slice(np.array([0b101], dtype=np.uint64), 3)
        assert planes[:, 0].tolist() == [1, 0, 1]

    def test_bit_slice_validates_range(self):
        with pytest.raises(ValueError):
            bit_slice(np.array([8], dtype=np.uint64), 3)

    @given(st.integers(1, 10), st.integers(1, 10),
           st.integers(2, 8), st.integers(2, 8), st.integers(0, 2 ** 31))
    @settings(max_examples=60, deadline=None)
    def test_matches_integer_matmul(self, m, n, mb, vb, seed):
        rng = np.random.default_rng(seed)
        M = rng.integers(0, 1 << mb, (m, n)).astype(np.uint64)
        v = rng.integers(0, 1 << vb, m).astype(np.uint64)
        y, _ = integer_mvm(M, v, mb, vb)
        assert np.array_equal(y, M.astype(np.int64).T @ v.astype(np.int64))

    def test_shape_validation(self):
        eng = CrossbarMVM(np.zeros((3, 3), dtype=np.uint64), 2, 2)
        with pytest.raises(ValueError):
            eng.multiply(np.zeros(4, dtype=np.uint64))


class TestEngine:
    @pytest.mark.parametrize("seed", range(4))
    def test_bit_exact_vs_fp64_shortcut(self, seed):
        rng = np.random.default_rng(seed)
        spec = ReFloatSpec(b=3, e=3, f=3, ev=3, fv=8)
        block = rng.standard_normal((8, 8)) * np.exp2(rng.uniform(-2, 2, (8, 8)))
        block[rng.random((8, 8)) < 0.4] = 0.0
        seg = rng.standard_normal(8) * np.exp2(rng.uniform(-6, 2, 8))
        engine = ProcessingEngine(block, spec)
        assert np.array_equal(engine.multiply(seg),
                              block_mvm_reference(block, seg, spec))

    def test_cycles_match_eq3(self):
        spec = ReFloatSpec(b=3, e=3, f=3, ev=3, fv=8)
        engine = ProcessingEngine(np.zeros((8, 8)), spec)
        assert engine.cycles == 28

    def test_all_zero_block(self):
        spec = ReFloatSpec(b=2, e=3, f=3, ev=3, fv=8)
        engine = ProcessingEngine(np.zeros((4, 4)), spec)
        assert np.all(engine.multiply(np.ones(4)) == 0.0)

    def test_block_shape_validated(self):
        with pytest.raises(ValueError):
            ProcessingEngine(np.zeros((4, 4)), ReFloatSpec(b=3))


class TestAcceleratorConfig:
    def test_both_designs_same_compute_reram(self):
        f = AcceleratorConfig.feinberg_default()
        r = AcceleratorConfig.refloat_default()
        assert f.total_crossbars == r.total_crossbars == 1048576
        # Table IV: 17.1 Gb (decimal) of compute ReRAM.
        assert f.compute_bits == 1048576 * 128 * 128
        assert round(f.compute_bits / 1e9, 1) == 17.2  # 17.1 in the paper (rounding)

    def test_engine_counts_match_paper(self):
        assert (AcceleratorConfig.feinberg_default().total_crossbars
                // FEINBERG_CROSSBARS_PER_ENGINE) == 2221
        assert (AcceleratorConfig.refloat_default().total_crossbars
                // crossbars_per_engine(3, 3)) == 21845


class TestMappingPlan:
    def test_paper_round_counts(self):
        # Paper Section VI-B: 10 and 18 rounds for matrices 2257 / 2259.
        assert MappingPlan.for_refloat(209263, DEFAULT_SPEC).rounds == 10
        assert MappingPlan.for_refloat(381321, DEFAULT_SPEC).rounds == 18
        assert MappingPlan.for_feinberg(209263).rounds == 95

    def test_resident_spmv_time(self):
        plan = MappingPlan.for_refloat(100, DEFAULT_SPEC)
        assert plan.resident
        assert plan.spmv_time_s == pytest.approx(28 * 107e-9)

    def test_multiround_pays_writes(self):
        plan = MappingPlan.for_refloat(50000, DEFAULT_SPEC)
        assert not plan.resident
        per_round = plan.config.block_write_time_s + 28 * 107e-9
        assert plan.spmv_time_s == pytest.approx(plan.rounds * per_round)

    def test_empty_matrix(self):
        plan = MappingPlan.for_refloat(0, DEFAULT_SPEC)
        assert plan.rounds == 1


class TestTimingModels:
    def test_solver_time_scales_with_iterations(self):
        plan = MappingPlan.for_refloat(500, DEFAULT_SPEC)
        model = SolverTimingModel(plan, spmvs_per_iteration=1)
        t10 = model.solve_time_s(10, 1000, include_setup=False)
        t20 = model.solve_time_s(20, 1000, include_setup=False)
        assert t20 == pytest.approx(2 * t10)

    def test_setup_toggle(self):
        plan = MappingPlan.for_refloat(500, DEFAULT_SPEC)
        model = SolverTimingModel(plan)
        delta = (model.solve_time_s(5, 100) -
                 model.solve_time_s(5, 100, include_setup=False))
        assert delta == pytest.approx(plan.setup_time_s)

    def test_negative_iterations_rejected(self):
        model = SolverTimingModel(MappingPlan.for_refloat(10, DEFAULT_SPEC))
        with pytest.raises(ValueError):
            model.solve_time_s(-1, 10)

    def test_gpu_bandwidth_vs_latency_regimes(self):
        gpu = GPUSolverModel.cg()
        # Tiny matrix: launch-bound; per-iteration time ~ 6 launches.
        t_small = gpu.iteration_time_s(1000, 5000)
        assert t_small < 12 * gpu.config.kernel_launch_s
        # Huge matrix: bandwidth-bound; dominated by SpMV bytes.
        t_big = gpu.iteration_time_s(10_000_000, 100_000_000)
        assert t_big > 5 * t_small

    def test_gpu_bicgstab_heavier_than_cg(self):
        n, nnz = 50000, 500000
        assert (GPUSolverModel.bicgstab().iteration_time_s(n, nnz)
                > 1.5 * GPUSolverModel.cg().iteration_time_s(n, nnz))

