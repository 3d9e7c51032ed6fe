"""Microbenchmarks of the library's hot kernels (real repeated timing).

These are genuine pytest-benchmark measurements (not one-shot experiment
regenerations): the ReFloat conversion pipeline, the vector converter, the
quantised SpMV, and the crossbar engines.

All tests here carry the ``bench`` marker and are deselected by the default
pytest invocation (see ``pytest.ini``).  To run them and record the
machine-readable perf trajectory::

    PYTHONPATH=src python -m pytest benchmarks/test_kernels.py -m bench \
        --benchmark-json=BENCH_kernels.json -q

``BENCH_kernels.json`` at the repo root is the committed per-PR snapshot.
"""

import numpy as np
import pytest

from repro.formats import DEFAULT_SPEC, ReFloatSpec, quantize_values, quantize_vector
from repro.formats.feinberg import (
    FeinbergSpec,
    quantize_vector_feinberg,
    quantize_vector_feinberg_reference,
)
from repro.formats.refloat import vector_converter_plan
from repro.operators import ExactOperator, FeinbergOperator, ReFloatOperator
from repro.sparse import BlockedMatrix
from repro.sparse.gallery import build_matrix

pytestmark = pytest.mark.bench


@pytest.fixture(scope="module")
def matrix():
    return build_matrix(355, "test")  # crystm03 analog


@pytest.fixture(scope="module")
def vector(matrix):
    rng = np.random.default_rng(0)
    return rng.standard_normal(matrix.shape[0])


def test_bench_quantize_values(benchmark):
    rng = np.random.default_rng(1)
    x = rng.standard_normal(1 << 16) * np.exp2(rng.uniform(-3, 3, 1 << 16))
    out, _ = benchmark(quantize_values, x, 3, 3)
    assert out.shape == x.shape


def test_bench_vector_converter(benchmark, vector):
    out, _ = benchmark(quantize_vector, vector, DEFAULT_SPEC)
    assert out.shape == vector.shape


def test_bench_block_partition(benchmark, matrix):
    bm = benchmark(BlockedMatrix, matrix, 7)
    assert bm.n_blocks > 0


def test_bench_matrix_quantization(benchmark, matrix):
    bm = BlockedMatrix(matrix, 7)
    Q = benchmark(bm.quantize, DEFAULT_SPEC)
    assert Q.nnz == bm.nnz


def test_bench_spmv_exact(benchmark, matrix, vector):
    op = ExactOperator(matrix)
    y = benchmark(op.matvec, vector)
    assert y.shape == vector.shape


def test_bench_spmv_refloat(benchmark, matrix, vector):
    op = ReFloatOperator(matrix, DEFAULT_SPEC)
    y = benchmark(op.matvec, vector)
    assert y.shape == vector.shape


def test_bench_spmv_feinberg(benchmark, matrix, vector):
    op = FeinbergOperator(matrix)
    y = benchmark(op.matvec, vector)
    assert y.shape == vector.shape


@pytest.fixture(scope="module")
def feinberg_case(matrix, vector):
    """The matrix's anchor and a vector reaching 80 binades above its
    window (the wrap case every non-converging Feinberg cell hits)."""
    anchor = FeinbergOperator(matrix).anchor
    rng = np.random.default_rng(4)
    x = vector * np.exp2(rng.integers(-60, 80, vector.size) + anchor)
    return x, anchor


def test_bench_quantize_feinberg(benchmark, feinberg_case):
    """The bit-pattern window (what ``FeinbergOperator.matvec`` runs)."""
    x, anchor = feinberg_case
    q = benchmark(quantize_vector_feinberg, x, anchor, FeinbergSpec())
    assert q.shape == x.shape


def test_bench_quantize_feinberg_reference(benchmark, feinberg_case):
    """The decompose/compose reference of the same window."""
    x, anchor = feinberg_case
    q = benchmark(quantize_vector_feinberg_reference, x, anchor,
                  FeinbergSpec())
    assert q.shape == x.shape


def test_bench_vector_converter_planned(benchmark, vector):
    """The zero-allocation plan path (what ``ReFloatOperator.matvec`` uses)."""
    plan = vector_converter_plan(vector.size, DEFAULT_SPEC)
    out, _ = benchmark(plan.convert, vector)
    assert out.shape == vector.shape


def test_bench_crossbar_block_mvm(benchmark):
    from repro.hardware import ProcessingEngine

    rng = np.random.default_rng(2)
    spec = ReFloatSpec(b=4, e=3, f=3, ev=3, fv=8)
    block = rng.standard_normal((16, 16))
    seg = rng.standard_normal(16)
    engine = ProcessingEngine(block, spec)
    y = benchmark(engine.multiply, seg)
    assert y.shape == (16,)


def test_bench_blocked_engine_mvm(benchmark, matrix):
    """All occupied blocks of a suite matrix in one vectorised engine pass."""
    from repro.hardware import BlockedEngine

    rng = np.random.default_rng(3)
    spec = ReFloatSpec(b=4, e=3, f=3, ev=3, fv=8)
    blocked = BlockedMatrix(matrix, 4)
    engine = BlockedEngine(blocked, spec)
    x = rng.standard_normal(matrix.shape[0])
    y = benchmark(engine.multiply, x)
    assert y.shape == (matrix.shape[1],)


# ----------------------------------------------------------------------
# BSR-path benches: the index-only block layout feeding the engine.


def test_bench_blocked_engine_construction(benchmark, matrix):
    """Building the signed-cell tensor from the CSR through the BSR layout's
    per-nonzero block index."""
    from repro.hardware import BlockedEngine

    spec = ReFloatSpec(b=4, e=3, f=3, ev=3, fv=8)
    blocked = BlockedMatrix(matrix, 4)
    blocked.bsr  # pre-materialise the layout: the bench times the engine
    engine = benchmark(BlockedEngine, blocked, spec)
    assert engine.n_engines == blocked.n_blocks


def test_bench_engine_construction_speedup_over_per_block(matrix):
    """Asserted delta: one vectorised BlockedEngine build beats the
    per-block ProcessingEngine loop (the reference path it is pinned
    against) by >= 10x.  Timed directly (best-of-repeats) so the ratio is
    asserted, not just recorded."""
    import time

    from repro.hardware import BlockedEngine, ProcessingEngine

    spec = ReFloatSpec(b=4, e=3, f=3, ev=3, fv=8)
    blocked = BlockedMatrix(matrix, 4)
    blocked.bsr
    bi, bj = blocked.block_coords()

    def best_of(fn, repeats=5):
        best = float("inf")
        for _ in range(repeats):
            t0 = time.perf_counter()
            fn()
            best = min(best, time.perf_counter() - t0)
        return best

    def per_block():
        for i, j in zip(bi, bj):
            ProcessingEngine(blocked.dense_block(int(i), int(j)), spec)

    t_blocked = best_of(lambda: BlockedEngine(blocked, spec))
    t_loop = best_of(per_block, repeats=3)
    assert t_loop > 10.0 * t_blocked, (
        f"BSR engine construction only {t_loop / t_blocked:.1f}x faster "
        f"than the per-block loop")


def test_bench_store_warm_attach(benchmark, tmp_path, monkeypatch, matrix):
    """Memory-map attach of the index-only BSR entry (trusted local store:
    verification off, the pure zero-reassembly path).  The functional
    asserted delta: the attach rebuilds nothing — the canonical values and
    the per-nonzero block index come back as the on-disk memmaps."""
    from repro.experiments import store

    monkeypatch.setenv("REPRO_ASSET_STORE", str(tmp_path / "assets"))
    monkeypatch.setenv("REPRO_ASSET_STORE_VERIFY", "0")
    blocked = BlockedMatrix(matrix, 7)
    rhs = matrix @ np.ones(matrix.shape[0])
    assert store.save_entry(355, "test", matrix, rhs, blocked) is not None

    entry = benchmark(store.load_entry, 355, "test")
    assert entry is not None
    for arr in (entry.blocked.A.data, entry.blocked.bsr.block_of_nnz):
        base = arr if isinstance(arr, np.memmap) else arr.base
        assert isinstance(base, np.memmap)
    assert store.counters()["builds"] == 0


MATMAT_K = 16


@pytest.fixture(scope="module")
def rhs_block(matrix):
    rng = np.random.default_rng(4)
    return rng.standard_normal((matrix.shape[0], MATMAT_K))


def _looped_matvec(op, X):
    return np.column_stack([op.matvec(X[:, j]) for j in range(X.shape[1])])


def test_bench_spmv_refloat_matmat(benchmark, matrix, rhs_block):
    """The batched multi-RHS fast path: one conversion + one SpMM for k=16."""
    op = ReFloatOperator(matrix, DEFAULT_SPEC)
    Y = benchmark(op.matmat, rhs_block)
    assert Y.shape == rhs_block.shape


def test_bench_spmv_refloat_matvec_loop(benchmark, matrix, rhs_block):
    """The looped-matvec equivalent of the matmat bench (k=16 conversions)."""
    op = ReFloatOperator(matrix, DEFAULT_SPEC)
    Y = benchmark(_looped_matvec, op, rhs_block)
    assert Y.shape == rhs_block.shape


def test_bench_matmat_speedup_over_loop(matrix, rhs_block):
    """Acceptance pin: batched matmat throughput >= 2x the looped matvecs.

    Timed directly (best-of-repeats median) rather than via two separate
    pytest-benchmark entries so the ratio is asserted, not just recorded.
    """
    import time

    op = ReFloatOperator(matrix, DEFAULT_SPEC)
    Y_loop = _looped_matvec(op, rhs_block)
    Y_batch = op.matmat(rhs_block)
    np.testing.assert_array_equal(Y_batch, Y_loop)  # same bits, then race

    def best_of(fn, repeats=7):
        best = float("inf")
        for _ in range(repeats):
            t0 = time.perf_counter()
            fn()
            best = min(best, time.perf_counter() - t0)
        return best

    t_batch = best_of(lambda: op.matmat(rhs_block))
    t_loop = best_of(lambda: _looped_matvec(op, rhs_block))
    assert t_loop > 2.0 * t_batch, (
        f"batched matmat only {t_loop / t_batch:.2f}x faster than the loop")
