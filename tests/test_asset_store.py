"""Tests for the persistent on-disk asset store (``REPRO_ASSET_STORE``).

Covers the CSR-array serialisation helpers, the store itself
(bit-identical hits, corruption/truncation fallback-and-replace, atomic
publication), the three-level ``matrix_assets`` hierarchy, and — under
the ``slow`` marker — a genuinely cold process attaching to a warm store
with zero builds plus the process-pool fan-out against a warm store
matching serial results.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from repro.experiments import store
from repro.experiments.common import (
    _store_extras,
    clear_run_caches,
    matrix_assets,
    run_matrix,
    run_suite,
)
from repro.formats.refloat import ReFloatSpec
from repro.operators import ReFloatOperator
from repro.sparse.blocked import BlockedMatrix
from repro.sparse.gallery import build_matrix
from repro.sparse.mmio import csr_from_arrays, csr_to_arrays


@pytest.fixture
def fresh(monkeypatch, tmp_path):
    """Fresh caches and counters, with a tmpdir store configured."""
    monkeypatch.setenv("REPRO_ASSET_STORE", str(tmp_path / "assets"))
    monkeypatch.delenv("REPRO_ASSET_CACHE_MB", raising=False)
    clear_run_caches()
    store.reset_counters()
    yield tmp_path / "assets"
    clear_run_caches()
    store.reset_counters()


def _assert_same_csr(A, C):
    assert A.shape == C.shape
    np.testing.assert_array_equal(np.asarray(A.indptr), np.asarray(C.indptr))
    np.testing.assert_array_equal(np.asarray(A.indices), np.asarray(C.indices))
    np.testing.assert_array_equal(np.asarray(A.data), np.asarray(C.data))


class TestCsrArrayRoundTrip:
    def test_round_trip_preserves_arrays_and_dtypes(self):
        A = sp.csr_matrix(build_matrix(353, "test"))
        arrays, shape = csr_to_arrays(A)
        B = csr_from_arrays(arrays["data"], arrays["indices"],
                            arrays["indptr"], shape, canonical=True)
        _assert_same_csr(A, B)
        assert B.indices.dtype == A.indices.dtype
        assert B.data is arrays["data"]  # no copy

    def test_non_canonical_matrix_round_trips_exactly(self):
        # Unsorted indices must survive: the exact operator's matvec
        # accumulates in nonzero order, so reordering changes last bits.
        data = np.array([3.0, 1.0, 2.0, 5.0])
        indices = np.array([2, 0, 1, 1], dtype=np.int32)
        indptr = np.array([0, 2, 3, 4], dtype=np.int32)
        A = csr_from_arrays(data, indices, indptr, (3, 3))
        assert not A.has_canonical_format
        arrays, shape = csr_to_arrays(A)
        B = csr_from_arrays(**arrays, shape=shape)
        _assert_same_csr(A, B)
        x = np.arange(3, dtype=np.float64)
        np.testing.assert_array_equal(A @ x, B @ x)

    def test_structural_validation(self):
        data = np.ones(2)
        indices = np.zeros(2, dtype=np.int32)
        with pytest.raises(ValueError, match="rows"):
            csr_from_arrays(data, indices, np.array([0, 1, 2]), (3, 3))
        with pytest.raises(ValueError, match="indptr"):
            csr_from_arrays(data, indices, np.array([0, 1, 5]), (2, 3))
        with pytest.raises(ValueError, match="lengths"):
            csr_from_arrays(data, np.zeros(3, dtype=np.int32),
                            np.array([0, 1, 2]), (2, 3))
        # Out-of-range columns must raise, not reach scipy's C kernels as
        # silent out-of-bounds reads.
        with pytest.raises(ValueError, match="column indices"):
            csr_from_arrays(data, np.array([5, 6], dtype=np.int32),
                            np.array([0, 1, 2]), (2, 3))


class TestStore:
    def test_disabled_without_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_ASSET_STORE", raising=False)
        assert store.store_root() is None
        assert not store.has_entry(353, "test")
        assert store.load_entry(353, "test") is None
        A = build_matrix(353, "test")
        assert store.save_entry(353, "test", A, A @ np.ones(A.shape[0]),
                                BlockedMatrix(A, b=7)) is None

    def test_save_then_load_bit_identical(self, fresh):
        A = build_matrix(353, "test")
        blocked = BlockedMatrix(A, b=7)
        b = A @ np.ones(A.shape[0])
        path = store.save_entry(353, "test", A, b, blocked)
        assert path is not None and (path / "meta.json").is_file()
        entry = store.load_entry(353, "test")
        assert entry is not None
        _assert_same_csr(entry.A, sp.csr_matrix(A, dtype=np.float64))
        _assert_same_csr(entry.blocked.A, blocked.A)
        np.testing.assert_array_equal(np.asarray(entry.b), b)
        np.testing.assert_array_equal(entry.blocked.order, blocked.order)
        assert store.counters()["hits"] == 1

    def test_loaded_arrays_are_readonly_mmaps(self, fresh):
        matrix_assets(353, "test")
        clear_run_caches()
        assets = matrix_assets(353, "test")
        data = assets.blocked.A.data
        base = data if isinstance(data, np.memmap) else data.base
        assert isinstance(base, np.memmap)
        assert not data.flags.writeable

    def test_non_canonical_matrix_stores_both_copies(self, fresh):
        # 2257 (thermomech_TC analog) is scatter-permuted: the generated CSR
        # is not canonical, so the store must keep it alongside blocked.A.
        assets = matrix_assets(2257, "test")
        meta = json.loads(
            (store.entry_path(2257, "test") / "meta.json").read_text())
        assert not meta["canonical_shared"]
        clear_run_caches()
        loaded = matrix_assets(2257, "test")
        _assert_same_csr(loaded.A,
                         sp.csr_matrix(assets.A, dtype=np.float64))
        _assert_same_csr(loaded.blocked.A, assets.blocked.A)

    def test_warm_store_hit_builds_nothing_and_matches(self, fresh):
        cold = run_matrix(1313, "cg", "test")
        assert store.counters()["builds"] == 1
        clear_run_caches()
        store.reset_counters()
        warm = run_matrix(1313, "cg", "test")
        counts = store.counters()
        assert counts["builds"] == 0 and counts["hits"] == 1
        assert warm.times_s == cold.times_s
        for platform in cold.results:
            np.testing.assert_array_equal(warm.results[platform].x,
                                          cold.results[platform].x)
            assert (warm.results[platform].residual_norm
                    == cold.results[platform].residual_norm)

    def test_store_hit_matches_storeless_build(self, fresh, monkeypatch):
        matrix_assets(2257, "test")  # publish (non-canonical case)
        clear_run_caches()
        from_store = run_matrix(2257, "bicgstab", "test")
        clear_run_caches()
        monkeypatch.delenv("REPRO_ASSET_STORE")
        built = run_matrix(2257, "bicgstab", "test")
        assert from_store.times_s == built.times_s
        for platform in built.results:
            np.testing.assert_array_equal(from_store.results[platform].x,
                                          built.results[platform].x)

    @pytest.mark.parametrize("damage", ["truncate", "garbage", "missing",
                                        "meta", "version"])
    def test_corrupt_entry_falls_back_and_is_replaced(self, fresh, damage):
        matrix_assets(353, "test")
        path = store.entry_path(353, "test")
        target = path / "A_data.npy"
        if damage == "truncate":
            target.write_bytes(target.read_bytes()[:-16])
        elif damage == "garbage":
            raw = bytearray(target.read_bytes())
            raw[len(raw) // 2] ^= 0xFF
            target.write_bytes(bytes(raw))
        elif damage == "missing":
            target.unlink()
        elif damage == "meta":
            (path / "meta.json").write_text("{not json")
        elif damage == "version":
            meta = json.loads((path / "meta.json").read_text())
            meta["store_version"] = store.STORE_VERSION + 1
            (path / "meta.json").write_text(json.dumps(meta))
        clear_run_caches()
        store.reset_counters()
        assets = matrix_assets(353, "test")  # falls back to a rebuild
        counts = store.counters()
        assert counts["invalid"] == 1 and counts["builds"] == 1
        assert assets.A.shape == assets.blocked.A.shape
        # The bad entry was discarded and the rebuild republished it.
        entry = store.load_entry(353, "test")
        assert entry is not None
        _assert_same_csr(entry.blocked.A, assets.blocked.A)

    def test_corruption_detected_even_with_matching_size(self, fresh):
        # A flipped bit keeps the .npy shape/dtype valid: only the
        # checksum catches it.
        A = build_matrix(353, "test")
        store.save_entry(353, "test", A, A @ np.ones(A.shape[0]),
                         BlockedMatrix(A, b=7))
        target = store.entry_path(353, "test") / "b.npy"
        raw = bytearray(target.read_bytes())
        raw[-1] ^= 0x01
        target.write_bytes(bytes(raw))
        assert store.load_entry(353, "test") is None
        assert store.counters()["invalid"] == 1
        assert not store.has_entry(353, "test")  # discarded

    def test_transient_read_error_is_a_miss_not_an_eviction(self, fresh,
                                                            monkeypatch):
        # One process's EIO/EMFILE moment must not delete a valid entry
        # from a store shared by every other process.
        A = build_matrix(353, "test")
        store.save_entry(353, "test", A, A @ np.ones(A.shape[0]),
                         BlockedMatrix(A, b=7))
        real_crc = store._file_crc32

        def flaky(path):
            raise OSError(5, "Input/output error")

        monkeypatch.setattr(store, "_file_crc32", flaky)
        assert store.load_entry(353, "test") is None
        counts = store.counters()
        assert counts["invalid"] == 0 and counts["misses"] == 1
        assert store.has_entry(353, "test")  # entry survived
        monkeypatch.setattr(store, "_file_crc32", real_crc)
        assert store.load_entry(353, "test") is not None  # and still loads

    def test_save_is_idempotent_and_keeps_first_publication(self, fresh):
        A = build_matrix(353, "test")
        blocked = BlockedMatrix(A, b=7)
        b = A @ np.ones(A.shape[0])
        store.save_entry(353, "test", A, b, blocked)
        first = (store.entry_path(353, "test") / "meta.json").stat().st_mtime_ns
        store.save_entry(353, "test", A, b, blocked)
        assert (store.entry_path(353, "test")
                / "meta.json").stat().st_mtime_ns == first
        assert store.counters()["saves"] == 1

    def test_unwritable_store_degrades_to_no_save(self, fresh, monkeypatch):
        # A full/unwritable store must not crash a build that succeeded.
        blocker = fresh.parent / "blocker"
        blocker.write_text("not a directory")
        monkeypatch.setenv("REPRO_ASSET_STORE", str(blocker / "store"))
        assets = matrix_assets(353, "test")  # builds fine, save is a no-op
        assert assets.A.shape[0] > 0
        assert store.counters()["saves"] == 0

    def test_corrupt_unrequested_extra_does_not_invalidate(self, fresh):
        A = build_matrix(353, "test")
        blocked = BlockedMatrix(A, b=7)
        b = A @ np.ones(A.shape[0])
        store.save_entry(353, "test", A, b, blocked,
                         extras={"custom_extra": np.arange(4.0)})
        target = store.entry_path(353, "test") / "custom_extra.npy"
        raw = bytearray(target.read_bytes())
        raw[-1] ^= 0xFF
        target.write_bytes(bytes(raw))
        # Not requested: never read, never invalidates, core loads fine.
        entry = store.load_entry(353, "test")
        assert entry is not None and entry.extras == {}
        assert store.counters()["invalid"] == 0
        # Requested: the corruption is now provable -> invalid + discard.
        assert store.load_entry(353, "test",
                                extras=("custom_extra",)) is None
        assert store.counters()["invalid"] == 1
        assert not store.has_entry(353, "test")

    def test_requested_extra_round_trips(self, fresh):
        A = build_matrix(353, "test")
        blocked = BlockedMatrix(A, b=7)
        b = A @ np.ones(A.shape[0])
        payload = np.linspace(0.0, 1.0, 7)
        store.save_entry(353, "test", A, b, blocked,
                         extras={"custom_extra": payload})
        entry = store.load_entry(353, "test", extras=("custom_extra",
                                                      "absent_extra"))
        assert entry is not None
        np.testing.assert_array_equal(np.asarray(entry.extras["custom_extra"]),
                                      payload)
        assert "absent_extra" not in entry.extras

    def test_verification_can_be_disabled(self, fresh, monkeypatch):
        A = build_matrix(353, "test")
        store.save_entry(353, "test", A, A @ np.ones(A.shape[0]),
                         BlockedMatrix(A, b=7))
        monkeypatch.setenv("REPRO_ASSET_STORE_VERIFY", "0")
        entry = store.load_entry(353, "test")
        assert entry is not None  # structural checks still ran


def _is_memmap(arr):
    return isinstance(arr if isinstance(arr, np.memmap) else arr.base,
                      np.memmap)


class TestStoreV3BsrLayout:
    """STORE_VERSION 3: the index-only BSR layout; every array is 1-D."""

    def test_entry_persists_bsr_arrays_not_grouping_arrays(self, fresh):
        A = build_matrix(353, "test")
        blocked = BlockedMatrix(A, b=7)
        path = store.save_entry(353, "test", A, A @ np.ones(A.shape[0]),
                                blocked)
        names = {p.name for p in path.iterdir()}
        assert {"bsr_indptr.npy", "bsr_indices.npy",
                "bsr_block_of_nnz.npy"} <= names
        # No dense tiles, no v1 grouping arrays, and (A being canonical) no
        # second copy of the canonical CSR.
        assert not ({"bsr_data.npy", "bsr_scatter.npy", "order.npy",
                     "group_starts.npy", "nnz_key.npy", "C_data.npy"}
                    & names)
        meta = json.loads((path / "meta.json").read_text())
        assert meta["store_version"] == 3
        assert all(len(spec["shape"]) == 1
                   for spec in meta["arrays"].values())
        assert meta["arrays"]["bsr_block_of_nnz"]["shape"] == [blocked.nnz]

    def test_attached_layout_is_the_mmap(self, fresh):
        matrix_assets(353, "test")
        clear_run_caches()
        assets = matrix_assets(353, "test")
        assert _is_memmap(assets.blocked.A.data)
        assert _is_memmap(assets.blocked.bsr.block_of_nnz)

    def test_non_canonical_matrix_round_trips_c_data(self, fresh):
        # 2257 is scatter-permuted, so its canonical CSR is stored in full.
        assets = matrix_assets(2257, "test")
        canonical = assets.blocked.A.data.copy()
        meta = json.loads(
            (store.entry_path(2257, "test") / "meta.json").read_text())
        assert {"C_data", "C_indices", "C_indptr"} <= set(meta["arrays"])
        clear_run_caches()
        loaded = matrix_assets(2257, "test")
        assert _is_memmap(loaded.blocked.A.data)
        np.testing.assert_array_equal(np.asarray(loaded.blocked.A.data),
                                      canonical)

    def test_quantized_extra_skips_requantisation(self, fresh):
        cold = matrix_assets(353, "test")
        qdata = cold.refloat_op.A.data.copy()
        clear_run_caches()
        store.reset_counters()
        warm = matrix_assets(353, "test")
        assert store.counters()["builds"] == 0
        assert _is_memmap(warm.refloat_op.A.data)
        np.testing.assert_array_equal(np.asarray(warm.refloat_op.A.data),
                                      qdata)

    def test_entry_bytes_scale_with_nnz(self, fresh):
        # 8,192 nonzeros in 64 blocks of 128 x 128: dense tiles would cost
        # 8 * 128 * 128 / 128 = 1 KiB per nonzero, twice with the
        # quantised extra.
        n = 8192
        A = sp.diags(np.linspace(1.0, 2.0, n)).tocsr()
        blocked = BlockedMatrix(A, b=7)
        assert blocked.n_blocks == 64
        spec = ReFloatSpec(b=7, e=3, f=3, ev=3, fv=8)
        op = ReFloatOperator(None, spec, blocked=blocked)
        path = store.save_entry(1, "test", A, A @ np.ones(n), blocked,
                                extras=_store_extras(spec, op))
        nbytes = sum(f.stat().st_size for f in path.iterdir())
        assert nbytes / A.nnz < 100

    def test_engine_on_attached_layout_matches_fresh_build(self, fresh):
        from repro.hardware import BlockedEngine

        A = build_matrix(1311, "test")
        blocked = BlockedMatrix(A, b=7)
        store.save_entry(1311, "test", A, A @ np.ones(A.shape[0]), blocked)
        attached = store.load_entry(1311, "test").blocked
        spec = ReFloatSpec(b=7, e=3, f=3, ev=3, fv=8)
        x = np.random.default_rng(11).standard_normal(A.shape[0])
        np.testing.assert_array_equal(
            BlockedEngine(attached, spec).multiply(x),
            BlockedEngine(blocked, spec).multiply(x))

    def test_v2_root_reads_as_a_miss_and_ages_out(self, fresh):
        matrix_assets(353, "test")
        current = store.entry_path(353, "test")
        old = fresh / "v2" / current.name
        old.parent.mkdir(parents=True)
        current.rename(old)
        clear_run_caches()
        store.reset_counters()
        matrix_assets(353, "test")          # a miss, rebuilt under v3
        counts = store.counters()
        assert counts["misses"] == 1 and counts["builds"] == 1
        assert store.has_entry(353, "test")
        current_bytes = next(e["nbytes"] for e in store.entry_stats()
                             if e["current"])
        result = store.gc_store(current_bytes)
        assert result["evicted"] == ["v2/353-test"]
        assert store.has_entry(353, "test")

    @pytest.mark.parametrize("target", ["bsr_block_of_nnz.npy",
                                        "bsr_indices.npy"],
                             ids=["block_of_nnz", "indices"])
    def test_corrupt_bsr_array_invalidates_entry(self, fresh, target):
        A = build_matrix(353, "test")
        store.save_entry(353, "test", A, A @ np.ones(A.shape[0]),
                         BlockedMatrix(A, b=7))
        victim = store.entry_path(353, "test") / target
        raw = bytearray(victim.read_bytes())
        raw[-9] ^= 0x04   # inside the payload, shape/dtype stay valid
        victim.write_bytes(bytes(raw))
        assert store.load_entry(353, "test") is None
        assert store.counters()["invalid"] == 1
        assert not store.has_entry(353, "test")

    def test_wrong_block_of_nnz_with_good_checksum_rejected(self, fresh,
                                                           monkeypatch):
        monkeypatch.setenv("REPRO_ASSET_STORE_VERIFY", "1")
        A = build_matrix(353, "test")
        path = store.save_entry(353, "test", A, A @ np.ones(A.shape[0]),
                                BlockedMatrix(A, b=7))
        victim = path / "bsr_block_of_nnz.npy"
        g = np.load(victim)
        j = int(np.flatnonzero(g != g[0])[0])
        g[[0, j]] = g[[j, 0]]     # in range, same dtype and shape
        np.save(victim, g)
        meta = json.loads((path / "meta.json").read_text())
        meta["arrays"]["bsr_block_of_nnz"]["crc32"] = store._file_crc32(victim)
        (path / "meta.json").write_text(json.dumps(meta))
        assert store.load_entry(353, "test") is None
        assert store.counters()["invalid"] == 1
        assert not store.has_entry(353, "test")


@pytest.mark.slow
class TestColdProcessAttach:
    def test_cold_process_performs_zero_builds(self, fresh):
        """The acceptance criterion: a genuinely cold interpreter against a
        warm store runs the full suite without a single matrix build."""
        script = (
            "import os, sys, json\n"
            "from repro.experiments import store\n"
            "from repro.experiments.common import run_suite\n"
            "runs = run_suite('cg', 'test', use_cache=False, max_workers=1)\n"
            "print(json.dumps({'counters': store.counters(),\n"
            "                  'iters': {str(s): r.results['refloat'].iterations\n"
            "                            for s, r in runs.items()}}))\n"
        )

        src = Path(__file__).resolve().parent.parent / "src"

        def cold_run():
            out = subprocess.run(
                [sys.executable, "-c", script], capture_output=True,
                text=True, check=True, cwd="/",
                env={**os.environ, "PYTHONPATH": str(src)})
            return json.loads(out.stdout.strip().splitlines()[-1])

        first = cold_run()
        assert first["counters"]["builds"] == 12
        second = cold_run()
        assert second["counters"]["builds"] == 0
        assert second["counters"]["hits"] == 12
        assert second["iters"] == first["iters"]

    def test_process_pool_against_warm_store_matches_serial(self, fresh,
                                                            monkeypatch):
        monkeypatch.setenv("REPRO_SUITE_EXECUTOR", "process")
        parallel = run_suite("cg", "test", use_cache=False, max_workers=2)
        # The parent pre-materialised every entry before fanning out.
        assert all(store.has_entry(sid, "test") for sid in parallel)
        clear_run_caches()
        monkeypatch.delenv("REPRO_SUITE_EXECUTOR")
        monkeypatch.delenv("REPRO_ASSET_STORE")
        serial = run_suite("cg", "test", use_cache=False, max_workers=1)
        assert list(parallel) == list(serial)
        for sid in serial:
            s, p = serial[sid], parallel[sid]
            assert s.times_s == p.times_s
            for platform in s.results:
                assert (s.results[platform].residual_norm
                        == p.results[platform].residual_norm)
                np.testing.assert_array_equal(s.results[platform].x,
                                              p.results[platform].x)
