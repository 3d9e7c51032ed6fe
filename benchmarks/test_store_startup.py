"""Suite-startup benchmark: warm ``REPRO_ASSET_STORE`` attach vs cold rebuild.

Asset construction (matrix generation, partition argsort, quantisation) is
the startup cost every cold process pays before the first solve; the
persistent store replaces it with checksummed memory-mapped loads.  This
bench times both paths for the full 12-matrix suite and asserts the warm
path wins — the store's reason to exist.

Measured at ``default`` scale: at ``test`` scale the matrices are so small
that per-entry fixed costs (open/stat/json) dominate and the comparison
measures the filesystem, not the store.  At ``default`` scale, with the
index-only BSR layout, the warm attach took 72-103 ms against 245-324 ms
for the cold rebuild (2.4-4.5x over 3 runs on a 2-vCPU VM, BLAS pinned to
one thread); the assertion only requires parity-beating (>1x) so CI noise
cannot flake it.

Carries the ``bench`` marker — deselected from tier-1 runs (``pytest.ini``).
"""

import time

import pytest

from repro.experiments import store
from repro.experiments.common import clear_run_caches, matrix_assets
from repro.sparse.gallery.suite import suite_ids

pytestmark = pytest.mark.bench

SCALE = "default"


def _time_suite_assets(repeats: int = 3) -> float:
    """Best-of-N wall time to materialise every suite asset from scratch
    (in-process caches cleared each round; the store state is whatever the
    environment says)."""
    best = float("inf")
    for _ in range(repeats):
        clear_run_caches()
        t0 = time.perf_counter()
        for sid in suite_ids():
            matrix_assets(sid, SCALE)
        best = min(best, time.perf_counter() - t0)
    return best


def test_bench_warm_store_startup_beats_cold_rebuild(tmp_path, monkeypatch):
    monkeypatch.delenv("REPRO_ASSET_CACHE_MB", raising=False)

    monkeypatch.delenv("REPRO_ASSET_STORE", raising=False)
    cold = _time_suite_assets()

    monkeypatch.setenv("REPRO_ASSET_STORE", str(tmp_path / "store"))
    store.reset_counters()
    clear_run_caches()
    for sid in suite_ids():       # populate the store (cold + save cost)
        matrix_assets(sid, SCALE)
    assert store.counters()["saves"] == len(suite_ids())

    store.reset_counters()
    warm = _time_suite_assets()
    counts = store.counters()
    assert counts["builds"] == 0, "warm rounds must not rebuild anything"

    clear_run_caches()
    speedup = cold / warm
    print(f"\nsuite asset startup ({SCALE} scale): "
          f"cold {cold * 1e3:.1f} ms, warm-store {warm * 1e3:.1f} ms, "
          f"speedup {speedup:.2f}x")
    assert warm < cold, (
        f"warm store attach ({warm * 1e3:.1f} ms) must beat cold rebuild "
        f"({cold * 1e3:.1f} ms)")
