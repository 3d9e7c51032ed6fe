"""Suite fan-out executors and the LRU asset-cache budget.

The process-pool equivalence run re-executes the full (test-scale) suite in
worker processes, so it carries the ``slow`` marker and is deselected from
the tier-1 invocation (see ``pytest.ini``); CI runs it in a dedicated step.
"""

import os

import numpy as np
import pytest

from repro.api import config as api_config
from repro.experiments import common
from repro.experiments.common import (
    asset_cache_stats,
    clear_run_caches,
    matrix_assets,
    run_suite,
)


@pytest.fixture
def fresh_caches():
    clear_run_caches()
    yield
    clear_run_caches()


class TestExecutorSelection:
    def test_env_selects_executor(self, monkeypatch):
        monkeypatch.delenv("REPRO_SUITE_EXECUTOR", raising=False)
        assert common._suite_executor() == "serial"
        monkeypatch.setenv("REPRO_SUITE_EXECUTOR", "process")
        assert common._suite_executor() == "process"
        assert common._suite_executor("serial") == "serial"  # arg wins

    def test_invalid_env_names_var_and_value(self, monkeypatch):
        monkeypatch.setenv("REPRO_SUITE_EXECUTOR", "fibers")
        with pytest.raises(ValueError,
                           match="REPRO_SUITE_EXECUTOR='fibers'"):
            common._suite_executor()
        with pytest.raises(ValueError, match="'fibers'"):
            common._suite_executor("fibers")

    def test_invalid_workers_names_var_and_value(self, monkeypatch):
        monkeypatch.setenv("REPRO_SUITE_WORKERS", "many")
        with pytest.raises(ValueError,
                           match="REPRO_SUITE_WORKERS='many'"):
            common._suite_workers(4)

    @pytest.mark.parametrize("bad", ["0", "-1", "-8"])
    def test_nonpositive_workers_raise_same_named_error(self, monkeypatch,
                                                        bad):
        # 0 and negatives used to be clamped to serial silently; they must
        # fail exactly like non-integers, naming the variable and value.
        monkeypatch.setenv("REPRO_SUITE_WORKERS", bad)
        with pytest.raises(ValueError,
                           match=f"REPRO_SUITE_WORKERS='{bad}'"):
            common._suite_workers(4)

    def test_valid_workers_accepted(self, monkeypatch):
        monkeypatch.setenv("REPRO_SUITE_WORKERS", "3")
        assert common._suite_workers(12) == 3
        monkeypatch.setenv("REPRO_SUITE_WORKERS", "1")
        assert common._suite_workers(12) == 1

    def test_worker_count_honours_cpu_affinity(self, monkeypatch):
        # A process allowed fewer CPUs than the machine has (taskset, a
        # container's cpuset) gets one worker per allowed CPU.
        monkeypatch.delenv("REPRO_SUITE_WORKERS", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0},
                            raising=False)
        assert api_config.available_cpus() == 1
        assert common._suite_workers(12) == 1
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid: {0, 2, 5}, raising=False)
        assert common._suite_workers(12) == 3
        assert common._suite_workers(2) == 2

    def test_paper_commands_default_to_the_pool(self, monkeypatch):
        monkeypatch.delenv("REPRO_SUITE_EXECUTOR", raising=False)
        monkeypatch.delenv("REPRO_SUITE_WORKERS", raising=False)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1},
                            raising=False)
        assert api_config.paper_config().executor == "process"
        assert api_config.RunConfig.from_env().executor == "serial"
        monkeypatch.setenv("REPRO_SUITE_WORKERS", "1")
        assert api_config.paper_config().executor == "serial"
        monkeypatch.delenv("REPRO_SUITE_WORKERS")
        monkeypatch.setenv("REPRO_SUITE_EXECUTOR", "serial")
        assert api_config.paper_config().executor == "serial"
        monkeypatch.setenv("REPRO_SUITE_EXECUTOR", "process")
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0},
                            raising=False)
        assert api_config.paper_config().executor == "process"

    def test_cli_default_runs_inline_on_one_cpu(self, monkeypatch,
                                                fresh_caches, capsys):
        from repro.experiments.__main__ import main

        monkeypatch.delenv("REPRO_SUITE_EXECUTOR", raising=False)
        monkeypatch.delenv("REPRO_SUITE_WORKERS", raising=False)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0},
                            raising=False)

        def no_pool(workers):
            raise AssertionError("a one-CPU default run built a pool")

        monkeypatch.setattr(common, "_process_pool", no_pool)
        executors = []
        execute = common._execute_requests
        monkeypatch.setattr(
            common, "_execute_requests",
            lambda requests, workers, executor, **kw: (
                executors.append(executor)
                or execute(requests, workers, executor, **kw)))
        assert main(["table1", "--scale", "test"]) == 0
        assert executors == ["serial", "serial"]
        assert "Table I" in capsys.readouterr().out


class TestProcessPoolLifecycle:
    def test_exit_hook_registered_ahead_of_futures_drain(self):
        # The hook must be in threading's exit-callback list (those run
        # LIFO, before concurrent.futures' own handler, which would first
        # drain every queued task — and can hang on a stuck worker).
        import threading

        registered = [getattr(cb, "func", cb)
                      for cb in threading._threading_atexits]
        assert common._exit_process_pool in registered

    def test_shutdown_is_idempotent(self):
        common._shutdown_process_pool()
        common._shutdown_process_pool()  # no pool: must be a no-op
        common._exit_process_pool()      # likewise
        assert common._PROCESS_POOL is None

    def test_pool_recreated_when_store_config_changes(self, monkeypatch,
                                                      tmp_path):
        # Forked workers freeze their environment: a pool outliving a
        # REPRO_ASSET_STORE change would keep rebuilding assets the parent
        # already materialised, so the pool identity includes the store
        # config.
        common._shutdown_process_pool()
        monkeypatch.delenv("REPRO_ASSET_STORE", raising=False)
        p1 = common._process_pool(1)
        assert common._process_pool(1) is p1
        monkeypatch.setenv("REPRO_ASSET_STORE", str(tmp_path / "s"))
        p2 = common._process_pool(1)
        assert p2 is not p1
        assert common._process_pool(1) is p2  # stable under same config
        common._shutdown_process_pool()

    @pytest.mark.slow
    def test_interpreter_exit_with_queued_work_does_not_drain(self):
        """Exiting with tasks queued must reap workers, not run the queue.

        Without the exit hook, concurrent.futures' handler executes all
        four queued 2-second sleeps before the interpreter can exit (>= 8s,
        or forever on a stuck worker); with it, exit is near-immediate.
        """
        import subprocess
        import sys
        import time

        script = (
            "import time\n"
            "from repro.experiments import common\n"
            "pool = common._process_pool(1)\n"
            "for _ in range(4):\n"
            "    pool.submit(time.sleep, 2.0)\n"
        )
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", script],
                              capture_output=True, text=True, timeout=30)
        elapsed = time.perf_counter() - t0
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr.strip() == ""
        assert elapsed < 6.0, (
            f"interpreter exit took {elapsed:.1f}s — the queued work was "
            f"drained instead of abandoned")

    def test_invalid_cache_budget_names_value(self, monkeypatch):
        monkeypatch.setenv("REPRO_ASSET_CACHE_MB", "lots")
        with pytest.raises(ValueError, match="'lots'"):
            common._asset_cache_budget()
        monkeypatch.setenv("REPRO_ASSET_CACHE_MB", "-3")
        with pytest.raises(ValueError, match="'-3'"):
            common._asset_cache_budget()


class TestAssetCacheBudget:
    def test_unbounded_without_env(self, monkeypatch, fresh_caches):
        monkeypatch.delenv("REPRO_ASSET_CACHE_MB", raising=False)
        a1 = matrix_assets(353, "test")
        matrix_assets(1313, "test")
        assert matrix_assets(353, "test") is a1
        stats = asset_cache_stats()
        assert stats["entries"] == 2 and stats["bytes"] > 0

    def test_evicts_least_recently_used(self, monkeypatch, fresh_caches):
        # Pin every entry's estimated size to 100 bytes so the eviction
        # arithmetic is deterministic: a 150-byte budget holds one entry.
        monkeypatch.setattr(common, "_approx_nbytes", lambda *roots: 100)
        monkeypatch.setenv("REPRO_ASSET_CACHE_MB", str(150 / (1 << 20)))
        a1 = matrix_assets(353, "test")
        matrix_assets(1313, "test")
        assert asset_cache_stats() == {"entries": 1, "bytes": 100}
        # 353 was evicted (LRU); fetching it again rebuilds fresh assets.
        assert matrix_assets(353, "test") is not a1

    def test_recent_use_refreshes_lru_position(self, monkeypatch, fresh_caches):
        # A 250-byte budget holds two 100-byte entries but not three.
        monkeypatch.setattr(common, "_approx_nbytes", lambda *roots: 100)
        monkeypatch.setenv("REPRO_ASSET_CACHE_MB", str(250 / (1 << 20)))
        a1 = matrix_assets(353, "test")
        a2 = matrix_assets(1313, "test")
        assert matrix_assets(353, "test") is a1     # touch: 1313 is now LRU
        matrix_assets(2261, "test")                 # insert: evicts 1313
        assert asset_cache_stats() == {"entries": 2, "bytes": 200}
        assert matrix_assets(353, "test") is a1
        assert matrix_assets(1313, "test") is not a2

    def test_clear_resets_accounting(self, fresh_caches):
        matrix_assets(353, "test")
        assert asset_cache_stats()["bytes"] > 0
        clear_run_caches()
        stats = asset_cache_stats()
        assert stats == {"entries": 0, "bytes": 0}


@pytest.mark.slow
class TestProcessPoolSuite:
    def test_process_pool_matches_serial(self, monkeypatch, fresh_caches):
        monkeypatch.setenv("REPRO_SUITE_EXECUTOR", "process")
        parallel = run_suite("cg", "test", use_cache=False, max_workers=2)
        monkeypatch.delenv("REPRO_SUITE_EXECUTOR")
        clear_run_caches()
        serial = run_suite("cg", "test", use_cache=False, max_workers=1)
        assert list(parallel) == list(serial)
        for sid in serial:
            s, p = serial[sid], parallel[sid]
            assert s.times_s == p.times_s
            for platform in s.results:
                assert (s.results[platform].iterations
                        == p.results[platform].iterations)
                assert (s.results[platform].residual_norm
                        == p.results[platform].residual_norm)
                np.testing.assert_array_equal(s.results[platform].x,
                                              p.results[platform].x)
