"""Store GC tooling and the new CLI subcommands (suite / solve / store)."""

import json
import os

import pytest

from repro.experiments import ledger, store
from repro.experiments.__main__ import main as cli_main
from repro.experiments.common import clear_run_caches, matrix_assets


def _ledger_record():
    """Append one minimal ledger record; returns the ledger file path."""
    path = ledger.ledger_path()
    ledger.RunLedger(path).append(
        {"type": "RunLedger", "version": ledger.LEDGER_VERSION,
         "kind": "suite"})
    return path


@pytest.fixture
def store_env(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_ASSET_STORE", str(tmp_path / "assets"))
    monkeypatch.delenv("REPRO_ASSET_CACHE_MB", raising=False)
    monkeypatch.delenv("REPRO_SUITE_WORKERS", raising=False)
    monkeypatch.delenv("REPRO_SUITE_EXECUTOR", raising=False)
    clear_run_caches()
    store.reset_counters()
    yield tmp_path / "assets"
    clear_run_caches()
    store.reset_counters()


def _touch_entry(sid, scale, atime):
    """Set every file of an entry to a controlled access time."""
    path = store.entry_path(sid, scale)
    for f in path.iterdir():
        os.utime(f, (atime, f.stat().st_mtime))


class TestStoreStats:
    def test_stats_without_store(self, monkeypatch):
        monkeypatch.delenv("REPRO_ASSET_STORE", raising=False)
        assert store.entry_stats() == []
        stats = store.store_stats()
        assert stats["root"] is None
        assert stats["entries"] == 0

    def test_stats_counts_entries_and_bytes(self, store_env):
        matrix_assets(353, "test")
        matrix_assets(1311, "test")
        stats = store.store_stats()
        assert stats["entries"] == 2
        assert stats["nbytes"] > 0
        keys = {e["key"] for e in stats["per_entry"]}
        assert keys == {"353-test", "1311-test"}
        assert all(e["current"] for e in stats["per_entry"])

    def test_stats_includes_stale_versions(self, store_env):
        matrix_assets(353, "test")
        stale = store_env / "v0" / "999-test"
        stale.mkdir(parents=True)
        (stale / "meta.json").write_text("{}")
        entries = store.entry_stats()
        versions = {(e["version"], e["current"]) for e in entries}
        assert ("v0", False) in versions
        assert (f"v{store.STORE_VERSION}", True) in versions

    def test_stats_reports_ledger_totals(self, store_env):
        matrix_assets(353, "test")
        path = _ledger_record()
        stats = store.store_stats()
        assert stats["ledger"]["path"] == str(path)
        assert stats["ledger"]["records"] == 1
        assert stats["ledger"]["nbytes"] == path.stat().st_size
        # The ledger is not a store entry: it never shows up in (or
        # counts toward) the eviction namespace.
        assert {e["key"] for e in stats["per_entry"]} == {"353-test"}


class TestStoreGC:
    def test_gc_evicts_lru_by_atime(self, store_env):
        matrix_assets(353, "test")
        matrix_assets(1311, "test")
        # 353 is the stale entry, 1311 the recently-used one.
        _touch_entry(353, "test", 1_000_000.0)
        _touch_entry(1311, "test", 2_000_000.0)
        sizes = {e["key"]: e["nbytes"] for e in store.entry_stats()}
        result = store.gc_store(sizes["1311-test"])
        assert result["evicted"] == [f"v{store.STORE_VERSION}/353-test"]
        assert result["kept"] == 1
        assert result["after_nbytes"] <= sizes["1311-test"]
        assert not store.has_entry(353, "test")
        assert store.has_entry(1311, "test")
        # The survivor still loads (bit rot would have been a GC bug).
        assert store.load_entry(1311, "test") is not None

    def test_gc_recency_order_flipped(self, store_env):
        matrix_assets(353, "test")
        matrix_assets(1311, "test")
        _touch_entry(353, "test", 2_000_000.0)
        _touch_entry(1311, "test", 1_000_000.0)
        sizes = {e["key"]: e["nbytes"] for e in store.entry_stats()}
        result = store.gc_store(sizes["353-test"])
        assert result["evicted"] == [f"v{store.STORE_VERSION}/1311-test"]
        assert store.has_entry(353, "test")

    def test_load_stamps_recency_sidecar_that_beats_atime(self, store_env):
        # atime is unreliable (mmap reads, relatime/noatime mounts); the
        # last_used sidecar written on load is the authoritative signal.
        matrix_assets(353, "test")
        matrix_assets(1311, "test")
        assert store.load_entry(353, "test") is not None  # stamps sidecar
        assert (store.entry_path(353, "test") / "last_used").is_file()
        # Stale atimes everywhere; 1311's atime is *newer* than 353's,
        # but 353's sidecar (stamped "now") must keep it alive.
        _touch_entry(353, "test", 1_000_000.0)
        _touch_entry(1311, "test", 2_000_000.0)
        sidecar = store.entry_path(353, "test") / "last_used"
        os.utime(sidecar, (1_000_000.0, sidecar.stat().st_mtime))
        sizes = {e["key"]: e["nbytes"] for e in store.entry_stats()}
        result = store.gc_store(sizes["353-test"])
        assert result["evicted"] == [f"v{store.STORE_VERSION}/1311-test"]
        assert store.has_entry(353, "test")

    def test_gc_noop_when_under_budget(self, store_env):
        matrix_assets(353, "test")
        result = store.gc_store(1 << 30)
        assert result["evicted"] == []
        assert result["kept"] == 1
        assert store.has_entry(353, "test")

    def test_gc_zero_budget_clears_everything(self, store_env):
        matrix_assets(353, "test")
        matrix_assets(1311, "test")
        result = store.gc_store(0)
        assert result["after_nbytes"] == 0
        assert result["kept"] == 0
        assert store.entry_stats() == []

    def test_gc_rejects_negative_budget(self, store_env):
        with pytest.raises(ValueError, match="max_bytes"):
            store.gc_store(-1)

    def test_evicted_entry_rebuilds_transparently(self, store_env):
        matrix_assets(353, "test")
        store.gc_store(0)
        clear_run_caches()
        store.reset_counters()
        matrix_assets(353, "test")  # miss -> rebuild -> republish
        counts = store.counters()
        assert counts["builds"] == 1
        assert counts["saves"] == 1
        assert store.has_entry(353, "test")


    def test_gc_never_evicts_the_ledger(self, store_env):
        matrix_assets(353, "test")
        matrix_assets(1311, "test")
        path = _ledger_record()
        result = store.gc_store(0)
        assert len(result["evicted"]) == 2
        assert store.entry_stats() == []  # every entry gone...
        assert path.is_file()             # ...the ledger untouched
        assert len(ledger.RunLedger(path).replay()) == 1


class TestCLI:
    def test_store_stats_and_gc(self, store_env, capsys):
        matrix_assets(353, "test")
        matrix_assets(1311, "test")
        path = _ledger_record()
        assert cli_main(["store", "--stats"]) == 0
        out = capsys.readouterr().out
        assert "2 entries" in out and "353-test" in out
        assert f"ledger {path}: 1 records" in out
        assert cli_main(["store", "--gc", "--max-mb", "0"]) == 0
        out = capsys.readouterr().out
        assert "evicted 2 entries" in out
        assert store.entry_stats() == []
        # The regression this pins: a tiny GC budget clears the whole
        # entry namespace but must leave ledger/ intact.
        assert path.is_file()
        assert len(ledger.RunLedger(path).replay()) == 1

    def test_store_requires_configuration(self, monkeypatch, capsys):
        monkeypatch.delenv("REPRO_ASSET_STORE", raising=False)
        assert cli_main(["store", "--stats"]) == 2
        assert "no asset store configured" in capsys.readouterr().err

    def test_store_flag_overrides_env(self, tmp_path, monkeypatch, capsys,
                                      store_env):
        matrix_assets(353, "test")
        other = tmp_path / "other-store"
        other.mkdir()
        assert cli_main(["store", "--stats", "--store", str(other)]) == 0
        assert "0 entries" in capsys.readouterr().out

    def test_gc_requires_max_mb(self, store_env):
        with pytest.raises(SystemExit):
            cli_main(["store", "--gc"])

    @pytest.mark.parametrize("value", ["nan", "inf", "-1"])
    def test_gc_rejects_a_bad_budget_as_a_usage_error(self, store_env,
                                                      capsys, value):
        with pytest.raises(SystemExit) as exc:
            cli_main(["store", "--gc", "--max-mb", value])
        assert exc.value.code == 2
        assert "--max-mb must be a finite number" in capsys.readouterr().err

    def test_suite_subcommand_writes_json(self, tmp_path, monkeypatch,
                                          capsys):
        monkeypatch.delenv("REPRO_SUITE_EXECUTOR", raising=False)
        monkeypatch.delenv("REPRO_SUITE_WORKERS", raising=False)
        clear_run_caches()
        out_file = tmp_path / "suite.json"
        code = cli_main(["suite", "--solver", "cg", "--scale", "test",
                         "--platforms", "gpu,refloat", "--sids", "353,1311",
                         "--workers", "1", "--json", str(out_file)])
        assert code == 0
        assert "ReFloat" in capsys.readouterr().out
        payload = json.loads(out_file.read_text())
        assert payload["spec"]["solver"] == "cg"
        assert set(payload["runs"]) == {"353", "1311"}
        refloat = payload["runs"]["353"]["platforms"]["refloat"]
        assert refloat["converged"] is True
        assert refloat["speedup_vs_gpu"] > 0
        clear_run_caches()

    @pytest.mark.parametrize("flag, value", [("--workers", "0"),
                                             ("--timeout", "-1")])
    def test_invalid_engine_flag_is_a_usage_error(self, capsys, flag,
                                                  value):
        with pytest.raises(SystemExit) as exc:
            cli_main(["suite", "--scale", "test", "--sids", "1313",
                      flag, value])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err and f"got {value}" in err

    @pytest.mark.parametrize("command", ["suite", "sweep", "serve"])
    def test_engine_flags_accept_every_executor(self, command):
        from repro.experiments.__main__ import _api_parser

        required = (["--platform", "noisy", "--grid", "sigma=0.01"]
                    if command == "sweep" else [])
        for executor in ("serial", "process"):
            args = _api_parser(command).parse_args(
                required + ["--executor", executor, "--workers", "2"])
            assert (args.executor, args.workers) == (executor, 2)
        with pytest.raises(SystemExit):
            _api_parser(command).parse_args(
                required + ["--executor", "thread"])

    def test_solve_subcommand(self, capsys):
        clear_run_caches()
        code = cli_main(["solve", "--sid", "1311", "--solver", "cg",
                         "--scale", "test", "--platforms", "gpu,refloat"])
        assert code == 0
        out = capsys.readouterr().out
        assert "gridgena" in out and "refloat" in out
        clear_run_caches()

    def test_legacy_experiment_path_still_works(self, capsys):
        clear_run_caches()
        assert cli_main(["table7"]) == 0
        assert "Table VII" in capsys.readouterr().out
