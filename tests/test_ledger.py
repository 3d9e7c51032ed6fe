"""The run ledger: JSONL core, journal byte-compat, record_run, report CLI."""

import json
import threading
from dataclasses import asdict, replace

import pytest

from repro.api import RunConfig
from repro.api import config as api_config
from repro.api.specs import RunRequest
from repro.api.sweep import SweepSpec
from repro.experiments import ledger
from repro.experiments.__main__ import main as cli_main
from repro.experiments.common import (MatrixRun, clear_run_caches, run_suite,
                                      run_sweep)
from repro.experiments.journal import SweepJournal, default_journal_path
from repro.experiments.ledger import JsonlLog, RunLedger
from repro.solvers.base import ConvergenceCriterion


@pytest.fixture
def ledger_env(tmp_path, monkeypatch):
    """A fresh store-rooted ledger; yields the default ledger file path."""
    monkeypatch.setenv("REPRO_ASSET_STORE", str(tmp_path / "assets"))
    monkeypatch.delenv("REPRO_RUN_LEDGER", raising=False)
    monkeypatch.delenv("REPRO_ASSET_CACHE_MB", raising=False)
    monkeypatch.delenv("REPRO_SUITE_WORKERS", raising=False)
    monkeypatch.delenv("REPRO_SUITE_EXECUTOR", raising=False)
    clear_run_caches()
    ledger.reset_counters()
    yield tmp_path / "assets" / "ledger" / "ledger.jsonl"
    clear_run_caches()
    ledger.reset_counters()


def _run_dict(sid=1313, solver="cg"):
    """A summary-grade MatrixRun dict that round-trips through from_dict."""
    return {
        "sid": sid, "name": "minsurfo", "solver": solver, "n_rows": 400,
        "nnz": 3364, "n_blocks": 10,
        "platforms": {
            "gpu": {"converged": True, "iterations": 40,
                    "time_s": 0.5, "speedup_vs_gpu": 1.0},
            "feinberg": {"converged": True, "iterations": 40,
                         "time_s": 0.25, "speedup_vs_gpu": 2.0},
        },
    }


class TestJsonlLog:
    def test_missing_file_replays_empty(self, tmp_path):
        assert list(JsonlLog(tmp_path / "absent.jsonl").replay()) == []

    def test_replay_rejects_unknown_torn_mode(self, tmp_path):
        with pytest.raises(ValueError, match="torn"):
            list(JsonlLog(tmp_path / "x.jsonl").replay(torn="ignore"))

    def test_blank_lines_skipped_but_keep_linenos(self, tmp_path):
        path = tmp_path / "log.jsonl"
        path.write_text('{"a": 1}\n\n{"a": 2}\n')
        assert list(JsonlLog(path).replay()) == [(0, {"a": 1}),
                                                 (2, {"a": 2})]

    def test_torn_final_line_stop_vs_skip(self, tmp_path):
        log = JsonlLog(tmp_path / "log.jsonl")
        log.append_atomic({"a": 1})
        log.append_atomic({"a": 2})
        with open(log.path, "a") as fh:
            fh.write('{"a": 3')  # the crash-torn final line
        assert [r for _, r in log.replay(torn="stop")] == [{"a": 1},
                                                           {"a": 2}]
        assert [r for _, r in log.replay(torn="skip")] == [{"a": 1},
                                                           {"a": 2}]

    def test_skip_sees_records_appended_after_a_torn_line(self, tmp_path):
        # Ledger semantics: a torn line from a dead writer must not hide
        # records a *different* process appended after it.
        log = JsonlLog(tmp_path / "log.jsonl")
        log.append_atomic({"a": 1})
        with open(log.path, "a") as fh:
            fh.write('{"a": 2"broken\n')  # complete but undecodable line
        log.append_atomic({"a": 3})
        assert [r for _, r in log.replay(torn="stop")] == [{"a": 1}]
        assert [r for _, r in log.replay(torn="skip")] == [{"a": 1},
                                                           {"a": 3}]

    def test_concurrent_atomic_appends_never_interleave(self, tmp_path):
        # The threaded-daemon shape: many writers, one file.  Every line
        # must decode and every (writer, seq) pair must survive exactly
        # once — interleaved bytes would fail both.
        log = JsonlLog(tmp_path / "led.jsonl")
        n_threads, per_thread = 8, 25

        def writer(t):
            for i in range(per_thread):
                log.append_atomic({"thread": t, "seq": i, "pad": "x" * 200})

        threads = [threading.Thread(target=writer, args=(t,))
                   for t in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        records = [r for _, r in log.replay(torn="stop")]
        assert len(records) == n_threads * per_thread
        seen = {(r["thread"], r["seq"]) for r in records}
        assert len(seen) == n_threads * per_thread


class TestJournalOnCore:
    """The rebased SweepJournal must write/replay the pre-refactor format."""

    def _spec(self):
        return SweepSpec(family="noisy", grid={"sigma": (0.0, 0.02)},
                         solvers=("cg",), sids=(1313,), scale="test")

    def test_journal_bytes_identical_to_prerefactor_format(self, tmp_path):
        spec, crit = self._spec(), ConvergenceCriterion()
        run = MatrixRun.from_dict(_run_dict())
        journal = SweepJournal(tmp_path / "j.jsonl")
        journal.open(spec, "test", crit, resume=False)
        journal.record("cell-key", run)
        journal.close()
        expected = (
            json.dumps({"type": "SweepJournal", "version": 1,
                        "spec": spec.to_dict(), "scale": "test",
                        "criterion": asdict(crit)}, sort_keys=True) + "\n"
            + json.dumps({"key": "cell-key", "run": run.to_dict()},
                         sort_keys=True) + "\n")
        assert (tmp_path / "j.jsonl").read_text() == expected

    def test_replays_old_format_journal_file(self, tmp_path):
        # A journal literal as written before the tolerance axis existed:
        # the header's spec dict has no "tols" key.  The rebased journal
        # must still match and replay it.
        spec, crit = self._spec(), ConvergenceCriterion()
        header = {"type": "SweepJournal", "version": 1,
                  "spec": spec.to_dict(), "scale": "test",
                  "criterion": asdict(crit)}
        del header["spec"]["tols"]
        run_dict = _run_dict()
        path = tmp_path / "old.jsonl"
        path.write_text(
            json.dumps(header, sort_keys=True) + "\n"
            + json.dumps({"key": "old-key", "run": run_dict},
                         sort_keys=True) + "\n")
        # load raises on a header mismatch, so replaying at all proves
        # the old header still matches.
        runs = SweepJournal(path).load(spec, "test", crit)
        assert list(runs) == ["old-key"]
        assert runs["old-key"].to_dict() == run_dict

    def test_mismatched_header_refuses_to_resume(self, tmp_path):
        spec, crit = self._spec(), ConvergenceCriterion()
        journal = SweepJournal(tmp_path / "j.jsonl")
        journal.open(spec, "test", crit, resume=False)
        journal.close()
        with pytest.raises(ValueError, match="refusing to resume"):
            SweepJournal(journal.path).load(
                spec, "test", replace(crit, tol=1e-6))


class TestJournalDigest:
    """Satellite fix: the default path digests spec AND scale AND criterion."""

    def _spec(self, **kw):
        base = dict(family="noisy", grid={"sigma": (0.0, 0.02)},
                    solvers=("cg",), sids=(1313,), scale="test")
        base.update(kw)
        return SweepSpec(**base)

    def test_digest_covers_scale_and_criterion(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_ASSET_STORE", str(tmp_path))
        spec = self._spec(scale=None)
        crit = ConvergenceCriterion()
        p_test = default_journal_path(spec, "test", crit)
        assert p_test.parent == tmp_path / "journals"
        assert default_journal_path(spec, "test", crit) == p_test  # stable
        assert default_journal_path(spec, "default", crit) != p_test
        assert default_journal_path(
            spec, "test", replace(crit, tol=1e-6)) != p_test


class TestRecordRun:
    def test_noop_without_store_or_ledger(self, monkeypatch):
        monkeypatch.delenv("REPRO_ASSET_STORE", raising=False)
        monkeypatch.delenv("REPRO_RUN_LEDGER", raising=False)
        assert ledger.ledger_root() is None
        assert ledger.ledger_path() is None
        assert ledger.record_run(
            "suite", spec={"type": "SuiteSpec"}, scale="test",
            criterion=None, runs=()) is None
        stats = ledger.ledger_stats()
        assert stats["path"] is None
        assert stats["records"] == 0

    def test_disabled_token_turns_ledger_off(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_ASSET_STORE", str(tmp_path))
        for token in ("off", "none", "0", "OFF"):
            monkeypatch.setenv("REPRO_RUN_LEDGER", token)
            assert ledger.ledger_root(RunConfig.from_env()) is None
        monkeypatch.setenv("REPRO_RUN_LEDGER", str(tmp_path / "elsewhere"))
        assert ledger.ledger_root(RunConfig.from_env()) == \
            tmp_path / "elsewhere"
        monkeypatch.delenv("REPRO_RUN_LEDGER")
        assert ledger.ledger_root(RunConfig.from_env()) == \
            tmp_path / "ledger"

    def test_run_suite_appends_one_replayable_record(self, ledger_env):
        runs = run_suite("cg", scale="test", sids=(1313,), max_workers=1)
        assert 1313 in runs
        records = RunLedger(ledger_env).replay()
        assert len(records) == 1
        rec = records[0]
        assert rec["kind"] == "suite"
        assert rec["scale"] == "test"
        assert rec["spec"]["solver"] == "cg"
        assert rec["criterion"] == asdict(
            api_config.active().effective_criterion)
        assert rec["config"]["store"] == str(ledger_env.parent.parent)
        assert set(rec["registry"]["platforms"]) == set(runs[1313].platforms)
        assert rec["registry"]["solvers"].keys() == {"cg"}
        assert rec["stats"]["requests"] == 1
        assert rec["failures"] == []
        # The result is summary-grade replayable via MatrixRun.from_dict.
        revived = MatrixRun.from_dict(rec["runs"][0])
        assert revived.sid == 1313
        assert revived.to_dict() == rec["runs"][0]
        assert ledger.counters() == {"appends": 1, "errors": 0}

    def test_run_cache_hit_appends_nothing(self, ledger_env):
        run_suite("cg", scale="test", sids=(1313,), max_workers=1)
        run_suite("cg", scale="test", sids=(1313,), max_workers=1)
        assert len(RunLedger(ledger_env).replay()) == 1

    def test_run_sweep_appends_one_record(self, ledger_env):
        spec = SweepSpec(family="noisy", grid={"sigma": (0.0, 0.02)},
                         solvers=("cg",), sids=(1313,), scale="test")
        run_sweep(spec, max_workers=1)
        records = RunLedger(ledger_env).replay()
        assert len(records) == 1
        rec = records[0]
        assert rec["kind"] == "sweep"
        assert rec["spec"]["family"] == "noisy"
        assert rec["stats"]["requests"] == 3
        assert len(rec["runs"]) == 3
        assert all(MatrixRun.from_dict(r).solver == "cg"
                   for r in rec["runs"])

    def test_unwritable_root_degrades_to_warning(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_ASSET_STORE", str(tmp_path / "assets"))
        blocker = tmp_path / "blocker"
        blocker.write_text("")  # a *file* where a parent dir must go
        monkeypatch.setenv("REPRO_RUN_LEDGER", str(blocker / "ledger"))
        clear_run_caches()
        ledger.reset_counters()
        with pytest.warns(RuntimeWarning, match="run ledger append"):
            runs = run_suite("cg", scale="test", sids=(1313,), max_workers=1)
        assert 1313 in runs  # the solve itself must stay successful
        assert ledger.counters() == {"appends": 0, "errors": 1}
        clear_run_caches()
        ledger.reset_counters()


class TestSolveCosts:
    """The recorded solve costs the process pool ranks its graph by."""

    def _record(self, iterations, sid=1313):
        data = _run_dict(sid)
        data["platforms"]["gpu"]["iterations"] = iterations
        ledger.record_run("suite", spec={"type": "Test"}, scale="test",
                          criterion=None, runs=[MatrixRun.from_dict(data)])

    def test_newest_record_wins(self, ledger_env):
        self._record(40)
        self._record(70)
        costs = ledger.solve_costs()
        assert costs[("test", 1313, "cg", "gpu")] == 70 * 3364
        assert costs[("test", 1313, "cg", "feinberg")] == 40 * 3364

    def test_read_is_bounded_to_the_tail(self, ledger_env, monkeypatch):
        self._record(40, sid=1313)
        for _ in range(20):
            self._record(50, sid=353)
        assert ("test", 1313, "cg", "gpu") in ledger.solve_costs()
        half = ledger_env.stat().st_size // 2
        assert len(RunLedger(ledger_env).tail(half)) < 20
        monkeypatch.setattr(ledger, "COST_TAIL_BYTES", half)
        tail = ledger.solve_costs()
        assert ("test", 1313, "cg", "gpu") not in tail
        assert tail[("test", 353, "cg", "gpu")] == 50 * 3364

    def test_ledger_off_leaves_the_graph_unranked(self, ledger_env,
                                                  monkeypatch):
        from repro.api.graph import compile_solve_graph
        from repro.experiments import common

        self._record(40)
        # feinberg_fc reuses gpu's numerics: only gpu's solve is a cost.
        req = RunRequest(sid=1313, solver="cg", scale="test",
                         platforms=("gpu", "feinberg_fc"))
        other = RunRequest(sid=353, solver="cg", scale="test",
                           platforms=("gpu",))
        graph = compile_solve_graph([req, other])
        assert common._ledger_ranks(graph) == {req.key(): 40 * 3364,
                                               other.key(): 0}
        monkeypatch.setenv("REPRO_RUN_LEDGER", "off")
        assert common._ledger_ranks(graph) == {}

    def test_only_graphs_running_nodes_at_once_read_it(self, ledger_env,
                                                       monkeypatch):
        from repro.experiments import common

        reads = []
        monkeypatch.setattr(ledger, "solve_costs",
                            lambda: reads.append(1) or {})
        reqs = [RunRequest(sid=sid, solver="cg", scale="test",
                           platforms=("gpu",)) for sid in (1313, 1288)]
        common._execute_requests(reqs, 2, "serial")
        common._execute_requests(reqs, 1, "process")
        common._execute_requests(reqs[:1], 2, "process")
        assert reads == []
        common._execute_requests(reqs, 2, "process")
        assert reads == [1]


class TestServiceLedger:
    def test_engine_batch_appends_one_service_record(self, ledger_env):
        from repro.service import SolveService

        cfg = RunConfig.from_env(service_batch_window=0.01)
        svc = SolveService(port=0, config=cfg)
        thread = threading.Thread(target=svc.serve_forever, daemon=True)
        thread.start()
        try:
            fut = svc.submit_request(
                RunRequest(sid=1313, solver="cg", scale="test"))
            out = fut.result(timeout=300)
            assert out["failure"] is None
            records = RunLedger(ledger_env).replay()
            assert [r["kind"] for r in records] == ["service"]
            rec = records[0]
            assert rec["spec"]["type"] == "ServiceBatch"
            assert [r["sid"] for r in rec["runs"]] == [1313]
            assert rec["service"] == {"batch_jobs": 1, "unique_requests": 1,
                                      "coalesced": False}
            stats = svc.stats()
            assert stats["ledger"]["records"] == 1
            assert stats["ledger"]["appends"] >= 1
            assert stats["ledger"]["path"] == str(ledger_env)
            assert stats["service"]["latency"]["p95_s"] >= \
                stats["service"]["latency"]["p50_s"] >= 0.0
        finally:
            svc.close()
            thread.join(timeout=10)
            clear_run_caches()


class TestLatencyPercentile:
    def test_nearest_rank(self):
        from repro.service.coalesce import latency_percentile

        samples = [0.4, 0.1, 0.3, 0.2, 0.5]
        assert latency_percentile(samples, 50) == 0.3
        assert latency_percentile(samples, 95) == 0.5
        assert latency_percentile(samples, 100) == 0.5
        assert latency_percentile([], 50) == 0.0
        assert latency_percentile([7.0], 50) == 7.0
        with pytest.raises(ValueError):
            latency_percentile(samples, 0)
        with pytest.raises(ValueError):
            latency_percentile(samples, 101)


class TestReportCLI:
    def test_report_without_ledger_exits_2(self, monkeypatch, capsys):
        monkeypatch.delenv("REPRO_ASSET_STORE", raising=False)
        monkeypatch.delenv("REPRO_RUN_LEDGER", raising=False)
        assert cli_main(["report"]) == 2
        assert "no run ledger configured" in capsys.readouterr().err

    def test_cli_runs_append_and_report_replays(self, ledger_env, tmp_path,
                                                capsys):
        assert cli_main(["suite", "--solver", "cg", "--scale", "test",
                         "--sids", "1313", "--workers", "1"]) == 0
        assert cli_main(["sweep", "--platform", "noisy",
                         "--grid", "sigma=0.001", "--solver", "cg",
                         "--sids", "1313", "--scale", "test",
                         "--workers", "1"]) == 0
        assert cli_main(["solve", "--sid", "1313", "--solver", "cg",
                         "--scale", "test"]) == 0
        records = RunLedger(ledger_env).replay()
        assert [r["kind"] for r in records] == ["suite", "sweep", "solve"]
        capsys.readouterr()

        out_file = tmp_path / "report.json"
        assert cli_main(["report", "--json", str(out_file)]) == 0
        out = capsys.readouterr().out
        assert "perf trajectory over 3 record(s)" in out
        assert "failure-rate trend" in out
        assert "1 solve, 1 suite, 1 sweep" in out

        payload = json.loads(out_file.read_text())
        assert payload["type"] == "LedgerReport"
        assert payload["coverage"]["kinds"] == {"suite": 1, "sweep": 1,
                                                "solve": 1}
        assert payload["coverage"]["sids"] == [1313]
        assert len(payload["records"]) == 3
        # The same deployment stamped every record: shared registry names
        # must agree across records.
        assert len({rec["registry"]["solvers"]["cg"]
                    for rec in payload["records"]}) == 1
        # gpu appears in all three runs of sid 1313 — the trajectory has
        # one point per record.
        points = payload["trajectory"]["1313/cg/gpu"]
        assert [p["record"] for p in points] == [0, 1, 2]
        assert all(p["converged"] for p in points)
        assert all(p["time_s"] is not None for p in points)

    def test_report_replays_record_with_retired_executor(self, ledger_env,
                                                         tmp_path):
        # Records written while the thread executor existed carry it in
        # their RunConfig snapshot.  report reads the runs and never
        # revives the snapshot, so such records must keep replaying.
        config = RunConfig().to_dict()
        config["executor"] = "thread"
        RunLedger(ledger_env).append({
            "type": "RunLedger", "version": ledger.LEDGER_VERSION,
            "kind": "suite", "ts": 1.0, "scale": "test", "config": config,
            "runs": [_run_dict()], "failures": []})
        out_file = tmp_path / "report.json"
        assert cli_main(["report", "--json", str(out_file)]) == 0
        payload = json.loads(out_file.read_text())
        assert payload["coverage"]["kinds"] == {"suite": 1}
        points = payload["trajectory"]["1313/cg/gpu"]
        assert [(p["iterations"], p["time_s"]) for p in points] == [(40, 0.5)]

    def test_report_last_limits_records(self, ledger_env, tmp_path, capsys):
        for sid in (1313, 1313):
            assert cli_main(["solve", "--sid", str(sid), "--solver", "cg",
                             "--scale", "test"]) == 0
        out_file = tmp_path / "report.json"
        assert cli_main(["report", "--last", "1",
                         "--json", str(out_file)]) == 0
        payload = json.loads(out_file.read_text())
        assert len(payload["records"]) == 1

    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_report_last_below_one_is_a_usage_error(self, ledger_env,
                                                    capsys, value):
        # records[-N:] would replay the whole ledger for 0 and drop the
        # oldest records for -N.
        RunLedger(ledger_env).append({
            "type": "RunLedger", "version": ledger.LEDGER_VERSION,
            "kind": "suite", "ts": 1.0, "scale": "test",
            "config": RunConfig().to_dict(), "runs": [_run_dict()],
            "failures": []})
        with pytest.raises(SystemExit) as exc:
            cli_main(["report", "--last", value])
        assert exc.value.code == 2
        assert "--last must be an integer >= 1" in capsys.readouterr().err
