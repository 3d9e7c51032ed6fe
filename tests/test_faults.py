"""Fault-tolerant run engine: injection harness, retries, timeouts,
pool recovery and sweep-journal resume.

The recovery tests run real worker processes (fork makes them cheap at
``test`` scale) with deterministic fault plans — a SIGKILLed worker, an
injected transient exception, a hung solve — and assert that the engine
returns every completed result, charges the right counters, and matches
serial execution bit-for-bit after recovery.  Fast suite matrices
(sub-0.1s solves at test scale) keep these tier-1.
"""

import json
import os
import signal
import time

import numpy as np
import pytest

import repro.api.config as api_config
from repro.api import faults
from repro.api.config import RunConfig
from repro.api.faults import (
    FaultPlan,
    InjectedFaultError,
    RunFailure,
    parse_fault,
)
from repro.api.specs import RunRequest
from repro.api.sweep import SweepSpec
from repro.experiments.common import (
    MatrixRun,
    clear_run_caches,
    run_request,
    run_suite,
    run_sweep,
)
from repro.experiments.journal import SweepJournal, default_journal_path

#: Suite matrices that solve in well under 0.1s at test scale — the
#: recovery tests stay fast even though they fork real worker pools.
FAST_SIDS = (1313, 1288, 2257)


@pytest.fixture
def fresh_caches():
    clear_run_caches()
    yield
    clear_run_caches()


@pytest.fixture
def no_plan():
    faults.install_fault_plan(None)
    yield
    faults.install_fault_plan(None)


class TestFaultTokens:
    def test_parse_builtin_kinds(self):
        crash = parse_fault("crash@attempt=1,sid=2257")
        assert crash.kind == "crash" and crash.sid == 2257
        assert crash.matches("solve", 2257, 1)
        assert not crash.matches("solve", 2257, 2)
        assert not crash.matches("solve", 353, 1)
        hang = parse_fault("hang@secs=30,sid=494")
        assert hang.kind == "hang" and hang.point == "solve"
        fail = parse_fault("fail@attempts=2,sid=353")
        assert fail.matches("solve", 353, 1)
        assert fail.matches("solve", 353, 2)
        assert not fail.matches("solve", 353, 3)

    def test_attempt_zero_matches_every_attempt(self):
        crash = parse_fault("crash@attempt=0,sid=845")
        assert all(crash.matches("solve", 845, a) for a in (1, 2, 7))
        fail = parse_fault("fail@attempts=0")
        assert fail.sid is None  # omitted sid matches every matrix
        assert fail.matches("solve", 353, 9)

    def test_result_point(self):
        spec = parse_fault("fail@point=result,sid=353")
        assert spec.point == "result"
        assert spec.matches("result", 353, 1)
        assert not spec.matches("solve", 353, 1)

    def test_bad_tokens_rejected(self):
        with pytest.raises(KeyError, match="unknown fault kind"):
            parse_fault("explode@sid=1")
        with pytest.raises(ValueError, match="rejected parameters"):
            parse_fault("crash@blast=9")
        with pytest.raises(ValueError, match="non-canonical"):
            parse_fault("crash@sid=2257,attempt=1")  # keys must sort
        with pytest.raises(ValueError, match="point must be one of"):
            parse_fault("fail@point=lunch")
        with pytest.raises(ValueError, match="secs must be positive"):
            parse_fault("hang@secs=0")
        with pytest.raises(ValueError, match="kind@key=value"):
            FaultPlan(tokens=("not-a-token",))

    def test_plan_install_and_sync(self, no_plan):
        plan = faults.install_fault_plan(["fail@attempts=1,sid=353"])
        assert faults.plan_tokens() == ("fail@attempts=1,sid=353",)
        faults.sync_fault_plan(plan.tokens)  # no-op on identical tokens
        assert faults.active_fault_plan() is plan
        faults.sync_fault_plan(())
        assert faults.active_fault_plan() is None

    def test_use_fault_plan_restores(self, no_plan):
        with faults.use_fault_plan(["fail@attempts=1"]):
            assert faults.plan_tokens() == ("fail@attempts=1",)
        assert faults.plan_tokens() == ()

    def test_consult_fires_matching_fault(self, no_plan):
        with faults.use_fault_plan(["fail@attempts=0,sid=353"]):
            with pytest.raises(InjectedFaultError, match="injected fault"):
                faults.consult("solve", sid=353)
            faults.consult("solve", sid=1313)  # other sids untouched


class TestRunFailure:
    def test_from_exception_and_to_dict(self):
        try:
            raise ValueError("boom")
        except ValueError as exc:
            f = RunFailure.from_exception(exc, key="k", phase="solve",
                                          attempts=2, sid=353, solver="cg")
        assert f.error_type == "ValueError" and f.exception is not None
        assert "boom" in f.traceback
        d = f.to_dict()
        assert d["phase"] == "solve" and d["attempts"] == 2
        assert "exception" not in d
        json.dumps(d)  # pure JSON

    def test_phase_validated(self):
        with pytest.raises(ValueError, match="phase must be one of"):
            RunFailure(key="k", phase="lunch", error_type="E", message="m")

    def test_phase_vocabulary_pinned(self):
        # The scheduler's failure phases are a public vocabulary (CI and
        # downstream reports match on them); growing it is fine, renames
        # and removals are not.
        from repro.api.faults import FAILURE_PHASES

        assert FAILURE_PHASES == ("solve", "timeout", "pool", "asset",
                                  "dependency")
        for phase in FAILURE_PHASES:
            RunFailure(key="k", phase=phase, error_type="E", message="m")


class TestSerialEngine:
    def test_collect_returns_partial_results(self, fresh_caches, no_plan):
        with faults.use_fault_plan(["fail@attempts=0,sid=1288"]):
            runs = run_suite("cg", "test", sids=FAST_SIDS, max_workers=1,
                             use_cache=False, on_error="collect")
        assert sorted(runs) == sorted(s for s in FAST_SIDS if s != 1288)
        assert len(runs.failures) == 1
        f = runs.failures[0]
        assert (f.sid, f.solver, f.phase) == (1288, "cg", "solve")
        assert f.error_type == "InjectedFaultError"
        assert '"sid": 1288' in f.key  # the canonical RunRequest key
        assert runs.stats.requests == 3

    def test_raise_propagates_original_exception(self, fresh_caches,
                                                 no_plan):
        with faults.use_fault_plan(["fail@attempts=0,sid=1313"]):
            with pytest.raises(InjectedFaultError):
                run_suite("cg", "test", sids=(1313,), max_workers=1,
                          use_cache=False)

    def test_retry_absorbs_transient_fault(self, fresh_caches, no_plan):
        cfg = RunConfig(scale="test", request_retries=1)
        with faults.use_fault_plan(["fail@attempts=1,sid=1313"]):
            runs = run_suite("cg", "test", sids=FAST_SIDS, max_workers=1,
                             use_cache=False, config=cfg,
                             on_error="collect")
        assert sorted(runs) == sorted(FAST_SIDS)
        assert runs.failures == ()
        assert runs.stats.retries == 1

    def test_backoff_is_exponential_and_deterministic(self, fresh_caches,
                                                      no_plan, monkeypatch):
        from repro.experiments import common

        sleeps = []
        monkeypatch.setattr(common.time, "sleep", sleeps.append)
        cfg = RunConfig(scale="test", request_retries=3, retry_backoff=0.5)
        with faults.use_fault_plan(["fail@attempts=3,sid=1313"]):
            runs = run_suite("cg", "test", sids=(1313, 1288),
                             max_workers=1, use_cache=False, config=cfg,
                             on_error="collect")
        assert sorted(runs) == [1288, 1313]
        assert sleeps == [0.5, 1.0, 2.0]  # backoff * 2**(attempt-1)

    def test_failed_runs_never_cached(self, fresh_caches, no_plan):
        with faults.use_fault_plan(["fail@attempts=0,sid=1313"]):
            bad = run_suite("cg", "test", sids=(1313, 1288),
                            max_workers=1, on_error="collect")
        assert 1313 not in bad
        good = run_suite("cg", "test", sids=(1313, 1288), max_workers=1)
        assert sorted(good) == [1288, 1313] and good.failures == ()

    def test_bad_on_error_rejected(self):
        with pytest.raises(ValueError, match="on_error must be"):
            run_suite("cg", "test", sids=(1313,), on_error="explode")


class TestProcessEngine:
    def test_process_pool_retry_and_collect(self, fresh_caches, no_plan):
        # A raised exception (not a crash) retries on the pool: the fault
        # plan crosses to the worker, which fails attempt 1 only.
        cfg = RunConfig(scale="test", request_retries=1)
        with faults.use_fault_plan(["fail@attempts=1,sid=2257"]):
            runs = run_suite("cg", "test", sids=FAST_SIDS, max_workers=2,
                             executor="process", use_cache=False,
                             config=cfg, on_error="collect")
        assert sorted(runs) == sorted(FAST_SIDS)
        assert runs.failures == () and runs.stats.retries == 1
        assert runs.stats.pool_rebuilds == 0

    def test_worker_crash_recovers_all_results(self, fresh_caches, no_plan):
        with faults.use_fault_plan(["crash@attempt=1,sid=2257"]):
            runs = run_suite("cg", "test", sids=FAST_SIDS, max_workers=2,
                             executor="process", use_cache=False,
                             on_error="collect")
        assert sorted(runs) == sorted(FAST_SIDS)  # zero lost results
        assert runs.failures == ()
        assert runs.stats.pool_rebuilds >= 1
        clear_run_caches()
        serial = run_suite("cg", "test", sids=FAST_SIDS, max_workers=1,
                           use_cache=False)
        for sid in serial:
            assert runs[sid].times_s == serial[sid].times_s
            for p in serial[sid].results:
                np.testing.assert_array_equal(runs[sid].results[p].x,
                                              serial[sid].results[p].x)

    def test_sigkilled_live_worker_mid_suite(self, fresh_caches, no_plan):
        # Not an injected fault: SIGKILL an actual live pool worker from
        # the outside and require a complete result set anyway.
        from repro.experiments import common

        pool = common._process_pool(2)
        pool.submit(os.getpid).result()  # force a worker to spawn
        procs = [p for p in (pool._processes or {}).values() if p.is_alive()]
        assert procs, "pool spawned no live workers"
        os.kill(procs[0].pid, signal.SIGKILL)
        runs = run_suite("cg", "test", sids=FAST_SIDS, max_workers=2,
                         executor="process", use_cache=False,
                         on_error="collect")
        assert sorted(runs) == sorted(FAST_SIDS)
        assert runs.failures == ()

    def test_persistent_crasher_poisoned_others_complete(self, fresh_caches,
                                                         no_plan):
        with faults.use_fault_plan(["crash@attempt=0,sid=1288"]):
            runs = run_suite("cg", "test", sids=FAST_SIDS, max_workers=2,
                             executor="process", use_cache=False,
                             on_error="collect")
        assert sorted(runs) == sorted(s for s in FAST_SIDS if s != 1288)
        assert [(f.phase, f.sid) for f in runs.failures] == [("pool", 1288)]
        assert "running alone" in runs.failures[0].message
        assert runs.stats.poisoned == 1

    def test_hang_with_timeout_retries_to_success(self, fresh_caches,
                                                  no_plan):
        cfg = RunConfig(scale="test", request_timeout=2.0,
                        request_retries=1)
        with faults.use_fault_plan(["hang@secs=60,sid=2257"]):
            t0 = time.monotonic()
            runs = run_suite("cg", "test", sids=FAST_SIDS, max_workers=2,
                             executor="process", use_cache=False,
                             config=cfg, on_error="collect")
        assert time.monotonic() - t0 < 30  # never waited the hang out
        assert sorted(runs) == sorted(FAST_SIDS)
        assert runs.failures == ()
        assert runs.stats.timeouts == 1 and runs.stats.retries == 1
        assert runs.stats.pool_rebuilds >= 1

    def test_hang_without_retries_is_timeout_failure(self, fresh_caches,
                                                     no_plan):
        cfg = RunConfig(scale="test", request_timeout=2.0)
        with faults.use_fault_plan(["hang@attempt=0,secs=60,sid=2257"]):
            runs = run_suite("cg", "test", sids=FAST_SIDS, max_workers=2,
                             executor="process", use_cache=False,
                             config=cfg, on_error="collect")
        assert sorted(runs) == sorted(s for s in FAST_SIDS if s != 2257)
        assert [(f.phase, f.sid) for f in runs.failures] == [
            ("timeout", 2257)]
        assert "request_timeout" in runs.failures[0].message


class TestMatrixRunSummaryRoundTrip:
    def test_from_dict_rebuilds_summary(self, fresh_caches):
        run = run_request(RunRequest(sid=1313, solver="cg", scale="test"))
        revived = MatrixRun.from_dict(run.to_dict())
        assert revived.to_dict() == run.to_dict()
        assert revived.platforms == run.platforms
        for p in run.platforms:
            assert revived.iterations(p) == run.iterations(p)
            assert revived.times_s[p] == run.times_s[p]

    def test_nonfinite_time_round_trips_to_inf(self):
        d = {"sid": 1, "name": "m", "solver": "cg", "n_rows": 2, "nnz": 2,
             "n_blocks": 1,
             "platforms": {"gpu": {"converged": False, "iterations": 7,
                                   "time_s": None}}}
        run = MatrixRun.from_dict(d)
        assert run.times_s["gpu"] == float("inf")


class TestSweepJournal:
    def _spec(self):
        return SweepSpec(family="noisy", grid={"sigma": (0.0, 0.02)},
                         solvers=("cg",), sids=(1313, 1288), scale="test")

    def test_journal_written_and_replayed(self, fresh_caches, tmp_path):
        spec = self._spec()
        path = tmp_path / "sweep.jsonl"
        result = run_sweep(spec, use_cache=False, max_workers=1,
                           journal=path)
        lines = path.read_text().splitlines()
        header = json.loads(lines[0])
        assert header["type"] == "SweepJournal" and header["version"] == 1
        assert len(lines) == 1 + 6  # header + (1 baseline + 2 variants) x 2
        replayed = SweepJournal(path).load(spec, "test", result.criterion)
        assert len(replayed) == 6
        for run in replayed.values():
            assert isinstance(run, MatrixRun)

    def test_resume_solves_only_missing_cells(self, fresh_caches, tmp_path,
                                              no_plan, monkeypatch):
        spec = self._spec()
        path = tmp_path / "sweep.jsonl"
        # First invocation dies on its first sid-1288 cell mid-sweep.
        with faults.use_fault_plan(["fail@attempts=0,sid=1288"]):
            with pytest.raises(InjectedFaultError):
                run_sweep(spec, use_cache=False, max_workers=1,
                          journal=path)
        crit = api_config.active().effective_criterion
        journaled = SweepJournal(path).load(spec, "test", crit)
        assert 0 < len(journaled) < 6  # partial progress survived
        clear_run_caches()
        # The resume must solve exactly the missing cells, nothing more.
        from repro.experiments import common

        solved = []
        orig = common.run_matrix

        def counting(sid, *args, **kwargs):
            solved.append(sid)
            return orig(sid, *args, **kwargs)

        monkeypatch.setattr(common, "run_matrix", counting)
        resumed = run_sweep(spec, use_cache=False, max_workers=1,
                            journal=path, resume=True)
        assert resumed.failures == ()
        assert resumed.stats.journal_skipped == len(journaled)
        assert len(solved) == 6 - len(journaled)
        monkeypatch.undo()
        clear_run_caches()
        # The resumed summary equals a fresh full sweep's summary.
        fresh = run_sweep(spec, use_cache=False, max_workers=1)
        assert set(resumed.runs) == set(fresh.runs)
        for key in fresh.runs:
            assert set(resumed.runs[key]) == set(fresh.runs[key])
            for sid, run in fresh.runs[key].items():
                assert resumed.runs[key][sid].to_dict() == run.to_dict()

    def test_fully_journaled_resume_solves_nothing(self, fresh_caches,
                                                   tmp_path, monkeypatch):
        spec = self._spec()
        path = tmp_path / "sweep.jsonl"
        run_sweep(spec, use_cache=False, max_workers=1, journal=path)
        clear_run_caches()
        from repro.experiments import common

        def explode(*args, **kwargs):
            raise AssertionError("resume re-solved a journaled cell")

        monkeypatch.setattr(common, "run_matrix", explode)
        resumed = run_sweep(spec, use_cache=False, max_workers=1,
                            journal=path, resume=True)
        assert resumed.stats.journal_skipped == 6
        assert resumed.stats.requests == 0
        assert set(resumed.runs) == {("cg", "noisy@sigma=0.0"),
                                     ("cg", "noisy@sigma=0.02")}

    def test_mismatched_header_refuses_resume(self, fresh_caches, tmp_path):
        spec = self._spec()
        path = tmp_path / "sweep.jsonl"
        run_sweep(spec, use_cache=False, max_workers=1, journal=path)
        other = spec.replace(sids=(1313,))
        with pytest.raises(ValueError, match="refusing to resume"):
            run_sweep(other, use_cache=False, max_workers=1, journal=path,
                      resume=True)

    def test_torn_final_record_is_skipped(self, fresh_caches, tmp_path):
        spec = self._spec()
        path = tmp_path / "sweep.jsonl"
        result = run_sweep(spec, use_cache=False, max_workers=1,
                           journal=path)
        whole = SweepJournal(path).load(spec, "test", result.criterion)
        with open(path, "a") as fh:
            fh.write('{"key": "torn-reco')  # the crash point
        torn = SweepJournal(path).load(spec, "test", result.criterion)
        assert torn.keys() == whole.keys()

    def test_resume_without_journal_rejected(self):
        with pytest.raises(ValueError, match="resume=True needs a journal"):
            run_sweep(self._spec(), resume=True)

    def test_default_journal_path_needs_store(self, monkeypatch, tmp_path):
        monkeypatch.delenv("REPRO_ASSET_STORE", raising=False)
        with pytest.raises(ValueError, match="no asset store configured"):
            default_journal_path(self._spec())
        monkeypatch.setenv("REPRO_ASSET_STORE", str(tmp_path))
        path = default_journal_path(self._spec())
        assert path.parent == tmp_path / "journals"
        assert path == default_journal_path(self._spec())  # stable digest
        assert path != default_journal_path(
            self._spec().replace(sids=(1313,)))


class TestStatsFallback:
    def test_singular_matrix_falls_back_to_lobpcg(self):
        import scipy.sparse as sp

        from repro.sparse.stats import extreme_eigenvalues

        # diag(0..49) is exactly singular: the shift-invert factorisation
        # fails and the LOBPCG fallback must deliver the spectrum edges.
        A = sp.diags(np.arange(50.0)).tocsr()
        lam_min, lam_max = extreme_eigenvalues(A)
        assert lam_max == pytest.approx(49.0, rel=1e-3)
        assert lam_min == pytest.approx(0.0, abs=1e-3)


class TestTable5KappaError:
    def test_kappa_failure_recorded_not_swallowed(self, monkeypatch):
        from repro.experiments import table5

        def boom(A):
            raise RuntimeError("no convergence")

        monkeypatch.setattr(table5, "condition_number", boom)
        monkeypatch.setattr(table5, "suite_ids", lambda: [1313])
        data = table5.collect("test", with_condition=True)
        entry = data[1313]
        assert entry["kappa"] != entry["kappa"]  # NaN
        err = entry["kappa_error"]
        assert err["error_type"] == "RuntimeError"
        assert err["phase"] == "solve" and err["sid"] == 1313
        json.dumps(err)
