"""The dependency-aware task graph and the graph-driven run engine.

Covers the graph/scheduler primitives (topological dispatch order, named
cycle errors, dependent-skip on failure, ranked dispatch), the engine
integration (suite and sweep results pinned bit-identical to direct
``run_matrix`` solves on both executors), the no-phase-barrier property (a
variant solve dispatches while a baseline is still running), ranked
dispatch on the process pool, and the ``"asset"``/``"dependency"`` failure
phases that replaced the silently-dropped pre-warm futures.
"""

import numpy as np
import pytest

from repro.api import faults
from repro.api.config import EXECUTORS
from repro.api.faults import RunFailure
from repro.api.graph import (
    AssetNode,
    BaselineNode,
    GraphCycleError,
    GraphScheduler,
    SolveNode,
    TaskGraph,
    compile_solve_graph,
    critical_path_ranks,
)
from repro.api.registry import Registry, resolve_platforms
from repro.api.specs import RunRequest
from repro.api.sweep import SweepSpec
from repro.experiments import common, store
from repro.experiments.common import (
    ExecutionStats,
    clear_run_caches,
    run_matrix,
    run_suite,
    run_sweep,
)

#: Suite matrices that solve in well under 0.1s at test scale.
FAST_SIDS = (1313, 1288, 2257)


@pytest.fixture
def fresh_caches():
    clear_run_caches()
    yield
    clear_run_caches()


def _request(sid, platforms=("gpu",), solver="cg", scale="test"):
    return RunRequest(sid=sid, solver=solver, scale=scale,
                      platforms=tuple(platforms))


# ----------------------------------------------------------------------
# TaskGraph primitives


class TestTaskGraph:
    def test_add_and_introspect(self):
        g = TaskGraph()
        g.add("a")
        g.add("b", payload=42)
        g.depend("b", "a")
        assert "a" in g and "b" in g and "c" not in g
        assert len(g) == 2 and g.n_edges == 1
        assert g.keys() == ("a", "b")
        assert g.payload("b") == 42
        assert g.dependencies("b") == ("a",)
        assert g.dependents("a") == ("b",)

    def test_duplicate_node_rejected(self):
        g = TaskGraph()
        g.add("a")
        with pytest.raises(ValueError, match="already has a node 'a'"):
            g.add("a")

    def test_unknown_keys_rejected(self):
        g = TaskGraph()
        g.add("a")
        with pytest.raises(KeyError, match="no node 'b'"):
            g.depend("a", "b")
        with pytest.raises(KeyError, match="no node 'b'"):
            g.payload("b")

    def test_self_dependency_is_a_named_cycle(self):
        g = TaskGraph()
        g.add("a")
        with pytest.raises(GraphCycleError, match="cannot depend on itself"):
            g.depend("a", "a")

    def test_duplicate_edge_is_idempotent(self):
        g = TaskGraph()
        g.add("a")
        g.add("b")
        g.depend("b", "a")
        g.depend("b", "a")
        assert g.n_edges == 1

    def test_topological_order_dependencies_first(self):
        g = TaskGraph()
        for key in ("c", "a", "b"):
            g.add(key)
        g.depend("c", "b")
        g.depend("b", "a")
        assert g.topological_order() == ("a", "b", "c")

    def test_topological_order_breaks_ties_by_insertion(self):
        g = TaskGraph()
        for key in ("x", "p", "y", "q"):
            g.add(key)
        g.depend("p", "x")
        g.depend("q", "y")
        # Of the simultaneously-ready nodes, earliest-added first.
        assert g.topological_order() == ("x", "p", "y", "q")

    def test_cycle_detection_names_members(self):
        g = TaskGraph()
        for key in ("a", "b", "c"):
            g.add(key)
        g.depend("a", "b")
        g.depend("b", "a")
        with pytest.raises(GraphCycleError, match="cycle") as err:
            g.topological_order()
        assert set(err.value.members) == {"a", "b"}
        assert isinstance(err.value, ValueError)  # historical contract


class TestResolvePlatformsOnGraph:
    def test_builtin_order_unchanged(self):
        # The graph construction must keep the historical closure order:
        # dependencies first, then the requested names in the order given.
        assert resolve_platforms(
            ("gpu", "feinberg_fc", "feinberg", "refloat")) == (
            "gpu", "feinberg_fc", "feinberg", "refloat")
        assert resolve_platforms(("feinberg_fc",)) == ("gpu", "feinberg_fc")
        assert resolve_platforms(("refloat", "feinberg_fc")) == (
            "refloat", "gpu", "feinberg_fc")

    def test_dependency_cycle_raises_named_graph_error(self):
        from repro.api.registry import PlatformSpec

        reg = Registry("platform")
        reg.register(PlatformSpec(name="one", operator=None,
                                  timing=lambda ctx, it: 0.0,
                                  results_from="two"))
        reg.register(PlatformSpec(name="two", operator=None,
                                  timing=lambda ctx, it: 0.0,
                                  results_from="one"))
        with pytest.raises(GraphCycleError, match="cycle through"):
            resolve_platforms(("one",), registry=reg)
        with pytest.raises(ValueError, match="cycle"):  # old match spelling
            resolve_platforms(("two",), registry=reg)


# ----------------------------------------------------------------------
# GraphScheduler


class TestGraphScheduler:
    def _diamond(self):
        #   a -> b -> d ;  a -> c -> d
        g = TaskGraph()
        for key in ("a", "b", "c", "d"):
            g.add(key)
        g.depend("b", "a")
        g.depend("c", "a")
        g.depend("d", "b")
        g.depend("d", "c")
        return g

    def test_dispatch_follows_dependencies(self):
        sched = GraphScheduler(self._diamond())
        order = []
        while not sched.is_finished:
            key = sched.pop_ready()
            sched.start(key)
            order.append(key)
            sched.complete(key)
        assert order == ["a", "b", "c", "d"]

    def test_complete_reports_newly_ready(self):
        sched = GraphScheduler(self._diamond())
        assert sched.pop_ready() == "a"
        sched.start("a")
        assert sched.complete("a") == ("b", "c")
        sched.start(sched.pop_ready())
        assert sched.complete("b") == ()  # d still waits on c
        sched.start(sched.pop_ready())
        assert sched.complete("c") == ("d",)

    def test_fail_skips_dependents_transitively(self):
        sched = GraphScheduler(self._diamond())
        sched.start(sched.pop_ready())
        assert sched.fail("a") == ("b", "c", "d")
        assert sched.is_finished
        assert sched.n_skipped == 3
        assert sched.state("a") == "failed"
        assert sched.state("d") == "skipped"
        assert not sched.has_ready

    def test_fail_leaves_completed_dependents_alone(self):
        g = TaskGraph()
        g.add("a")
        g.add("b")
        g.add("c")
        g.depend("b", "a")
        g.depend("c", "a")
        sched = GraphScheduler(g)
        sched.start(sched.pop_ready())
        sched.complete("a")
        sched.start(sched.pop_ready())
        sched.complete("b")
        assert sched.fail("c") == ()  # nothing left to skip
        assert sched.state("b") == "done"

    def test_requeue_and_trace(self):
        g = TaskGraph()
        g.add("a")
        g.add("b")
        sched = GraphScheduler(g)
        key = sched.pop_ready()
        sched.start(key)
        sched.requeue(key)  # retry path: back of the queue
        assert sched.pop_ready() == "b"
        sched.start("b")
        sched.requeue("a", front=True)  # innocent-suspect path: front
        assert sched.pop_ready() == "a"
        sched.start("a")
        sched.complete("a")
        sched.complete("b")
        trace = sched.trace_dict()
        assert trace["a"]["dispatches"] == 2
        assert trace["a"]["first_dispatch"] <= trace["a"]["last_dispatch"]
        assert trace["a"]["state"] == "done"
        with pytest.raises(ValueError, match="finished"):
            sched.requeue("a")

    def test_cycle_rejected_at_construction(self):
        g = TaskGraph()
        g.add("a")
        g.add("b")
        g.depend("a", "b")
        g.depend("b", "a")
        with pytest.raises(GraphCycleError, match="cycle"):
            GraphScheduler(g)


def _dispatch_all(sched):
    """Pop, start and complete nodes one at a time; the dispatch order."""
    order = []
    while not sched.is_finished:
        key = sched.pop_ready()
        sched.start(key)
        order.append(key)
        sched.complete(key)
    return order


class TestRankedDispatch:
    def _late_unlock(self):
        # x -> y, plus independent z and w: y becomes ready only after x.
        g = TaskGraph()
        for key in ("x", "z", "y", "w"):
            g.add(key)
        g.depend("y", "x")
        return g

    def test_highest_rank_dispatches_first(self):
        g = TaskGraph()
        for key in ("a", "b", "c", "d"):
            g.add(key)
        sched = GraphScheduler(g, ranks={"c": 3.0, "a": 1.0})
        assert _dispatch_all(sched) == ["c", "a", "b", "d"]

    def test_equal_ranks_keep_the_unranked_order(self):
        # Unranked: the first ready dispatches first, and a node unlocked
        # later queues behind every node already waiting.
        unranked = _dispatch_all(GraphScheduler(self._late_unlock()))
        assert unranked == ["x", "z", "w", "y"]
        for ranks in ({}, dict.fromkeys("xyzw", 7.0)):
            assert _dispatch_all(
                GraphScheduler(self._late_unlock(), ranks)) == unranked

    def test_requeue_front_and_back_within_a_rank(self):
        g = TaskGraph()
        for key in ("a", "b", "c"):
            g.add(key)
        sched = GraphScheduler(g, ranks={"a": 1.0, "b": 1.0, "c": 5.0})
        assert sched.pop_ready() == "c"
        sched.requeue("c")  # back of its rank: still above the rank-1 nodes
        assert sched.pop_ready() == "c"
        assert sched.pop_ready() == "a"
        sched.requeue("a")  # back of rank 1: behind b
        assert sched.pop_ready() == "b"
        sched.requeue("b", front=True)  # front of rank 1: ahead of a
        assert sched.pop_ready() == "b"
        assert sched.pop_ready() == "a"

    def test_baseline_inherits_its_costliest_dependent(self):
        base = _request(1313)
        cheap = _request(1313, platforms=("noisy@seed=7,sigma=0.01",))
        dear = _request(1313, platforms=("noisy@seed=7,sigma=0.25",))
        other = _request(1288)
        graph = compile_solve_graph(
            [base, cheap, dear, other],
            edges=[(cheap.key(), base.key()), (dear.key(), base.key())],
            assets=[(1313, "test")])
        ranks = critical_path_ranks(graph, {
            base.key(): 1, cheap.key(): 2, dear.key(): 10, other.key(): 5})
        assert ranks[base.key()] == 11  # its own 1 plus dear's 10
        assert ranks[AssetNode.key_for(1313, "test")] == 11
        assert (ranks[cheap.key()], ranks[dear.key()],
                ranks[other.key()]) == (2, 10, 5)
        order = _dispatch_all(GraphScheduler(graph, ranks))
        # The baseline outranks 'other' on what it unlocks, and 'dear',
        # unlocked mid-run, overtakes the 'other' that was already waiting.
        assert order == [AssetNode.key_for(1313, "test"), base.key(),
                         dear.key(), other.key(), cheap.key()]


# ----------------------------------------------------------------------
# Compiling request batches


class TestCompileSolveGraph:
    def test_typed_nodes_and_edges(self):
        base = _request(1313)
        variant = _request(1313, platforms=("noisy@seed=7,sigma=0.01",))
        g = compile_solve_graph([base, variant],
                                edges=[(variant.key(), base.key())],
                                assets=[(1313, "test")])
        assert len(g) == 3 and g.n_edges == 3
        # Asset nodes are inserted first so pre-warm dispatches ahead of
        # the solves racing it; the dependency side of a baseline edge
        # becomes a BaselineNode.
        kinds = [type(g.payload(key)) for key in g.keys()]
        assert kinds == [AssetNode, BaselineNode, SolveNode]
        assert g.topological_order()[0] == AssetNode.key_for(1313, "test")
        assert g.dependencies(variant.key()) == (
            AssetNode.key_for(1313, "test"), base.key())

    def test_duplicate_requests_collapse(self):
        req = _request(1313)
        g = compile_solve_graph([req, req])
        assert len(g) == 1 and g.n_edges == 0

    def test_self_baseline_needs_no_edge(self):
        req = _request(1313)
        g = compile_solve_graph([req], edges=[(req.key(), req.key())])
        assert len(g) == 1 and g.n_edges == 0


# ----------------------------------------------------------------------
# Engine integration: bit-identical fault-free results


class TestGraphEngineIdentical:
    def test_suite_serial_and_process_match_run_matrix(self, fresh_caches):
        serial = run_suite("cg", "test", sids=FAST_SIDS, executor="serial",
                           use_cache=False)
        pooled = run_suite("cg", "test", sids=FAST_SIDS, max_workers=2,
                           executor="process", use_cache=False)
        for sid in FAST_SIDS:
            direct = run_matrix(sid, "cg", "test")
            for runs in (serial, pooled):
                assert runs[sid].to_dict() == direct.to_dict()
                assert runs[sid].times_s == direct.times_s
                for plat, res in direct.results.items():
                    np.testing.assert_array_equal(
                        runs[sid].results[plat].x, res.x)
        for runs in (serial, pooled):
            assert runs.stats.nodes == len(FAST_SIDS)
            assert runs.stats.edges == 0
            assert runs.stats.skipped == 0

    def test_sweep_matches_manual_graft(self, fresh_caches):
        token = "noisy@seed=7,sigma=0.01"
        spec = SweepSpec(family="noisy", grid={"sigma": (0.01,),
                                               "seed": (7,)},
                         sids=(1313, 1288), scale="test")
        serial = run_sweep(spec, use_cache=False, executor="serial")
        pooled = run_sweep(spec, use_cache=False, max_workers=2,
                           executor="process")
        assert serial.to_dict() == pooled.to_dict()
        # 2 baselines + 2 variant cells, one "needs baseline" edge each.
        assert serial.stats.nodes == 4 and serial.stats.edges == 2
        for sid in (1313, 1288):
            cell = serial.variant(token)[sid]
            base = run_matrix(sid, "cg", "test", platforms=("gpu",))
            var = run_matrix(sid, "cg", "test", platforms=(token,))
            # Baseline platforms graft ahead of the variant's own.
            assert list(cell.results) == ["gpu", token]
            assert cell.times_s["gpu"] == base.times_s["gpu"]
            assert cell.times_s[token] == var.times_s[token]
            np.testing.assert_array_equal(cell.results[token].x,
                                          var.results[token].x)
            np.testing.assert_array_equal(cell.results["gpu"].x,
                                          base.results["gpu"].x)

    def test_trace_covers_every_node(self, fresh_caches):
        runs = run_suite("cg", "test", sids=FAST_SIDS, max_workers=2,
                         executor="process", use_cache=False)
        trace = runs.stats.trace
        assert len(trace) == len(FAST_SIDS)
        assert all(t["state"] == "done" and t["dispatches"] == 1
                   for t in trace.values())
        # The trace is observability-only: the serialised stats must stay
        # byte-identical across executors (the CI equivalence gate).
        assert "trace" not in runs.stats.to_dict()


# ----------------------------------------------------------------------
# No phase barrier: variants overlap still-running baselines


class TestNoPhaseBarrier:
    def test_variant_dispatches_before_last_baseline_completes(
            self, fresh_caches):
        # The 1288 baseline hangs 2 s in its worker.  Under a
        # solve-all-baselines-first phase barrier no variant could
        # dispatch before it finished; the trace shows the 1313 variant
        # dispatching while it still ran.
        spec = SweepSpec(family="noisy", grid={"sigma": (0.01,),
                                               "seed": (7,)},
                         sids=(1313, 1288), scale="test")
        with faults.use_fault_plan(["hang@secs=2,sid=1288"]):
            result = run_sweep(spec, use_cache=False, max_workers=2,
                               executor="process")
        assert not result.failures
        assert sorted(result.variant(result.tokens[0])) == [1288, 1313]
        trace = result.stats.trace
        baseline_finish = max(t["finished"] for t in trace.values()
                              if t["kind"] == "baseline")
        variant_first = min(t["first_dispatch"] for t in trace.values()
                            if t["kind"] == "solve")
        assert variant_first < baseline_finish


# ----------------------------------------------------------------------
# Ranked dispatch on the process pool


class TestRankedDispatchOnThePool:
    def test_high_rank_node_unlocked_mid_run_dispatches_first(
            self, fresh_caches):
        # One worker, so the order is deterministic.  The variant unlocks
        # when its baseline completes, while three lower-ranked solves are
        # still waiting; the engine keeps no more nodes in flight than
        # workers, so the scheduler (not the pool's FIFO call queue)
        # decides that the variant runs next.
        base = _request(1313)
        variant = _request(1313, platforms=("noisy@seed=7,sigma=0.01",))
        others = [_request(sid) for sid in (1288, 2257, 353)]

        def dispatch_order(ranks):
            graph = compile_solve_graph(
                [base, *others, variant],
                edges=[(variant.key(), base.key())])
            stats = ExecutionStats(requests=5, nodes=5, edges=1)
            results, failures = common._execute(
                graph, 1, "process", "collect", None, stats, ranks)
            assert not failures and len(results) == 5
            return sorted(stats.trace,
                          key=lambda key: stats.trace[key]["first_dispatch"])

        ranks = {variant.key(): 10, base.key(): 10,
                 **{req.key(): 1 for req in others}}
        assert dispatch_order(ranks) == [
            base.key(), variant.key(), *(req.key() for req in others)]
        # Unranked, the variant queues behind every waiting solve.
        assert dispatch_order(None) == [
            base.key(), *(req.key() for req in others), variant.key()]


# ----------------------------------------------------------------------
# Failure propagation: dependency skips and asset-phase failures


class TestDependencySkips:
    def test_failed_baseline_skips_its_variants(self, fresh_caches):
        spec = SweepSpec(family="noisy", grid={"sigma": (0.01, 0.02),
                                               "seed": (7,)},
                         sids=(1313, 1288), scale="test")
        with faults.use_fault_plan(["fail@attempts=0,sid=1288"]):
            result = run_sweep(spec, use_cache=False, max_workers=1,
                               on_error="collect")
        phases = sorted(f.phase for f in result.failures)
        assert phases == ["dependency", "dependency", "solve"]
        solve = [f for f in result.failures if f.phase == "solve"][0]
        assert solve.sid == 1288 and solve.error_type == "InjectedFaultError"
        for dep in (f for f in result.failures if f.phase == "dependency"):
            assert dep.sid == 1288 and dep.attempts == 0
            assert solve.key in dep.message and "'solve'" in dep.message
        assert result.stats.skipped == 2
        # The healthy sid's cells are complete, the skipped sid absent.
        for token in result.tokens:
            assert sorted(result.variant(token)) == [1313]

    def test_raise_mode_propagates_the_root_failure(self, fresh_caches):
        spec = SweepSpec(family="noisy", grid={"sigma": (0.01,),
                                               "seed": (7,)},
                         sids=(1288,), scale="test")
        with faults.use_fault_plan(["fail@attempts=0,sid=1288"]):
            with pytest.raises(faults.InjectedFaultError):
                run_sweep(spec, use_cache=False, max_workers=1)

    def test_dependency_failure_phase_is_valid(self):
        record = RunFailure.from_dependency(
            key="victim", dependency_key="culprit",
            dependency_phase="pool", sid=1288, solver="cg")
        assert record.phase == "dependency" and record.attempts == 0
        assert "culprit" in record.message and "'pool'" in record.message
        data = record.to_dict()
        assert data["error_type"] == "DependencyFailed"

    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_asset_node_failure_skips_dependent_solves(self, fresh_caches,
                                                       executor):
        # Hand-built graph: the solve depends on an asset node whose
        # build must fail (unknown sid), so the engine records an
        # "asset"-phase failure and a "dependency" skip — the fix for
        # pre-warm futures whose errors were silently dropped.
        req = _request(1313)
        graph = TaskGraph()
        graph.add_node(AssetNode(sid=999999, scale="test"))
        graph.add_node(SolveNode(req))
        graph.depend(req.key(), AssetNode.key_for(999999, "test"))
        stats = ExecutionStats(requests=1, nodes=2, edges=1)
        results, failures = common._execute(
            graph, 2, executor, "collect", None, stats)
        assert results == {}
        assert [f.phase for f in failures] == ["asset", "dependency"]
        assert failures[0].sid == 999999 and failures[0].solver is None
        assert failures[0].error_type == "KeyError"
        assert failures[1].key == req.key() and failures[1].solver == "cg"
        assert stats.skipped == 1


# ----------------------------------------------------------------------
# Process executor: store pre-warm as first-class asset nodes


class TestProcessAssetNodes:
    def test_cold_store_prewarm_runs_as_asset_nodes(self, fresh_caches,
                                                    tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_ASSET_STORE", str(tmp_path / "store"))
        runs = run_suite("cg", "test", sids=FAST_SIDS, max_workers=2,
                         executor="process", use_cache=False)
        # One asset node per (sid, scale), one "needs store entry" edge
        # per solve.
        assert runs.stats.nodes == 2 * len(FAST_SIDS)
        assert runs.stats.edges == len(FAST_SIDS)
        assert not runs.failures
        kinds = [t["kind"] for t in runs.stats.trace.values()]
        assert kinds.count("asset") == len(FAST_SIDS)
        for sid in FAST_SIDS:
            assert store.has_entry(sid, "test")
        # Warm store: the next fan-out needs no asset nodes at all.
        clear_run_caches()
        warm = run_suite("cg", "test", sids=FAST_SIDS, max_workers=2,
                         executor="process", use_cache=False)
        assert warm.stats.nodes == len(FAST_SIDS)
        assert warm.stats.edges == 0
        # And the store-warmed process results match a storeless serial
        # solve bit-for-bit.
        clear_run_caches()
        monkeypatch.delenv("REPRO_ASSET_STORE")
        serial = run_suite("cg", "test", sids=FAST_SIDS, max_workers=1,
                           use_cache=False)
        for sid in FAST_SIDS:
            assert warm[sid].to_dict() == serial[sid].to_dict()
            assert warm[sid].times_s == serial[sid].times_s
