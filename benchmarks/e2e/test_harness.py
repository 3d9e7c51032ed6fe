"""Fast tests of the end-to-end benchmark's own machinery."""

import json
import re
import threading
from pathlib import Path

import pytest

import compare
import harness
from tracer import FUNCTIONS, METHODS, Tracer, span_totals, union_length

ROOT = Path(__file__).resolve().parents[2]


def test_nearest_rank_percentile():
    values = list(range(100, 0, -1))
    assert harness.percentile(values, 50) == 50
    assert harness.percentile(values, 95) == 95
    assert harness.percentile(values, 100) == 100
    assert harness.percentile([5, 1, 4, 2, 3], 50) == 3
    assert harness.percentile([7.5], 95) == 7.5
    with pytest.raises(ValueError):
        harness.percentile([], 50)
    with pytest.raises(ValueError):
        harness.percentile([1.0], 0)


def test_p95_needs_ten_samples_beyond():
    assert harness.samples_beyond(400, 95) == 20
    assert harness.samples_beyond(200, 95) == 10
    assert harness.samples_beyond(199, 95) == 9
    assert harness.samples_beyond(1, 95) == 0


def test_end_to_end_divides_cpu_bound_times_by_the_slowdown():
    record = {"setups": [[0.0, 1.0, 2.0]], "peak_rss_mb": 100.0, "passes": [
        {"start": 1.0, "end": 2.0, "wall_s": 4.0, "cpu_s": 3.0,
         "latencies_s": [4.0]},
        {"start": 2.0, "end": 3.0, "wall_s": 6.0, "cpu_s": 3.0,
         "latencies_s": [6.0]}]}

    def twice_as_slow(start, end):
        return 2.0

    cpu_bound = harness.end_to_end(record, twice_as_slow, timer_bound=False)
    assert cpu_bound == {"wall_s": 2.5, "cpu_s": 1.5, "setup_s": 1.0,
                         "peak_rss_mb": 100.0, "throughput_rps": 0.4,
                         "latency_p50_ms": 2000.0, "latency_p95_ms": 3000.0}
    timed = harness.end_to_end(record, twice_as_slow, timer_bound=True)
    assert timed["wall_s"] == 5.0 and timed["setup_s"] == 2.0
    assert timed["cpu_s"] == 1.5 and timed["latency_p95_ms"] == 6000.0


def test_slowdown_is_median_kernel_time_around_the_window():
    sampler = harness.SpeedSampler()
    ref = harness.REFERENCE_KERNEL_S
    sampler.samples = [(10.0, ref), (11.5, 3 * ref), (12.0, 2 * ref),
                       (20.0, 9 * ref)]
    assert sampler.slowdown(11.0, 11.2) == pytest.approx(2.0)
    assert sampler.slowdown(19.5, 19.6) == pytest.approx(9.0)
    with pytest.raises(RuntimeError):
        sampler.slowdown(30.0, 31.0)


def test_union_length_merges_and_clips():
    assert union_length([(0, 2), (1, 3), (5, 6)], 0, 10) == 4
    assert union_length([(5, 6), (-1, 1)], 0, 5.5) == 1.5
    assert union_length([], 0, 1) == 0


def test_self_time_is_span_minus_union_of_children():
    spans = [
        (1, "parent", 0.0, 10.0, None, None),
        (2, "child", 1.0, 4.0, 1, None),
        (3, "child", 3.0, 6.0, 1, None),   # overlaps 2, as a pool thread
        (4, "child", 8.0, 12.0, 1, None),  # outlives its parent
        (5, "leaf", 1.5, 2.0, 2, None),
    ]
    totals = span_totals(spans)
    assert totals["parent"]["self_s"] == pytest.approx(10 - 5 - 2)
    assert totals["child"]["self_s"] == pytest.approx(2.5 + 3 + 4)
    assert totals["child"]["calls"] == 3
    assert totals["leaf"]["self_s"] == pytest.approx(0.5)


def test_nested_spans_of_one_name_count_once_in_total():
    totals = span_totals([(1, "s", 0.0, 5.0, None, None),
                          (2, "s", 1.0, 3.0, 1, None)])
    assert totals["s"] == {"calls": 2, "total_s": 5.0, "self_s": 5.0}


def test_service_traffic_is_seeded():
    sizes = {sid: 5 for sid in harness.SERVICE_SIDS}
    first = harness.round_requests(3, 0, sizes)
    again = harness.round_requests(3, 0, sizes)
    other = harness.round_requests(4, 0, sizes)
    assert len(first) == harness.ROUND_REQUESTS
    assert [k for k, _ in first] == [k for k, _ in again]
    assert all((a == b).all() for (_, a), (_, b) in zip(first, again))
    assert [k for k, _ in first] != [k for k, _ in other]
    assert not (first[0][1] == other[0][1]).all()
    # Every seed and round sends the same mix of keys.
    assert sorted(k for k, _ in first) == sorted(k for k, _ in other)
    assert sorted(k for k, _ in harness.round_requests(3, 1, sizes)) == \
        sorted(k for k, _ in first)
    counts = harness.round_key_counts()
    assert sum(counts.values()) == harness.ROUND_REQUESTS
    assert max(counts.values()) > 1  # skewed: some requests share a key


def test_every_wrapped_span_fires(tmp_path):
    from repro.api.config import RunConfig, use
    from repro.experiments import EXPERIMENTS, common, run_experiment
    from repro.service import SolveService, VectorJob

    originals = dict(EXPERIMENTS)
    thread_start = threading.Thread.start
    common.clear_run_caches()
    try:
        with Tracer() as tracer:
            assert all(EXPERIMENTS[name].__wrapped__ is originals[name]
                       for name in originals)
            with use(RunConfig(workers=2, store=str(tmp_path / "store"))):
                # Through the module: a name bound before the tracer was
                # installed would bypass it.
                for solver in ("cg", "bicgstab"):
                    common.run_suite(solver, scale="test", sids=(1313, 1311),
                                     platforms=("gpu", "feinberg", "refloat",
                                                "noisy"))
                common.clear_run_caches()
                common.run_suite("cg", scale="test", sids=(1313,),
                                 platforms=("gpu",))
                for name in ("table8", "fig3"):
                    run_experiment(name, scale="test", print_output=False)
            with SolveService(
                    config=RunConfig(store=str(tmp_path / "svc"))) as svc:
                server = threading.Thread(target=svc.serve_forever)
                server.start()
                svc.submit_vector(VectorJob(sid=1313, scale="test")
                                  ).result(timeout=60)
            server.join(timeout=30)
            assert not server.is_alive()
    finally:
        common.clear_run_caches()
    assert dict(EXPERIMENTS) == originals
    assert threading.Thread.start is thread_start

    fired = {span[1] for span in tracer.spans}
    expected = {name for name, *_ in FUNCTIONS + METHODS}
    assert expected - fired == set()
    assert {"experiments.table8", "experiments.fig3"} <= fired
    # Work fanned out to pool threads nests under the suite that caused it.
    by_id = {span[0]: span for span in tracer.spans}
    parents = {by_id[span[4]][1] if span[4] in by_id else None
               for span in tracer.spans
               if span[1] == "experiments.common.run_matrix"}
    assert parents == {"experiments.common.scheduler"}
    metrics = tracer.layer_metrics()
    assert metrics["solvers.iterations"] > 0
    assert metrics["formats.feinberg.quantize_calls"] > 0
    assert metrics["sparse.bsr.tensor_mb"] > 0


def test_benchmark_json_matches_registry():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert spec["paths"] == ["benchmarks/e2e"]
    assert spec["command"] == ["python3", "benchmarks/e2e/run.py"]
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == \
        [(w.name, w.why) for w in harness.WORKLOADS]
    assert [(m["name"], m["unit"], m["better"], m["bound"])
            for m in spec["end_to_end"]] == \
        [(m.name, m.unit, m.better, m.bound) for m in harness.END_TO_END]
    assert [(m["name"], m["unit"], m["better"])
            for m in spec["per_layer"]] == \
        [(m.name, m.unit, m.better) for m in harness.PER_LAYER]

    assert 2 <= len(harness.WORKLOADS) <= 8
    assert 1 <= len(harness.END_TO_END) <= 16
    assert 1 <= len(harness.PER_LAYER) <= 128
    name = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
    unit = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
    names = (harness.WORKLOAD_NAMES + harness.END_TO_END_NAMES
             + harness.PER_LAYER_NAMES)
    assert all(name.fullmatch(n) for n in names)
    assert len(set(names)) == len(names)
    for metric in harness.END_TO_END + harness.PER_LAYER:
        assert unit.fullmatch(metric.unit), metric.name
        assert metric.better in ("lower", "higher")
    bounds = {m.name: m.bound for m in harness.END_TO_END}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    for metric in harness.PER_LAYER:
        assert set(metric.moves) <= set(harness.END_TO_END_NAMES), metric
        assert set(metric.on) <= set(harness.WORKLOAD_NAMES), metric
        assert bool(metric.moves) == bool(metric.on), metric


@pytest.mark.parametrize("parent, change, label", [
    ([10.0 + 0.01 * i for i in range(10)], [8.0 + 0.01 * i for i in range(10)],
     "WIN"),
    ([10.0] * 10, [10.05] * 10, "same"),
    ([10.0] * 10, [13.0] * 10, "REGRESSION"),
    ([10.0, 14.0] * 5, [10.0, 14.0] * 5, "unresolved"),
    ([10.0, 14.0] * 5, [5.0, 6.0] * 5, "better"),
    ([10.0] * 5, [8.0] * 5, "unresolved"),  # too few pairs for a win
])
def test_compare_verdicts(parent, change, label):
    wall = harness.END_TO_END[0]
    assert compare.verdict(wall, parent, change)["label"] == label


@pytest.mark.parametrize("parent, change, label", [
    ([0.10] * 10, [0.14] * 10, "same"),         # 40 % worse, inside 0.05 s
    ([0.10] * 10, [0.20] * 10, "REGRESSION"),
    ([0.10, 0.14] * 5, [0.10, 0.14] * 5, "same"),  # IQR 0.04 s resolves
    ([1.0, 1.4] * 5, [1.0, 1.4] * 5, "unresolved"),
])
def test_setup_floor_applies_below_a_fifth_of_a_second(parent, change, label):
    setup = next(m for m in harness.END_TO_END if m.name == "setup_s")
    assert setup.floor == 0.05
    assert compare.verdict(setup, parent, change)["label"] == label
