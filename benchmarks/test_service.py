"""Service benchmarks: coalesced vs uncoalesced solve throughput.

Real pytest-benchmark measurements of the solve daemon running in
process: a burst of same-key vector requests served through the
coalescer's lockstep matmat batches, the same burst with coalescing
disabled (singleton batches — the per-request serial path), and the
lockstep gang solver on its own against the per-column serial loop.
The coalesced/uncoalesced pair is the service's headline number: the
work is bit-identical, only the batching differs.

All tests carry the ``bench`` marker and are deselected by the default
pytest invocation.  Refresh the committed snapshot with::

    PYTHONPATH=src python -m pytest benchmarks/test_service.py -m bench \
        --benchmark-json=BENCH_service.json -q

``BENCH_service.json`` at the repo root is the committed per-PR snapshot;
CI gates it through ``check_regression.py`` alongside the kernel numbers.
"""

import threading

import numpy as np
import pytest

from repro.api import RunConfig
from repro.experiments.common import clear_run_caches, platform_operator
from repro.service import ServiceClient, SolveService, VectorJob
from repro.solvers import cg, solve_lockstep

pytestmark = pytest.mark.bench

SID = 2257
N_REQUESTS = 6


@pytest.fixture(scope="module")
def rhs_block(scale):
    _, op = platform_operator(SID, scale)
    rng = np.random.default_rng(41)
    return rng.standard_normal((op.shape[0], N_REQUESTS))


def _serve_burst(coalesce, rhs, scale):
    """One daemon lifetime serving a burst of concurrent same-key jobs."""
    cfg = RunConfig(service_batch_window=0.5,
                    service_batch_max=N_REQUESTS,
                    service_coalesce=coalesce)
    svc = SolveService(port=0, config=cfg)
    thread = threading.Thread(target=svc.serve_forever, daemon=True)
    thread.start()
    host, port = svc.address
    client = ServiceClient(f"{host}:{port}", timeout=300.0)
    results = [None] * rhs.shape[1]

    def worker(i):
        job = VectorJob(sid=SID, scale=scale,
                        rhs=tuple(float(v) for v in rhs[:, i]))
        results[i] = client.solve_vector(job)

    workers = [threading.Thread(target=worker, args=(i,))
               for i in range(rhs.shape[1])]
    for w in workers:
        w.start()
    for w in workers:
        w.join()
    svc.shutdown()
    thread.join(timeout=30)
    stats = svc.counters.to_dict()
    svc.close()
    return results, stats


def _record_latency(benchmark, stats):
    """Stamp the daemon's per-request p50/p95 (from the last round's
    counters) into the snapshot; ``check_regression.py`` gates
    ``extra_info`` metrics alongside the medians."""
    benchmark.extra_info["latency_p50_s"] = stats["latency"]["p50_s"]
    benchmark.extra_info["latency_p95_s"] = stats["latency"]["p95_s"]


def test_bench_service_burst_coalesced(benchmark, rhs_block, scale):
    platform_operator(SID, scale)  # warm the asset cache out of the timing
    results, stats = benchmark.pedantic(
        _serve_burst, args=(True, rhs_block, scale), rounds=3, iterations=1)
    assert all(r["converged"] for r in results)
    assert stats["coalesced_batches"] >= 1
    assert stats["latency"]["count"] == N_REQUESTS
    _record_latency(benchmark, stats)
    clear_run_caches()


def test_bench_service_burst_uncoalesced(benchmark, rhs_block, scale):
    platform_operator(SID, scale)
    results, stats = benchmark.pedantic(
        _serve_burst, args=(False, rhs_block, scale), rounds=3, iterations=1)
    assert all(r["converged"] for r in results)
    assert stats["coalesced_batches"] == 0
    assert stats["batches"] == N_REQUESTS
    _record_latency(benchmark, stats)
    clear_run_caches()


def test_bench_lockstep_gang(benchmark, rhs_block, scale):
    _, op = platform_operator(SID, scale)
    results = benchmark(solve_lockstep, op, rhs_block, cg)
    assert all(r.converged for r in results)


def test_bench_serial_columns(benchmark, rhs_block, scale):
    _, op = platform_operator(SID, scale)

    def per_column():
        return [cg(op, rhs_block[:, j]) for j in range(rhs_block.shape[1])]

    results = benchmark(per_column)
    assert all(r.converged for r in results)
