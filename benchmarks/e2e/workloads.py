"""One workload of the end-to-end benchmark, run in a fresh process.

``run.py`` starts this file once per workload and run, with the BLAS
thread pools pinned to one thread and no ``REPRO_*`` variables, and reads
the JSON it writes to ``--out``.  The process:

1. sets the workload up several times, each a cold set-up;
2. runs passes until ``--seconds`` have gone by (at least one), checking
   every output against the golden files;
3. with ``--trace 1``, sets up once and runs passes untraced (the
   overhead baseline), then repeats one set-up and a fixed number of
   passes under the :class:`tracer.Tracer` and adds the per-layer
   metrics.  Both phases run paper-cli and the service daemon in-process,
   so only the tracer differs between them.

It reports raw timings with their ``time.monotonic`` windows; ``run.py``
turns them into the end-to-end metrics (``harness.end_to_end``).

Every store, daemon and temporary file lives under ``--workdir``, which is
removed at exit; only the trace file outlives it.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import select
import shutil
import subprocess
import sys
import threading
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Any, Dict, List, Optional

import numpy as np

import harness
from tracer import Tracer

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden"

#: The 10 suite matrices whose dense BSR tensors fit in memory at default
#: scale (2257 and 2259 would need 4.35 GB and 9.63 GB).
DEFAULT_SIDS = (353, 1313, 354, 2261, 1288, 1311, 1289, 355, 1848, 845)
CLIENTS = 2
SAMPLE_CHECKS = 20
CHILD_TIMEOUT_S = 150


def cpu_self() -> float:
    r = resource.getrusage(resource.RUSAGE_SELF)
    return r.ru_utime + r.ru_stime


def cpu_children() -> float:
    r = resource.getrusage(resource.RUSAGE_CHILDREN)
    return r.ru_utime + r.ru_stime


def maxrss_mb(who: int) -> float:
    return resource.getrusage(who).ru_maxrss * 1024 / 1e6


@dataclass
class Pass:
    wall_s: float
    cpu_s: float
    latencies_s: List[float]
    attempted: int = 1
    failed: int = 0
    start: float = 0.0  # time.monotonic() window, set by measure()
    end: float = 0.0


@dataclass
class Phase:
    """Results of one measured phase (set-ups plus passes)."""

    setups: List[List[float]] = field(default_factory=list)  # start, end, s
    passes: List[Pass] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    notes: List[str] = field(default_factory=list)

    def add(self, p: Pass) -> None:
        self.passes.append(p)
        self.attempted += p.attempted
        self.failed += p.failed

    def record(self, peak_rss_mb: float) -> Dict[str, Any]:
        return {"setups": self.setups,
                "passes": [asdict(p) for p in self.passes],
                "peak_rss_mb": peak_rss_mb}


class Workload:
    """Set-up / pass / check hooks shared by the four workloads."""

    setups = 3
    #: Passes a measured phase runs even when ``--seconds`` ends sooner.
    min_passes = 1
    #: Passes of the traced phase: fixed, so traced counters repeat
    #: exactly for a seed.
    traced_passes = 1

    def __init__(self, workdir: Path, seed: int,
                 in_process: bool = False) -> None:
        self.workdir = workdir
        self.seed = seed
        #: Run the CLI and the daemon inside this process, where the
        #: tracer reaches them (the whole of a ``--trace 1`` run).
        self.in_process = in_process
        self.tracer: Optional[Tracer] = None
        self._stores = 0

    def fresh_store(self) -> str:
        """A new empty store directory (the previous one is removed)."""
        self._stores += 1
        path = self.workdir / f"store{self._stores}"
        shutil.rmtree(self.workdir / f"store{self._stores - 1}",
                      ignore_errors=True)
        path.mkdir(parents=True)
        return str(path)

    def setup(self, traced: bool) -> None:
        raise NotImplementedError

    def run_pass(self, index: int, traced: bool) -> Pass:
        raise NotImplementedError

    def check(self, phase: Phase) -> None:
        """Checks made after the timed window (none by default)."""

    def close(self) -> None:
        from repro.experiments.common import clear_run_caches

        clear_run_caches()

    def peak_rss_mb(self) -> float:
        return maxrss_mb(resource.RUSAGE_SELF)

    def layer_extras(self) -> Dict[str, float]:
        return {}


def cold_build(store: str, sids, scale: str) -> None:
    """Materialise every asset of ``sids`` into an empty store."""
    from repro.api.config import RunConfig, use
    from repro.experiments.common import clear_run_caches, matrix_assets

    clear_run_caches()
    with use(RunConfig(workers=1, store=store)):
        for sid in sids:
            matrix_assets(sid, scale)


def paper_output(config) -> str:
    from repro.api.config import use
    from repro.experiments import run_experiment
    from repro.experiments.common import clear_run_caches

    clear_run_caches()
    buf = io.StringIO()
    with use(config), contextlib.redirect_stdout(buf):
        run_experiment("all", scale="test")
    return buf.getvalue()


class PaperSerial(Workload):
    """``run_experiment("all", scale="test")`` with one worker."""

    # A set-up is a 0.12 s store build, and the first few in a process run
    # slower: the median of many is steady.
    setups = 11

    def setup(self, traced: bool) -> None:
        from repro.sparse.gallery.suite import suite_ids

        self.store = self.fresh_store()
        cold_build(self.store, suite_ids(), "test")

    def config(self):
        from repro.api.config import RunConfig

        return RunConfig(workers=1, store=self.store)

    def run_pass(self, index: int, traced: bool) -> Pass:
        golden = (GOLDEN / "all_scale_test.txt").read_text()
        c0, t0 = cpu_self(), perf_counter()
        out = paper_output(self.config())
        wall, cpu = perf_counter() - t0, cpu_self() - c0
        return Pass(wall, cpu, [wall], failed=int(out != golden))


class PaperCli(PaperSerial):
    """``python -m repro.experiments all --scale test`` as a subprocess on
    the default executor; in-process under the default config when
    ``in_process``."""

    def config(self):
        from repro.api.config import RunConfig

        return RunConfig(store=self.store)

    def run_pass(self, index: int, traced: bool) -> Pass:
        if self.in_process:
            return super().run_pass(index, traced)
        golden = (GOLDEN / "all_scale_test.txt").read_text()
        env = dict(os.environ, REPRO_ASSET_STORE=self.store)
        c0, t0 = cpu_children(), perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "repro.experiments", "all", "--scale",
             "test"], env=env, capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S)
        wall, cpu = perf_counter() - t0, cpu_children() - c0
        ok = proc.returncode == 0 and proc.stdout == golden
        return Pass(wall, cpu, [wall], failed=int(not ok))

    def peak_rss_mb(self) -> float:
        return maxrss_mb(resource.RUSAGE_CHILDREN)


class RefloatDefault(Workload):
    """Fig. 8's gpu and refloat columns, cg and bicgstab, default scale."""

    # A pass takes about 4 s: at least three make the median pass (p50) the
    # same statistic on every run.
    min_passes = 3

    def setup(self, traced: bool) -> None:
        self.store = self.fresh_store()
        cold_build(self.store, DEFAULT_SIDS, "default")

    def run_pass(self, index: int, traced: bool) -> Pass:
        from repro.api.config import RunConfig, use
        from repro.experiments.common import clear_run_caches, run_suite

        golden = json.loads((GOLDEN / "refloat_default.json").read_text())
        clear_run_caches()
        c0, t0 = cpu_self(), perf_counter()
        runs = []
        with use(RunConfig(workers=1, store=self.store)):
            for solver in ("cg", "bicgstab"):
                result = run_suite(solver, scale="default",
                                   platforms=("gpu", "refloat"),
                                   sids=DEFAULT_SIDS)
                runs += [run.to_dict() for run in result.values()]
        wall, cpu = perf_counter() - t0, cpu_self() - c0
        # JSON round trip: the golden file holds exactly these dicts.
        failed = sum(a != b for a, b in
                     zip(json.loads(json.dumps(runs)), golden))
        failed += abs(len(runs) - len(golden))
        return Pass(wall, cpu, [wall], attempted=len(golden), failed=failed)


def daemon_cpu_s(pid: int) -> float:
    """User+sys CPU of a live process, from ``/proc``."""
    with open(f"/proc/{pid}/stat") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


class ServiceMixed(Workload):
    """The solve daemon under a closed loop of two clients."""

    # Three rounds give 300 latency samples, 15 of them beyond p95.
    min_passes = 3
    traced_passes = 2

    def __init__(self, workdir: Path, seed: int,
                 in_process: bool = False) -> None:
        super().__init__(workdir, seed, in_process)
        from repro.sparse.gallery.suite import PAPER_SUITE

        self.sizes = {sid: PAPER_SUITE[sid].matrix("test").shape[0]
                      for sid in harness.SERVICE_SIDS}
        self.proc: Optional[subprocess.Popen] = None
        self.service = None
        self.server_thread: Optional[threading.Thread] = None
        self.client = None
        self.responses: List[tuple] = []
        self.client_latencies: List[float] = []

    # -- daemon lifecycle ------------------------------------------------

    def _stop_daemon(self) -> None:
        from repro.service.client import ServiceError

        if self.proc is not None:
            try:
                self.client.shutdown()
                self.proc.wait(timeout=30)
            except (ServiceError, subprocess.TimeoutExpired):
                self.proc.kill()
                self.proc.wait()
            self.proc.stdout.close()
            self.proc = None
        if self.service is not None:
            self.service.close()  # stops serve_forever, flushes coalescers
            self.server_thread.join(timeout=30)
            self.service = None

    def _start_daemon(self) -> str:
        store = self.fresh_store()
        if self.in_process:
            from repro.api.config import RunConfig
            from repro.service import SolveService

            self.service = SolveService(port=0,
                                        config=RunConfig(store=store))
            self.server_thread = threading.Thread(
                target=self.service.serve_forever, daemon=True)
            self.server_thread.start()
            host, port = self.service.address
            return f"{host}:{port}"
        env = dict(os.environ, REPRO_ASSET_STORE=store)
        log = open(self.workdir / "daemon.log", "ab")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.experiments", "serve", "--port",
             "0"], env=env, stdout=subprocess.PIPE, stderr=log)
        log.close()
        ready, _, _ = select.select([self.proc.stdout], [], [], 60)
        line = self.proc.stdout.readline().decode() if ready else ""
        if "listening on http://" not in line:
            self.proc.kill()
            self.proc.wait()
            raise RuntimeError(f"daemon did not start: {line!r}")
        return line.rsplit("http://", 1)[1].strip()

    def setup(self, traced: bool) -> None:
        from repro.service import ServiceClient, VectorJob

        self._stop_daemon()
        address = self._start_daemon()
        self.client = ServiceClient(address, timeout=60)
        warmups = [VectorJob(sid=sid, scale="test", solver=solver,
                             platform=platform)
                   for sid, solver, platform in harness.SERVICE_KEYS]
        replies, latencies = self._closed_loop(warmups, "warmup")
        if not all(reply and reply.get("converged") for reply in replies):
            raise RuntimeError("a warm-up request failed")
        if traced:
            self.client_latencies += latencies

    def close(self) -> None:
        self._stop_daemon()
        super().close()

    # -- traffic -----------------------------------------------------------

    def _closed_loop(self, jobs, prefix: str) -> tuple:
        """Send ``jobs`` from :data:`CLIENTS` threads, each sending its next
        job only after its previous reply; return replies (``None`` for a
        failed request) and latencies in job order."""
        from repro.service.client import ServiceError

        replies: List[Optional[dict]] = [None] * len(jobs)
        latencies = [0.0] * len(jobs)
        lock = threading.Lock()
        cursor = iter(range(len(jobs)))
        span = (self.tracer.span if self.tracer is not None
                else lambda name, request=None: contextlib.nullcontext())
        errors: List[BaseException] = []

        def client() -> None:
            try:
                while True:
                    with lock:
                        i = next(cursor, None)
                    if i is None:
                        return
                    t0 = perf_counter()
                    try:
                        with span("service.request",
                                  request=f"{prefix}-{i}"):
                            replies[i] = self.client.solve_vector(jobs[i])
                    except ServiceError:
                        replies[i] = None  # counted as a failed request
                    latencies[i] = perf_counter() - t0
            except BaseException as exc:  # a bug, not a failed request
                errors.append(exc)

        threads = [threading.Thread(target=client) for _ in range(CLIENTS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=CHILD_TIMEOUT_S)
            if t.is_alive():
                raise RuntimeError("a client thread hung")
        if errors:
            raise errors[0]
        return replies, latencies

    def run_pass(self, index: int, traced: bool) -> Pass:
        from repro.service import VectorJob

        requests = harness.round_requests(self.seed, index, self.sizes)
        jobs = [VectorJob(sid=sid, scale="test", solver=solver,
                          platform=platform, rhs=tuple(rhs))
                for (sid, solver, platform), rhs in requests]
        pid = self.proc.pid if self.proc is not None else None
        c0 = cpu_self() + (daemon_cpu_s(pid) if pid else 0.0)
        t0 = perf_counter()
        replies, latencies = self._closed_loop(jobs, f"round{index}")
        wall = perf_counter() - t0
        cpu = cpu_self() + (daemon_cpu_s(pid) if pid else 0.0) - c0
        if traced:
            self.client_latencies += latencies
        failed = 0
        for (key, rhs), reply in zip(requests, replies):
            if reply is None or not reply.get("converged"):
                failed += 1
            else:
                self.responses.append((key, rhs, reply))
        return Pass(wall, cpu, latencies, attempted=len(jobs), failed=failed)

    def check(self, phase: Phase) -> None:
        """A seeded sample of replies must be bit-identical to a local
        single-RHS solve (made after the timed window)."""
        from repro.api.config import RunConfig
        from repro.api.registry import SOLVER_REGISTRY
        from repro.experiments.common import platform_operator

        crit = RunConfig().effective_criterion
        rng = np.random.default_rng([self.seed, 20])
        picks = rng.choice(len(self.responses),
                           size=min(SAMPLE_CHECKS, len(self.responses)),
                           replace=False)
        for i in sorted(picks):
            (sid, solver, platform), rhs, reply = self.responses[i]
            _, op = platform_operator(sid, "test", platform, solver)
            ref = SOLVER_REGISTRY.get(solver).solve(op, rhs, criterion=crit)
            phase.attempted += 1
            if not (np.array_equal(np.asarray(reply["x"]), ref.x)
                    and reply["iterations"] == ref.iterations):
                phase.failed += 1
                phase.notes.append(f"reply {i} ({sid}, {solver}, {platform}) "
                                   f"differs from the local solve")

    def peak_rss_mb(self) -> float:
        return maxrss_mb(resource.RUSAGE_CHILDREN)

    def layer_extras(self) -> Dict[str, float]:
        stats = self.service.stats()
        svc = stats["service"]
        singles = svc["batches"] - svc["coalesced_batches"]
        columns = max(1, svc["batch_columns"])
        client_p50 = harness.percentile(self.client_latencies, 50)
        client_p95 = harness.percentile(self.client_latencies, 95)
        daemon_total = svc["latency"]["total_s"]
        in_solve = self.tracer.counters.get("service.lockstep_column_s", 0.0)
        return {
            "service.batches": float(svc["batches"]),
            "service.coalesced_share":
                100.0 * (svc["batch_columns"] - singles) / columns,
            "service.matmats": float(svc["batch_matmats"]),
            "service.daemon_p50_pct":
                100.0 * svc["latency"]["p50_s"] / client_p50,
            "service.daemon_p95_pct":
                100.0 * svc["latency"]["p95_s"] / client_p95,
            "service.batch_wait_pct":
                100.0 * (1.0 - in_solve / daemon_total),
        }


WORKLOAD_CLASSES = {"paper-serial": PaperSerial, "paper-cli": PaperCli,
                    "refloat-default": RefloatDefault,
                    "service-mixed": ServiceMixed}


# ----------------------------------------------------------------------
# Phases


def measure(workload: Workload, seconds: float, setups: int,
            traced: bool = False, passes: Optional[int] = None) -> Phase:
    """``setups`` timed set-ups, then passes until ``seconds`` elapsed and
    the workload's ``min_passes`` ran (or exactly ``passes`` of them)."""
    phase = Phase()
    span = (workload.tracer.span if traced
            else lambda name, request=None: contextlib.nullcontext())
    for _ in range(setups):
        start, t0 = time.monotonic(), perf_counter()
        with span("bench.setup"):
            workload.setup(traced)
        phase.setups.append([start, time.monotonic(), perf_counter() - t0])
    t0 = perf_counter()
    while (len(phase.passes) < passes if passes is not None
           else len(phase.passes) < workload.min_passes
           or perf_counter() - t0 < seconds):
        index = len(phase.passes)
        start = time.monotonic()
        with span("bench.pass", request=f"pass-{index}"):
            result = workload.run_pass(index, traced)
        result.start, result.end = start, time.monotonic()
        phase.add(result)
    return phase


def run(name: str, seed: int, seconds: float, trace: bool,
        workdir: Path) -> Dict[str, Any]:
    workload = WORKLOAD_CLASSES[name](workdir, seed, in_process=trace)
    try:
        if not trace:
            phase = measure(workload, seconds, workload.setups)
            workload.check(phase)
            workload.close()  # daemons exit, so their peak RSS is counted
            return dict(phase.record(workload.peak_rss_mb()),
                        attempted=phase.attempted, failed=phase.failed,
                        notes=phase.notes)
        untraced = measure(workload, seconds, 1)
        from repro.experiments import store

        before = store.counters()
        with Tracer() as tracer:
            workload.tracer = tracer
            traced = measure(workload, seconds, 1, traced=True,
                             passes=workload.traced_passes)
        after = store.counters()
        layers = tracer.layer_metrics()
        layers.update(workload.layer_extras())
        for counter in ("hits", "misses", "builds"):
            layers[f"experiments.store.{counter}"] = float(
                after[counter] - before[counter])
        workload.check(traced)
        workload.close()
        trace_path = workdir.parent / f"trace-{name}.json"
        tracer.dump(trace_path, {"workload": name, "seed": seed})
        phases = (untraced, traced)
        return {"untraced": untraced.record(0.0),
                "traced": traced.record(0.0), "layers": layers,
                "attempted": sum(p.attempted for p in phases),
                "failed": sum(p.failed for p in phases),
                "notes": untraced.notes + traced.notes,
                "trace_file": str(trace_path)}
    finally:
        workload.close()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=harness.WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        result = run(args.workload, args.seed, args.seconds,
                     bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(args.out, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
