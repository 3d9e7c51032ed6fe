"""Request coalescing: bounded-window batching with per-request demux.

The economics the paper is built on — expensive one-time setup amortised
across solves — only pay off for a service if concurrent tenants hitting
the *same* operator actually share its applications.  The
:class:`Coalescer` implements that: jobs enter with a batch key, same-key
jobs arriving within the batch window (or until the batch hits its max
size, whichever is first) are handed to the runner as **one** batch, and
each submitter gets exactly its own result back through a future.  Jobs
with different keys never share a batch.

Ordering guarantees: within a batch, results demux positionally — job *i*
of the batch receives result *i*; across batches, dispatch is
first-deadline-first (a batch never waits on a later one's window).  The
runner is called on a dedicated thread per batch, so a slow batch does not
stall dispatching of unrelated keys.

:class:`ServiceCounters` is the daemon's shared metrics object (requests,
batches, batch sizes, queue depth, per-request latency), surfaced by
``GET /v1/stats``.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict, deque
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Tuple

__all__ = ["Coalescer", "ServiceCounters", "latency_percentile"]


def latency_percentile(samples, q: float) -> float:
    """Nearest-rank percentile of ``samples`` (0.0 when empty).

    Deliberately dependency-free (the service layer is stdlib-only) and
    shared by the stats endpoint and the service benchmarks, so both
    report the same definition of p50/p95.
    """
    values = sorted(samples)
    if not values:
        return 0.0
    if not 0 < q <= 100:
        raise ValueError(f"percentile must be in (0, 100], got {q!r}")
    rank = max(1, int(-(-len(values) * q // 100)))  # ceil without math
    return float(values[rank - 1])


class ServiceCounters:
    """Thread-safe service metrics; ``to_dict`` is the stats-JSON shape."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.requests = 0
        self.vector_jobs = 0
        self.engine_requests = 0
        self.batches = 0
        self.coalesced_batches = 0
        self.batch_columns = 0
        self.max_batch_size = 0
        self.batch_matmats = 0
        self.engine_batches = 0
        self.queue_depth = 0
        self.max_queue_depth = 0
        self.latency_count = 0
        self.latency_total_s = 0.0
        self.latency_max_s = 0.0
        # A bounded reservoir of the most recent per-request latencies:
        # enough for stable p50/p95 over recent traffic, flat memory for
        # a long-lived daemon.
        self._latencies: "deque[float]" = deque(maxlen=4096)

    def note_enqueued(self, kind: str) -> None:
        with self._lock:
            self.requests += 1
            if kind == "vector":
                self.vector_jobs += 1
            else:
                self.engine_requests += 1
            self.queue_depth += 1
            self.max_queue_depth = max(self.max_queue_depth,
                                       self.queue_depth)

    def note_batch(self, kind: str, size: int) -> None:
        with self._lock:
            self.queue_depth -= size
            if kind == "vector":
                self.batches += 1
                self.batch_columns += size
                self.max_batch_size = max(self.max_batch_size, size)
                if size >= 2:
                    self.coalesced_batches += 1
            else:
                self.engine_batches += 1

    def note_matmats(self, n: int) -> None:
        with self._lock:
            self.batch_matmats += n

    def note_latency(self, seconds: float) -> None:
        with self._lock:
            self.latency_count += 1
            self.latency_total_s += seconds
            self.latency_max_s = max(self.latency_max_s, seconds)
            self._latencies.append(seconds)

    def to_dict(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "requests": self.requests,
                "vector_jobs": self.vector_jobs,
                "engine_requests": self.engine_requests,
                "batches": self.batches,
                "coalesced_batches": self.coalesced_batches,
                "batch_columns": self.batch_columns,
                "max_batch_size": self.max_batch_size,
                "batch_matmats": self.batch_matmats,
                "engine_batches": self.engine_batches,
                "queue_depth": self.queue_depth,
                "max_queue_depth": self.max_queue_depth,
                "latency": {
                    "count": self.latency_count,
                    "total_s": round(self.latency_total_s, 6),
                    "max_s": round(self.latency_max_s, 6),
                    "p50_s": round(latency_percentile(self._latencies, 50), 6),
                    "p95_s": round(latency_percentile(self._latencies, 95), 6),
                },
            }


@dataclass
class _Group:
    deadline: float
    items: List[Tuple[Any, Future]] = field(default_factory=list)


class Coalescer:
    """Group same-key jobs into batches; demux results to per-job futures.

    ``runner(key, jobs)`` executes one batch and returns one result per
    job, in job order; a raised exception fails every future of the batch.
    ``window`` is the seconds a batch waits after its *first* job before
    dispatching (0 = the next dispatcher pass); a batch reaching
    ``max_batch`` jobs dispatches immediately.  ``coalesce=False`` turns
    every job into its own immediate batch — the measurement baseline.
    """

    def __init__(self, runner: Callable[[str, List[Any]], List[Any]],
                 window: float = 0.05, max_batch: int = 8,
                 coalesce: bool = True,
                 counters: ServiceCounters = None,
                 kind: str = "vector") -> None:
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch!r}")
        self._runner = runner
        self._window = max(0.0, float(window))
        self._max = int(max_batch)
        self._coalesce = bool(coalesce) and self._max > 1
        self._counters = counters
        self._kind = kind
        self._cond = threading.Condition()
        self._groups: "OrderedDict[str, _Group]" = OrderedDict()
        self._batch_threads: List[threading.Thread] = []
        self._closed = False
        self._dispatcher = threading.Thread(
            target=self._dispatch_loop, name=f"coalesce-{kind}", daemon=True)
        self._dispatcher.start()

    def submit(self, key: str, job: Any) -> Future:
        """Enqueue one job under ``key``; resolve via the returned future."""
        fut: Future = Future()
        with self._cond:
            if self._closed:
                raise RuntimeError("coalescer is closed")
            if self._counters is not None:
                self._counters.note_enqueued(self._kind)
            if not self._coalesce:
                self._launch(key, [(job, fut)])
                return fut
            group = self._groups.get(key)
            if group is None:
                group = self._groups[key] = _Group(
                    deadline=time.monotonic() + self._window)
                self._cond.notify_all()  # dispatcher: new earliest deadline
            group.items.append((job, fut))
            if len(group.items) >= self._max:
                del self._groups[key]
                self._launch(key, group.items)
        return fut

    def close(self) -> None:
        """Flush every pending batch, run them, and stop the dispatcher."""
        with self._cond:
            self._closed = True
            self._cond.notify_all()
        self._dispatcher.join()
        while True:
            with self._cond:
                threads, self._batch_threads = self._batch_threads, []
            if not threads:
                return
            for t in threads:
                t.join()

    # -- internal --------------------------------------------------------

    def _launch(self, key: str, items: List[Tuple[Any, Future]]) -> None:
        # Caller holds the lock.
        if self._counters is not None:
            self._counters.note_batch(self._kind, len(items))
        t = threading.Thread(target=self._run_batch, args=(key, items),
                             name=f"batch-{self._kind}", daemon=True)
        # Prune finished batch threads so a long-lived daemon stays flat.
        self._batch_threads = [bt for bt in self._batch_threads
                               if bt.is_alive()]
        self._batch_threads.append(t)
        t.start()

    def _run_batch(self, key: str, items: List[Tuple[Any, Future]]) -> None:
        jobs = [job for job, _ in items]
        try:
            outs = self._runner(key, jobs)
            if len(outs) != len(items):
                raise RuntimeError(
                    f"batch runner returned {len(outs)} results for "
                    f"{len(items)} jobs")
        except BaseException as exc:
            for _, fut in items:
                fut.set_exception(exc)
            return
        for (_, fut), out in zip(items, outs):
            fut.set_result(out)

    def _dispatch_loop(self) -> None:
        with self._cond:
            while True:
                now = time.monotonic()
                due = [k for k, g in self._groups.items()
                       if self._closed or g.deadline <= now]
                for k in due:
                    self._launch(k, self._groups.pop(k).items)
                if self._closed:
                    return
                timeout = None
                if self._groups:
                    timeout = max(0.0, min(
                        g.deadline for g in self._groups.values()) - now)
                self._cond.wait(timeout)
