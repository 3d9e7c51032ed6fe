"""Span tracer of the end-to-end benchmark, built from outside the program.

:class:`Tracer` replaces each traced public callable by a wrapper that
records a span (id, name, start, end, parent, request id) and puts every
original back on exit.  A function is replaced wherever it is bound: in its
own module, in every ``repro`` module that imported it by name, in the
``EXPERIMENTS`` table and in the solver registry, so no call path bypasses
its span.  Methods are replaced on their class.

A span's parent is the innermost open span of its thread; the first span
of a thread takes the span that was open where the thread was started
(``threading.Thread.start`` is wrapped too), so work a suite fans out to
pool threads, or a lockstep gang to its column threads, nests under the
call that caused it.  Spans stay in memory; :meth:`Tracer.dump` writes them
out.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import itertools
import json
import sys
import threading
from collections import defaultdict
from time import perf_counter
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

import harness

#: (span name, module, function name): functions replaced wherever bound.
FUNCTIONS = (
    ("formats.feinberg.quantize", "repro.formats.feinberg",
     "quantize_vector_feinberg"),
    ("solvers.cg", "repro.solvers.cg", "cg"),
    ("solvers.bicgstab", "repro.solvers.bicgstab", "bicgstab"),
    ("solvers.lockstep", "repro.solvers.lockstep", "solve_lockstep"),
    ("experiments.store.attach", "repro.experiments.store", "load_entry"),
    ("experiments.store.save", "repro.experiments.store", "save_entry"),
    ("experiments.common.assets", "repro.experiments.common",
     "matrix_assets"),
    ("experiments.common.run_matrix", "repro.experiments.common",
     "run_matrix"),
    ("experiments.common.scheduler", "repro.experiments.common",
     "run_suite"),
    ("experiments.common.scheduler", "repro.experiments.common",
     "run_sweep"),
    ("experiments.ledger.append", "repro.experiments.ledger", "record_run"),
)

_OPERATORS = (("repro.solvers.base", "MatrixOperator"),
              ("repro.operators.refloat_op", "ReFloatOperator"),
              ("repro.operators.feinberg_op", "FeinbergOperator"),
              ("repro.operators.noisy", "NoisyReFloatOperator"))

#: (span name, module, class, method): methods replaced on their class.
METHODS = (
    ("sparse.gallery.build", "repro.sparse.gallery.suite", "MatrixSpec",
     "matrix"),
    ("sparse.blocked.partition", "repro.sparse.blocked", "BlockedMatrix",
     "__init__"),
    ("sparse.blocked.quantize", "repro.sparse.blocked", "BlockedMatrix",
     "quantize"),
    ("formats.refloat.convert", "repro.formats.refloat",
     "VectorConverterPlan", "convert"),
    ("formats.refloat.convert", "repro.formats.refloat",
     "VectorConverterPlan", "convert_batch"),
    ("hardware.timing", "repro.hardware.gpu", "GPUSolverModel",
     "solve_time_s"),
    ("hardware.timing", "repro.hardware.accelerator", "SolverTimingModel",
     "solve_time_s"),
) + tuple(("operators.spmv", module, cls, method)
          for module, cls in _OPERATORS for method in ("matvec", "matmat"))


def union_length(intervals: Iterable[Tuple[float, float]],
                 lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cur_lo = cur_hi = None
    for start, end in sorted(intervals):
        start, end = max(start, lo), min(end, hi)
        if end <= start:
            continue
        if cur_hi is None or start > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = start, end
        else:
            cur_hi = max(cur_hi, end)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def span_totals(spans: List[tuple]) -> Dict[str, Dict[str, float]]:
    """Per span name: ``calls``, ``total_s`` (outermost spans of that name
    only, so recursion is not counted twice) and ``self_s`` (each span's
    duration minus the union of its children's intervals)."""
    by_id = {s[0]: s for s in spans}
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s[4] in by_id:
            children[s[4]].append((s[2], s[3]))
    out: Dict[str, Dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
    for span_id, name, t0, t1, parent, _ in spans:
        row = out[name]
        row["calls"] += 1
        row["self_s"] += (t1 - t0) - union_length(children.get(span_id, ()),
                                                  t0, t1)
        outermost = True
        while parent in by_id:
            ancestor = by_id[parent]
            if ancestor[1] == name:
                outermost = False
                break
            parent = ancestor[4]
        if outermost:
            row["total_s"] += t1 - t0
    return dict(out)


class Tracer:
    """Install with ``with Tracer() as tracer:``; read :meth:`layer_metrics`
    after the block."""

    def __init__(self) -> None:
        self.spans: List[tuple] = []
        self.counters: Dict[str, float] = defaultdict(float)
        self.tensor_bytes: Dict[tuple, int] = {}
        self._stats_seen: Dict[int, Any] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._undo: List[Callable[[], None]] = []
        self._wrapper_of: Dict[int, Callable] = {}
        self.t_start = self.t_end = None

    # -- recording -------------------------------------------------------

    def _state(self):
        local = self._local
        if not hasattr(local, "stack"):
            thread = threading.current_thread()
            local.stack = []
            local.root = getattr(thread, "_e2e_parent", None)
            local.request = getattr(thread, "_e2e_request", None)
        return local

    def wrap(self, name: str, fn: Callable, after: Optional[Callable] = None,
             ) -> Callable:
        """``fn`` recording a ``name`` span per call; ``after(tracer, args,
        result, seconds)`` runs once the call returned."""
        tracer = self

        # The bookkeeping of span() is inlined here: this runs once per
        # traced call (about 400,000 times in a paper reproduction).
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            local = tracer._state()
            stack = local.stack
            parent = stack[-1] if stack else local.root
            span_id = next(tracer._ids)
            stack.append(span_id)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                tracer.spans.append((span_id, name, t0, t1, parent,
                                     local.request))
            if after is not None:
                after(tracer, args, result, t1 - t0)
            return result

        return wrapper

    @contextlib.contextmanager
    def span(self, name: str, request: Any = None):
        """A span around the benchmark's own code; ``request`` (when given)
        becomes the request id of this thread's spans inside it."""
        local = self._state()
        previous = local.request
        if request is not None:
            local.request = request
        stack = local.stack
        parent = stack[-1] if stack else local.root
        span_id = next(self._ids)
        stack.append(span_id)
        t0 = perf_counter()
        try:
            yield
        finally:
            t1 = perf_counter()
            stack.pop()
            self.spans.append((span_id, name, t0, t1, parent, local.request))
            local.request = previous

    def add(self, counter: str, value: float) -> None:
        with self._lock:
            self.counters[counter] += value

    # -- installing --------------------------------------------------------

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc_info) -> None:
        self.uninstall()

    def install(self) -> None:
        from repro.api.registry import SOLVER_REGISTRY
        from repro.experiments import EXPERIMENTS

        after = {"solvers.cg": _note_solver, "solvers.bicgstab": _note_solver,
                 "solvers.lockstep": _note_lockstep,
                 "experiments.common.assets": _note_assets,
                 "experiments.common.scheduler": _note_stats,
                 "operators.spmv": _note_spmv}
        try:
            for name, module, attr in FUNCTIONS:
                original = getattr(importlib.import_module(module), attr)
                self._rebind(original,
                             self.wrap(name, original, after.get(name)))
            for exp_name, original in list(EXPERIMENTS.items()):
                self._rebind(original,
                             self.wrap(f"experiments.{exp_name}", original))
            for name, module, cls_name, method in METHODS:
                cls = getattr(importlib.import_module(module), cls_name)
                original = cls.__dict__[method]
                setattr(cls, method,
                        self.wrap(name, original, after.get(name)))
                self._undo.append(functools.partial(setattr, cls, method,
                                                    original))
            for solver in SOLVER_REGISTRY.names():
                spec = SOLVER_REGISTRY.get(solver)
                wrapper = self._wrapper_of.get(id(spec.solve))
                if wrapper is not None:
                    original = spec.solve
                    object.__setattr__(spec, "solve", wrapper)
                    self._undo.append(functools.partial(
                        object.__setattr__, spec, "solve", original))
            self._patch_thread_start()
        except BaseException:
            self.uninstall()
            raise
        self.t_start = perf_counter()

    def _rebind(self, original: Callable, wrapper: Callable) -> None:
        """Replace ``original`` in every ``repro`` module namespace and in
        the ``EXPERIMENTS`` table."""
        from repro.experiments import EXPERIMENTS

        self._wrapper_of[id(original)] = wrapper
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "repro"
                                      or mod_name.startswith("repro.")):
                continue
            namespace = vars(module)
            for attr, value in list(namespace.items()):
                if value is original:
                    namespace[attr] = wrapper
                    self._undo.append(functools.partial(
                        namespace.__setitem__, attr, original))
        for key, value in list(EXPERIMENTS.items()):
            if value is original:
                EXPERIMENTS[key] = wrapper
                self._undo.append(functools.partial(
                    EXPERIMENTS.__setitem__, key, original))

    def _patch_thread_start(self) -> None:
        tracer = self
        original = threading.Thread.start

        @functools.wraps(original)
        def start(thread):
            local = tracer._state()
            thread._e2e_parent = local.stack[-1] if local.stack else local.root
            thread._e2e_request = local.request
            return original(thread)

        threading.Thread.start = start
        self._undo.append(functools.partial(setattr, threading.Thread,
                                            "start", original))

    def uninstall(self) -> None:
        if self.t_start is not None and self.t_end is None:
            self.t_end = perf_counter()
        while self._undo:
            self._undo.pop()()

    # -- results -----------------------------------------------------------

    def layer_metrics(self) -> Dict[str, float]:
        """Every per-layer metric the spans and counters give (the rest —
        store and service counters, overhead — the workload adds)."""
        wall = self.t_end - self.t_start
        totals = span_totals(self.spans)
        out: Dict[str, float] = {}
        for metric in harness.PER_LAYER:
            if metric.source is None:
                continue
            source, kind = metric.source
            if kind == "count":
                out[metric.name] = float(self.counters.get(source, 0.0))
                continue
            row = totals.get(source, {"calls": 0, "total_s": 0.0,
                                      "self_s": 0.0})
            if kind.endswith("_pct"):
                out[metric.name] = 100.0 * row[kind[:-4] + "_s"] / wall
            else:
                out[metric.name] = float(row[kind])
        out["sparse.bsr.tensor_mb"] = sum(self.tensor_bytes.values()) / 1e6
        out["experiments.common.max_inflight"] = self.counters.get(
            "max_inflight", 0.0)
        out["experiments.common.retries"] = self.counters.get("retries", 0.0)
        out["experiments.common.pool_rebuilds"] = self.counters.get(
            "pool_rebuilds", 0.0)
        out["trace.wall_s"] = wall
        return out

    def dump(self, path, meta: Dict[str, Any]) -> None:
        """Write the spans as ``[id, name index, start, end, parent,
        request]`` rows (times in seconds from the traced phase's start)."""
        names = sorted({s[1] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        rows = [[s[0], index[s[1]], round(s[2] - self.t_start, 7),
                 round(s[3] - self.t_start, 7), s[4], s[5]]
                for s in sorted(self.spans)]
        with open(path, "w") as fh:
            json.dump({"meta": meta, "names": names, "spans": rows,
                       "counters": dict(self.counters)}, fh)


# ----------------------------------------------------------------------
# Counters taken from the wrapped calls' arguments and results


def _note_spmv(tracer: Tracer, args, result, seconds: float) -> None:
    op, x = args[0], args[1]
    A = op.A
    tracer.add("operators.spmv_bytes",
               A.data.nbytes + A.indices.nbytes + A.indptr.nbytes
               + getattr(x, "nbytes", 0) + getattr(result, "nbytes", 0))


def _note_solver(tracer: Tracer, args, result, seconds: float) -> None:
    tracer.add("solvers.iterations", result.iterations)
    tracer.add("solvers.matvecs", result.matvecs)


def _note_lockstep(tracer: Tracer, args, result, seconds: float) -> None:
    tracer.add("service.lockstep_column_s", seconds * len(result))


def _note_assets(tracer: Tracer, args, result, seconds: float) -> None:
    blocked = result.blocked
    tracer.tensor_bytes[(result.sid, result.scale)] = (
        blocked.n_blocks * 4 ** blocked.b * 8)


def _note_stats(tracer: Tracer, args, result, seconds: float) -> None:
    stats = result.stats
    if stats is None:
        return
    with tracer._lock:
        if id(stats) in tracer._stats_seen:  # a run-cache hit
            return
        tracer._stats_seen[id(stats)] = stats  # held, so the id stays unique
    summary = stats.trace_summary() or {}
    with tracer._lock:
        tracer.counters["max_inflight"] = max(
            tracer.counters["max_inflight"],
            float(summary.get("max_inflight", 0)))
    tracer.add("retries", stats.retries)
    tracer.add("pool_rebuilds", stats.pool_rebuilds)
