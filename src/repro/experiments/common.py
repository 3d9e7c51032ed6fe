"""Shared evaluation runner: solve every suite matrix on every platform.

Fig. 8 (speedups), Fig. 9 (traces), Table VI (iterations) and Table VII
(configurations) are all views of the same set of runs, so the runs are done
once per (scale, solver) and cached in-process.

Platforms and solvers come from the :mod:`repro.api` registries —
``run_matrix``/``run_suite`` iterate :data:`PLATFORM_REGISTRY` /
:data:`SOLVER_REGISTRY` specs, so registering a platform from user code is
enough to sweep it.  The default grid (the Fig. 8 legend):

* ``gpu``          — exact FP64 solve, timed with the V100 roofline model;
* ``feinberg_fc``  — functionally-correct baseline: FP64 iterations charged
                     with the [32] accelerator timing;
* ``feinberg``     — the [32] functional model (vector window flaw); its own
                     iteration count (or NC) with [32] timing;
* ``refloat``      — ReFloat operator, its own iterations, ReFloat timing.

Runtime knobs resolve through :class:`repro.api.RunConfig` (argument >
installed config > environment); the ``REPRO_*`` names below are the
environment spellings of its fields.

Hot-path architecture
---------------------
Asset resolution is a three-level hierarchy — in-process LRU, then the
persistent on-disk store, then a full build — plus a configurable fan-out:

* a *matrix asset* cache keyed ``(sid, scale)`` holds the built matrix, its
  right-hand side, one shared :class:`BlockedMatrix` partition and the
  constructed platform operators — so the cg and bicgstab sweeps (and any
  experiment revisiting a matrix) stop re-partitioning and re-quantising
  identical matrices.  The cache is LRU with a byte budget:
  ``REPRO_ASSET_CACHE_MB`` bounds the (estimated) resident bytes, evicting
  the least-recently-used entries first, so ``paper``-scale sweeps do not
  grow without bound (unset = unbounded, the test/default-scale behaviour);
* when ``REPRO_ASSET_STORE`` names a directory, in-process misses attach to
  the persistent store (:mod:`repro.experiments.store`): the CSR arrays,
  RHS and partition metadata come back as read-only memory maps instead of
  being regenerated, and fresh builds are materialised into the store for
  the next cold process.  Only the operator quantisation (cheap,
  vectorised, deterministic) re-runs on attach, so store hits are
  bit-identical to builds;
* a *run* cache keyed ``(scale, solver)`` memoises whole-suite sweeps;
* every batch compiles into a dependency-aware task graph
  (:mod:`repro.api.graph`): solve nodes, baseline nodes variant solves
  depend on ("needs baseline" — what used to be a solve-all-baselines
  phase barrier), and asset nodes gating solves on their store entry
  ("needs store entry").  A scheduler dispatches ready nodes as
  dependencies complete — variant solves overlap still-running
  baselines, pre-warm overlaps independent solves — and a failed node
  skips its dependents with structured ``"dependency"`` failures;
* :func:`run_suite` and :func:`run_sweep` each lower their spec to
  requests, run them through one scheduling loop and lift the results;
  :func:`run_specs` runs several specs' requests as one graph (the
  ``all`` command runs the whole paper that way).
  ``REPRO_SUITE_EXECUTOR`` selects ``serial`` (the default: each node
  runs inline on the calling thread, one at a time) or ``process``;
  ``REPRO_SUITE_WORKERS`` sets the process-pool width.  The pool keeps at
  most one node per worker in flight and, of the ready nodes, starts the
  one whose chain of recorded solves is costliest first (ranks from the
  run ledger, :func:`_ledger_ranks`).  The process pool
  sidesteps the GIL entirely for ``paper``-scale sweeps: task payloads are
  picklable ``(sid, solver, scale)`` triples, each worker process resolves
  assets through its own hierarchy — with a store configured the parent
  pre-materialises every entry and workers mmap-attach instead of
  rebuilding per worker — and the returned :class:`MatrixRun` carries only
  arrays/floats, so results are again identical to serial execution.  An
  interpreter-exit hook (registered ahead of ``concurrent.futures``' own
  drain-the-queue handler) reaps live workers, so an exit without
  :func:`clear_run_caches` cannot hang — or stall out a full abandoned
  sweep — on live workers.
"""

from __future__ import annotations

import atexit
import math
import os
import signal
import threading
import time
from collections import OrderedDict, deque
from concurrent.futures import (
    FIRST_COMPLETED,
    BrokenExecutor,
    Future,
    ProcessPoolExecutor,
    wait,
)
from dataclasses import dataclass, field, replace
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Tuple,
    Union,
)

import numpy as np
import scipy.sparse as sp

from repro.api import config as api_config
from repro.api import faults
from repro.api.faults import RunFailure
from repro.api.graph import (
    GraphScheduler,
    TaskGraph,
    compile_solve_graph,
    critical_path_ranks,
)
from repro.api.platforms import DEFAULT_PLATFORMS
from repro.api.registry import (
    PLATFORM_REGISTRY,
    SOLVER_REGISTRY,
    PlatformContext,
    SolverSpec,
    resolve_platforms,
)
from repro.api.specs import RunRequest, SuiteSpec
from repro.api.sweep import (
    VARIANT_FAMILIES,
    SweepSpec,
    ensure_variant_platforms,
    is_variant_token,
)
from repro.experiments import ledger as run_ledger
from repro.experiments import store
from repro.formats.feinberg import FeinbergSpec
from repro.formats.refloat import ReFloatSpec
from repro.operators import ExactOperator, FeinbergOperator, ReFloatOperator
from repro.solvers import ConvergenceCriterion, SolverResult
from repro.sparse.blocked import BlockedMatrix
from repro.sparse.gallery.suite import PAPER_SUITE, resolve_scale, suite_ids

__all__ = [
    "ExecutionStats",
    "MatrixRun",
    "SuiteResult",
    "SweepResult",
    "asset_cache_stats",
    "default_spec_for",
    "matrix_assets",
    "platform_operator",
    "run_matrix",
    "run_request",
    "run_spec",
    "run_specs",
    "run_suite",
    "run_sweep",
    "clear_run_caches",
    "geometric_mean",
]

#: In-process cache of full-suite runs, keyed (scale, solver).
_CACHE: Dict[tuple, Dict[int, "MatrixRun"]] = {}

#: In-process LRU cache of per-matrix assets, keyed (sid, scale); most
#: recently used entries sit at the end.  Guarded by _CACHE_LOCK, with the
#: estimated per-entry bytes in _ASSET_SIZES and their sum in _ASSET_BYTES.
_ASSETS: "OrderedDict[tuple, MatrixAssets]" = OrderedDict()
_ASSET_SIZES: Dict[tuple, int] = {}
_ASSET_BYTES: int = 0

_CACHE_LOCK = threading.Lock()

_EXECUTORS = api_config.EXECUTORS

#: Persistent process pool (created on first use, resized on demand) so the
#: per-worker asset caches survive across run_suite calls — the cg sweep
#: warms the workers the bicgstab sweep then reuses.  Guarded by _CACHE_LOCK.
_PROCESS_POOL: Optional[ProcessPoolExecutor] = None
#: (width, asset-env-config) the pool was created under.  Workers inherit
#: their environment at fork time, so a pool outliving a change to any
#: asset-handling env var would keep honouring the stale value (rebuilding
#: assets the parent materialised, or ignoring a new cache budget) — the
#: pool is recreated whenever any part of the token changes.
_PROCESS_POOL_TOKEN: Optional[tuple] = None
#: PID that created the pool.  Forked workers inherit this module's state —
#: including the executor object and sibling Process handles — so every
#: shutdown path must refuse to touch a pool it does not own: a worker
#: "shutting down" the inherited copy would join threads that never ran in
#: its process and terminate its own siblings.
_PROCESS_POOL_OWNER: Optional[int] = None


def _registry_pool_stamp() -> tuple:
    """The registry state a worker must share with the parent.

    Worker processes (on fork platforms) freeze the registries at pool
    creation.  Variant *tokens* are exempt — workers rebuild those on
    demand from their family registry — but a platform or solver
    registered under a plain name after the fork would be unresolvable
    (or, after ``replace=True``, silently mean the old work) in a stale
    worker, so the pool identity covers every non-token name with its
    per-name version.
    """
    platform_names = tuple(name for name in PLATFORM_REGISTRY.names()
                           if not is_variant_token(name))
    solver_names = SOLVER_REGISTRY.names()
    return (platform_names, PLATFORM_REGISTRY.versions(platform_names),
            solver_names, SOLVER_REGISTRY.versions(solver_names))


def _pool_token(workers: int) -> tuple:
    cfg = api_config.active()
    # The variant-family generation joins the registry stamp: workers
    # materialise variant tokens from *their* family registry, so a pool
    # predating a register_variant_family call would raise unknown-family
    # KeyErrors for sweeps over the new family — such a pool is recreated.
    return (workers, cfg.store or "", cfg.store_verify, cfg.asset_cache_mb,
            VARIANT_FAMILIES.generation, _registry_pool_stamp())


def _pool_worker_init() -> None:
    """Restore default signal dispositions in pool workers.

    Workers fork from the parent and inherit its signal handlers.  A
    parent that traps SIGTERM for graceful shutdown (the solve-service
    daemon does) would otherwise make its workers unkillable by
    ``Process.terminate()``: the inherited handler swallows the signal,
    and ``concurrent.futures``' broken-pool cleanup then joins the
    immortal worker forever.  Workers must die on SIGTERM and leave
    SIGINT to the parent's orchestration.
    """
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.default_int_handler)


def _process_pool(workers: int) -> ProcessPoolExecutor:
    """The shared pool, recreated when the width or store config changes."""
    global _PROCESS_POOL, _PROCESS_POOL_TOKEN, _PROCESS_POOL_OWNER
    token = _pool_token(workers)
    with _CACHE_LOCK:
        if _PROCESS_POOL is None or _PROCESS_POOL_TOKEN != token:
            if _PROCESS_POOL is not None and _PROCESS_POOL_OWNER == os.getpid():
                _PROCESS_POOL.shutdown(wait=False)
            _PROCESS_POOL = ProcessPoolExecutor(
                max_workers=workers, initializer=_pool_worker_init)
            _PROCESS_POOL_TOKEN = token
            _PROCESS_POOL_OWNER = os.getpid()
        return _PROCESS_POOL


def _detach_process_pool() -> Optional[ProcessPoolExecutor]:
    """Drop the module's pool reference; return it only to the owning process.

    Non-owners (forked workers that inherited the reference) always get
    ``None`` — they must never operate on the parent's executor state.
    """
    global _PROCESS_POOL, _PROCESS_POOL_TOKEN, _PROCESS_POOL_OWNER
    with _CACHE_LOCK:
        pool, owner = _PROCESS_POOL, _PROCESS_POOL_OWNER
        _PROCESS_POOL, _PROCESS_POOL_TOKEN, _PROCESS_POOL_OWNER = \
            None, None, None
    if pool is None or owner != os.getpid():
        return None
    return pool


def _shutdown_process_pool() -> None:
    """Shut the shared pool down cooperatively (the ``clear_run_caches`` path).

    ``cancel_futures`` drops work not yet handed to a worker; anything
    already in the call queue still runs, so this is orderly and bounded.
    """
    pool = _detach_process_pool()
    if pool is not None:
        pool.shutdown(wait=True, cancel_futures=True)


def _discard_process_pool(kill: bool = False) -> None:
    """Drop the shared pool after a break or hang — reap it, never drain it.

    ``kill=True`` SIGKILLs live workers first (the timeout-recovery path: a
    worker stuck in a hung solve cannot be cancelled cooperatively); a pool
    that is already broken just needs its bookkeeping shut down.  The next
    :func:`_process_pool` call builds a fresh pool.
    """
    pool = _detach_process_pool()
    if pool is None:
        return
    if kill:
        for proc in list((getattr(pool, "_processes", None) or {}).values()):
            if proc.is_alive():
                proc.kill()
    pool.shutdown(wait=False, cancel_futures=True)


def _exit_process_pool() -> None:
    """Interpreter-exit hook: reap live workers instead of draining them.

    At exit nobody can consume results, so queued work is abandoned by
    definition: live workers are terminated first, then the cooperative
    shutdown reaps the (now broken) pool.  This must run *before*
    ``concurrent.futures``' own exit handler — which joins the pool only
    after executing every queued task, and can hang forever on a stuck
    worker — hence the registration below goes through
    ``threading._register_atexit`` (those callbacks run LIFO ahead of the
    futures handler) rather than plain :mod:`atexit`, which fires too late
    to prevent the drain.  Verified against a queued-work exit in
    ``tests/test_suite_executor.py``.
    """
    pool = _detach_process_pool()
    if pool is None:
        return
    for proc in list((getattr(pool, "_processes", None) or {}).values()):
        if proc.is_alive():
            proc.terminate()
    pool.shutdown(wait=True, cancel_futures=True)


#: An interpreter exit without clear_run_caches() must not hang (or stall
#: arbitrarily long) on live pool workers.  Registered once at import time —
#: a no-op when no pool was ever created, including in the workers
#: themselves.  The threading hook is a private CPython API (3.9+); plain
#: atexit is the degraded fallback (it cannot pre-empt the futures drain).
try:
    threading._register_atexit(_exit_process_pool)
except (AttributeError, RuntimeError):  # pragma: no cover - fallback
    atexit.register(_exit_process_pool)


def _asset_cache_budget() -> Optional[int]:
    """The active config's asset-cache byte budget (None = unbounded).

    Sourced from ``REPRO_ASSET_CACHE_MB`` unless a :class:`RunConfig` is
    installed; invalid env values raise the config module's named error.
    """
    return api_config.active().asset_cache_bytes


def _approx_nbytes(*roots) -> int:
    """Estimated resident bytes of the ndarray/CSR payloads under ``roots``.

    Walks instance attributes, deduplicating shared arrays by identity (the
    partition, quantised matrix and operators alias each other heavily), so
    the figure tracks what the cache actually pins.  State that evicting an
    asset cannot free is excluded: :class:`VectorConverterPlan` instances
    are owned by the process-wide ``vector_converter_plan`` LRU (they
    outlive the asset), and per-thread scratch is transient — charging
    either here would make eviction subtract bytes that stay resident.
    """
    from repro.formats.refloat import VectorConverterPlan

    seen, total = set(), 0
    stack = list(roots)
    while stack:
        obj = stack.pop()
        if obj is None or id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            total += _array_nbytes(obj)
        elif sp.issparse(obj):
            stack.extend(getattr(obj, name) for name in
                         ("data", "indices", "indptr", "row", "col")
                         if hasattr(obj, name))
        elif isinstance(obj, dict):
            stack.extend(obj.values())
        elif isinstance(obj, (list, tuple)):
            stack.extend(obj)
        elif isinstance(obj, (threading.local, VectorConverterPlan)):
            continue  # not freed by evicting this asset (see docstring)
        elif hasattr(obj, "__dict__"):
            stack.extend(vars(obj).values())
    return total


def _array_nbytes(arr: np.ndarray) -> int:
    """Resident bytes an array pins: store-mmapped arrays count as zero.

    Memory-mapped views are backed by the OS page cache — evicting an asset
    that wraps them frees (approximately) nothing, and charging them would
    make a warm-store sweep look as expensive as a cold one.
    """
    if isinstance(arr, np.memmap) or isinstance(getattr(arr, "base", None),
                                                np.memmap):
        return 0
    return arr.nbytes


@dataclass
class MatrixAssets:
    """Everything about one (matrix, scale) pair that is solver-independent.

    Built once and shared by every platform/solver sweep: the matrix, the
    paper right-hand side ``A @ 1``, a single :class:`BlockedMatrix`
    partition (handed to the operators so nothing re-partitions), and the
    constructed operators themselves.  All of it is read-only after
    construction, so sharing across runner threads is safe.
    """

    sid: int
    scale: str
    A: object
    b: np.ndarray
    blocked: BlockedMatrix
    spec: ReFloatSpec
    exact_op: ExactOperator
    refloat_op: ReFloatOperator
    feinberg_ops: Dict[FeinbergSpec, FeinbergOperator] = field(default_factory=dict)

    def feinberg_op(self, spec: FeinbergSpec) -> FeinbergOperator:
        with _CACHE_LOCK:
            op = self.feinberg_ops.get(spec)
        if op is None:
            op = FeinbergOperator(None, spec, blocked=self.blocked)
            with _CACHE_LOCK:
                op = self.feinberg_ops.setdefault(spec, op)
        return op


def _spec_token(spec: ReFloatSpec) -> str:
    """Filename-safe identity of a ReFloat spec, for store extra-array keys."""
    return (f"b{spec.b}e{spec.e}f{spec.f}ev{spec.ev}fv{spec.fv}"
            f"-{spec.rounding}-{spec.underflow}-{spec.eb_policy}")


def _quantized_key(spec: ReFloatSpec) -> str:
    """Store extra-array name of the pre-quantised values for ``spec``."""
    return f"refloat_q_{_spec_token(spec)}"


def _store_extras(spec: ReFloatSpec, refloat_op: ReFloatOperator,
                  ) -> Dict[str, np.ndarray]:
    """Extra arrays saved with a store entry: the pre-quantised matrix
    values, one per nonzero in canonical CSR order (``refloat_op.A.data``,
    which ``ReFloatOperator(quantized=...)`` takes back as is).

    Keyed by the full spec identity, so a loader with a different default
    spec simply misses the extra and re-quantises — never reuses stale data.
    """
    return {_quantized_key(spec): refloat_op.A.data}


def _load_or_build_assets(sid: int, scale: str) -> MatrixAssets:
    """Level 2/3 of the asset hierarchy: attach to the store, else build.

    A store hit hands back memory-mapped CSR arrays, the stored RHS, the
    reattached partition and (when the spec matches) the pre-quantised
    ReFloat matrix data, so nothing is regenerated and the resulting assets
    are bit-identical to a fresh build.  A miss builds everything and
    materialises it into the store (no-op when ``REPRO_ASSET_STORE`` is
    unset) for the next cold process.
    """
    spec = default_spec_for(sid)
    q_key = _quantized_key(spec)
    entry = store.load_entry(sid, scale, extras=(q_key,))
    if entry is not None:
        A, b, blocked = entry.A, entry.b, entry.blocked
        refloat_op = ReFloatOperator(None, spec, blocked=blocked,
                                     quantized=entry.extras.get(q_key))
    else:
        store.note_build(sid, scale)
        A = PAPER_SUITE[sid].matrix(scale)
        blocked = BlockedMatrix(A, b=7)
        b = A @ np.ones(A.shape[0])
        refloat_op = ReFloatOperator(None, spec, blocked=blocked)
        store.save_entry(sid, scale, A, b, blocked,
                         extras=_store_extras(spec, refloat_op))
    return MatrixAssets(
        sid=sid, scale=scale, A=A, b=b, blocked=blocked, spec=spec,
        exact_op=ExactOperator(A), refloat_op=refloat_op,
    )


def matrix_assets(sid: int, scale: str) -> MatrixAssets:
    """Build (or fetch) the shared per-matrix assets for ``(sid, scale)``.

    Resolution is hierarchical: the in-process LRU cache, then the on-disk
    ``REPRO_ASSET_STORE`` (memory-mapped attach), then a full build that
    also populates the store.  Cache hits refresh the entry's LRU position;
    inserts charge the entry's estimated bytes against the
    ``REPRO_ASSET_CACHE_MB`` budget and evict least-recently-used entries
    until the budget holds again (the newest entry itself is never evicted —
    a single oversized matrix still runs).
    """
    global _ASSET_BYTES
    key = (sid, scale)
    with _CACHE_LOCK:
        cached = _ASSETS.get(key)
        if cached is not None:
            _ASSETS.move_to_end(key)
            return cached
    assets = _load_or_build_assets(sid, scale)
    budget = _asset_cache_budget()
    nbytes = _approx_nbytes(assets)
    with _CACHE_LOCK:
        # Another thread may have raced us; keep exactly one copy.
        if key in _ASSETS:
            _ASSETS.move_to_end(key)
            return _ASSETS[key]
        _ASSETS[key] = assets
        _ASSET_SIZES[key] = nbytes
        _ASSET_BYTES += nbytes
        if budget is not None:
            while _ASSET_BYTES > budget and len(_ASSETS) > 1:
                old_key, _ = _ASSETS.popitem(last=False)
                _ASSET_BYTES -= _ASSET_SIZES.pop(old_key)
    return assets


def asset_cache_stats() -> Dict[str, int]:
    """Snapshot of the asset cache: entries and estimated resident bytes."""
    with _CACHE_LOCK:
        return {"entries": len(_ASSETS), "bytes": _ASSET_BYTES}


def clear_run_caches() -> None:
    """Drop the in-process caches (tests and memory-sensitive callers).

    Clears the run and asset caches — including the asset cache's LRU byte
    accounting, which must restart from zero — plus the vector-converter
    plan cache, which pins O(n) index/scratch state per ``(n, spec)`` pair
    the operators have touched.  The persistent process pool (whose workers
    hold their own per-process caches) is shut down too.  The on-disk
    ``REPRO_ASSET_STORE`` is *not* touched — persistence across processes
    is its purpose; delete entry directories to evict it.
    """
    from repro.formats.refloat import vector_converter_plan

    global _ASSET_BYTES
    with _CACHE_LOCK:
        _CACHE.clear()
        _ASSETS.clear()
        _ASSET_SIZES.clear()
        _ASSET_BYTES = 0
    vector_converter_plan.cache_clear()
    _shutdown_process_pool()


def default_spec_for(sid: int) -> ReFloatSpec:
    """The Table VII configuration for a matrix (fv=16 for 1288/1848)."""
    fv = PAPER_SUITE[sid].fv_override or 8
    return ReFloatSpec(b=7, e=3, f=3, ev=3, fv=fv)


@dataclass
class MatrixRun:
    """All platform results for one (matrix, solver) cell of Fig. 8.

    ``results``/``times_s`` hold exactly the platforms the run swept;
    :meth:`iterations` and :meth:`speedup` degrade gracefully (``None`` /
    ``NaN``) for platforms absent from a subset sweep.
    """

    sid: int
    name: str
    solver: str
    n_rows: int
    nnz: int
    n_blocks: int
    results: Dict[str, SolverResult] = field(default_factory=dict)
    times_s: Dict[str, float] = field(default_factory=dict)

    @property
    def platforms(self) -> Tuple[str, ...]:
        """The platforms this run swept, in sweep order."""
        return tuple(self.results)

    def iterations(self, platform: str) -> Optional[int]:
        """Converged iteration count; ``None`` when the platform did not
        converge *or* was not part of this run's sweep."""
        res = self.results.get(platform)
        if res is None:
            return None
        return res.iterations if res.converged else None

    def speedup(self, platform: str) -> float:
        """Fig. 8's metric ``p = t_GPU / t_x`` (NaN when x did not converge
        or either platform is absent from the sweep)."""
        t = self.times_s.get(platform)
        t_gpu = self.times_s.get("gpu")
        if t is None or t_gpu is None or not math.isfinite(t):
            return float("nan")
        return t_gpu / t

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe summary (per-platform convergence/iterations/times;
        non-finite floats become ``None``)."""

        def safe(value: Optional[float]) -> Optional[float]:
            if value is None or not math.isfinite(value):
                return None
            return float(value)

        return {
            "sid": self.sid, "name": self.name, "solver": self.solver,
            "n_rows": self.n_rows, "nnz": self.nnz, "n_blocks": self.n_blocks,
            "platforms": {
                name: {
                    "converged": bool(res.converged),
                    "iterations": int(res.iterations),
                    "time_s": safe(self.times_s.get(name)),
                    "speedup_vs_gpu": safe(self.speedup(name)),
                }
                for name, res in self.results.items()
            },
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "MatrixRun":
        """Rebuild a *summary-grade* run from :meth:`to_dict` output.

        The inverse is lossy by design — the summary drops iterate vectors
        and residual histories — so the rebuilt ``results`` hold stub
        :class:`SolverResult`\\ s (empty ``x``, ``NaN`` residual norm) that
        carry exactly what reporting reads: convergence, iteration counts
        and times.  A serialised ``time_s`` of ``None`` (non-finite on the
        way out) round-trips to ``inf``, matching the live convention for
        non-converged platforms.  This is what the sweep journal replays.
        """
        run = cls(sid=int(data["sid"]), name=str(data["name"]),
                  solver=str(data["solver"]), n_rows=int(data["n_rows"]),
                  nnz=int(data["nnz"]), n_blocks=int(data["n_blocks"]))
        for name, cell in data["platforms"].items():
            run.results[name] = SolverResult(
                x=np.empty(0), converged=bool(cell["converged"]),
                iterations=int(cell["iterations"]),
                residual_norm=float("nan"))
            time_s = cell.get("time_s")
            run.times_s[name] = (float("inf") if time_s is None
                                 else float(time_s))
        return run


@dataclass
class ExecutionStats:
    """Counters from one engine invocation (:func:`run_suite`,
    :func:`run_sweep` or :func:`run_specs`).

    ``requests`` is the batch size actually executed; ``nodes``/``edges``
    describe the compiled task graph (solve nodes plus any asset pre-warm
    nodes, "needs baseline"/"needs store entry" edges); ``retries`` counts
    re-executions after an in-request exception or timeout; ``timeouts``
    counts requests that outlived ``request_timeout``; ``pool_rebuilds``
    counts process-pool replacements (breaks and timeout kills);
    ``poisoned`` counts requests failed for breaking the pool twice;
    ``skipped`` counts nodes never run because a dependency failed (each
    carries a ``"dependency"``-phase :class:`RunFailure`);
    ``journal_skipped`` counts sweep cells replayed from a journal instead
    of solved.

    ``trace`` is the scheduler's per-node timing record — state, dispatch
    count, monotonic first/last-dispatch and finish offsets — the proof
    that dispatch overlaps (a variant starting before the last baseline
    finished shows up directly).  It stays out of :meth:`to_dict`:
    wall-clock offsets differ run to run, and the serialised stats must
    stay byte-identical across executors (the CI equivalence gate).
    """

    requests: int = 0
    nodes: int = 0
    edges: int = 0
    retries: int = 0
    timeouts: int = 0
    pool_rebuilds: int = 0
    poisoned: int = 0
    skipped: int = 0
    journal_skipped: int = 0
    trace: Dict[str, Dict[str, Any]] = field(default_factory=dict, repr=False)

    def to_dict(self) -> Dict[str, int]:
        return {
            "requests": self.requests, "nodes": self.nodes,
            "edges": self.edges, "retries": self.retries,
            "timeouts": self.timeouts, "pool_rebuilds": self.pool_rebuilds,
            "poisoned": self.poisoned, "skipped": self.skipped,
            "journal_skipped": self.journal_skipped,
        }

    def trace_summary(self) -> Optional[Dict[str, Any]]:
        """Aggregate view of the scheduler trace, safe to serialise.

        Summarises the per-node timing record into what latency work needs
        as an offline baseline: how many nodes the graph had, how many were
        actually dispatched, the peak number simultaneously in flight (the
        scheduler's achieved concurrency / max queue depth), and the wall
        span from first dispatch to last finish.  Unlike ``trace`` itself
        this is deliberately *not* part of :meth:`to_dict` — the CLI emits
        it as a separate top-level key so the serialised stats stay
        byte-identical across executors (the CI equivalence gate strips
        the summary, whose wall span is wall-clock, before comparing).
        ``None`` when no trace was recorded (e.g. a run-cache hit).
        """
        if not self.trace:
            return None
        spans = []
        for node in self.trace.values():
            start = node.get("first_dispatch")
            if start is None:
                continue
            end = node.get("finished")
            spans.append((float(start),
                          float(end) if end is not None else float(start)))
        if not spans:
            return {"nodes": len(self.trace), "executed": 0,
                    "max_inflight": 0, "wall_span_s": 0.0}
        events = sorted([(s, 1) for s, _ in spans]
                        + [(e, -1) for _, e in spans],
                        key=lambda ev: (ev[0], ev[1]))
        peak = depth = 0
        for _, delta in events:
            depth += delta
            peak = max(peak, depth)
        wall = max(e for _, e in spans) - min(s for s, _ in spans)
        return {"nodes": len(self.trace), "executed": len(spans),
                "max_inflight": peak, "wall_span_s": round(wall, 6)}


class SuiteResult(dict):
    """``{sid: MatrixRun}`` plus fault-tolerance metadata.

    A plain dict to every historical consumer (iteration, indexing,
    equality all unchanged); ``failures`` holds the :class:`RunFailure`
    records of cells that produced no run — non-empty only under
    ``on_error="collect"`` — and ``stats`` the engine's
    :class:`ExecutionStats` counters from the call that *executed* it (a
    run-cache hit returns the original object, counters included).
    """

    failures: Tuple[RunFailure, ...] = ()
    stats: Optional[ExecutionStats] = None


def _platform_context(sid: int, scale: str, sspec: SolverSpec,
                      assets: "MatrixAssets",
                      feinberg_spec: FeinbergSpec) -> PlatformContext:
    """The context a platform's operator factory and timing model read for
    one (matrix, solver) pair."""
    return PlatformContext(
        sid=sid, scale=scale, solver=sspec.name, n_rows=assets.A.shape[0],
        nnz=int(assets.A.nnz), n_blocks=assets.blocked.n_blocks,
        spec=assets.spec, feinberg_spec=feinberg_spec,
        spmvs_per_iteration=sspec.spmvs_per_iteration,
        vector_ops_per_iteration=sspec.vector_ops_per_iteration,
        gpu_vector_kernels_per_iteration=sspec.gpu_vector_kernels)


def run_matrix(sid: int, solver: str, scale: Optional[str] = None,
               criterion: Optional[ConvergenceCriterion] = None,
               feinberg_spec: FeinbergSpec = FeinbergSpec(),
               platforms: Optional[Iterable[str]] = None) -> MatrixRun:
    """Solve one suite matrix on the selected platforms and attach times.

    ``platforms`` defaults to the paper's four-platform grid; any
    registered platform name is accepted — including a variant token like
    ``"noisy@sigma=0.05"``, materialised on demand from its family — and a
    platform that reuses another's results (``feinberg_fc`` → ``gpu``)
    pulls its dependency into the sweep automatically.  The convergence
    criterion resolves argument > active config > paper default.  Matrix
    construction, partitioning and operator quantisation come from the
    shared :func:`matrix_assets` cache — the solve loops are the only
    per-call work.
    """
    sspec = SOLVER_REGISTRY.get(solver)
    scale = resolve_scale(scale)
    names = (DEFAULT_PLATFORMS if platforms is None
             else platforms if isinstance(platforms, (str, bytes))
             else tuple(platforms))  # one-shot iterables: two passes below
    ensure_variant_platforms(names)
    order = resolve_platforms(names)
    crit = (criterion if criterion is not None
            else api_config.active().effective_criterion)

    info = PAPER_SUITE[sid]
    assets = matrix_assets(sid, scale)
    n = assets.A.shape[0]

    run = MatrixRun(sid=sid, name=info.name, solver=solver, n_rows=n,
                    nnz=int(assets.A.nnz), n_blocks=assets.blocked.n_blocks)
    ctx = _platform_context(sid, scale, sspec, assets, feinberg_spec)

    for name in order:
        pspec = PLATFORM_REGISTRY.get(name)
        if pspec.results_from is not None:
            # Reused numerics (resolve_platforms ordered the dependency
            # ahead of us): e.g. the functionally-correct baseline charges
            # its own timing model at the GPU's iteration count.
            res = run.results[pspec.results_from]
        else:
            op = pspec.operator(assets, ctx)
            res = sspec.solve(op, assets.b, criterion=crit)
        run.results[name] = res
        if res.converged or pspec.always_timed:
            run.times_s[name] = pspec.timing(ctx, res.iterations)
        else:
            run.times_s[name] = float("inf")
    return run


def run_request(request: RunRequest, attempt: int = 1) -> MatrixRun:
    """Execute one declarative :class:`RunRequest` (the distribution seam).

    ``attempt`` is the execution ordinal the engine threads through on
    retries/resubmissions.  The named fault-injection points live here —
    ``"solve"`` before the work, ``"result"`` after it — so both executors
    (inline and process-pool worker) consult the same
    deterministic plan (:mod:`repro.api.faults`); a fault-free run pays one
    emptiness check per point.
    """
    faults.consult("solve", sid=request.sid, solver=request.solver,
                   attempt=attempt)
    run = run_matrix(request.sid, request.solver, request.scale,
                     criterion=request.criterion,
                     platforms=request.platforms)
    faults.consult("result", sid=request.sid, solver=request.solver,
                   attempt=attempt)
    return run


def platform_operator(sid: int, scale: Optional[str] = None,
                      platform: str = "refloat", solver: str = "cg",
                      feinberg_spec: FeinbergSpec = FeinbergSpec(),
                      ) -> Tuple["MatrixAssets", Any]:
    """Build one platform's solve operator for a suite matrix.

    The single-platform slice of :func:`run_matrix`'s setup — the solve
    service uses it to construct the shared operator a coalesced lockstep
    batch iterates with.  Returns ``(assets, operator)``; the assets come
    from the shared :func:`matrix_assets` cache, so repeated batches on the
    same ``(sid, scale)`` pay the quantisation exactly once.  Platforms
    that reuse another's results (``results_from``, e.g. ``feinberg_fc``)
    have no operator of their own and are refused with a named error.
    """
    sspec = SOLVER_REGISTRY.get(solver)
    scale = resolve_scale(scale)
    ensure_variant_platforms((platform,))
    pspec = PLATFORM_REGISTRY.get(platform)
    if pspec.operator is None:
        raise ValueError(
            f"platform {platform!r} reuses {pspec.results_from!r}'s results "
            f"and has no operator of its own")
    assets = matrix_assets(sid, scale)
    ctx = _platform_context(sid, scale, sspec, assets, feinberg_spec)
    return assets, pspec.operator(assets, ctx)


def _suite_workers(n_tasks: int) -> int:
    """Worker count from the active config (>= 1), else one per task up to
    the CPUs this process may run on (:func:`repro.api.config.available_cpus`).

    ``REPRO_SUITE_WORKERS`` misconfigurations (zero, negatives,
    non-integers) raise the config module's named ``ValueError``.
    """
    workers = api_config.active().workers
    if workers is not None:
        return workers
    return max(1, min(n_tasks, api_config.available_cpus()))


def _suite_executor(executor: Optional[str] = None) -> str:
    """Resolve the executor: argument, then config/env, then ``serial``."""
    if executor is None:
        return api_config.active().executor
    if executor not in _EXECUTORS:
        raise ValueError(
            f"executor must be one of {_EXECUTORS}, got {executor!r}")
    return executor


def _suite_task(request: RunRequest, attempt: int = 1,
                fault_tokens: Optional[Tuple[str, ...]] = None) -> MatrixRun:
    """The solve task both executors submit: one :class:`RunRequest`.

    In a worker process the module-level asset cache is per-process
    state: the first task touching a ``(sid, scale)`` pair
    resolves the assets through its own hierarchy — a memory-mapped store
    attach when a store is configured (the parent pre-materialised every
    entry), a local build otherwise — and later tasks in the same worker
    reuse them.  The returned :class:`MatrixRun` carries only plain
    arrays/floats, and the request itself is a JSON-serialisable
    :class:`RunRequest`, the same object the solve daemon accepts.

    ``fault_tokens`` carries the parent's active fault plan as plain
    strings — the worker materialises them from its own kind registry
    (exactly how variant tokens rebuild platforms), so deterministic fault
    injection crosses the pickle boundary regardless of start method.
    Run inline, the tokens are this process's own plan and the sync is a
    no-op.
    """
    faults.sync_fault_plan(fault_tokens)
    return run_request(request, attempt=attempt)


def _ensure_store_task(sid: int, scale: str) -> None:
    """The pre-warm task: build one asset in a worker and publish it.

    In a worker process ``matrix_assets`` misses the (empty) store,
    builds, publishes the entry atomically *and* warms that worker's own
    in-process cache — so the cold pre-materialisation is as parallel as
    the sweep itself, and the parent never pins assets it will not solve.
    """
    matrix_assets(sid, scale)


def _prewarm_plan(requests: List[RunRequest]) -> Tuple[Tuple[int, str], ...]:
    """The ``(sid, scale)`` store entries a process fan-out must pre-warm.

    With a store configured, shipping bare ``(sid, solver, scale)`` keys is
    only cheap if the workers find the assets on disk — otherwise each
    worker regenerates them from scratch.  Entries already published need
    nothing; assets already in the parent's in-process cache are flushed
    to disk here without a rebuild; anything else becomes an
    :class:`~repro.api.graph.AssetNode` in the compiled task graph, built
    in a worker and gating exactly the solves of its ``(sid, scale)`` —
    independent solves overlap with the pre-warm, and a pre-build failure
    surfaces as a structured ``"asset"``-phase failure instead of being
    silently dropped (the old fire-and-forget futures swallowed theirs).
    """
    if store.store_root() is None:
        return ()
    plan: List[Tuple[int, str]] = []
    seen: set = set()
    for req in requests:
        pair = (req.sid, req.scale)
        if pair in seen:
            continue
        seen.add(pair)
        if store.has_entry(req.sid, req.scale):
            continue
        with _CACHE_LOCK:
            assets = _ASSETS.get(pair)
        if assets is not None:
            store.save_entry(req.sid, req.scale, assets.A, assets.b,
                             assets.blocked,
                             extras=_store_extras(assets.spec,
                                                  assets.refloat_op))
        else:
            plan.append(pair)
    return tuple(plan)


def _check_sids(sids: Optional[Iterable[int]]) -> Tuple[int, ...]:
    """The sweep's matrix axis: the full suite, or a validated subset."""
    if sids is None:
        return tuple(suite_ids())
    ids = tuple(int(sid) for sid in sids)
    for sid in ids:
        if sid not in PAPER_SUITE:
            raise KeyError(f"unknown suite matrix id {sid}; have "
                           f"{sorted(PAPER_SUITE)}")
    return ids


def _check_on_error(on_error: str) -> str:
    if on_error not in ("raise", "collect"):
        raise ValueError(
            f"on_error must be 'raise' or 'collect', got {on_error!r}")
    return on_error


def _backoff_sleep(backoff: float, attempt: int) -> None:
    """Deterministic exponential backoff before re-running ``attempt``:
    ``backoff * 2**(attempt-1)`` seconds (``backoff=0`` retries at once)."""
    if backoff > 0:
        time.sleep(backoff * (2 ** (attempt - 1)))


def _reraise(failures: List[RunFailure]) -> None:
    """Propagate the first failure under ``on_error="raise"``."""
    exc = failures[0].exception
    if exc is not None:
        raise exc
    raise RuntimeError(  # pragma: no cover - exceptions always ride along
        f"request failed: {failures[0].to_dict()}")


def _skip_dependents(sched: GraphScheduler, graph: TaskGraph, key: str,
                     phase: str, failures: List[RunFailure],
                     stats: ExecutionStats) -> None:
    """Transitively skip everything depending on a failed node.

    Each skipped node gets one structured ``"dependency"``-phase
    :class:`RunFailure` (``attempts=0`` — it never ran) naming the failed
    dependency and its phase, and bumps ``stats.skipped``; a dead baseline
    or asset node therefore degrades its dependents loudly instead of
    wedging the batch.
    """
    for skipped in sched.fail(key):
        stats.skipped += 1
        node = graph.payload(skipped)
        failures.append(RunFailure.from_dependency(
            key=skipped, dependency_key=key, dependency_phase=phase,
            sid=node.sid, solver=node.solver))


class _InlineExecutor:
    """The serial executor: runs each task on the calling thread.

    It has the process pool's ``submit(fn, *args)`` signature and returns
    an already-finished :class:`Future`, so serial and process execution
    share one scheduling loop (:func:`_execute`).
    """

    def submit(self, fn: Callable[..., Any], *args: Any) -> Future:
        fut: Future = Future()
        try:
            fut.set_result(fn(*args))
        except Exception as exc:
            fut.set_exception(exc)
        return fut


def _execute(graph: TaskGraph, workers: int, executor: str, on_error: str,
             on_result: Optional[Callable[[RunRequest, MatrixRun], None]],
             stats: ExecutionStats,
             ranks: Optional[Mapping[str, float]] = None,
             ) -> Tuple[Dict[str, MatrixRun], List[RunFailure]]:
    """The engine's one scheduler-driven submit/collect loop.

    The :class:`GraphScheduler` owns readiness — a node dispatches the
    moment its dependencies complete and a slot is free, with **no phase
    barriers**: variant solves overlap still-running baselines, asset
    pre-warm overlaps independent solves.  Of the ready nodes, the highest
    of ``ranks`` dispatches first (:class:`GraphScheduler`; without ranks,
    the first ready).  ``executor`` picks what runs a dispatched node:
    ``"serial"`` runs it inline on the calling thread
    (:class:`_InlineExecutor`) with a window of one, so nodes run one at a
    time in the scheduler's deterministic order; ``"process"`` submits it
    to the persistent process pool, ``workers`` wide.  State per node key:
    ``attempts`` (executions started — the fault plan and the retry budget
    both count these), ``breaks`` (process-pool breaks the node was in
    flight for).  Failure semantics:

    * an in-node exception consumes one retry (requeued with backoff)
      until the budget runs out, then records a ``"solve"`` (solve nodes)
      or ``"asset"`` (pre-warm nodes) failure and transitively skips the
      node's dependents with ``"dependency"`` failures;
    * a :class:`BrokenExecutor` means a worker died.  The pool is replaced,
      completed results are kept, and every in-flight node is requeued
      *without* charging its retry budget.  A broken pool fails every
      in-flight future indiscriminately, so the culprit cannot be read off
      the break itself: a node that has now been in flight for *two*
      breaks is instead re-run in **isolation** (alone in the fresh pool),
      and a node that breaks the pool while running alone is convicted
      and poison-pilled (a ``"pool"`` failure, dependents skipped) — one
      deterministic crasher cannot wedge the batch in a rebuild loop, and
      innocents caught in the crossfire always complete;
    * a node outliving ``request_timeout`` charges one retry (or records
      a ``"timeout"`` failure); on the process pool its worker is killed
      and the pool rebuilt (innocent in-flight nodes requeue without a
      charge).  The serial executor cannot interrupt a solve on its own
      thread and ignores the timeout.

    Submission caps in-flight nodes at ``workers`` (one inline), so the
    scheduler, not the pool's first-in-first-out call queue, picks what
    runs next: a high-rank node unlocked mid-run overtakes every
    lower-ranked node still waiting, and a node queued behind a hog never
    has its timeout clock started.
    """
    cfg = api_config.active()
    retries = cfg.request_retries
    inline = executor == "serial"
    timeout = None if inline else cfg.request_timeout
    sched = GraphScheduler(graph, ranks)
    results: Dict[str, MatrixRun] = {}
    failures: List[RunFailure] = []
    attempts: Dict[str, int] = dict.fromkeys(graph.keys(), 0)
    breaks: Dict[str, int] = dict.fromkeys(graph.keys(), 0)
    probe: deque = deque()  # twice-suspected: re-run in isolation
    solo: Optional[str] = None  # the node currently running alone
    inflight: Dict[Future, str] = {}
    deadlines: Dict[Future, float] = {}
    window = 1 if inline else workers
    pool = _InlineExecutor() if inline else _process_pool(workers)
    # A task raising BrokenExecutor inline broke no pool: it is an
    # ordinary failure.
    pool_break = () if inline else BrokenExecutor

    def fail(key: str, exc: BaseException, phase: str) -> None:
        node = graph.payload(key)
        failures.append(RunFailure.from_exception(
            exc, key=key, phase=phase, attempts=attempts[key],
            sid=node.sid, solver=node.solver))
        _skip_dependents(sched, graph, key, phase, failures, stats)

    def suspect(key: str) -> None:
        """Route one break victim: isolation after two breaks, else retry
        in the crowd (front of the ready queue, order preserved by the
        caller)."""
        breaks[key] += 1
        if breaks[key] >= 2:
            probe.appendleft(key)
        else:
            sched.requeue(key, front=True)

    def replace_pool(kill: bool = False) -> None:
        """Swap in a fresh pool (``kill`` SIGKILLs live workers first)."""
        nonlocal pool
        stats.pool_rebuilds += 1
        _discard_process_pool(kill=kill)
        pool = _process_pool(workers)

    def rebuild() -> None:
        """Replace the pool; every in-flight node becomes a suspect."""
        nonlocal solo
        for fut, key in reversed(list(inflight.items())):
            suspect(key)
        inflight.clear()
        deadlines.clear()
        solo = None
        replace_pool()

    def submit(key: str) -> bool:
        """Start one execution; False when the pool broke on submit."""
        node = graph.payload(key)
        attempts[key] += 1
        # Trace the dispatch first: the inline executor runs the task
        # inside submit.
        sched.start(key)
        try:
            if node.kind == "asset":
                fut = pool.submit(_ensure_store_task, node.sid, node.scale)
            else:
                fut = pool.submit(_suite_task, node.request, attempts[key],
                                  faults.plan_tokens())
        except BrokenExecutor:
            attempts[key] -= 1
            return False
        inflight[fut] = key
        if timeout is not None:
            deadlines[fut] = time.monotonic() + timeout
        return True

    try:
        while True:
            if probe and not inflight:
                # Isolation: one suspect alone in a fresh-or-idle pool, so
                # a break unambiguously convicts it.
                solo = probe.popleft()
                while not submit(solo):
                    replace_pool()
            elif solo is None and not probe:
                while sched.has_ready and len(inflight) < window:
                    key = sched.pop_ready()
                    if not submit(key):
                        sched.requeue(key, front=True)
                        rebuild()
            if not inflight:
                if probe or sched.has_ready:
                    continue
                # Nothing running, ready or probed: every remaining node
                # is terminal (failure propagation is immediate), so a
                # blocked node cannot be stranded here.
                break
            if timeout is not None:
                wait_for = max(0.0, min(deadlines.values())
                               - time.monotonic()) + 0.01
            else:
                wait_for = None
            done, _ = wait(list(inflight), timeout=wait_for,
                           return_when=FIRST_COMPLETED)
            broken = False
            for fut in done:
                key = inflight.pop(fut)
                deadlines.pop(fut, None)
                node = graph.payload(key)
                try:
                    run = fut.result()
                except pool_break:
                    broken = True
                    if solo == key:
                        breaks[key] += 1
                        stats.poisoned += 1
                        fail(key, BrokenExecutor(
                            f"request broke the process pool {breaks[key]} "
                            f"times (the last time running alone)"), "pool")
                        solo = None
                    else:
                        suspect(key)
                except Exception as exc:
                    if solo == key:
                        solo = None
                    if attempts[key] <= retries:
                        stats.retries += 1
                        _backoff_sleep(cfg.retry_backoff, attempts[key])
                        sched.requeue(key)
                    else:
                        fail(key, exc,
                             "asset" if node.kind == "asset" else "solve")
                else:
                    if solo == key:
                        solo = None
                    sched.complete(key)
                    if node.kind != "asset":
                        results[key] = run
                        if on_result is not None:
                            on_result(node.request, run)
            if broken:
                rebuild()
            if timeout is not None and not broken:
                now = time.monotonic()
                expired = [fut for fut, dl in deadlines.items() if dl <= now]
                if expired:
                    for fut in expired:
                        key = inflight.pop(fut)
                        deadlines.pop(fut)
                        stats.timeouts += 1
                        was_solo, solo = solo == key, (None if solo == key
                                                       else solo)
                        if attempts[key] <= retries:
                            stats.retries += 1
                            if was_solo:
                                probe.appendleft(key)  # still suspect
                            else:
                                sched.requeue(key)
                        else:
                            fail(key, TimeoutError(
                                f"request exceeded request_timeout="
                                f"{timeout}s"), "timeout")
                    # The hung workers cannot be cancelled cooperatively:
                    # kill the pool and requeue the innocent in-flight
                    # nodes uncharged (their execution never reached a
                    # verdict).
                    for fut, key in reversed(list(inflight.items())):
                        attempts[key] -= 1
                        sched.requeue(key, front=True)
                    inflight.clear()
                    deadlines.clear()
                    replace_pool(kill=True)
            if failures and on_error == "raise":
                break
    finally:
        stats.trace = sched.trace_dict()
        for fut in inflight:
            fut.cancel()
    if failures and on_error == "raise":
        _reraise(failures)
    return results, failures


def _ledger_ranks(graph: TaskGraph) -> Dict[str, float]:
    """Critical-path ranks from the solve costs the run ledger recorded.

    A solve node costs the sum, over its platforms that solve (a
    ``results_from`` platform reuses another's results), of the newest
    recorded ``iterations × nnz``
    (:func:`repro.experiments.ledger.solve_costs`); a platform without a
    record, or a request the registries cannot resolve (it fails in its
    own node), costs 0.  With no ledger the graph stays unranked.
    """
    recorded = run_ledger.solve_costs()
    if not recorded:
        return {}
    solving: Dict[Optional[Tuple[str, ...]], Tuple[str, ...]] = {}
    costs: Dict[str, float] = {}
    for key in graph.keys():
        node = graph.payload(key)
        if node.kind == "asset":
            continue
        req = node.request
        if req.platforms not in solving:
            names = (DEFAULT_PLATFORMS if req.platforms is None
                     else req.platforms)
            try:
                ensure_variant_platforms(names)
                solving[req.platforms] = tuple(
                    name for name in resolve_platforms(names)
                    if PLATFORM_REGISTRY.get(name).results_from is None)
            except (KeyError, ValueError):
                solving[req.platforms] = ()
        costs[key] = sum(
            recorded.get((req.scale, req.sid, req.solver, name), 0)
            for name in solving[req.platforms])
    return critical_path_ranks(graph, costs)


def _execute_requests(requests: List[RunRequest], workers: int,
                      executor: str, on_error: str = "raise",
                      on_result: Optional[Callable[[RunRequest, MatrixRun],
                                                   None]] = None,
                      edges: Iterable[Tuple[str, str]] = (),
                      ) -> Tuple[Dict[str, MatrixRun],
                                 List[RunFailure], ExecutionStats]:
    """Compile a batch of :class:`RunRequest`\\ s into a task graph and run it.

    The shared execution engine behind :func:`run_suite`,
    :func:`run_sweep` and :func:`run_specs`.  The batch — plus ``edges``,
    "needs baseline" ``(dependent_key, dependency_key)`` request-key
    pairs — compiles into a :class:`~repro.api.graph.TaskGraph`; on the
    process executor with a store configured, missing store entries join
    the graph as asset nodes gating exactly the solves that need them.
    :func:`_execute` then dispatches ready nodes with no phase barriers:
    inline one at a time for ``"serial"``, on the persistent process pool
    (``workers`` wide, even for one request; workers mmap-attach
    pre-warmed entries instead of rebuilding) for ``"process"``, so a
    crashing solve takes down a pool worker, never the caller.  A graph
    that can run more than one node at once dispatches longest first: its
    nodes are ranked by the solve costs the run ledger recorded
    (:func:`_ledger_ranks`); the inline executor reads no ledger.
    Fault-free results are identical on both executors and in any order.

    Fault tolerance — retries with deterministic backoff, per-request
    timeouts (process executor only), broken-pool recovery — resolves
    through the active :class:`RunConfig` (``request_timeout``/
    ``request_retries``/``retry_backoff``) and applies per node.  Returns
    ``(results, failures, stats)``: ``results`` maps each completed
    request's :meth:`~repro.api.specs.RunRequest.key` to its run (failed
    and skipped keys are absent), ``failures`` the structured
    :class:`RunFailure` records — including one ``"dependency"``-phase
    record per node skipped because something it needed failed —
    (``on_error="raise"`` re-raises the first failure instead), and
    ``stats`` the :class:`ExecutionStats` counters with the scheduler's
    per-node timing trace.  ``on_result(request, run)`` fires in the
    parent as each solve completes — the sweep journal's append hook.
    """
    _check_on_error(on_error)
    pooled = executor == "process"
    prewarm = _prewarm_plan(requests) if pooled else ()
    graph = compile_solve_graph(requests, edges=edges, assets=prewarm)
    stats = ExecutionStats(requests=len(requests), nodes=len(graph),
                           edges=graph.n_edges)
    ranks = (_ledger_ranks(graph) if pooled and min(workers, len(graph)) > 1
             else None)
    results, failures = _execute(graph, workers, executor, on_error,
                                 on_result, stats, ranks)
    return results, failures, stats


@dataclass
class _Plan:
    """A suite or sweep lowered to engine work.

    ``requests`` and ``edges`` are what :func:`_execute_requests` runs,
    under the resolved ``scale`` and ``criterion``; ``key`` is the
    run-cache key of the result; ``lift(results, failures, stats)`` builds
    that result from the engine's ``{request key: run}`` map (which may
    hold other plans' runs too), appends the spec's ledger record of the
    runs it executed, and caches a failure-free result.
    """

    key: tuple
    scale: str
    criterion: ConvergenceCriterion
    requests: List[RunRequest]
    edges: List[Tuple[str, str]]
    lift: Callable[..., Any]


def _cached(key: tuple) -> Any:
    with _CACHE_LOCK:
        return _CACHE.get(key)


def _lower_suite(solver: str, scale: Optional[str],
                 platforms: Optional[Iterable[str]],
                 sids: Optional[Iterable[int]],
                 criterion: Optional[ConvergenceCriterion]) -> _Plan:
    """Lower one solver's suite run: one request per matrix, no edges."""
    SOLVER_REGISTRY.get(solver)  # fail fast on unknown solvers
    scale = resolve_scale(scale)
    names = (DEFAULT_PLATFORMS if platforms is None
             else platforms if isinstance(platforms, (str, bytes))
             else tuple(platforms))  # one-shot iterables: two passes below
    # Materialise variant tokens BEFORE reading the registry generation:
    # first-time registrations bump it, and a key computed beforehand
    # could never be hit again.
    ensure_variant_platforms(names)
    order = resolve_platforms(names)
    ids = _check_sids(sids)
    crit = (criterion if criterion is not None
            else api_config.active().effective_criterion)
    # Per-name registry versions are part of the key: a replace=True
    # re-registration makes the same platform/solver name mean different
    # work (a name-only key would serve the stale sweep silently), while
    # registrations of *unrelated* names — say, a later sweep
    # materialising new variant tokens — leave this key, and therefore
    # the cached result, valid.
    key = (scale, solver, order, ids, crit,
           PLATFORM_REGISTRY.versions(order),
           SOLVER_REGISTRY.versions((solver,)))
    requests = [RunRequest(sid=sid, solver=solver, scale=scale,
                           platforms=order, criterion=crit) for sid in ids]

    def lift(results: Mapping[str, MatrixRun], failures: List[RunFailure],
             stats: ExecutionStats) -> SuiteResult:
        runs = SuiteResult((req.sid, results[req.key()]) for req in requests
                           if req.key() in results)
        runs.failures = tuple(failures)
        runs.stats = stats
        run_ledger.record_run(
            "suite",
            spec=SuiteSpec(solver=solver, scale=scale, platforms=order,
                           sids=ids),
            scale=scale, criterion=crit, runs=runs.values(),
            failures=failures, stats=stats, platforms=order,
            solvers=(solver,))
        if not failures:
            with _CACHE_LOCK:
                _CACHE[key] = runs
        return runs

    return _Plan(key, scale, crit, requests, [], lift)


def run_suite(solver: str, scale: Optional[str] = None,
              use_cache: bool = True,
              max_workers: Optional[int] = None,
              executor: Optional[str] = None,
              platforms: Optional[Iterable[str]] = None,
              sids: Optional[Iterable[int]] = None,
              criterion: Optional[ConvergenceCriterion] = None,
              config: Optional["api_config.RunConfig"] = None,
              on_error: str = "raise",
              ) -> "SuiteResult":
    """Run (or fetch) the suite evaluation for one solver.

    The per-matrix runs are independent.  ``executor`` — or the config —
    selects ``"serial"`` (default; runs them inline, one at a time, on the
    in-process asset cache) or ``"process"`` (GIL-free; each worker
    process keeps its own asset cache, the right choice for
    ``paper``-scale sweeps).  ``max_workers``, or the active config's
    worker count, sets the process-pool width (default: one worker per
    matrix up to the CPU count).  ``platforms``/``sids``
    restrict the sweep to a registered-platform subset and/or a matrix
    subset; subset results are identical to the corresponding slice of a
    full run.  ``criterion`` pins the convergence criterion (default: the
    active config's), and the resolved criterion is stamped into every
    :class:`RunRequest`, so process-pool workers honour it even though
    their own config froze at fork time.  ``config`` installs a
    :class:`RunConfig` for the duration of the call (otherwise the
    environment-derived config applies).  Results are identical to serial
    execution either way and returned in Table V order (or the ``sids``
    order given).

    Failure handling: retries/timeouts/pool recovery resolve through the
    active config (see :func:`_execute_requests`).  ``on_error="raise"``
    (the default) propagates the first unrecoverable failure;
    ``"collect"`` returns the completed runs with the failed cells'
    :class:`RunFailure` records on ``result.failures`` and the engine
    counters on ``result.stats``.  Partial (failure-carrying) results are
    never cached.
    """
    if config is not None:
        with api_config.use(config):
            return run_suite(solver, scale, use_cache, max_workers, executor,
                             platforms, sids, criterion, on_error=on_error)
    _check_on_error(on_error)
    plan = _lower_suite(solver, scale, platforms, sids, criterion)
    executor = _suite_executor(executor)
    if use_cache:
        cached = _cached(plan.key)
        if cached is not None:
            return cached
    workers = (max_workers if max_workers is not None
               else _suite_workers(len(plan.requests)))
    return plan.lift(*_execute_requests(plan.requests, workers, executor,
                                        on_error=on_error))


def run_spec(spec: SuiteSpec, use_cache: bool = True,
             config: Optional["api_config.RunConfig"] = None,
             on_error: str = "raise") -> "SuiteResult":
    """Execute a declarative :class:`SuiteSpec`.

    The spec is pure data (lossless JSON round-trip), so
    ``run_spec(SuiteSpec.from_json(text))`` reproduces a sweep received
    across a process or host boundary bit-identically.
    """
    return run_suite(spec.solver, scale=spec.scale, use_cache=use_cache,
                     platforms=spec.platforms, sids=spec.sids, config=config,
                     on_error=on_error)


@dataclass
class SweepResult:
    """Everything one :func:`run_sweep` produced, keyed by variant token.

    ``runs[(solver, token)][sid]`` is a :class:`MatrixRun` whose results
    hold the variant *and* the grafted baseline platforms, so
    ``run.speedup(token)`` works exactly as in a suite run.  With a
    tolerance axis (``spec.tols``), run keys grow a trailing element —
    ``runs[(solver, token, tol)][sid]`` — and :meth:`variant` takes the
    tolerance to select.  ``params`` maps each token back to its grid
    point.  ``failures``/``stats`` carry the engine's fault-tolerance
    metadata exactly as on :class:`SuiteResult` — under
    ``on_error="collect"``, cells whose request failed are simply absent
    from their ``runs`` dict.
    """

    spec: SweepSpec
    scale: str
    criterion: ConvergenceCriterion
    runs: Dict[Tuple[str, ...], Dict[int, MatrixRun]]
    params: Dict[str, Dict[str, Any]]
    failures: Tuple[RunFailure, ...] = ()
    stats: Optional[ExecutionStats] = None

    @property
    def tokens(self) -> Tuple[str, ...]:
        """The swept variant tokens, in grid-expansion order."""
        return tuple(self.params)

    @property
    def sids(self) -> Tuple[int, ...]:
        first = next(iter(self.runs.values()))
        return tuple(first)

    def variant(self, token: str, solver: Optional[str] = None,
                tol: Optional[float] = None) -> Dict[int, MatrixRun]:
        """All matrix runs of one variant (default: the first solver axis;
        with a tolerance axis, the first tolerance unless ``tol`` picks
        another)."""
        key: Tuple[str, ...] = (solver or self.spec.solvers[0], token)
        if self.spec.tols is not None:
            key += (float(tol if tol is not None else self.spec.tols[0]),)
        return self.runs[key]

    def _cell_dict(self, solver: str, token: str,
                   tol: Optional[float]) -> Dict[str, Any]:
        return {str(sid): run.to_dict()
                for sid, run in self.variant(token, solver, tol).items()}

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe summary: spec + per-variant, per-solver, per-sid runs.

        Without a tolerance axis the shape is the historical one (byte
        identical to earlier releases); with one, each variant gains a
        ``"tols"`` level keyed by the canonical float spelling.
        """
        from repro.api.sweep import _format_value

        def solvers_dict(tol: Optional[float], token: str) -> Dict[str, Any]:
            return {solver: self._cell_dict(solver, token, tol)
                    for solver in self.spec.solvers}

        variants: Dict[str, Any] = {}
        for token, params in self.params.items():
            entry: Dict[str, Any] = {"params": dict(params)}
            if self.spec.tols is None:
                entry["solvers"] = solvers_dict(None, token)
            else:
                entry["tols"] = {
                    _format_value(float(tol)): {
                        "solvers": solvers_dict(tol, token)}
                    for tol in self.spec.tols}
            variants[token] = entry
        return {
            "spec": self.spec.to_dict(),
            "scale": self.scale,
            "variants": variants,
            "failures": [f.to_dict() for f in self.failures],
            "stats": None if self.stats is None else self.stats.to_dict(),
        }


def _graft_baseline(variant_run: MatrixRun, baseline_run: MatrixRun,
                    ) -> MatrixRun:
    """A variant's run with the shared baseline results merged in.

    The baseline platforms were solved exactly once per (solver, sid) —
    merging reuses those results the way ``results_from`` does inside a
    single run, so ``speedup()`` sees its reference without the sweep
    re-solving it per grid point.
    """
    return MatrixRun(
        sid=variant_run.sid, name=variant_run.name,
        solver=variant_run.solver, n_rows=variant_run.n_rows,
        nnz=variant_run.nnz, n_blocks=variant_run.n_blocks,
        results={**baseline_run.results, **variant_run.results},
        times_s={**baseline_run.times_s, **variant_run.times_s})


def _lower_sweep(spec: SweepSpec,
                 criterion: Optional[ConvergenceCriterion]) -> _Plan:
    """Lower a sweep: per tolerance, one baseline request per (solver,
    sid), then one request per (solver, variant, sid), each variant
    needing its (solver, sid) baseline."""
    scale = resolve_scale(spec.scale)
    variants = spec.variants()
    ensure_variant_platforms([token for token, _ in variants])
    if spec.baseline:
        # The baseline set may name variant tokens too.
        ensure_variant_platforms(spec.baseline)
        baseline = resolve_platforms(spec.baseline)
    else:
        baseline = ()
    for solver in spec.solvers:
        SOLVER_REGISTRY.get(solver)  # fail fast on unknown solvers
    ids = _check_sids(spec.sids)
    crit = (criterion if criterion is not None
            else api_config.active().effective_criterion)
    # The tolerance axis: each tol re-runs the grid under the base
    # criterion with its tol replaced.  The per-cell criterion is stamped
    # into every RunRequest below, so request keys — and therefore journal
    # records and engine caching — distinguish the tolerance cells.
    crits = (tuple(replace(crit, tol=t) for t in spec.tols)
             if spec.tols else (crit,))
    swept = baseline + tuple(token for token, _ in variants)
    key = ("sweep", spec, scale, crit,
           PLATFORM_REGISTRY.versions(swept),
           SOLVER_REGISTRY.versions(spec.solvers))

    def request(solver: str, platforms: Tuple[str, ...], sid: int,
                c: ConvergenceCriterion) -> RunRequest:
        return RunRequest(sid=sid, solver=solver, scale=scale,
                          platforms=platforms, criterion=c)

    requests: List[RunRequest] = []
    edges: List[Tuple[str, str]] = []
    for c in crits:
        cells = [request(solver, (token,), sid, c)
                 for solver in spec.solvers
                 for token, _ in variants for sid in ids]
        if baseline:
            requests += [request(solver, baseline, sid, c)
                         for solver in spec.solvers for sid in ids]
            # "Needs baseline" edges: each variant cell depends on its
            # (solver, sid) baseline request, so the scheduler grafts by
            # dependency instead of a solve-all-baselines-first barrier.
            edges += [(cell.key(),
                       request(cell.solver, baseline, cell.sid, c).key())
                      for cell in cells if cell.platforms != baseline]
        requests += cells

    def lift(results: Mapping[str, MatrixRun], failures: List[RunFailure],
             stats: ExecutionStats,
             replayed: Optional[Mapping[str, MatrixRun]] = None,
             ) -> SweepResult:
        by_key = {**(replayed or {}), **results}
        # Without a tolerance axis the run keys stay the historical
        # (solver, token) pairs; with one they grow a trailing tol element.
        runs: Dict[Tuple[str, ...], Dict[int, MatrixRun]] = {}
        for c in crits:
            for solver in spec.solvers:
                for token, _ in variants:
                    cell = {}
                    for sid in ids:
                        vrun = by_key.get(
                            request(solver, (token,), sid, c).key())
                        if vrun is None:
                            continue  # failed cell under on_error="collect"
                        if baseline:
                            brun = by_key.get(
                                request(solver, baseline, sid, c).key())
                            if brun is not None:
                                vrun = _graft_baseline(vrun, brun)
                        cell[sid] = vrun
                    rkey = ((solver, token) if spec.tols is None
                            else (solver, token, float(c.tol)))
                    runs[rkey] = cell
        result = SweepResult(spec=spec, scale=scale, criterion=crit,
                             runs=runs,
                             params={token: params
                                     for token, params in variants},
                             failures=tuple(failures), stats=stats)
        # The ledger gets the runs this call executed (not the replayed
        # ones, nor other specs' runs in a shared graph), in request order.
        own = dict.fromkeys(req.key() for req in requests)
        run_ledger.record_run(
            "sweep", spec=spec, scale=scale, criterion=crit,
            runs=[results[k] for k in own if k in results],
            failures=failures, stats=stats, platforms=swept,
            solvers=spec.solvers)
        if not failures:
            with _CACHE_LOCK:
                _CACHE[key] = result
        return result

    return _Plan(key, scale, crit, requests, edges, lift)


def run_sweep(spec: SweepSpec, use_cache: bool = True,
              max_workers: Optional[int] = None,
              executor: Optional[str] = None,
              criterion: Optional[ConvergenceCriterion] = None,
              config: Optional["api_config.RunConfig"] = None,
              on_error: str = "raise",
              journal: Optional[Any] = None,
              resume: bool = False) -> SweepResult:
    """Execute a declarative :class:`SweepSpec` scenario sweep.

    The grid expands to variant platforms (materialised from their family,
    in this process and in every worker), and every (solver, variant, sid)
    cell becomes one :class:`RunRequest` — all of them run together
    through the same serial/process executor and asset store as
    :func:`run_suite`, so on the process pool a single-matrix sigma sweep
    parallelises exactly like a whole-suite run.  Baseline platforms are solved once per
    (solver, sid) and grafted into each variant's :class:`MatrixRun`.
    ``criterion``/``config`` resolve as in :func:`run_suite`, with the
    resolved criterion stamped into every request.

    ``on_error`` behaves as in :func:`run_suite` (``"collect"`` leaves
    failed cells out of ``runs`` and attaches their records).  ``journal``
    attaches a crash-durable progress log
    (:class:`repro.experiments.journal.SweepJournal`): a path, or the
    string ``"auto"`` for the store-rooted default; each completed cell is
    appended as it arrives.  ``resume=True`` replays a previous journal
    first and solves only the cells it is missing — the journal's header
    must match this sweep.  A journaled run always executes (the run cache
    is bypassed on read) so the journal ends up complete.
    """
    if config is not None:
        with api_config.use(config):
            return run_sweep(spec, use_cache, max_workers, executor,
                             criterion, on_error=on_error, journal=journal,
                             resume=resume)
    _check_on_error(on_error)
    if resume and journal is None:
        raise ValueError(
            "resume=True needs a journal (a path, or 'auto' for the "
            "store-rooted default)")
    plan = _lower_sweep(spec, criterion)
    executor = _suite_executor(executor)
    if use_cache and journal is None:
        cached = _cached(plan.key)
        if cached is not None:
            return cached

    jr = None
    journaled: Dict[str, MatrixRun] = {}
    if journal is not None:
        from repro.experiments.journal import (
            SweepJournal,
            default_journal_path,
        )

        path = (default_journal_path(spec, plan.scale, plan.criterion)
                if journal == "auto" else journal)
        jr = SweepJournal(path)
        if resume:
            journaled = jr.load(spec, plan.scale, plan.criterion)
    to_run = [req for req in plan.requests if req.key() not in journaled]
    # Cells already journaled satisfy their dependents by replay, so only
    # edges with both endpoints still to run are compiled.
    to_run_keys = {req.key() for req in to_run}
    edges = [(vkey, bkey) for vkey, bkey in plan.edges
             if vkey in to_run_keys and bkey in to_run_keys]
    workers = (max_workers if max_workers is not None
               else _suite_workers(len(to_run) or 1))
    if jr is not None:
        jr.open(spec, plan.scale, plan.criterion, resume=resume)

        def on_result(req: RunRequest, run: MatrixRun) -> None:
            jr.record(req.key(), run)
    else:
        on_result = None
    try:
        results, failures, stats = _execute_requests(
            to_run, workers, executor, on_error=on_error,
            on_result=on_result, edges=edges)
    finally:
        if jr is not None:
            jr.close()
    stats.journal_skipped = len(plan.requests) - len(to_run)
    return plan.lift(results, failures, stats, replayed=journaled)


def run_specs(specs: Iterable[Union[SuiteSpec, SweepSpec]],
              ) -> List[Union[SuiteResult, SweepResult]]:
    """Run several suite and sweep specs as one task graph.

    Each spec lowers to its requests and "needs baseline" edges exactly as
    :func:`run_spec` and :func:`run_sweep` lower it; the union runs in one
    engine call, so no spec waits behind another's last solve, the process
    pool ranks all of them together, and a request two specs share runs
    once.  Each spec's result is then cached under the key those
    functions look up, with its own ledger record; all of them carry the
    one call's :class:`ExecutionStats`.  Results return in spec order, and
    specs already cached run nothing.  Executor, worker count and
    criterion come from the active config; the first failure raises.
    """
    plans = [_lower_sweep(spec, None) if isinstance(spec, SweepSpec)
             else _lower_suite(spec.solver, spec.scale, spec.platforms,
                               spec.sids, None)
             for spec in specs]
    executor = _suite_executor()
    hits = [_cached(plan.key) for plan in plans]
    todo = [plan for plan, hit in zip(plans, hits) if hit is None]
    if todo:
        requests = list({req.key(): req for plan in todo
                         for req in plan.requests}.values())
        edges = [edge for plan in todo for edge in plan.edges]
        outcome = _execute_requests(requests, _suite_workers(len(requests)),
                                    executor, edges=edges)
    return [hit if hit is not None else plan.lift(*outcome)
            for plan, hit in zip(plans, hits)]


def geometric_mean(values: List[float]) -> float:
    """GMN over finite positive entries (the paper's summary statistic)."""
    vals = [v for v in values if v > 0 and math.isfinite(v)]
    if not vals:
        return float("nan")
    return float(np.exp(np.mean(np.log(vals))))
