"""Dependency-aware task graph and scheduler for the run engine.

The engine used to hand-roll dependency order with phase barriers: store
pre-materialisation fanned out first, every baseline solved before any
variant, ``resolve_platforms`` walking ``results_from`` chains with its
own recursive visitor.  This module replaces all three orderings with one
structure:

* a :class:`TaskGraph` — nodes are units of work (typed below), edges are
  "the dependent needs the dependency's output";
* a :class:`GraphScheduler` — hands out *ready* nodes (all dependencies
  complete) highest rank first, unlocks dependents as nodes complete, and
  transitively marks dependents of a failed node as *skipped* so a dead
  baseline cannot wedge the batch.  :func:`critical_path_ranks` turns
  per-node costs into ranks, so the longest chain of work starts first.

There are no phase barriers anywhere: a variant solve for sid A becomes
ready the moment A's baseline completes, regardless of how many other
baselines are still running, and store pre-warm nodes overlap with every
solve that does not need them.

Node types (the engine's vocabulary; the graph itself is type-agnostic):

* :class:`SolveNode` — one :class:`~repro.api.specs.RunRequest`;
* :class:`BaselineNode` — a solve other solves graft results from (the
  dependency side of a "needs baseline" edge);
* :class:`AssetNode` — materialise one ``(sid, scale)`` store entry so
  process-pool workers mmap-attach instead of rebuilding.

Scheduling state is engine-agnostic: the scheduler never executes
anything, it only answers "what may run now" — which is exactly what the
engine's one loop needs, whether it runs nodes inline or on a
persistent process pool.  Cycle detection raises the named
:class:`GraphCycleError` (a ``ValueError``) at scheduling time, and every
dispatch/finish is recorded in a per-node timing trace so the overlap is
observable from :class:`~repro.experiments.common.ExecutionStats`.

This module deliberately sits at the bottom of the API layering — it
imports only :mod:`repro.api.specs` — so the registry, sweep and faults
modules can all build on it without cycles.
"""

from __future__ import annotations

import heapq
import itertools
import time
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple

from repro.api.specs import RunRequest

__all__ = [
    "NODE_STATES",
    "AssetNode",
    "BaselineNode",
    "GraphCycleError",
    "GraphScheduler",
    "NodeTrace",
    "SolveNode",
    "TaskGraph",
    "critical_path_ranks",
]

#: Every state a scheduled node moves through.  ``pending`` nodes wait on
#: dependencies, ``ready`` nodes may dispatch, ``running`` nodes are owned
#: by an executor; ``done``/``failed``/``skipped`` are terminal.
NODE_STATES = ("pending", "ready", "running", "done", "failed", "skipped")

_TERMINAL = frozenset(("done", "failed", "skipped"))


class GraphCycleError(ValueError):
    """The task graph contains a dependency cycle (named members ride
    along in ``members``; a ``ValueError`` so callers that matched the
    pre-graph cycle errors keep working)."""

    def __init__(self, message: str, members: Tuple[str, ...] = ()) -> None:
        super().__init__(message)
        self.members = tuple(members)


# ----------------------------------------------------------------------
# Typed nodes


@dataclass(frozen=True)
class SolveNode:
    """One declarative solve: the node form of a :class:`RunRequest`."""

    request: RunRequest

    kind = "solve"

    @property
    def key(self) -> str:
        return self.request.key()

    @property
    def sid(self) -> int:
        return self.request.sid

    @property
    def solver(self) -> Optional[str]:
        return self.request.solver


@dataclass(frozen=True)
class BaselineNode(SolveNode):
    """A solve whose results other solves graft (the dependency side of a
    "needs baseline" edge).  Identical execution semantics to
    :class:`SolveNode`; the distinct kind makes baseline scheduling
    observable in traces and tests."""

    kind = "baseline"


@dataclass(frozen=True)
class AssetNode:
    """Materialise one ``(sid, scale)`` asset-store entry.

    The dependency side of a "needs store entry" edge: solves of the same
    ``(sid, scale)`` wait for it, everything else overlaps with it.  An
    asset node that fails records an ``"asset"``-phase failure — the fix
    for pre-warm futures whose errors were silently dropped.
    """

    sid: int
    scale: str

    kind = "asset"

    @property
    def key(self) -> str:
        return self.key_for(self.sid, self.scale)

    @property
    def solver(self) -> Optional[str]:
        return None

    @staticmethod
    def key_for(sid: int, scale: str) -> str:
        return f"asset:{sid}@{scale}"


# ----------------------------------------------------------------------
# The graph


class TaskGraph:
    """A small directed dependency graph keyed by node-identity strings.

    Nodes are added with an optional payload (the engine stores its typed
    node objects); edges say "``dependent`` needs ``dependency``".
    Insertion order is preserved and defines the deterministic tie-break:
    :meth:`topological_order` emits equally-ready nodes in the order they
    were added, and so does the scheduler for the nodes ready at its start.
    """

    def __init__(self) -> None:
        self._payloads: Dict[str, Any] = {}
        self._deps: Dict[str, List[str]] = {}
        self._dependents: Dict[str, List[str]] = {}
        self._n_edges = 0

    def add(self, key: str, payload: Any = None) -> str:
        """Add one node; duplicate keys raise ``ValueError`` (two different
        work units must never share an identity)."""
        if key in self._payloads:
            raise ValueError(f"task graph already has a node {key!r}")
        self._payloads[key] = payload
        self._deps[key] = []
        self._dependents[key] = []
        return key

    def add_node(self, node: Any) -> str:
        """Add a typed node (anything with ``.key``) as its own payload."""
        return self.add(node.key, node)

    def depend(self, dependent: str, dependency: str) -> None:
        """Record "``dependent`` needs ``dependency``" (idempotent).

        Unknown keys raise ``KeyError`` naming the missing node; a
        self-dependency is a cycle by definition and raises
        :class:`GraphCycleError` immediately.
        """
        for key in (dependent, dependency):
            if key not in self._payloads:
                raise KeyError(f"task graph has no node {key!r}")
        if dependent == dependency:
            raise GraphCycleError(
                f"node {dependent!r} cannot depend on itself",
                members=(dependent,))
        if dependency in self._deps[dependent]:
            return
        self._deps[dependent].append(dependency)
        self._dependents[dependency].append(dependent)
        self._n_edges += 1

    # -- introspection --------------------------------------------------

    def __contains__(self, key: object) -> bool:
        return key in self._payloads

    def __len__(self) -> int:
        return len(self._payloads)

    @property
    def n_edges(self) -> int:
        return self._n_edges

    def keys(self) -> Tuple[str, ...]:
        """Every node key, in insertion order."""
        return tuple(self._payloads)

    def payload(self, key: str) -> Any:
        if key not in self._payloads:
            raise KeyError(f"task graph has no node {key!r}")
        return self._payloads[key]

    def dependencies(self, key: str) -> Tuple[str, ...]:
        self.payload(key)  # canonical unknown-key error
        return tuple(self._deps[key])

    def dependents(self, key: str) -> Tuple[str, ...]:
        self.payload(key)
        return tuple(self._dependents[key])

    def topological_order(self) -> Tuple[str, ...]:
        """Every key, dependencies before dependents; raises
        :class:`GraphCycleError` naming the cycle's members when no such
        order exists.

        Ties break on *insertion index* (a heap, not a FIFO): of all
        dispatchable nodes, the earliest-added runs first.  When the
        graph was built dependencies-before-dependents — every compiler
        in this package is — the result is exactly the insertion order,
        which is how ``resolve_platforms`` keeps its historical
        "dependencies first, then the requested names in the order
        given" contract on top of the graph.
        """
        keys = list(self._payloads)
        index = {key: i for i, key in enumerate(keys)}
        waiting = {key: len(deps) for key, deps in self._deps.items()}
        heap = [index[key] for key in keys if waiting[key] == 0]
        heapq.heapify(heap)
        order: List[str] = []
        while heap:
            key = keys[heapq.heappop(heap)]
            order.append(key)
            for dep in self._dependents[key]:
                waiting[dep] -= 1
                if waiting[dep] == 0:
                    heapq.heappush(heap, index[dep])
        if len(order) != len(self._payloads):
            members = tuple(key for key in keys if waiting[key] > 0)
            raise GraphCycleError(
                f"task graph has a dependency cycle through "
                f"{members[0]!r} ({len(members)} nodes cannot be ordered)",
                members=members)
        return tuple(order)


# ----------------------------------------------------------------------
# The scheduler


@dataclass
class NodeTrace:
    """Per-node scheduling record: dispatch count and monotonic timestamps
    (seconds relative to the scheduler's construction, so traces from one
    run compare directly)."""

    kind: str
    state: str = "pending"
    dispatches: int = 0
    first_dispatch: Optional[float] = None
    last_dispatch: Optional[float] = None
    finished: Optional[float] = None

    def to_dict(self) -> Dict[str, Any]:
        return {
            "kind": self.kind, "state": self.state,
            "dispatches": self.dispatches,
            "first_dispatch": self.first_dispatch,
            "last_dispatch": self.last_dispatch,
            "finished": self.finished,
        }


class GraphScheduler:
    """Dependency-aware dispatch state over one :class:`TaskGraph`.

    The scheduler owns *readiness*, not execution: executors pop ready
    nodes (:meth:`pop_ready`), report outcomes (:meth:`complete` /
    :meth:`fail`), and may hand a node back (:meth:`requeue`) when a
    dispatch must be retried — the engine's retry budgets, isolation
    probes and pool rebuilds all reduce to requeues.  Construction
    validates the graph is acyclic (raising :class:`GraphCycleError`), and
    :meth:`fail` transitively skips every dependent of a failed node so
    nothing waits forever on work that can no longer happen.

    Ready nodes wait in a heap keyed by (rank, descending; readiness
    sequence).  ``ranks`` maps node keys to priorities (absent keys rank
    0).  Equal ranks dispatch in the order the nodes became ready: the
    nodes ready at construction in graph insertion order, each node
    unlocked later behind every node already waiting, and a
    :meth:`requeue` at the back, or with ``front=True`` ahead of every
    waiting node of its rank.  An unranked graph therefore dispatches
    first-ready, first-out.
    """

    def __init__(self, graph: TaskGraph,
                 ranks: Optional[Mapping[str, float]] = None) -> None:
        graph.topological_order()  # raises GraphCycleError on cycles
        self.graph = graph
        self._ranks = dict(ranks or {})
        self._waiting = {key: len(graph.dependencies(key))
                         for key in graph.keys()}
        self._ready: List[Tuple[float, int, str]] = []
        self._back = itertools.count()
        self._front = itertools.count(-1, -1)
        self._t0 = time.monotonic()
        self.trace: Dict[str, NodeTrace] = {
            key: NodeTrace(kind=getattr(graph.payload(key), "kind", "task"))
            for key in graph.keys()}
        for key in graph.keys():
            if self._waiting[key] == 0:
                self._push(key)

    def _push(self, key: str, front: bool = False) -> None:
        self.trace[key].state = "ready"
        seq = next(self._front) if front else next(self._back)
        heapq.heappush(self._ready, (-self._ranks.get(key, 0), seq, key))

    # -- dispatch -------------------------------------------------------

    @property
    def has_ready(self) -> bool:
        return bool(self._ready)

    def pop_ready(self) -> str:
        """The ready node of highest rank, earliest ready among equals."""
        key = heapq.heappop(self._ready)[2]
        self.trace[key].state = "running"
        return key

    def start(self, key: str) -> None:
        """Record one dispatch of ``key`` (again, on every re-dispatch)."""
        now = time.monotonic() - self._t0
        trace = self.trace[key]
        trace.state = "running"
        trace.dispatches += 1
        trace.last_dispatch = now
        if trace.first_dispatch is None:
            trace.first_dispatch = now

    def requeue(self, key: str, front: bool = False) -> None:
        """Hand a popped/dispatched node back for a later dispatch."""
        if self.trace[key].state in _TERMINAL:
            raise ValueError(f"cannot requeue finished node {key!r}")
        self._push(key, front)

    # -- outcomes -------------------------------------------------------

    def complete(self, key: str) -> Tuple[str, ...]:
        """Mark ``key`` done; returns (and queues) the newly-ready keys."""
        self._finish(key, "done")
        unlocked = []
        for dep in self.graph.dependents(key):
            self._waiting[dep] -= 1
            if self._waiting[dep] == 0 and self.trace[dep].state == "pending":
                self._push(dep)
                unlocked.append(dep)
        return tuple(unlocked)

    def fail(self, key: str) -> Tuple[str, ...]:
        """Mark ``key`` failed; transitively skip its dependents.

        Returns the skipped keys (deterministic graph-insertion order) so
        the engine can attach one structured ``"dependency"`` failure per
        skipped node.  Dependents already finished (a requeue-after-
        success cannot happen) are left untouched.
        """
        self._finish(key, "failed")
        doomed: List[str] = []
        stack = list(self.graph.dependents(key))
        seen = set()
        while stack:
            dep = stack.pop()
            if dep in seen or self.trace[dep].state in _TERMINAL:
                continue
            seen.add(dep)
            doomed.append(dep)
            stack.extend(self.graph.dependents(dep))
        skipped = tuple(k for k in self.graph.keys() if k in seen)
        for dep in skipped:
            self._finish(dep, "skipped")
        return skipped

    def _finish(self, key: str, state: str) -> None:
        trace = self.trace[key]
        trace.state = state
        trace.finished = time.monotonic() - self._t0

    # -- aggregate state ------------------------------------------------

    def state(self, key: str) -> str:
        return self.trace[key].state

    @property
    def is_finished(self) -> bool:
        return all(t.state in _TERMINAL for t in self.trace.values())

    @property
    def n_skipped(self) -> int:
        return sum(1 for t in self.trace.values() if t.state == "skipped")

    def trace_dict(self) -> Dict[str, Dict[str, Any]]:
        """JSON-safe per-node trace, in graph insertion order."""
        return {key: t.to_dict() for key, t in self.trace.items()}


def critical_path_ranks(graph: TaskGraph, costs: Mapping[str, float],
                        ) -> Dict[str, float]:
    """Each node's cost plus the largest rank among its dependents.

    A node's rank is the cost of the longest chain of work it starts, so
    dispatching highest rank first starts the critical path first: a
    baseline ranks as its own cost plus its costliest dependent's rank,
    and an asset node as its costliest solve.  Absent costs count 0.
    """
    ranks: Dict[str, float] = {}
    for key in reversed(graph.topological_order()):
        ranks[key] = costs.get(key, 0) + max(
            (ranks[dep] for dep in graph.dependents(key)), default=0)
    return ranks


def compile_solve_graph(requests: Iterable[RunRequest],
                        edges: Iterable[Tuple[str, str]] = (),
                        assets: Iterable[Tuple[int, str]] = (),
                        ) -> TaskGraph:
    """Compile a batch of requests (plus typed dependencies) into a graph.

    ``edges`` are "needs baseline" pairs of request keys
    ``(dependent, dependency)`` — the dependency side becomes a
    :class:`BaselineNode`.  ``assets`` lists ``(sid, scale)`` store
    entries to materialise; every request touching that pair gains a
    "needs store entry" edge.  Asset nodes are inserted *first* so the
    scheduler dispatches pre-warm ahead of the solves racing it.
    Duplicate request keys collapse to one node (identical identity means
    identical work), and a request that is its own baseline needs no edge.
    """
    edges = tuple(edges)
    graph = TaskGraph()
    for sid, scale in assets:
        node = AssetNode(sid=sid, scale=scale)
        if node.key not in graph:
            graph.add_node(node)
    baseline_keys = {dependency for _, dependency in edges}
    for request in requests:
        key = request.key()
        if key in graph:
            continue
        node = (BaselineNode(request) if key in baseline_keys
                else SolveNode(request))
        graph.add_node(node)
        asset_key = AssetNode.key_for(request.sid, request.scale)
        if asset_key in graph:
            graph.depend(key, asset_key)
    for dependent, dependency in edges:
        if dependent != dependency:
            graph.depend(dependent, dependency)
    return graph
