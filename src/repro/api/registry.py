"""Name-keyed registries for SpMV platforms and solvers.

The evaluation used to hardcode its platform grid (string keys inline in
``run_matrix``) and its solver metadata (two parallel dicts).  Both are now
data: a :class:`PlatformSpec` bundles an operator factory with a timing
model, a :class:`SolverSpec` bundles the solve callable with its
per-iteration operation shape, and the module-level registries map names to
specs.  ``run_matrix``/``run_suite`` iterate the registry, so registering a
new platform or solver — from user code, without touching
``repro/experiments/common.py`` — is all it takes to sweep it::

    from repro.api import PlatformContext, register_platform

    @register_platform("exact_flat", timing=lambda ctx, it: it * 1e-6)
    def _exact_flat(assets, ctx):
        return assets.exact_op

    run_suite("cg", platforms=["gpu", "exact_flat"])

Builtin registrations live in :mod:`repro.api.platforms` and
:mod:`repro.api.solvers`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, Iterator, Optional, Tuple

__all__ = [
    "PlatformContext",
    "PlatformSpec",
    "SolverSpec",
    "Registry",
    "PLATFORM_REGISTRY",
    "SOLVER_REGISTRY",
    "register_platform",
    "register_solver",
    "resolve_platforms",
]


@dataclass(frozen=True)
class PlatformContext:
    """Everything a platform's factories may need about the current run.

    Handed to both the operator factory and the timing callable, so a
    platform can be registered without importing anything from
    ``repro.experiments``: the context carries the matrix identity/shape,
    the partition size, the per-matrix format specs, and the active
    solver's per-iteration operation shape.
    """

    sid: int
    scale: str
    solver: str
    n_rows: int
    nnz: int
    n_blocks: int
    spec: Any                 # ReFloatSpec for this matrix (Table VII)
    feinberg_spec: Any        # FeinbergSpec for the [32] platform
    spmvs_per_iteration: int
    vector_ops_per_iteration: int
    gpu_vector_kernels_per_iteration: int


@dataclass(frozen=True)
class PlatformSpec:
    """One sweepable platform: an operator factory plus a timing model.

    ``operator(assets, ctx)`` builds (or fetches from ``assets``) the SpMV
    operator the solver iterates with; ``timing(ctx, iterations)`` converts
    an iteration count into modelled seconds.  ``results_from`` names
    another platform whose :class:`SolverResult` this one reuses instead of
    solving (the functionally-correct baseline reuses the GPU numerics);
    such specs carry ``operator=None``.  ``always_timed`` charges the
    timing model even for non-converged results (reference platforms);
    otherwise non-convergence is reported as infinite time (the paper's NC).
    """

    name: str
    operator: Optional[Callable[[Any, PlatformContext], Any]]
    timing: Callable[[PlatformContext, int], float]
    results_from: Optional[str] = None
    always_timed: bool = False
    description: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("platform name must be non-empty")
        if self.operator is None and self.results_from is None:
            raise ValueError(
                f"platform {self.name!r} needs an operator factory or a "
                f"results_from platform to reuse")
        if self.results_from == self.name:
            raise ValueError(
                f"platform {self.name!r} cannot reuse its own results")


@dataclass(frozen=True)
class SolverSpec:
    """One registered solver: the callable plus its operation shape.

    ``spmvs_per_iteration``/``vector_ops_per_iteration`` feed the
    accelerator timing models (Section VI-B: BiCGSTAB does two whole-matrix
    SpMVs per iteration); ``gpu_vector_kernels_per_iteration`` is the GPU
    roofline's kernel count (defaults to the accelerator vector-op count
    when a registrant does not distinguish them).  ``solve`` is a
    single-RHS solver with the ``solve(A, b, x0=..., criterion=...)``
    convention: ``run_matrix`` calls it once per platform, and the solve
    service's lockstep gang calls it once per coalesced column.
    """

    name: str
    solve: Callable[..., Any]
    spmvs_per_iteration: int
    vector_ops_per_iteration: int
    gpu_vector_kernels_per_iteration: Optional[int] = None
    description: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("solver name must be non-empty")
        if self.spmvs_per_iteration < 1:
            raise ValueError(
                f"solver {self.name!r}: spmvs_per_iteration must be >= 1")
        if self.vector_ops_per_iteration < 0:
            raise ValueError(
                f"solver {self.name!r}: vector_ops_per_iteration must be "
                f">= 0")

    @property
    def gpu_vector_kernels(self) -> int:
        if self.gpu_vector_kernels_per_iteration is not None:
            return self.gpu_vector_kernels_per_iteration
        return self.vector_ops_per_iteration


class Registry:
    """An ordered name → spec map with duplicate rejection.

    Registration order is preserved (it defines default sweep order for
    anything iterating the registry).  Registering an already-taken name
    raises ``ValueError`` unless ``replace=True`` — silent shadowing of a
    builtin platform would corrupt pinned results.
    """

    def __init__(self, kind: str) -> None:
        self._kind = kind
        self._specs: Dict[str, Any] = {}
        self._generation = 0
        self._versions: Dict[str, int] = {}

    @property
    def generation(self) -> int:
        """Monotonic mutation counter (bumped by every register/unregister).

        Prefer :meth:`versions` for cache keys — the raw counter also moves
        on *add-only* registrations (e.g. a sweep materialising a new
        variant token), which would needlessly invalidate cached results
        whose own names never changed meaning.
        """
        return self._generation

    def versions(self, names: Iterable[str]) -> Tuple[int, ...]:
        """Per-name registration stamps, for caches keyed by these names.

        A ``replace=True`` re-registration bumps the stamp of exactly that
        name — the same name now means different work, and serving old
        results would be silent corruption — while registrations of
        *other* names leave these stamps (and therefore the cache keys
        built from them) untouched.  Unknown names raise the registry's
        ``KeyError``.
        """
        out = []
        for name in names:
            if name not in self._versions:
                self.get(name)  # raises the canonical unknown-name error
            out.append(self._versions[name])
        return tuple(out)

    def register(self, spec: Any, replace: bool = False) -> Any:
        if not replace and spec.name in self._specs:
            raise ValueError(
                f"{self._kind} {spec.name!r} is already registered "
                f"(pass replace=True to override)")
        self._specs[spec.name] = spec
        self._generation += 1
        self._versions[spec.name] = self._generation
        return spec

    def unregister(self, name: str) -> None:
        """Remove a registration (KeyError when absent) — test cleanup."""
        del self._specs[name]
        self._versions.pop(name, None)
        self._generation += 1

    def get(self, name: str) -> Any:
        try:
            return self._specs[name]
        except KeyError:
            raise KeyError(
                f"unknown {self._kind} {name!r}; registered: "
                f"{sorted(self._specs)}") from None

    def names(self) -> Tuple[str, ...]:
        return tuple(self._specs)

    def __contains__(self, name: object) -> bool:
        return name in self._specs

    def __iter__(self) -> Iterator[str]:
        return iter(tuple(self._specs))

    def __len__(self) -> int:
        return len(self._specs)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Registry({self._kind}: {list(self._specs)})"


#: The process-wide registries.  Builtin registrations are installed when
#: :mod:`repro.api` is imported.
PLATFORM_REGISTRY = Registry("platform")
SOLVER_REGISTRY = Registry("solver")


def register_platform(name: str, *,
                      timing: Callable[[PlatformContext, int], float],
                      results_from: Optional[str] = None,
                      always_timed: bool = False,
                      description: str = "",
                      replace: bool = False,
                      registry: Optional[Registry] = None,
                      ) -> Callable[[Callable], Callable]:
    """Decorator registering a platform operator factory.

    The decorated callable receives ``(assets, ctx)`` — the shared
    per-matrix :class:`MatrixAssets` and a :class:`PlatformContext` — and
    returns the SpMV operator to solve with.  Returns the factory unchanged
    so it stays directly callable/testable.
    """
    reg = PLATFORM_REGISTRY if registry is None else registry

    def deco(factory: Callable) -> Callable:
        reg.register(PlatformSpec(name=name, operator=factory, timing=timing,
                                  results_from=results_from,
                                  always_timed=always_timed,
                                  description=description), replace=replace)
        return factory

    return deco


def register_solver(name: str, *, spmvs_per_iteration: int,
                    vector_ops_per_iteration: int,
                    gpu_vector_kernels_per_iteration: Optional[int] = None,
                    description: str = "",
                    replace: bool = False,
                    registry: Optional[Registry] = None,
                    ) -> Callable[[Callable], Callable]:
    """Decorator registering a solver callable with its operation shape."""
    reg = SOLVER_REGISTRY if registry is None else registry

    def deco(solve: Callable) -> Callable:
        reg.register(SolverSpec(
            name=name, solve=solve,
            spmvs_per_iteration=spmvs_per_iteration,
            vector_ops_per_iteration=vector_ops_per_iteration,
            gpu_vector_kernels_per_iteration=gpu_vector_kernels_per_iteration,
            description=description), replace=replace)
        return solve

    return deco


def resolve_platforms(names: Iterable[str],
                      registry: Optional[Registry] = None,
                      ) -> Tuple[str, ...]:
    """Validate a platform selection and close it over dependencies.

    A platform whose spec reuses another's results (``results_from``) pulls
    that dependency into the sweep ahead of itself, so any subset a caller
    names is runnable.  The closure is a :class:`repro.api.graph.TaskGraph`
    construction — each name is a node, each ``results_from`` an edge —
    and the returned order is its topological order: dependencies first,
    then the requested names in the order given, deduplicated.  Unknown
    names raise the registry's ``KeyError``; dependency cycles raise the
    graph's named :class:`~repro.api.graph.GraphCycleError` (a
    ``ValueError``).
    """
    from repro.api.graph import GraphCycleError, TaskGraph

    if isinstance(names, (str, bytes)):
        raise ValueError(
            f"platforms must be a sequence of names, got the bare string "
            f"{names!r} (did you mean [{names!r}]?)")
    reg = PLATFORM_REGISTRY if registry is None else registry
    graph = TaskGraph()
    for name in names:
        # Walk the results_from chain depth-first so dependencies are
        # *inserted* ahead of their dependents — the graph's insertion
        # order is the tie-break that keeps the historical ordering.
        chain: list = []
        walked: set = set()
        node = name
        while node not in graph and node not in walked:
            walked.add(node)
            chain.append(node)
            node = reg.get(node).results_from
            if node is None:
                break
        for member in reversed(chain):
            graph.add(member)
        for member in chain:
            dependency = reg.get(member).results_from
            if dependency is not None:
                graph.depend(member, dependency)
    try:
        order = graph.topological_order()
    except GraphCycleError as exc:
        raise GraphCycleError(
            f"platform dependency cycle through {exc.members[0]!r}",
            members=exc.members) from None
    if not order:
        raise ValueError("platform selection must not be empty")
    return tuple(order)
