"""``repro.api`` — registries, typed config, and declarative run specs.

The programmatic surface of the evaluation harness:

* :class:`RunConfig` — frozen runtime configuration;
  :meth:`RunConfig.from_env` is the package's single reader of ``REPRO_*``
  environment variables.
* :data:`PLATFORM_REGISTRY` / :data:`SOLVER_REGISTRY` with the
  :func:`register_platform` / :func:`register_solver` decorators — add a
  platform or solver from user code and sweep it via
  ``run_suite(platforms=[...])`` without touching
  ``repro/experiments/common.py``.
* :class:`SuiteSpec` / :class:`RunRequest` — JSON-serialisable job objects
  (the process-pool payload, and the solve daemon's request body).
* :mod:`repro.api.faults` — structured :class:`RunFailure` records and the
  deterministic fault-injection plans (``crash``/``hang``/``fail`` tokens)
  that exercise the run engine's recovery paths repeatably.
* :mod:`repro.api.graph` — the dependency-aware :class:`TaskGraph` /
  :class:`GraphScheduler` the run engine compiles suites and sweeps into
  (typed solve/baseline/asset nodes, named cycle errors, dependent-skip).

Importing this package installs the builtin registrations (the four paper
platforms plus the ``noisy``/``truncated`` scenarios; the cg/bicgstab
solvers; the builtin fault kinds).
"""

from repro.api.config import (
    EXECUTORS,
    SCALES,
    RunConfig,
    active,
    set_active,
    use,
)
from repro.api.registry import (
    PLATFORM_REGISTRY,
    SOLVER_REGISTRY,
    PlatformContext,
    PlatformSpec,
    Registry,
    SolverSpec,
    register_platform,
    register_solver,
    resolve_platforms,
)
from repro.api.platforms import (  # noqa: F401 - installs registrations
    DEFAULT_NOISE_SIGMA,
    DEFAULT_PLATFORMS,
    feinberg_platform_spec,
    noisy_platform_spec,
    truncated_platform_spec,
)
from repro.api.faults import (  # noqa: F401 - installs builtin fault kinds
    FAULT_KINDS,
    FaultPlan,
    InjectedFaultError,
    RunFailure,
    install_fault_plan,
    register_fault_kind,
    use_fault_plan,
)
from repro.api.graph import (
    AssetNode,
    BaselineNode,
    GraphCycleError,
    GraphScheduler,
    SolveNode,
    TaskGraph,
    compile_solve_graph,
)
from repro.api.solvers import DEFAULT_SOLVERS  # noqa: F401 - installs registrations
from repro.api.specs import RunRequest, SuiteSpec
from repro.api.sweep import (  # noqa: F401 - installs builtin families
    VARIANT_FAMILIES,
    SweepSpec,
    VariantFamily,
    ensure_variant,
    ensure_variant_platforms,
    parse_variant_token,
    register_variant_family,
    variant_token,
)

__all__ = [
    "EXECUTORS",
    "SCALES",
    "RunConfig",
    "active",
    "set_active",
    "use",
    "PLATFORM_REGISTRY",
    "SOLVER_REGISTRY",
    "PlatformContext",
    "PlatformSpec",
    "Registry",
    "SolverSpec",
    "register_platform",
    "register_solver",
    "resolve_platforms",
    "DEFAULT_NOISE_SIGMA",
    "DEFAULT_PLATFORMS",
    "DEFAULT_SOLVERS",
    "feinberg_platform_spec",
    "noisy_platform_spec",
    "truncated_platform_spec",
    "FAULT_KINDS",
    "FaultPlan",
    "InjectedFaultError",
    "RunFailure",
    "install_fault_plan",
    "register_fault_kind",
    "use_fault_plan",
    "AssetNode",
    "BaselineNode",
    "GraphCycleError",
    "GraphScheduler",
    "SolveNode",
    "TaskGraph",
    "compile_solve_graph",
    "RunRequest",
    "SuiteSpec",
    "VARIANT_FAMILIES",
    "SweepSpec",
    "VariantFamily",
    "ensure_variant",
    "ensure_variant_platforms",
    "parse_variant_token",
    "register_variant_family",
    "variant_token",
]
