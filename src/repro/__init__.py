"""repro — a from-scratch reproduction of ReFloat (SC'23).

ReFloat is a block floating-point data format plus a ReRAM accelerator
architecture for iterative linear solvers.  This package implements the
format, the accelerator and its baselines as functional + timing models, the
solvers, and the full evaluation harness.  Top-level re-exports cover the
primary public API; see the subpackages for everything else:

* :mod:`repro.formats`     — IEEE bit tools, ReFloat / Feinberg codecs, format zoo
* :mod:`repro.sparse`      — blocking, the BSR layout, statistics, matrix gallery
* :mod:`repro.solvers`     — CG, BiCGSTAB, iterative refinement
* :mod:`repro.operators`   — SpMV platforms (exact / ReFloat / Feinberg / noisy)
* :mod:`repro.hardware`    — crossbar sim, processing engine, timing models
* :mod:`repro.analysis`    — locality, memory accounting, trace utilities
* :mod:`repro.api`         — platform/solver registries, typed RunConfig,
                             declarative SuiteSpec/RunRequest job objects
* :mod:`repro.experiments` — one runner per paper table/figure
"""

from repro.api import (
    PLATFORM_REGISTRY,
    SOLVER_REGISTRY,
    PlatformSpec,
    RunConfig,
    RunRequest,
    SolverSpec,
    SuiteSpec,
    SweepSpec,
    register_platform,
    register_solver,
    register_variant_family,
)
from repro.formats import DEFAULT_SPEC, ReFloatSpec
from repro.operators import (
    ExactOperator,
    FeinbergFcOperator,
    FeinbergOperator,
    NoisyReFloatOperator,
    ReFloatOperator,
)
from repro.solvers import ConvergenceCriterion, SolverResult, bicgstab, cg
from repro.sparse import BlockedMatrix
from repro.sparse.gallery import build_matrix, suite_ids

__version__ = "1.1.0"

__all__ = [
    "DEFAULT_SPEC",
    "ReFloatSpec",
    "ExactOperator",
    "FeinbergFcOperator",
    "FeinbergOperator",
    "NoisyReFloatOperator",
    "ReFloatOperator",
    "ConvergenceCriterion",
    "SolverResult",
    "bicgstab",
    "cg",
    "BlockedMatrix",
    "build_matrix",
    "suite_ids",
    "PLATFORM_REGISTRY",
    "SOLVER_REGISTRY",
    "PlatformSpec",
    "RunConfig",
    "RunRequest",
    "SolverSpec",
    "SuiteSpec",
    "SweepSpec",
    "register_platform",
    "register_solver",
    "register_variant_family",
    "__version__",
]
