"""Typed runtime configuration — the *only* module that reads ``REPRO_*`` vars.

Every runtime knob the package honours is a field of the frozen
:class:`RunConfig` dataclass, and :meth:`RunConfig.from_env` is the single
place the corresponding ``REPRO_*`` environment variables are parsed (CI
greps for exactly that invariant).  Everything downstream —
:mod:`repro.experiments.common`, :mod:`repro.experiments.store`, the suite
scale resolution — consumes a :class:`RunConfig` object, never
``os.environ``.

Resolution order, strongest first:

1. explicit function arguments (``run_suite(max_workers=4)``);
2. an installed config (:func:`set_active`, or the :func:`use` context
   manager — also what ``run_suite(config=...)`` does internally);
3. the environment, re-read on every :func:`active` call so tests and
   subprocesses that mutate ``os.environ`` keep working unchanged;
4. the field defaults.

| env var                   | field            | meaning                    |
|---------------------------|------------------|----------------------------|
| ``REPRO_FULL=1``          | ``scale``        | default scale ``"paper"``  |
| ``REPRO_SUITE_WORKERS``   | ``workers``      | process-pool width         |
| ``REPRO_SUITE_EXECUTOR``  | ``executor``     | ``serial`` / ``process``   |
| ``REPRO_ASSET_CACHE_MB``  | ``asset_cache_mb`` | in-process LRU budget    |
| ``REPRO_ASSET_STORE``     | ``store``        | on-disk asset store root   |
| ``REPRO_ASSET_STORE_VERIFY=0`` | ``store_verify`` | skip store checksums  |
| ``REPRO_SKIP_KAPPA=1``    | ``skip_kappa``   | Table V without kappa      |
| ``REPRO_REQUEST_TIMEOUT`` | ``request_timeout`` | per-request seconds     |
| ``REPRO_REQUEST_RETRIES`` | ``request_retries`` | extra attempts on error |
| ``REPRO_RETRY_BACKOFF``   | ``retry_backoff``   | backoff base seconds    |
| ``REPRO_RUN_LEDGER``      | ``ledger``       | run-ledger root dir        |
| ``REPRO_SERVICE_BATCH_WINDOW`` | ``service_batch_window`` | coalescing window (s) |
| ``REPRO_SERVICE_BATCH_MAX`` | ``service_batch_max`` | max coalesced batch   |
| ``REPRO_SERVICE_COALESCE=0`` | ``service_coalesce`` | disable coalescing   |
| ``REPRO_SOLVER_TOL``      | ``criterion.tol``  | convergence tolerance    |
| ``REPRO_SOLVER_MAX_ITERATIONS`` | ``criterion.max_iterations`` | iteration budget |
| ``REPRO_SOLVER_DIVERGENCE_FACTOR`` | ``criterion.divergence_factor`` | breakdown multiple |
"""

from __future__ import annotations

import contextlib
import json
import os
from dataclasses import asdict, dataclass, replace
from typing import Any, Dict, Iterator, Mapping, Optional

from repro.solvers.base import ConvergenceCriterion
from repro.util.validation import (
    check_env_nonnegative_float,
    check_env_nonnegative_int,
    check_env_positive_float,
    check_env_positive_int,
    check_nonnegative_int,
    check_positive_int,
)

__all__ = [
    "EXECUTORS",
    "SCALES",
    "RunConfig",
    "active",
    "available_cpus",
    "paper_config",
    "set_active",
    "use",
]

#: Matrix scales (mirrored by :mod:`repro.sparse.gallery.suite`, which
#: imports this tuple — config is a leaf module and must not import it back).
SCALES = ("test", "default", "paper")

#: Engine executors: inline on the calling thread, or the process pool.
EXECUTORS = ("serial", "process")

_JSON_TYPE = "RunConfig"
_JSON_VERSION = 1


def tag_payload(data: Dict[str, Any], type_name: str,
                version: int) -> Dict[str, Any]:
    """Stamp a serialised dataclass dict with its type/version envelope
    (tuples become lists so the payload is pure JSON)."""
    data = {key: list(value) if isinstance(value, tuple) else value
            for key, value in data.items()}
    data["type"] = type_name
    data["version"] = version
    return data


def parse_payload(data: Dict[str, Any], type_name: str,
                  version: int) -> Dict[str, Any]:
    """Strip and check the type/version envelope of a tagged payload."""
    data = dict(data)
    if data.pop("type", type_name) != type_name:
        raise ValueError(f"not a {type_name} payload")
    if data.pop("version", version) != version:
        raise ValueError(f"unsupported {type_name} payload version")
    return data


def check_criterion(value: Any) -> Optional[ConvergenceCriterion]:
    """Normalise a criterion field: dataclass, JSON-revived mapping, or
    ``None`` (= defer to the default / the active config).  Shared by
    :class:`RunConfig` and the :mod:`repro.api.specs` job objects."""
    if value is None or isinstance(value, ConvergenceCriterion):
        return value
    if isinstance(value, Mapping):
        return ConvergenceCriterion(**value)
    raise ValueError(
        f"criterion must be a ConvergenceCriterion, a mapping of its "
        f"fields, or None, got {type(value).__name__}")


def _parse_positive_float(env: str, name: str, hint: str = "") -> float:
    try:
        value = float(env)
    except ValueError:
        raise ValueError(
            f"{name} must be a number{hint}, got {env!r}") from None
    if not value > 0:
        raise ValueError(f"{name} must be positive, got {env!r}")
    return value


def _parse_cache_mb(env: str, name: str = "REPRO_ASSET_CACHE_MB") -> float:
    return _parse_positive_float(env, name, hint=" (megabytes)")


def _criterion_from_env(env: Mapping[str, str]) -> Optional[ConvergenceCriterion]:
    """The ``REPRO_SOLVER_*`` overlay on the default convergence criterion.

    Returns ``None`` (= "use the built-in default") when no variable is set,
    so an env-derived config equals ``RunConfig()`` in the common case.
    """
    fields: Dict[str, Any] = {}
    raw = env.get("REPRO_SOLVER_TOL")
    if raw:
        fields["tol"] = _parse_positive_float(raw, "REPRO_SOLVER_TOL")
    raw = env.get("REPRO_SOLVER_MAX_ITERATIONS")
    if raw:
        fields["max_iterations"] = check_env_positive_int(
            "REPRO_SOLVER_MAX_ITERATIONS", raw)
    raw = env.get("REPRO_SOLVER_DIVERGENCE_FACTOR")
    if raw:
        fields["divergence_factor"] = _parse_positive_float(
            raw, "REPRO_SOLVER_DIVERGENCE_FACTOR")
    return ConvergenceCriterion(**fields) if fields else None


@dataclass(frozen=True)
class RunConfig:
    """Runtime configuration for asset resolution and suite execution.

    ``None`` fields mean "use the built-in default" (scale ``"default"``,
    one worker per task up to the CPU count, unbounded asset cache, no
    persistent store).  Instances are frozen, hashable and JSON-round-trip
    losslessly via :meth:`to_json`/:meth:`from_json`.
    """

    scale: Optional[str] = None
    workers: Optional[int] = None
    executor: str = "serial"
    asset_cache_mb: Optional[float] = None
    store: Optional[str] = None
    store_verify: bool = True
    skip_kappa: bool = False
    criterion: Optional[ConvergenceCriterion] = None
    #: Per-request execution budget in seconds (``None`` = no timeout).
    #: Enforced on the process executor only; the serial executor cannot
    #: interrupt a solve running on its own thread and ignores it.
    request_timeout: Optional[float] = None
    #: Extra attempts after a request raises (0 = fail on the first error,
    #: the historical behaviour).  Process-pool *crash* recovery is not
    #: charged against this budget — resubmission after a pool break is
    #: bounded by the poison-pill counter instead.
    request_retries: int = 0
    #: Deterministic exponential backoff base: retry ``n`` sleeps
    #: ``retry_backoff * 2**(n-1)`` seconds (0 = retry immediately).
    retry_backoff: float = 0.0
    #: Coalescing window of the service daemon, in seconds: a batch is
    #: dispatched when this much time passed since its first request
    #: (0 = dispatch immediately, i.e. no time-based coalescing).
    service_batch_window: float = 0.05
    #: Maximum requests per coalesced batch; a batch reaching this size
    #: dispatches immediately without waiting for the window.
    service_batch_max: int = 8
    #: Whether the service daemon coalesces same-key requests at all
    #: (``REPRO_SERVICE_COALESCE=0`` turns every request into its own
    #: batch — the benchmark baseline).
    service_coalesce: bool = True
    #: Run-ledger root directory (``REPRO_RUN_LEDGER``).  ``None`` =
    #: ``ledger/`` under the asset-store root (no store, no ledger); the
    #: literal ``off``/``none``/``0`` disables the ledger outright.  See
    #: :mod:`repro.experiments.ledger`.
    ledger: Optional[str] = None

    def __post_init__(self) -> None:
        if self.scale is not None and self.scale not in SCALES:
            raise ValueError(
                f"scale must be one of {SCALES}, got {self.scale!r}")
        object.__setattr__(self, "criterion",
                           check_criterion(self.criterion))
        if self.executor not in EXECUTORS:
            raise ValueError(
                f"executor must be one of {EXECUTORS}, got {self.executor!r}")
        if self.workers is not None:
            object.__setattr__(self, "workers",
                               check_positive_int(self.workers, "workers"))
        if self.asset_cache_mb is not None:
            mb = float(self.asset_cache_mb)
            if not mb > 0:
                raise ValueError(
                    f"asset_cache_mb must be positive, got {mb!r}")
            object.__setattr__(self, "asset_cache_mb", mb)
        if self.store is not None:
            object.__setattr__(self, "store", os.fspath(self.store))
        if self.request_timeout is not None:
            timeout = float(self.request_timeout)
            if not (timeout > 0 and timeout == timeout
                    and timeout != float("inf")):
                raise ValueError(
                    f"request_timeout must be positive and finite, got "
                    f"{self.request_timeout!r}")
            object.__setattr__(self, "request_timeout", timeout)
        object.__setattr__(self, "request_retries", check_nonnegative_int(
            self.request_retries, "request_retries"))
        backoff = float(self.retry_backoff)
        if not (backoff >= 0 and backoff != float("inf")):
            raise ValueError(
                f"retry_backoff must be non-negative and finite, got "
                f"{self.retry_backoff!r}")
        object.__setattr__(self, "retry_backoff", backoff)
        window = float(self.service_batch_window)
        if not (window >= 0 and window != float("inf")):
            raise ValueError(
                f"service_batch_window must be non-negative and finite, "
                f"got {self.service_batch_window!r}")
        object.__setattr__(self, "service_batch_window", window)
        object.__setattr__(self, "service_batch_max", check_positive_int(
            self.service_batch_max, "service_batch_max"))
        object.__setattr__(self, "service_coalesce",
                           bool(self.service_coalesce))
        if self.ledger is not None:
            object.__setattr__(self, "ledger", os.fspath(self.ledger))

    # -- environment ----------------------------------------------------

    @classmethod
    def from_env(cls, **overrides: Any) -> "RunConfig":
        """Build a config from ``REPRO_*`` variables; ``overrides`` win.

        This classmethod is the package's single point of environment
        access.  Invalid values raise ``ValueError`` naming the variable
        and the offending value, exactly as the pre-config code did.
        """
        env = os.environ
        fields: Dict[str, Any] = {}
        fields["scale"] = "paper" if env.get("REPRO_FULL") == "1" else None
        raw = env.get("REPRO_SUITE_WORKERS")
        fields["workers"] = (check_env_positive_int("REPRO_SUITE_WORKERS", raw)
                             if raw else None)
        raw = env.get("REPRO_SUITE_EXECUTOR")
        if raw and raw not in EXECUTORS:
            raise ValueError(
                f"REPRO_SUITE_EXECUTOR must be one of {EXECUTORS}, "
                f"got REPRO_SUITE_EXECUTOR={raw!r}")
        fields["executor"] = raw or "serial"
        raw = env.get("REPRO_ASSET_CACHE_MB")
        fields["asset_cache_mb"] = _parse_cache_mb(raw) if raw else None
        fields["store"] = env.get("REPRO_ASSET_STORE") or None
        fields["store_verify"] = env.get("REPRO_ASSET_STORE_VERIFY", "1") != "0"
        fields["skip_kappa"] = env.get("REPRO_SKIP_KAPPA") == "1"
        raw = env.get("REPRO_REQUEST_TIMEOUT")
        fields["request_timeout"] = (
            check_env_positive_float("REPRO_REQUEST_TIMEOUT", raw)
            if raw else None)
        raw = env.get("REPRO_REQUEST_RETRIES")
        fields["request_retries"] = (
            check_env_nonnegative_int("REPRO_REQUEST_RETRIES", raw)
            if raw else 0)
        raw = env.get("REPRO_RETRY_BACKOFF")
        fields["retry_backoff"] = (
            check_env_nonnegative_float("REPRO_RETRY_BACKOFF", raw)
            if raw else 0.0)
        raw = env.get("REPRO_SERVICE_BATCH_WINDOW")
        fields["service_batch_window"] = (
            check_env_nonnegative_float("REPRO_SERVICE_BATCH_WINDOW", raw)
            if raw else 0.05)
        raw = env.get("REPRO_SERVICE_BATCH_MAX")
        fields["service_batch_max"] = (
            check_env_positive_int("REPRO_SERVICE_BATCH_MAX", raw)
            if raw else 8)
        fields["service_coalesce"] = env.get("REPRO_SERVICE_COALESCE",
                                             "1") != "0"
        fields["ledger"] = env.get("REPRO_RUN_LEDGER") or None
        fields["criterion"] = _criterion_from_env(env)
        fields.update(overrides)
        return cls(**fields)

    # -- derived values --------------------------------------------------

    @property
    def asset_cache_bytes(self) -> Optional[int]:
        """The LRU byte budget, or ``None`` for an unbounded cache."""
        if self.asset_cache_mb is None:
            return None
        return int(self.asset_cache_mb * (1 << 20))

    @property
    def effective_criterion(self) -> ConvergenceCriterion:
        """The convergence criterion every solver call site consumes.

        ``None`` means the paper default (``ConvergenceCriterion()``: rtol
        1e-8, 20000-iteration budget) — the single place that default is
        spelled; experiment code must resolve through here, never repeat the
        literal (CI greps for the literal).
        """
        if self.criterion is not None:
            return self.criterion
        return ConvergenceCriterion()

    def replace(self, **changes: Any) -> "RunConfig":
        """A copy with ``changes`` applied (validated like the original)."""
        return replace(self, **changes)

    # -- serialisation ---------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        return tag_payload(asdict(self), _JSON_TYPE, _JSON_VERSION)

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "RunConfig":
        return cls(**parse_payload(data, _JSON_TYPE, _JSON_VERSION))

    @classmethod
    def from_json(cls, text: str) -> "RunConfig":
        return cls.from_dict(json.loads(text))


def available_cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the
    platform has one (a container or ``taskset`` may allow fewer than the
    machine has), else the machine's CPU count."""
    if hasattr(os, "sched_getaffinity"):
        return max(1, len(os.sched_getaffinity(0)))
    return os.cpu_count() or 1


def paper_config() -> RunConfig:
    """The config the paper commands (``all`` and each table or figure)
    run under: the environment's, except that without
    ``REPRO_SUITE_EXECUTOR`` they use the process pool, or run inline when
    the worker count (``REPRO_SUITE_WORKERS``, else :func:`available_cpus`)
    is 1 and a pool could not run two solves at once."""
    config = RunConfig.from_env()
    if os.environ.get("REPRO_SUITE_EXECUTOR"):
        return config
    workers = config.workers or available_cpus()
    return config.replace(executor="process" if workers > 1 else "serial")


#: Explicitly-installed config (``None`` = derive from the environment on
#: every read).  A plain module global on purpose: worker processes fork
#: with it set, and the daemon's handler and batch threads must see the
#: config the launching call installed.
_ACTIVE: Optional[RunConfig] = None


def active() -> RunConfig:
    """The effective config: the installed one, else a fresh env read."""
    return _ACTIVE if _ACTIVE is not None else RunConfig.from_env()


def set_active(config: Optional[RunConfig]) -> None:
    """Install ``config`` as the process-wide default (``None`` resets to
    environment-derived behaviour)."""
    global _ACTIVE
    _ACTIVE = config


@contextlib.contextmanager
def use(config: Optional[RunConfig]) -> Iterator[RunConfig]:
    """Temporarily install ``config`` (restores the previous one on exit)."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = config
    try:
        yield active()
    finally:
        _ACTIVE = previous
