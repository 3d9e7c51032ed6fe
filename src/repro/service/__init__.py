"""Solve-as-a-service: a zero-dependency daemon over the run engine.

The subsystem turns the existing declarative job objects into a wire
surface (stdlib ``http.server``/``http.client`` only — no new deps):

- :class:`~repro.service.daemon.SolveService` — the long-lived daemon.
  ``POST /v1/solve`` accepts a :class:`~repro.api.specs.RunRequest` payload
  (run by the graph scheduler — inline, or on the persistent process pool
  with ``--executor process`` — inheriting retries/timeouts/pool
  recovery/dependency-skip) or a
  :class:`~repro.service.jobs.VectorJob` (a single right-hand side for a
  registered solver, the many-users fast path).  ``GET /v1/stats`` surfaces the service counters.
  The daemon serves solves only; asset-store entries stay local to the
  host that built them.
- :class:`~repro.service.coalesce.Coalescer` — groups concurrent same-key
  vector jobs into one lockstep ``matmat`` batch
  (:func:`~repro.solvers.lockstep.solve_lockstep` over the registered
  ``SolverSpec.solve``, the package's one multi-RHS path), bounded by the
  batch window and max batch size, with per-request demux and results
  bit-identical to the per-request serial path.
- :class:`~repro.service.client.ServiceClient` — the client half, reusing
  the ``RunConfig`` retry/backoff/timeout knobs.

Start a daemon with ``python -m repro.experiments serve``; point clients at
it with ``solve --remote host:port``.
"""

from repro.service.client import ServiceClient, ServiceError
from repro.service.coalesce import Coalescer, ServiceCounters
from repro.service.daemon import SolveService
from repro.service.jobs import VectorJob

__all__ = [
    "Coalescer",
    "ServiceClient",
    "ServiceCounters",
    "ServiceError",
    "SolveService",
    "VectorJob",
]
