"""The solve daemon: a long-lived HTTP front-end over the run engine.

Zero dependencies beyond the stdlib (``http.server``).  Two solve paths
share one ``POST /v1/solve`` endpoint, distinguished by the payload's
``type`` tag:

- ``"RunRequest"`` — the full evaluation unit.  Concurrently arriving
  requests are micro-batched (same window/size bounds as the coalescer)
  into one :func:`~repro.experiments.common._execute_requests` call, run
  by the graph scheduler — inline on the serial executor, on the
  persistent process pool on ``process`` (a crashing solve then takes
  down a pool worker, not the daemon) — with retries, timeouts, pool
  recovery and dependency-skip all inherited.  Results stream back as
  ``MatrixRun.to_dict()``; structured failures come back as
  ``RunFailure`` records, not hung sockets.
- ``"VectorJob"`` — one right-hand side for a registered solver.  Same-key
  jobs coalesce into one lockstep ``matmat`` batch
  (:mod:`repro.service.coalesce`), which runs the registered
  ``SolverSpec.solve`` once per column, bit-identical to solving each
  request on its own.

``GET /v1/stats`` returns the service counters plus the engine/store
counter snapshots; ``GET /v1/health`` is the liveness probe;
``POST /v1/shutdown`` stops the daemon cleanly after in-flight work.
The daemon serves solves only: its asset store (``serve --store``) is the
local cache its own engine attaches to, not an endpoint.
"""

from __future__ import annotations

import json
import os
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, List, Optional, Tuple
from urllib.parse import urlsplit

import numpy as np

from repro.api import config as api_config
from repro.api.registry import PLATFORM_REGISTRY, SOLVER_REGISTRY
from repro.api.specs import RunRequest
from repro.api.sweep import ensure_variant_platforms
from repro.service.coalesce import Coalescer, ServiceCounters
from repro.service.jobs import VectorJob
from repro.solvers.lockstep import solve_lockstep

__all__ = ["SERVICE_VERSION", "SolveService"]

SERVICE_VERSION = 1


class SolveService:
    """One daemon instance: HTTP server + coalescers + engine front-end.

    ``port=0`` binds an ephemeral port (read it back from ``address``).
    ``config`` — when given — is installed process-wide for the daemon's
    lifetime (:func:`repro.api.config.set_active`), so every handler
    thread, coalesced batch and pool worker resolves the same knobs;
    ``None`` uses whatever is already active.  Call :meth:`serve_forever`
    to run, :meth:`shutdown` (or ``POST /v1/shutdown``) to stop it, and
    :meth:`close` to flush the coalescers and release the socket.  A
    daemon driven only in-process (``submit_vector``/``submit_request``,
    no :meth:`serve_forever`) closes cleanly too.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0,
                 config: Optional["api_config.RunConfig"] = None) -> None:
        self._installed = config is not None
        if self._installed:
            api_config.set_active(config)
        cfg = api_config.active()
        self._cfg = cfg
        self.counters = ServiceCounters()
        self._vector = Coalescer(
            self._run_vector_batch, window=cfg.service_batch_window,
            max_batch=cfg.service_batch_max, coalesce=cfg.service_coalesce,
            counters=self.counters, kind="vector")
        self._engine = Coalescer(
            self._run_engine_batch, window=cfg.service_batch_window,
            max_batch=cfg.service_batch_max, coalesce=cfg.service_coalesce,
            counters=self.counters, kind="engine")
        self._engine_lock = threading.Lock()
        self._engine_totals: Dict[str, int] = {}
        handler = type("_BoundHandler", (_Handler,), {"service": self})
        self._httpd = ThreadingHTTPServer((host, port), handler)
        self._httpd.daemon_threads = True
        self._lifecycle = threading.Lock()
        self._serving = False
        self._closed = False

    # -- lifecycle -------------------------------------------------------

    @property
    def address(self) -> Tuple[str, int]:
        """The bound ``(host, port)``."""
        host, port = self._httpd.server_address[:2]
        return str(host), int(port)

    def serve_forever(self, poll_interval: float = 0.05) -> None:
        # A tight poll keeps shutdown latency low; the poll is a cheap
        # selector timeout, not a busy wait.
        with self._lifecycle:
            if self._closed:
                return
            self._serving = True
        self._httpd.serve_forever(poll_interval=poll_interval)

    def shutdown(self) -> None:
        """Stop ``serve_forever`` (threadsafe; in-flight requests finish)."""
        self._httpd.shutdown()

    def close(self) -> None:
        """Flush the coalescers, release the socket, restore the config."""
        with self._lifecycle:
            if self._closed:
                return
            self._closed = True
            serving = self._serving
        if serving:
            # shutdown() waits for the serve loop to acknowledge; with no
            # loop ever started it would wait forever.
            self._httpd.shutdown()
        self._vector.close()
        self._engine.close()
        self._httpd.server_close()
        if self._installed:
            api_config.set_active(None)

    def __enter__(self) -> "SolveService":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # -- submission (validated, pre-coalesce) ----------------------------

    def submit_request(self, request: RunRequest):
        """Enqueue a :class:`RunRequest` for the next engine micro-batch."""
        return self._engine.submit("engine", request)

    def submit_vector(self, job: VectorJob):
        """Validate a :class:`VectorJob` cheaply and enqueue it under its
        batch key.  Identity errors (an unregistered solver or platform, an
        operatorless platform) raise ``KeyError``/``ValueError`` here —
        *before* the job could poison an innocent batch."""
        SOLVER_REGISTRY.get(job.solver)
        ensure_variant_platforms((job.platform,))
        pspec = PLATFORM_REGISTRY.get(job.platform)
        if pspec.operator is None:
            raise ValueError(
                f"platform {job.platform!r} reuses {pspec.results_from!r}'s "
                f"results and cannot solve vector jobs")
        crit = (job.criterion if job.criterion is not None
                else api_config.active().effective_criterion)
        return self._vector.submit(job.batch_key(crit), job)

    # -- batch runners ---------------------------------------------------

    def _run_vector_batch(self, key: str,
                          jobs: List[VectorJob]) -> List[Dict[str, Any]]:
        from repro.experiments.common import platform_operator

        lead = jobs[0]  # the batch key pins (sid, scale, solver, platform,
        #                 criterion) across the whole batch
        crit = (lead.criterion if lead.criterion is not None
                else api_config.active().effective_criterion)
        assets, op = platform_operator(lead.sid, lead.scale, lead.platform,
                                       lead.solver)
        n = int(assets.A.shape[0])
        outs: List[Optional[Dict[str, Any]]] = [None] * len(jobs)
        cols: List[np.ndarray] = []
        col_slots: List[int] = []
        for i, job in enumerate(jobs):
            if job.rhs is None:
                rhs = np.asarray(assets.b, dtype=np.float64)
            else:
                rhs = np.asarray(job.rhs, dtype=np.float64)
            # A malformed RHS fails its own request, not the batch.
            if rhs.shape != (n,):
                outs[i] = {"error": f"rhs must have length {n} for sid "
                                    f"{job.sid}, got {rhs.shape[0]}"}
                continue
            if not np.all(np.isfinite(rhs)):
                outs[i] = {"error": "rhs contains non-finite values"}
                continue
            cols.append(rhs)
            col_slots.append(i)
        if cols:
            stats: Dict[str, Any] = {}
            results = solve_lockstep(op, np.stack(cols, axis=1),
                                     SOLVER_REGISTRY.get(lead.solver).solve,
                                     criterion=crit, batch_stats=stats)
            self.counters.note_matmats(stats["matmats"])
            batch = {"size": len(cols), "matmats": stats["matmats"]}
            for slot, res in zip(col_slots, results):
                outs[slot] = {
                    "sid": jobs[slot].sid,
                    "solver": lead.solver,
                    "platform": lead.platform,
                    "converged": bool(res.converged),
                    "iterations": int(res.iterations),
                    "residual_norm": float(res.residual_norm),
                    "matvecs": int(res.matvecs),
                    "breakdown": res.breakdown,
                    "x": [float(v) for v in res.x],
                    "batch": batch,
                }
        return outs  # type: ignore[return-value]

    def _run_engine_batch(self, key: str,
                          jobs: List[RunRequest]) -> List[Dict[str, Any]]:
        from repro.api.platforms import DEFAULT_PLATFORMS
        from repro.experiments import ledger
        from repro.experiments.common import _execute_requests, _suite_workers

        uniq: Dict[str, RunRequest] = {}
        for req in jobs:
            uniq.setdefault(req.key(), req)
        requests = list(uniq.values())
        cfg = api_config.active()
        workers = _suite_workers(len(requests))
        # One engine batch at a time: the persistent process pool is a
        # process-wide singleton and concurrent schedulers must not share
        # it mid-rebuild.
        with self._engine_lock:
            results, failures, stats = _execute_requests(
                requests, workers, cfg.executor, on_error="collect")
        with self.counters._lock:
            for name, value in stats.to_dict().items():
                self._engine_totals[name] = (
                    self._engine_totals.get(name, 0) + value)
        # One ledger record per engine batch — the service-side analogue
        # of a run_suite record, with the coalescing shape attached.
        ledger.record_run(
            "service",
            spec={"type": "ServiceBatch", "version": SERVICE_VERSION,
                  "requests": [req.to_dict() for req in requests]},
            scale=None, criterion=cfg.effective_criterion,
            runs=list(results.values()), failures=failures, stats=stats,
            platforms=[p for req in requests
                       for p in (req.platforms or DEFAULT_PLATFORMS)],
            solvers=[req.solver for req in requests],
            extra={"service": {"batch_jobs": len(jobs),
                               "unique_requests": len(requests),
                               "coalesced": len(jobs) > len(requests)}})
        by_failure = {f.key: f for f in failures}
        outs = []
        for req in jobs:
            k = req.key()
            run = results.get(k)
            if run is not None:
                outs.append({"run": run.to_dict(), "failure": None})
            else:
                failure = by_failure.get(k)
                outs.append({
                    "run": None,
                    "failure": (failure.to_dict() if failure is not None
                                else {"key": k, "phase": "solve",
                                      "error_type": "Unknown",
                                      "message": "request produced neither "
                                                 "a run nor a failure",
                                      "attempts": 0, "sid": req.sid,
                                      "solver": req.solver}),
                })
        return outs

    # -- introspection ---------------------------------------------------

    def stats(self) -> Dict[str, Any]:
        from repro.experiments import ledger, store

        return {
            "type": "ServiceStats",
            "version": SERVICE_VERSION,
            "pid": os.getpid(),
            "coalesce": {
                "enabled": self._cfg.service_coalesce,
                "window_s": self._cfg.service_batch_window,
                "max_batch": self._cfg.service_batch_max,
            },
            "service": self.counters.to_dict(),
            "engine": dict(self._engine_totals),
            "ledger": ledger.ledger_stats(),
            "store": store.counters(),
        }


class _Handler(BaseHTTPRequestHandler):
    """Per-connection handler; ``service`` is bound by ``SolveService``."""

    service: SolveService
    protocol_version = "HTTP/1.1"

    def log_message(self, fmt: str, *args: Any) -> None:
        pass  # the daemon's stdout is for the serve CLI, not per-request noise

    # -- helpers ---------------------------------------------------------

    def _send_json(self, status: int, payload: Dict[str, Any],
                   close: bool = False) -> None:
        body = (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if close:
            self.send_header("Connection", "close")  # also ends keep-alive
        self.end_headers()
        self.wfile.write(body)

    def _read_body(self) -> Optional[bytes]:
        """The whole request body, or ``None`` after a 400 for a negative
        or non-integer ``Content-Length``.  Such a request has no known
        end, so the connection closes instead of guessing where the next
        request starts."""
        raw = self.headers.get("Content-Length") or "0"
        try:
            length = int(raw)
        except ValueError:
            length = -1
        if length < 0:
            self._send_json(400, {"error": f"bad Content-Length {raw!r}"},
                            close=True)
            return None
        return self.rfile.read(length) if length else b""

    # -- verbs -----------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 - BaseHTTPRequestHandler API
        path = urlsplit(self.path).path
        if path == "/v1/health":
            self._send_json(200, {"ok": True, "version": SERVICE_VERSION,
                                  "pid": os.getpid()})
            return
        if path == "/v1/stats":
            self._send_json(200, self.service.stats())
            return
        self._send_json(404, {"error": f"unknown path {path!r}"})

    def do_POST(self) -> None:  # noqa: N802
        started = time.monotonic()
        # Consume the body before routing: a reply that leaves it unread
        # would have a kept-alive connection parse it as the next request.
        body = self._read_body()
        if body is None:
            return
        path = urlsplit(self.path).path
        if path == "/v1/shutdown":
            self._send_json(200, {"ok": True})
            # shutdown() must not run on a handler thread joined by the
            # serve loop's own machinery mid-request: hand it off.
            threading.Thread(target=self.service.shutdown,
                             daemon=True).start()
            return
        if path != "/v1/solve":
            self._send_json(404, {"error": f"unknown path {path!r}"})
            return
        try:
            payload = json.loads(body.decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as exc:
            self._send_json(400, {"error": f"malformed JSON body: {exc}"})
            return
        kind = payload.get("type") if isinstance(payload, dict) else None
        try:
            if kind == "RunRequest":
                request = RunRequest.from_dict(payload)
                out = self.service.submit_request(request).result()
                response = {"type": "SolveResponse",
                            "version": SERVICE_VERSION,
                            "request": request.to_dict(), **out}
            elif kind == "VectorJob":
                job = VectorJob.from_dict(payload)
                out = self.service.submit_vector(job).result()
                if "error" in out:
                    # The batch rejected this job's RHS: a client error,
                    # like any other 400, and not a served solve.
                    self._send_json(400, {"type": "SolveResponse",
                                          "version": SERVICE_VERSION,
                                          "result": None,
                                          "error": out["error"]})
                    return
                response = {"type": "SolveResponse",
                            "version": SERVICE_VERSION,
                            "result": out, "error": None}
            else:
                self._send_json(400, {
                    "error": f"solve payloads must be tagged "
                             f"'RunRequest' or 'VectorJob', got {kind!r}"})
                return
        except (KeyError, ValueError, TypeError) as exc:
            self._send_json(400, {"error": f"{type(exc).__name__}: {exc}"})
            return
        except Exception as exc:  # a batch blew up: structured 500
            self._send_json(500, {"error": f"{type(exc).__name__}: {exc}"})
            return
        self.service.counters.note_latency(time.monotonic() - started)
        self._send_json(200, response)
