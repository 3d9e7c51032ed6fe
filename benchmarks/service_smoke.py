#!/usr/bin/env python
"""End-to-end smoke test of the solve-service daemon.

Starts ``python -m repro.experiments serve`` as a real subprocess, fires
concurrent clients at it from threads — same-key vector jobs that must
coalesce into one lockstep batch, plus mixed-sid engine requests — and
checks the service contract:

- every response arrives (no hangs, no dropped futures),
- vector solutions are bit-identical to the serial single-RHS reference
  computed in this (separate) process,
- a same-key vector job whose RHS holds a NaN fails alone, with an error
  naming the non-finite RHS, and the healthy jobs batched with it still
  match their references,
- engine runs are exactly the local ``MatrixRun.to_dict()`` payloads,
- at least one coalesced batch formed (``coalesced_batches >= 1``),
- the daemon exits 0 on ``POST /v1/shutdown``.

``--chaos`` additionally injects a deterministic worker crash into the
daemon's process pool (``crash@attempt=1,sid=2257``): the engine must
rebuild the pool, retry, and still deliver every response bit-identically.

CI runs both modes; locally::

    PYTHONPATH=src python benchmarks/service_smoke.py [--chaos]
"""

import argparse
import json
import re
import subprocess
import sys
import threading

import numpy as np

SID_VECTOR = 2257
ENGINE_SIDS = (353, 2257)
N_VECTOR_CLIENTS = 4
# The healthy clients plus one whose RHS holds a NaN, all in one batch.
BATCH_MAX = N_VECTOR_CLIENTS + 1


def start_daemon(chaos: bool):
    cmd = [sys.executable, "-m", "repro.experiments", "serve",
           "--host", "127.0.0.1", "--port", "0", "--workers", "2",
           "--batch-window", "0.25", "--batch-max", str(BATCH_MAX),
           "--json", "-"]
    if chaos:
        cmd += ["--executor", "process",
                "--fault", f"crash@attempt=1,sid={SID_VECTOR}",
                "--retries", "2"]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    match = re.search(r"listening on http://([\d.]+):(\d+)", line)
    if not match:
        proc.kill()
        raise SystemExit(f"daemon did not announce its address: {line!r}\n"
                         f"{proc.stderr.read()}")
    return proc, f"{match.group(1)}:{match.group(2)}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--chaos", action="store_true",
                        help="inject a worker crash into the daemon's pool")
    parser.add_argument("--scale", default="test")
    args = parser.parse_args(argv)

    # References first, in THIS process: the daemon must reproduce them
    # bit-for-bit across the HTTP and coalescing boundary.
    from repro.api.config import RunConfig
    from repro.api.specs import RunRequest
    from repro.experiments.common import platform_operator, run_request
    from repro.service import ServiceClient, ServiceError, VectorJob
    from repro.solvers import cg

    crit = RunConfig.from_env().effective_criterion
    _, op = platform_operator(SID_VECTOR, args.scale)
    n = op.shape[0]
    rng = np.random.default_rng(97)
    cols = [rng.standard_normal(n) for _ in range(N_VECTOR_CLIENTS)]
    vector_refs = [cg(op, c, criterion=crit) for c in cols]
    nan_rhs = np.ones(n)
    nan_rhs[0] = np.nan
    engine_requests = [RunRequest(sid=sid, solver="cg", scale=args.scale)
                       for sid in ENGINE_SIDS]
    engine_refs = [run_request(req).to_dict() for req in engine_requests]

    proc, address = start_daemon(args.chaos)
    failures = []
    try:
        client = ServiceClient(address, timeout=300.0)
        vector_out = [None] * N_VECTOR_CLIENTS
        nan_out = []
        engine_out = [None] * len(engine_requests)

        def vector_client(i):
            job = VectorJob(sid=SID_VECTOR, scale=args.scale,
                            rhs=tuple(float(v) for v in cols[i]))
            vector_out[i] = client.solve_vector(job)

        def nan_client():
            job = VectorJob(sid=SID_VECTOR, scale=args.scale,
                            rhs=tuple(float(v) for v in nan_rhs))
            try:
                nan_out.append(client.solve_vector(job))
            except ServiceError as exc:
                nan_out.append(exc)

        def engine_client(i):
            engine_out[i] = client.solve(engine_requests[i])

        threads = ([threading.Thread(target=vector_client, args=(i,))
                    for i in range(N_VECTOR_CLIENTS)]
                   + [threading.Thread(target=nan_client)]
                   + [threading.Thread(target=engine_client, args=(i,))
                      for i in range(len(engine_requests))])
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=280)
            if t.is_alive():
                failures.append("client thread hung: a response was "
                                "never delivered")

        for i, (out, ref) in enumerate(zip(vector_out, vector_refs)):
            if out is None:
                failures.append(f"vector client {i}: no response")
            elif not np.array_equal(np.asarray(out["x"]), ref.x):
                failures.append(f"vector client {i}: solution differs "
                                f"from the serial reference")
            elif out["iterations"] != ref.iterations:
                failures.append(f"vector client {i}: iteration count "
                                f"{out['iterations']} != {ref.iterations}")
        if not nan_out:
            failures.append("NaN-RHS client: no response")
        elif not (isinstance(nan_out[0], ServiceError)
                  and "non-finite" in str(nan_out[0])):
            failures.append(f"NaN-RHS client: wanted an error naming the "
                            f"non-finite RHS, got {nan_out[0]!r}")
        for req, out, ref in zip(engine_requests, engine_out, engine_refs):
            if out != ref:
                failures.append(f"engine request sid={req.sid}: run dict "
                                f"differs from the local reference")

        stats = client.stats()
        svc = stats["service"]
        print(f"requests={svc['requests']} batches={svc['batches']} "
              f"coalesced={svc['coalesced_batches']} "
              f"max_batch={svc['max_batch_size']} "
              f"engine={stats['engine']}")
        if svc["coalesced_batches"] < 1:
            failures.append(f"no coalesced batch formed: {svc}")
        if args.chaos and stats["engine"].get("pool_rebuilds", 0) < 1:
            failures.append(f"chaos run never rebuilt the pool: "
                            f"{stats['engine']}")

        client.shutdown()
        code = proc.wait(timeout=60)
        if code != 0:
            failures.append(f"daemon exited {code}, wanted 0")
        stdout = proc.stdout.read()
        final = json.loads(stdout) if stdout.strip() else {}
        if final.get("service", {}).get("requests") != svc["requests"]:
            failures.append("daemon's final stats JSON disagrees with the "
                            "live /v1/stats snapshot")
    finally:
        if proc.poll() is None:
            proc.kill()

    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    mode = "chaos" if args.chaos else "plain"
    print(f"service smoke OK ({mode}): all responses delivered "
          f"bit-identically")
    return 0


if __name__ == "__main__":
    sys.exit(main())
