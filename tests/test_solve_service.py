"""Tests for the solve service: coalescer, daemon end-to-end, client.

The coalescer tests pin the grouping contract (same-key concurrent jobs
merge into one batch, mixed keys never merge, ``coalesce=False`` gives
singleton batches) and the demux contract (positional results, per-batch
error propagation).  The daemon tests run a real HTTP server in
process: coalesced vector solves come back bit-identical to the serial
single-RHS path, engine requests come back as the exact local
``MatrixRun``, malformed requests fail alone without poisoning the
batch they rode in, and request bodies are framed correctly on a
kept-alive connection.
"""

import http.client
import json
import socket
import threading

import numpy as np
import pytest

from repro.api import RunConfig
from repro.api.config import active as active_config
from repro.api.specs import RunRequest
from repro.experiments.common import (
    clear_run_caches,
    platform_operator,
    run_request,
)
from repro.service import (
    Coalescer,
    ServiceClient,
    ServiceCounters,
    ServiceError,
    SolveService,
    VectorJob,
)
from repro.service.client import parse_address
from repro.solvers import cg


def _send_raw(sock, raw):
    """Write raw request bytes on ``sock`` and parse the reply's head.  A
    reply that never comes raises ``TimeoutError`` (the socket's timeout)."""
    sock.sendall(raw)
    resp = http.client.HTTPResponse(sock)
    resp.begin()
    return resp


@pytest.fixture
def service():
    """An in-process daemon with a wide window and max_batch=3, so
    same-key tests flush deterministically on the size bound."""
    cfg = RunConfig(service_batch_window=5.0, service_batch_max=3)
    svc = SolveService(port=0, config=cfg)
    thread = threading.Thread(target=svc.serve_forever, daemon=True)
    thread.start()
    host, port = svc.address
    client = ServiceClient(f"{host}:{port}", timeout=120.0)
    yield svc, client
    svc.close()
    thread.join(timeout=10)
    clear_run_caches()


class TestVectorJob:
    def test_round_trip(self):
        job = VectorJob(sid=2257, scale="test", solver="bicgstab",
                        rhs=(1.0, 2.5, -3.0))
        again = VectorJob.from_json(job.to_json())
        assert again == job

    def test_batch_key_groups_by_identity_not_rhs(self):
        crit = active_config().effective_criterion
        a = VectorJob(sid=2257, scale="test", rhs=(1.0, 2.0))
        b = VectorJob(sid=2257, scale="test", rhs=(9.0, 8.0))
        c = VectorJob(sid=353, scale="test", rhs=(1.0, 2.0))
        assert a.batch_key(crit) == b.batch_key(crit)
        assert a.batch_key(crit) != c.batch_key(crit)

    def test_validation(self):
        with pytest.raises(ValueError):
            VectorJob(sid=2257, scale="nope")
        with pytest.raises(ValueError):
            VectorJob(sid=2257, scale="test", solver="")
        with pytest.raises(ValueError):
            VectorJob(sid=2257, scale="test", rhs=())


class TestCoalescer:
    def _collecting_runner(self, batches):
        def runner(key, jobs):
            batches.append((key, list(jobs)))
            return [f"{key}:{job}" for job in jobs]
        return runner

    def test_same_key_jobs_merge_into_one_batch(self):
        batches = []
        counters = ServiceCounters()
        co = Coalescer(self._collecting_runner(batches), window=5.0,
                       max_batch=3, counters=counters)
        try:
            futs = [co.submit("k", i) for i in range(3)]
            results = [f.result(timeout=30) for f in futs]
        finally:
            co.close()
        assert len(batches) == 1
        assert batches[0][1] == [0, 1, 2]
        assert results == ["k:0", "k:1", "k:2"]  # positional demux
        snap = counters.to_dict()
        assert snap["batches"] == 1
        assert snap["coalesced_batches"] == 1
        assert snap["max_batch_size"] == 3

    def test_mixed_keys_never_merge(self):
        batches = []
        counters = ServiceCounters()
        co = Coalescer(self._collecting_runner(batches), window=0.05,
                       max_batch=8, counters=counters)
        try:
            fa = co.submit("a", 1)
            fb = co.submit("b", 2)
            assert fa.result(timeout=30) == "a:1"
            assert fb.result(timeout=30) == "b:2"
        finally:
            co.close()
        assert sorted(key for key, _ in batches) == ["a", "b"]
        assert all(len(jobs) == 1 for _, jobs in batches)
        assert counters.to_dict()["coalesced_batches"] == 0

    def test_coalesce_off_gives_singleton_batches(self):
        batches = []
        co = Coalescer(self._collecting_runner(batches), window=5.0,
                       max_batch=8, coalesce=False)
        try:
            futs = [co.submit("k", i) for i in range(4)]
            assert [f.result(timeout=30) for f in futs] == [
                "k:0", "k:1", "k:2", "k:3"]
        finally:
            co.close()
        assert len(batches) == 4

    def test_window_flushes_partial_batch(self):
        batches = []
        co = Coalescer(self._collecting_runner(batches), window=0.05,
                       max_batch=100)
        try:
            fut = co.submit("k", 7)
            assert fut.result(timeout=30) == "k:7"
        finally:
            co.close()
        assert batches == [("k", [7])]

    def test_runner_error_fails_every_future_in_batch(self):
        def runner(key, jobs):
            raise RuntimeError("batch exploded")

        co = Coalescer(runner, window=5.0, max_batch=2)
        try:
            futs = [co.submit("k", i) for i in range(2)]
            for fut in futs:
                with pytest.raises(RuntimeError, match="batch exploded"):
                    fut.result(timeout=30)
        finally:
            co.close()

    def test_closed_coalescer_rejects_submissions(self):
        co = Coalescer(lambda key, jobs: list(jobs), window=0.01,
                       max_batch=1)
        co.close()
        with pytest.raises(RuntimeError, match="closed"):
            co.submit("k", 1)


class TestDaemonEndToEnd:
    def test_coalesced_vector_solves_bit_identical_to_serial(self, service):
        svc, client = service
        sid, k = 2257, 3
        _, op = platform_operator(sid, "test")
        n = op.shape[0]
        rng = np.random.default_rng(17)
        cols = [rng.standard_normal(n) for _ in range(k)]
        results = [None] * k
        errors = []

        def worker(i):
            job = VectorJob(sid=sid, scale="test",
                            rhs=tuple(float(v) for v in cols[i]))
            try:
                results[i] = client.solve_vector(job)
            except BaseException as exc:  # surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(k)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert not errors
        crit = active_config().effective_criterion
        for i, res in enumerate(results):
            assert res["batch"]["size"] == k  # they rode one batch
            ref = cg(op, cols[i], criterion=crit)
            assert np.array_equal(np.asarray(res["x"]), ref.x)
            assert res["iterations"] == ref.iterations
            assert res["residual_norm"] == ref.residual_norm
            assert res["converged"] == ref.converged
        stats = client.stats()
        assert stats["service"]["coalesced_batches"] == 1
        assert stats["service"]["vector_jobs"] == k
        assert stats["service"]["batch_matmats"] > 0

    @pytest.mark.parametrize("bad", ["wrong-length", "nan"])
    def test_bad_rhs_fails_alone_not_the_batch(self, service, bad):
        svc, client = service
        sid = 2257
        _, op = platform_operator(sid, "test")
        n = op.shape[0]
        rng = np.random.default_rng(23)
        good_rhs = rng.standard_normal(n)
        if bad == "wrong-length":
            bad_rhs, error = np.ones(3), "rhs must have length"
        else:
            # JSON carries the NaN through (json.dumps and json.loads both
            # accept it), so only the daemon can keep it out of the block.
            bad_rhs, error = np.ones(n), "rhs contains non-finite values"
            bad_rhs[0] = np.nan
        outcomes = {}

        def send(name, rhs):
            job = VectorJob(sid=sid, scale="test",
                            rhs=tuple(float(v) for v in rhs))
            try:
                outcomes[name] = client.solve_vector(job)
            except ServiceError as exc:
                outcomes[name] = exc

        threads = [
            threading.Thread(target=send, args=("good", good_rhs)),
            threading.Thread(target=send, args=("bad", bad_rhs)),
            threading.Thread(target=send, args=("good2", good_rhs)),
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert isinstance(outcomes["bad"], ServiceError)
        assert error in str(outcomes["bad"])
        # A rejected RHS is a client error, like an unknown solver: a 400
        # whose latency is not counted with the served solves.
        assert outcomes["bad"].status == 400
        crit = active_config().effective_criterion
        ref = cg(op, good_rhs, criterion=crit)
        for name in ("good", "good2"):
            assert not isinstance(outcomes[name], ServiceError)
            assert np.array_equal(np.asarray(outcomes[name]["x"]), ref.x)
        assert client.stats()["service"]["latency"]["count"] == 2

    def test_unsupported_solver_rejected_up_front(self, service):
        svc, client = service
        for solver in ("block_cg", "gmres"):
            job = VectorJob(sid=2257, scale="test", solver=solver)
            with pytest.raises(ServiceError) as excinfo:
                client.solve_vector(job)
            assert excinfo.value.status == 400
            assert "registered: ['bicgstab', 'cg']" in str(excinfo.value)

    def test_engine_request_matches_local_run(self, service):
        svc, client = service
        request = RunRequest(sid=353, solver="cg", scale="test",
                             platforms=("gpu", "refloat"))
        remote = client.solve(request)
        local = run_request(request)
        assert remote == local.to_dict()

    def test_engine_failure_surfaces_as_structured_error(self, service):
        svc, client = service
        request = RunRequest(sid=999999, solver="cg", scale="test")
        with pytest.raises(ServiceError) as excinfo:
            client.solve(request)
        err = excinfo.value
        assert err.failure is not None or err.status in (400, 500)

    def test_health_and_stats_endpoints(self, service):
        svc, client = service
        health = client.health()
        assert health["ok"] is True
        stats = client.stats()
        assert {"service", "engine", "store"} <= set(stats)
        assert stats["coalesce"]["max_batch"] == 3

    def test_unknown_paths_and_malformed_bodies_get_4xx(self, service):
        svc, client = service
        status, payload = client._json("GET", "/v1/nope")
        assert status == 404
        status, _ = client._request("POST", "/v1/solve", b"{ not json")
        assert status == 400
        status, _ = client._request(
            "POST", "/v1/solve",
            json.dumps({"type": "Mystery"}).encode())
        assert status == 400

    @pytest.mark.parametrize("length", ["-1", "ten"])
    def test_bad_content_length_gets_400_and_closes(self, service, length):
        svc, _ = service
        with socket.create_connection(svc.address, timeout=10.0) as sock:
            resp = _send_raw(sock, (
                f"POST /v1/solve HTTP/1.1\r\nHost: x\r\n"
                f"Content-Length: {length}\r\n\r\n").encode())
            assert resp.status == 400
            assert resp.getheader("Connection") == "close"
            assert b"Content-Length" in resp.read()
            assert sock.recv(1) == b""  # the daemon hung up

    def test_unread_body_does_not_leak_into_next_request(self, service):
        svc, _ = service
        with socket.create_connection(svc.address, timeout=10.0) as sock:
            # A body on a path the daemon rejects must still be consumed:
            # the next request rides the same kept-alive connection.
            nope = _send_raw(sock, b"POST /v1/nope HTTP/1.1\r\nHost: x\r\n"
                                   b"Content-Length: 11\r\n\r\nhello world")
            assert nope.status == 404
            nope.read()
            health = _send_raw(sock, b"GET /v1/health HTTP/1.1\r\n"
                                     b"Host: x\r\n\r\n")
            assert health.status == 200
            assert json.loads(health.read())["ok"] is True


class TestInProcessDaemon:
    def test_close_without_serve_loop_returns(self):
        # Driven through submit_vector only: serve_forever never runs, so
        # close() must not wait for a serve loop to acknowledge shutdown.
        outcome = {}

        def drive():
            with SolveService(port=0) as svc:
                outcome["result"] = svc.submit_vector(
                    VectorJob(sid=1313, scale="test")).result(timeout=60)
            outcome["closed"] = True

        thread = threading.Thread(target=drive, daemon=True)
        try:
            thread.start()
            thread.join(timeout=30)
            assert outcome.get("closed"), "close() hung without a serve loop"
            assert outcome["result"]["converged"]
        finally:
            clear_run_caches()


class TestServiceClient:
    def test_parse_address(self):
        assert parse_address("localhost:8537") == ("localhost", 8537)
        assert parse_address("http://10.0.0.2:80/") == ("10.0.0.2", 80)
        for bad in ("nohost", "host:", ":123", "host:port"):
            with pytest.raises(ValueError):
                parse_address(bad)

    def test_unreachable_service_raises_after_retries(self):
        client = ServiceClient("127.0.0.1:9", timeout=0.5, retries=2,
                               backoff=0.0)
        with pytest.raises(ServiceError, match="cannot reach"):
            client.health()

    def test_from_config_wires_retry_knobs(self):
        cfg = RunConfig(request_timeout=7.0, request_retries=3,
                        retry_backoff=0.25)
        client = ServiceClient.from_config("h:1", cfg)
        assert (client.timeout, client.retries, client.backoff) == (
            7.0, 3, 0.25)
