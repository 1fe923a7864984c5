"""End-to-end tests of the HTTP ingestion service.

A real :class:`ServerThread` on an ephemeral port, talked to with the
blocking :class:`ServeClient` — the same pair the CI smoke job uses.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import pathlib
import random
import signal
import socket
import subprocess
import sys
import time

import pytest

from repro.api import stream_run
from repro.harness.cache import RunCache
from repro.harness.engine import ExperimentEngine
from repro.resilience import RetryPolicy
from repro.serve.app import ServerThread, _Handler
from repro.serve.client import ServeClient, ServeHTTPError
from repro.serve.jobs import ServeConfig
from repro.workloads.stream import default_steps

NPROCS = 8


@pytest.fixture()
def server(tmp_path):
    engine = ExperimentEngine(
        jobs=2, cache=RunCache(tmp_path / "cache"),
        policy=RetryPolicy(max_attempts=1, cell_deadline=None),
    )
    srv = ServerThread(
        engine, ServeConfig(port=0, max_stream_jobs=16)
    )
    srv.start()
    yield srv
    srv.stop()


@pytest.fixture()
def client(server):
    return ServeClient(port=server.port)


def _oracle(steps, engine=None, **kw):
    return stream_run(
        steps, nprocs=NPROCS, mode="chameleon",
        engine=engine or ExperimentEngine(jobs=0, cache=None), **kw
    )


class TestStreamedJobs:
    def test_streamed_equals_batch_fuzz(self, client):
        """Seeded fuzz: arbitrary chunk splits are bit-identical to batch."""
        steps = default_steps()
        expected = _oracle(steps)
        expected_trace = expected.trace.serialize()
        rng = random.Random(0x5E12)
        for _ in range(3):
            job = client.create_job(nprocs=NPROCS, mode="chameleon")["job"]
            remaining = list(steps)
            while remaining:
                n = rng.randint(1, len(remaining))
                client.send_events(job, remaining[:n])
                remaining = remaining[n:]
            client.close_job(job)
            doc = client.wait(job)
            assert doc["state"] == "complete"
            assert doc["result"]["fingerprint"] == expected.fingerprint()
            assert sorted(doc["result"]["lead_ranks"]) == \
                sorted(expected.lead_ranks)
            assert client.trace(job) == expected_trace
            clusters = client.clusters(job)
            assert sorted(clusters["leads"]) == sorted(expected.lead_ranks)

    def test_progress_advances_before_close(self, client):
        """Clustering is incremental: state advances while still open.

        Progress may trail the newest buffered step by one (a sibling
        rank can park the simulation on the *next* step before rank 0's
        publish runs), so with 3 steps sent we require >= 2 consumed.
        """
        import time

        steps = default_steps()
        job = client.create_job(nprocs=NPROCS, mode="chameleon")["job"]
        client.send_events(job, steps[:3])
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            doc = client.status(job)
            if doc["steps_consumed"] >= 2:
                break
            time.sleep(0.02)
        assert doc["state"] == "open"
        assert doc["steps_consumed"] >= 2
        assert doc["live"]["clusters"]["num_clusters"] >= 1
        client.send_events(job, steps[3:])
        client.close_job(job)
        assert client.wait(job)["state"] == "complete"

    def test_second_stream_is_cache_hit(self, client):
        steps = default_steps()
        for expect in ("stored", "hit"):
            job = client.create_job(nprocs=NPROCS, mode="chameleon")["job"]
            client.send_events(job, steps)
            client.close_job(job)
            doc = client.wait(job)
            assert doc["state"] == "complete"
            assert doc["cache"] == expect

    def test_streamed_cache_serves_batch_run(self, server, client):
        """A streamed job pre-warms the cache for the equivalent batch run."""
        steps = default_steps()
        job = client.create_job(nprocs=NPROCS, mode="chameleon")["job"]
        client.send_events(job, steps)
        client.close_job(job)
        doc = client.wait(job)
        assert doc["cache"] == "stored"
        engine = server.registry.engine
        before = engine.cache.stats.hits
        batch = _oracle(steps, engine=engine)
        assert engine.cache.stats.hits == before + 1
        assert batch.fingerprint() == doc["result"]["fingerprint"]

    def test_poisoned_stream_fails_with_quarantine(self, client):
        """Runtime-invalid events (bad bcast root) fail the one job."""
        job = client.create_job(nprocs=4, mode="chameleon")["job"]
        client.send_events(job, [{"ops": [{"op": "bcast", "root": 99}]}])
        client.close_job(job)
        doc = client.wait(job)
        assert doc["state"] == "failed"
        assert "quarantine" in doc
        assert "root 99" in doc["quarantine"]["reason"]

    def test_cancel_open_job(self, client):
        job = client.create_job(nprocs=4)["job"]
        client.cancel(job)
        assert client.wait(job)["state"] == "cancelled"


class TestWorkerProcesses:
    """Each streamed job simulates in its own worker process."""

    def test_two_streams_two_workers(self, server, client):
        steps = default_steps()
        expected = _oracle(steps)
        before = set(multiprocessing.active_children())
        jobs = [client.create_job(nprocs=NPROCS, mode="chameleon")["job"]
                for _ in range(2)]
        workers = set(multiprocessing.active_children()) - before
        assert len(workers) == 2
        assert os.getpid() not in {w.pid for w in workers}
        assert {server.registry.get(j).worker for j in jobs} == workers
        for job in jobs:
            client.send_events(job, steps)
            client.close_job(job)
        for job in jobs:
            doc = client.wait(job)
            assert doc["state"] == "complete"
            assert doc["result"]["fingerprint"] == expected.fingerprint()
            assert client.trace(job) == expected.trace.serialize()
        assert not any(w.is_alive() for w in workers)

    def test_killed_worker_fails_only_its_job(self, server, client):
        steps = default_steps()
        job = client.create_job(nprocs=NPROCS)["job"]
        client.send_events(job, steps[:3])
        os.kill(server.registry.get(job).worker.pid, signal.SIGKILL)
        doc = client.wait(job)
        assert doc["state"] == "failed"
        assert doc["error"] == f"worker exited with code {-signal.SIGKILL}"
        assert doc["quarantine"] == {"reason": "worker-died", "attempts": 1}
        with pytest.raises(ServeHTTPError) as err:
            client.send_events(job, steps[3:])
        assert err.value.status == 409
        again = client.create_job(nprocs=NPROCS)["job"]
        client.send_events(again, steps)
        client.close_job(again)
        doc = client.wait(again)
        assert doc["state"] == "complete"
        assert doc["result"]["fingerprint"] == _oracle(steps).fingerprint()

    def test_stop_with_an_open_stream_leaves_no_worker(self):
        engine = ExperimentEngine(jobs=0, cache=None)
        srv = ServerThread(engine, ServeConfig(port=0)).start()
        try:
            client = ServeClient(port=srv.port)
            job = client.create_job(nprocs=4)["job"]
            client.send_events(job, [{"ops": [{"op": "barrier"}]}])
            worker = srv.registry.get(job).worker
        finally:
            srv.stop()
        assert not worker.is_alive()
        assert worker not in multiprocessing.active_children()

    def test_cancelled_stream_leaves_no_worker(self, server, client):
        job = client.create_job(nprocs=4)["job"]
        client.send_events(job, [{"ops": [{"op": "barrier"}]}])
        worker = server.registry.get(job).worker
        client.cancel(job)
        assert client.wait(job)["state"] == "cancelled"
        assert not worker.is_alive()


class TestConcurrentTenants:
    def test_nine_tenants_one_poisoned(self, client):
        """>= 8 concurrent jobs multiplex over one engine; the poisoned
        one is quarantined without blocking its siblings."""
        steps = default_steps()
        good = []
        for i in range(8):
            # distinct seconds -> distinct digests -> real multiplexing
            my = [dict(s, ops=[dict(op) for op in s["ops"]]) for s in steps]
            my[0]["ops"].insert(0, {"op": "compute",
                                    "seconds": 0.0001 * (i + 1)})
            doc = client.create_job(nprocs=4, mode="chameleon", steps=my,
                                    label=f"tenant-{i}")
            good.append(doc["job"])
        poisoned = client.create_job(
            nprocs=4, steps=[{"ops": [{"op": "reduce", "root": 7}]}],
            label="poisoned",
        )["job"]
        done = [client.wait(j, timeout=180) for j in good]
        bad = client.wait(poisoned, timeout=180)
        assert [d["state"] for d in done] == ["complete"] * 8
        assert bad["state"] == "failed"
        assert "root 7" in bad["quarantine"]["reason"]
        states = client.stats()["by_state"]
        assert states.get("complete", 0) >= 8
        assert states.get("failed", 0) == 1

    def test_duplicate_uploads_dedup(self, client):
        steps = default_steps()
        a = client.create_job(nprocs=NPROCS, steps=steps)["job"]
        doc_a = client.wait(a)
        b = client.create_job(nprocs=NPROCS, steps=steps)["job"]
        doc_b = client.wait(b)
        assert doc_a["state"] == doc_b["state"] == "complete"
        assert doc_a["digest"] == doc_b["digest"]
        assert doc_b["cache"] == "hit"
        assert doc_a["result"]["fingerprint"] == doc_b["result"]["fingerprint"]


class TestErrors:
    def test_unknown_job_404(self, client):
        with pytest.raises(ServeHTTPError) as err:
            client.status("nope")
        assert err.value.status == 404

    def test_bad_event_line_400(self, client):
        job = client.create_job(nprocs=4)["job"]
        with pytest.raises(ServeHTTPError) as err:
            client.send_events(job, [{"ops": [{"op": "gatherv"}]}])
        assert err.value.status == 400

    def test_events_after_close_409(self, client):
        job = client.create_job(nprocs=4)["job"]
        client.send_events(job, [{"ops": [{"op": "barrier"}]}])
        client.close_job(job)
        with pytest.raises(ServeHTTPError) as err:
            client.send_events(job, [{"ops": [{"op": "barrier"}]}])
        assert err.value.status == 409
        client.wait(job)

    def test_sharded_job_rejected_400(self, client):
        with pytest.raises(ServeHTTPError) as err:
            client.create_job(nprocs=4, config={"shards": 2})
        assert err.value.status == 400
        assert "unknown --config key" in err.value.body

    def test_bad_spec_field_400(self, client):
        with pytest.raises(ServeHTTPError) as err:
            client.create_job(nprocs=4, bogus=True)
        assert err.value.status == 400

    def test_trace_before_complete_409(self, client):
        job = client.create_job(nprocs=4)["job"]
        with pytest.raises(ServeHTTPError) as err:
            client.trace(job)
        assert err.value.status == 409
        client.cancel(job)

    def test_unknown_route_404(self, client):
        with pytest.raises(ServeHTTPError) as err:
            client._json("GET", "/v2/anything")
        assert err.value.status == 404

    def test_health_and_stats(self, client):
        assert client.health() == {"ok": True}
        stats = client.stats()
        assert "jobs" in stats and "engine" in stats

    # -- the transport itself, over raw sockets ---------------------------

    def test_malformed_request_line_400(self, server):
        status, doc = _raw(server, b"garbage\r\n\r\n")
        assert status == 400
        assert "garbage" in doc["error"]

    @pytest.mark.parametrize("length", ["abc", "-1"])
    def test_bad_content_length_400(self, server, length):
        status, doc = _raw(
            server, f"POST /v1/jobs HTTP/1.1\r\nContent-Length: {length}"
            "\r\n\r\n".encode()
        )
        assert status == 400
        assert "Content-Length" in doc["error"]

    def test_oversized_body_413_before_it_is_sent(self, server):
        limit = server.app.config.max_body_bytes
        status, doc = _raw(
            server, f"POST /v1/jobs HTTP/1.1\r\nContent-Length: {limit + 1}"
            "\r\n\r\n".encode()
        )
        assert status == 413
        assert f"{limit}-byte limit" in doc["error"]

    def test_unsupported_method_501(self, server):
        status, doc = _raw(server, b"PUT /v1/jobs HTTP/1.1\r\n\r\n")
        assert status == 501
        assert "PUT" in doc["error"]

    def test_client_gone_mid_body_leaves_server_up(self, server, client,
                                                   capfd):
        # "{}" alone would create a job: the short body must not be routed
        with socket.create_connection(("127.0.0.1", server.port),
                                      timeout=10) as sock:
            sock.sendall(b"POST /v1/jobs HTTP/1.1\r\nContent-Length: 100"
                         b"\r\n\r\n{}")
        assert client.health() == {"ok": True}
        assert client.stats()["jobs"] == 0
        assert "Traceback" not in capfd.readouterr().err


    @pytest.mark.parametrize("partial", [
        b"POST /v1/jobs HTTP/1.1\r\nContent-Le",
        b"POST /v1/jobs HTTP/1.1\r\nContent-Length: 100\r\n\r\n{\"nprocs\"",
    ], ids=["mid-head", "mid-body"])
    def test_stalled_client_is_disconnected(self, server, client,
                                            monkeypatch, partial):
        assert _Handler.timeout == 30.0  # the shipped bound, scaled down:
        monkeypatch.setattr(_Handler, "timeout", 0.2)
        with socket.create_connection(("127.0.0.1", server.port),
                                      timeout=5) as sock:
            sock.sendall(partial)
            t0 = time.monotonic()
            assert sock.recv(1024) == b""  # closed by the server
            assert time.monotonic() - t0 < 4
        assert client.health() == {"ok": True}
        assert client.stats()["jobs"] == 0


def _raw(server, request: bytes) -> tuple[int, dict]:
    """Send ``request`` as-is; return the status and the JSON body."""
    with socket.create_connection(("127.0.0.1", server.port),
                                  timeout=10) as sock:
        sock.sendall(request)
        reply = sock.makefile("rb").read()
    head, _, body = reply.partition(b"\r\n\r\n")
    assert b"application/json" in head
    return int(head.split()[1]), json.loads(body)


class TestIdleTimeout:
    def test_quiet_stream_fails_as_idle(self, tmp_path):
        engine = ExperimentEngine(jobs=0, cache=None)
        srv = ServerThread(
            engine, ServeConfig(port=0, idle_timeout=0.2)
        ).start()
        try:
            client = ServeClient(port=srv.port)
            job = client.create_job(nprocs=4)["job"]
            client.send_events(job, [{"ops": [{"op": "barrier"}]}])
            doc = client.wait(job, timeout=30)
            assert doc["state"] == "failed"
            assert "idle-timeout" in doc["quarantine"]["reason"]
        finally:
            srv.stop()


def _src_env() -> dict:
    repo = pathlib.Path(__file__).resolve().parents[2]
    return dict(os.environ, PYTHONPATH=str(repo / "src"))


def test_app_import_leaves_asyncio_out():
    code = "import sys, repro.serve.app; print('asyncio' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=_src_env(),
                         capture_output=True, text=True, check=True,
                         timeout=60)
    assert out.stdout.strip() == "False"


class TestCliShutdown:
    @pytest.mark.parametrize("signame", ["SIGINT", "SIGTERM"])
    def test_sigint_stops_a_backgrounded_server(self, signame):
        # A process launched with `&` from a non-interactive shell (the
        # CI boot check) inherits SIGINT as SIG_IGN, so Python never
        # installs its KeyboardInterrupt handler; the CLI must install
        # explicit signal handlers or `kill -INT` is a no-op and the
        # server runs forever.  Reproduce that inheritance exactly;
        # SIGTERM must take the same graceful path.
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--jobs", "1", "--no-cache"],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, env=_src_env(),
            text=True,
            preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_IGN),
        )
        try:
            banner = proc.stdout.readline()
            assert "listening on" in banner
            proc.send_signal(getattr(signal, signame))
            out, _ = proc.communicate(timeout=30)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        assert proc.returncode == 0, out
        assert "shutting down" in out
