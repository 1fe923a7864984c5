"""The HTTP front of the ingestion service: a stdlib ``ThreadingHTTPServer``.

Every connection carries one request on its own thread
(``Connection: close``), bodies are bounded by
``jobs.MAX_BODY_BYTES``, and all responses are JSON except the
trace download (``text/plain``).  A connection that stalls mid-request
for ``_Handler.timeout`` seconds is closed, freeing its thread.  The
heavy lifting — each job's worker process, the cache, quarantine —
lives in :mod:`repro.serve.jobs`; handlers here only translate HTTP to
registry calls.

Routes (all under ``/v1`` except the health probe):

====== ============================= =======================================
POST   /v1/jobs                      create a job (201); body may carry
                                     inline ``steps`` for an upload job
POST   /v1/jobs/{id}/events          append one NDJSON chunk of step events
POST   /v1/jobs/{id}/close           end of stream; job finalizes
DELETE /v1/jobs/{id}                 cancel
GET    /v1/jobs/{id}                 status (live progress while streaming)
GET    /v1/jobs/{id}/clusters        current/final cluster set
GET    /v1/jobs/{id}/metrics         serve + run metrics
GET    /v1/jobs/{id}/result          result summary (409 until terminal)
GET    /v1/jobs/{id}/trace           final trace, ``text/plain``
GET    /v1/stats                     service-wide counters
GET    /healthz                      liveness probe
====== ============================= =======================================
"""

from __future__ import annotations

import json
import sys
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any

from ..harness.engine import ExperimentEngine
from .jobs import (
    MAX_BODY_BYTES,
    TERMINAL_STATES,
    JobError,
    JobRegistry,
    ServeConfig,
)

__all__ = ["ServeApp", "ServeConfig", "ServerThread"]

_JSON = "application/json"


def _json_bytes(doc: Any) -> bytes:
    return (json.dumps(doc, sort_keys=True) + "\n").encode("utf-8")


class _Handler(BaseHTTPRequestHandler):
    """One request: bound the body, route it, write one response."""

    server: ServeApp
    protocol_version = "HTTP/1.1"
    #: not the stdlib's HTTP/0.9, whose replies have no status line: a
    #: malformed request line still gets a 400 with headers and JSON
    default_request_version = "HTTP/1.1"
    #: buffer the response so its head and body leave in one write
    wbufsize = -1
    #: seconds a socket read or write may wait: a client that stalls
    #: mid-head or mid-body is disconnected instead of holding a thread
    timeout = 30.0

    def _serve(self) -> None:
        length_raw = self.headers.get("Content-Length", "0")
        try:
            length = int(length_raw)
        except ValueError:
            self._reply(400, {"error": f"bad Content-Length: {length_raw!r}"})
            return
        if length < 0:
            self._reply(400, {"error": "negative Content-Length"})
            return
        if length > MAX_BODY_BYTES:
            self._reply(413, {"error": f"body of {length} bytes exceeds the "
                              f"{MAX_BODY_BYTES}-byte limit"})
            return
        body = self.rfile.read(length) if length else b""
        if len(body) < length:
            return  # the client hung up mid-body
        path = self.path.split("?", 1)[0]
        try:
            status, doc, content_type = self.server.route(
                self.command, path, body
            )
        except JobError as exc:
            status, doc, content_type = exc.status, {"error": str(exc)}, _JSON
        except Exception as exc:  # noqa: BLE001 - last-resort 500
            status, doc, content_type = (
                500, {"error": f"{type(exc).__name__}: {exc}"}, _JSON
            )
        self._reply(status, doc, content_type)

    do_GET = do_POST = do_DELETE = _serve

    def _reply(self, status: int, doc: Any, content_type: str = _JSON) -> None:
        payload = doc.encode("utf-8") if isinstance(doc, str) else \
            _json_bytes(doc)
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(payload)))
        self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(payload)

    def send_error(self, code: int, message: str | None = None,
                   explain: str | None = None) -> None:
        # The stdlib's own parse errors (400, 414, 431, 501) get a JSON
        # body like every other error, not its HTML page.
        self._reply(code, {"error": message or self.responses[code][0]})

    def log_message(self, format: str, *args: Any) -> None:
        pass


class ServeApp(ThreadingHTTPServer):
    """One server instance: a registry plus a thread-per-request server.

    Binds at construction (``port=0`` picks an ephemeral port); serve it
    with :class:`ServerThread`.
    """

    daemon_threads = True
    request_queue_size = 128

    def __init__(self, engine: ExperimentEngine,
                 config: ServeConfig | None = None) -> None:
        self.config = config or ServeConfig()
        super().__init__((self.config.host, self.config.port), _Handler)
        self.port: int = self.server_address[1]
        self.registry = JobRegistry(engine, self.config)

    def handle_error(self, request: Any, client_address: Any) -> None:
        # A client that hangs up mid-exchange is not a server fault.
        if not isinstance(sys.exc_info()[1], ConnectionError):
            super().handle_error(request, client_address)

    # -- routing (runs on the request's thread; may block on registry locks)

    def route(self, method: str, path: str,
              body: bytes) -> tuple[int, Any, str]:
        reg = self.registry
        if path == "/healthz" and method == "GET":
            return 200, {"ok": True}, "application/json"
        if path == "/v1/stats" and method == "GET":
            return 200, reg.stats(), "application/json"
        if path == "/v1/jobs":
            if method != "POST":
                raise JobError(405, "POST /v1/jobs")
            job = reg.create(self._json_body(body))
            return 201, job.status_doc(), "application/json"
        if path.startswith("/v1/jobs/"):
            rest = path[len("/v1/jobs/"):]
            job_id, _, action = rest.partition("/")
            if not job_id or "/" in action:
                raise JobError(404, f"no such route: {path}")
            if action == "" and method == "DELETE":
                state = reg.get(job_id).cancel()
                return 200, {"job": job_id, "state": state}, \
                    "application/json"
            if method == "POST":
                if action == "events":
                    return 200, reg.append(job_id, body), "application/json"
                if action == "close":
                    job = reg.get(job_id)
                    job.close()
                    return 200, job.status_doc(), "application/json"
                raise JobError(404, f"no such route: {path}")
            if method == "GET":
                job = reg.get(job_id)
                if action == "":
                    return 200, job.status_doc(), "application/json"
                if action == "clusters":
                    return 200, job.clusters_doc(), "application/json"
                if action == "metrics":
                    return 200, job.metrics_doc(), "application/json"
                if action == "result":
                    if job.state not in TERMINAL_STATES:
                        raise JobError(
                            409, f"job {job_id} is {job.state}; result is "
                            "available once terminal"
                        )
                    return 200, job.status_doc(), "application/json"
                if action == "trace":
                    return 200, job.trace_text(), "text/plain; charset=utf-8"
                raise JobError(404, f"no such route: {path}")
            raise JobError(405, f"{method} not allowed on {path}")
        raise JobError(404, f"no such route: {path}")

    @staticmethod
    def _json_body(body: bytes) -> dict[str, Any]:
        if not body:
            return {}
        try:
            doc = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise JobError(400, f"body is not valid JSON: {exc}") from None
        if not isinstance(doc, dict):
            raise JobError(400, "body must be a JSON object")
        return doc


class ServerThread:
    """The one serve loop: a :class:`ServeApp` served by a daemon thread.

    ``repro serve``, the test-suite and the CI smoke script all run the
    server this way: ``with ServerThread(engine) as srv: ... srv.port ...``.
    """

    def __init__(self, engine: ExperimentEngine,
                 config: ServeConfig | None = None) -> None:
        self.app = ServeApp(engine, config)
        self.port = self.app.port
        self.registry = self.app.registry
        # A 0.05 s poll, not the stdlib's 0.5 s: shutdown() waits for the
        # loop's next poll, so the default made every stop() take 0.5 s.
        self._thread = threading.Thread(
            target=self.app.serve_forever, kwargs={"poll_interval": 0.05},
            name="repro-serve", daemon=True,
        )

    def start(self) -> "ServerThread":
        self._thread.start()
        return self

    def stop(self, timeout: float = 10.0) -> None:
        if self._thread.is_alive():
            self.app.shutdown()
            self._thread.join(timeout)
        self.app.server_close()
        self.registry.shutdown()

    def __enter__(self) -> "ServerThread":
        return self.start()

    def __exit__(self, *exc: Any) -> None:
        self.stop()
