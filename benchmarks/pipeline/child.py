"""One repetition of one benchmark workload, in a fresh interpreter.

``run.py`` starts this file as ``python child.py '<spec json>'`` with a
scrubbed environment (``PYTHONHASHSEED``, ``PYTHONPATH=src`` and ``PATH``
only), one child at a time, and reads one JSON object from its stdout.

A repetition is: set up (import ``repro``, build the workload or generate
the stream program, boot the server for ``serve_stream``, one warm-up
``app`` twin), run the ``app``-mode twin, run the traced-mode cell, and — for ``serve_stream`` —
stream the program to the in-process server from two tenant threads.
With ``"traced": true`` the layers' public callables are wrapped by
:mod:`spans` around the cells and the per-layer numbers are added; the
end-to-end numbers of a traced repetition are never reported.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import shutil
import statistics
import sys
import threading
import time
from typing import Any, Callable

import repro
from repro.core.callpath import SignatureAccumulator
from repro.core.clustering import ClusterSet, find_top_k
from repro.harness.cache import RunCache
from repro.harness.engine import ExperimentEngine, make_cell
from repro.harness.runner import Mode, run_mode
from repro.obs.schema import validate as schema_validate
from repro.resilience import RetryPolicy
from repro.scalatrace.inter import merge_traces
from repro.scalatrace.intra import IntraCompressor
from repro.scalatrace.signatures import StackWalker
from repro.scalatrace.trace import Trace
from repro.serve.app import ServerThread
from repro.serve.client import ServeClient
from repro.serve.jobs import TERMINAL_STATES, ServeConfig
from repro.serve.protocol import event_schema
from repro.simmpi.launcher import run_spmd
from repro.workloads import registry
from repro.workloads.base import declare_pattern
from repro.workloads.stream import canonical_steps_json, normalize_steps

import gen_stream
from hostspeed import HostSpeed
from spans import SpanLog

#: an ``app`` twin under a second is repeated until a second is spent
APP_MIN_SECONDS = 1.0
APP_MAX_REPEATS = 5
#: calls against the warm cache behind ``harness.cache_hit_ms``
WARM_CALLS = 20
JOB_TIMEOUT_S = 150.0
POLL_S = 0.02

#: per-layer ``<metric>_s`` / ``<metric>_calls`` -> the spans they sum
SPAN_METRICS = {
    "scalatrace.capture": ("scalatrace.StackWalker.capture",),
    "scalatrace.intra_append": ("scalatrace.IntraCompressor.append",),
    "scalatrace.size_bytes": ("scalatrace.IntraCompressor.size_bytes",
                              "scalatrace.Trace.size_bytes"),
    "scalatrace.inter_merge": ("scalatrace.merge_traces",),
    "core.observe": ("core.SignatureAccumulator.observe",),
    "core.cluster": ("core.ClusterSet.merge", "core.ClusterSet.prune",
                     "core.find_top_k"),
}
#: spans that enclose the layers rather than being one
ENVELOPE_SPANS = ("api.run", "harness.run_mode", "workloads.make_workload")


def install(log: SpanLog) -> None:
    """Wrap the layers' synchronous public callables."""
    log.wrap_method(StackWalker, "capture", "scalatrace.StackWalker.capture")
    # capture() walks the Python stack from its caller: the wrapper's
    # frame must be skipped like the tracer's own, or every call-path
    # signature (and with it the trace and the fingerprint) would change.
    log.set_attr(StackWalker, "_SKIP_FRAGMENTS",
                 StackWalker._SKIP_FRAGMENTS + ("/pipeline/spans.py",))
    log.wrap_method(IntraCompressor, "append",
                    "scalatrace.IntraCompressor.append")
    log.wrap_method(IntraCompressor, "size_bytes",
                    "scalatrace.IntraCompressor.size_bytes")
    log.wrap_method(Trace, "size_bytes", "scalatrace.Trace.size_bytes")
    log.wrap_function(merge_traces, "scalatrace.merge_traces")
    log.wrap_method(SignatureAccumulator, "observe",
                    "core.SignatureAccumulator.observe")
    log.wrap_method(ClusterSet, "merge", "core.ClusterSet.merge")
    log.wrap_method(ClusterSet, "prune", "core.ClusterSet.prune")
    log.wrap_function(find_top_k, "core.find_top_k")
    log.wrap_function(run_spmd, "simmpi.run_spmd", keep_result=True)
    log.wrap_function(run_mode, "harness.run_mode")
    log.wrap_function(registry.make_workload, "workloads.make_workload")
    log.wrap_function(declare_pattern, "workloads.declare_pattern")


def clock(fn: Callable, *args: Any) -> tuple[Any, float]:
    t0 = time.perf_counter()
    out = fn(*args)
    return out, time.perf_counter() - t0


def events_of(result: Any) -> tuple[int, int]:
    recorded = sum(s.events_recorded for s in result.tracer_stats)
    skipped = sum(s.events_skipped for s in result.tracer_stats)
    return recorded, skipped


# -- serve_stream: tenants against the in-process server -----------------


class CountingClient(ServeClient):
    """A ServeClient that counts its requests and the non-2xx replies."""

    def __init__(self, tenants: "Tenants") -> None:
        super().__init__(port=tenants.port, timeout=60.0)
        self.tenants = tenants

    def _request(self, method, path, body=None,
                 content_type="application/json"):
        status, text = super()._request(method, path, body, content_type)
        with self.tenants.lock:
            self.tenants.requests += 1
            if not 200 <= status < 300:
                self.tenants.errors += 1
        return status, text


def job_record() -> dict[str, Any]:
    """What the polls of one job accumulate."""
    return {"ack_ms": [], "status_ms": [], "backlog_max": 0,
            "first_cluster_s": None, "state": "error"}


def poll(client: ServeClient, job: str, rec: dict, t_first: float) -> dict:
    """One timed status request; keeps the backlog and the first moment a
    status shows elected leads."""
    doc, wall = clock(client.status, job)
    rec["status_ms"].append(wall * 1e3)
    rec["backlog_max"] = max(
        rec["backlog_max"], doc["steps_received"] - doc["steps_consumed"]
    )
    if rec["first_cluster_s"] is None and (
        doc.get("live", {}).get("clusters", {}).get("leads")
    ):
        rec["first_cluster_s"] = time.perf_counter() - t_first
    return doc


def await_job(client: ServeClient, job: str, rec: dict, t_first: float) -> dict:
    """Poll a job to a terminal state."""
    deadline = time.monotonic() + JOB_TIMEOUT_S
    while True:
        doc = poll(client, job, rec, t_first)
        if doc["state"] in TERMINAL_STATES:
            return doc
        if time.monotonic() >= deadline:
            raise TimeoutError(f"job {job} still {doc['state']}")
        time.sleep(POLL_S)


class Tenants:
    """The client side of ``serve_stream``: what is streamed, where to, and
    the tally of HTTP requests made."""

    def __init__(self, port: int, program: list[dict], serve: dict,
                 nprocs: int, mode: str) -> None:
        self.port, self.program, self.serve = port, program, serve
        self.job_spec = {"nprocs": nprocs, "mode": mode}
        self.lock = threading.Lock()
        self.requests = 0
        self.errors = 0

    def stream_job(self, label: str, probe: bool) -> dict:
        """One tenant, closed loop: the next chunk goes out after the ack."""
        client = CountingClient(self)
        rec = job_record()
        try:
            t_create = time.perf_counter()
            job = client.create_job(**self.job_spec, label=label)["job"]
            t_first = time.perf_counter()
            chunk = self.serve["chunk"]
            for lo in range(0, len(self.program), chunk):
                _ack, wall = clock(client.send_events, job,
                                   self.program[lo:lo + chunk])
                rec["ack_ms"].append(wall * 1e3)
                if probe:
                    # a status poll per ack, so the backlog is seen building
                    poll(client, job, rec, t_first)
            t_close = time.perf_counter()
            client.close_job(job)
            doc = await_job(client, job, rec, t_first)
            t_done = time.perf_counter()
            rec.update(
                state=doc["state"], error=doc.get("error"),
                latency_s=t_done - t_create,
                close_to_complete_s=t_done - t_close,
                steps_consumed=doc["steps_consumed"], cache=doc.get("cache"),
            )
            if doc["state"] == "complete":
                rec["fingerprint"] = doc["result"]["fingerprint"]
                rec["leads"] = sorted(client.clusters(job)["leads"])
                rec["trace"] = client.trace(job)
        except Exception as exc:  # noqa: BLE001 - a tenant's failure is a result
            rec["error"] = f"{type(exc).__name__}: {exc}"
        return rec

    def round(self, twin: Any, probe: bool) -> dict:
        """All tenants stream the same program concurrently."""
        recs: list[dict] = [{} for _ in range(self.serve["tenants"])]

        def tenant(i: int) -> None:
            recs[i] = self.stream_job(f"tenant{i}", probe)

        threads = [threading.Thread(target=tenant, args=(i,))
                   for i in range(len(recs))]
        t0 = time.perf_counter()
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        wall = time.perf_counter() - t0
        twin_trace = twin.trace.serialize()
        jobs = [{
            "state": rec["state"], "error": rec.get("error"),
            "latency_s": rec.get("latency_s"),
            "close_to_complete_s": rec.get("close_to_complete_s"),
            "fingerprint": rec.get("fingerprint"), "leads": rec.get("leads"),
            "trace_equal": rec.get("trace") == twin_trace,
            "cache": rec.get("cache"),
        } for rec in recs]
        return {
            "wall_s": wall, "jobs": jobs,
            "steps_consumed": sum(r.get("steps_consumed", 0) for r in recs),
            "ack_ms": [v for r in recs for v in r["ack_ms"]],
            "status_ms": [v for r in recs for v in r["status_ms"]],
            "backlog_max": max(r["backlog_max"] for r in recs),
            "first_cluster_s": [r["first_cluster_s"] for r in recs],
        }

    def extras(self, twin: Any) -> dict:
        """Traced run only: an identical re-stream and an upload of the same
        program, both after the round has warmed the server's cache."""
        again = self.stream_job("restream", probe=False)
        client = CountingClient(self)
        t0 = time.perf_counter()
        job = client.create_job(**self.job_spec, steps=self.program,
                                label="upload")["job"]
        doc = await_job(client, job, job_record(), t0)
        upload_ms = (time.perf_counter() - t0) * 1e3
        fingerprint = twin.fingerprint()
        ok = (
            again.get("fingerprint") == fingerprint
            and again.get("cache") == "hit"
            and doc["state"] == "complete" and doc.get("cache") == "hit"
            and doc["result"]["fingerprint"] == fingerprint
        )
        return {"restream_s": again.get("latency_s", 0.0),
                "ack_ms": again["ack_ms"], "upload_hit_ms": upload_ms,
                "ok": ok,
                "detail": {"restream": [again["state"], again.get("cache")],
                           "upload": [doc["state"], doc.get("cache")]}}


def serve_metrics(round_: dict, extras: dict,
                  tenants: Tenants) -> dict[str, float]:
    acks = round_["ack_ms"] + extras["ack_ms"]
    jobs = round_["jobs"]
    first = [v for v in round_["first_cluster_s"] if v is not None]
    return {
        "serve.ack_ms": statistics.median(acks),
        # about ten samples lie beyond it, at the 96 acks of round + re-stream
        "serve.ack_p90_ms": statistics.quantiles(acks, n=10)[-1],
        "serve.status_ms": statistics.median(round_["status_ms"]),
        "serve.first_cluster_s": statistics.median(first) if first else 0.0,
        "serve.backlog_max_steps": round_["backlog_max"],
        "serve.close_to_complete_s": statistics.median(
            j["close_to_complete_s"] or 0.0 for j in jobs),
        "serve.restream_s": extras["restream_s"],
        "serve.upload_hit_ms": extras["upload_hit_ms"],
        "serve.http_requests": tenants.requests,
        "serve.http_errors": tenants.errors,
    }


# -- per-layer numbers of a traced repetition -----------------------------


def layer_metrics(log: SpanLog, runs: list[dict], n_app: int,
                  cell_wall: float) -> dict[str, float]:
    """``runs`` is ``log.totals()``: set-up (with its warm-up twin), the
    ``app`` twins, the cell."""
    setup, app_runs, totals = runs[0], runs[1:1 + n_app], runs[1 + n_app]
    zero = {"calls": 0, "dur_s": 0.0, "self_s": 0.0}
    out: dict[str, float] = {}
    for metric, names in SPAN_METRICS.items():
        out[f"{metric}_s"] = sum(totals.get(n, zero)["self_s"] for n in names)
        out[f"{metric}_calls"] = sum(totals.get(n, zero)["calls"] for n in names)
    out["simmpi.self_s"] = totals["simmpi.run_spmd"]["self_s"]
    out["simmpi.app_run_s"] = statistics.median(
        run["simmpi.run_spmd"]["dur_s"] for run in app_runs
    )
    out["harness.overhead_s"] = (
        totals["api.run"]["dur_s"] - totals["harness.run_mode"]["dur_s"]
    )
    # Everything nested under run_spmd, plus run_spmd's own residue, plus
    # what repro.run spends outside run_mode, against the cell's wall: only
    # run_mode's own few lines are left out, so this must be close to 1.
    attributed = out["harness.overhead_s"] + sum(
        entry["self_s"] for name, entry in totals.items()
        if name not in ENVELOPE_SPANS
    )
    out["obs.attributed_x"] = attributed / cell_wall
    out["workloads.build_s"] = sum(
        setup.get(n, zero)["self_s"]
        for n in ("workloads.make_workload", "workloads.declare_pattern")
    )
    spmd = log.returned["simmpi.run_spmd"]
    out["simmpi.engine_steps"] = spmd.engine_steps
    out["simmpi.messages_matched"] = spmd.messages_matched
    out["simmpi.coll_fast"] = spmd.collectives_fast
    out["simmpi.coll_simulated"] = spmd.collectives_simulated
    out["simmpi.p2p_fast"] = spmd.p2p_fast
    out["simmpi.p2p_simulated"] = spmd.p2p_simulated
    return out


def result_metrics(result: Any) -> dict[str, float]:
    recorded, skipped = events_of(result)
    out: dict[str, float] = {
        "scalatrace.events_recorded": recorded,
        "scalatrace.events_skipped": skipped,
        "scalatrace.peak_trace_bytes": max(
            s.peak_bytes for s in result.tracer_stats
        ),
        "core.leads": len(result.lead_ranks),
    }
    cstats = result.chameleon_stats[0] if result.chameleon_stats else None
    states = cstats.state_counts if cstats else {}
    out["core.reclusterings"] = cstats.reclusterings if cstats else 0
    out["core.k_used"] = cstats.k_used if cstats else 0
    out["core.markers_AT"] = states.get("all-tracing", 0)
    out["core.markers_C"] = states.get("clustering", 0)
    out["core.markers_L"] = states.get("lead", 0)
    text, out["scalatrace.serialize_s"] = clock(result.trace.serialize)
    _, out["scalatrace.deserialize_s"] = clock(Trace.deserialize, text)
    _, out["harness.fingerprint_s"] = clock(result.fingerprint)
    replayed, out["replay.wall_s"] = clock(repro.replay, result.trace)
    out["replay.events"] = replayed.stats.ops_issued
    return out


def cache_metrics(engine: ExperimentEngine, digest: str, result: Any,
                  warm_call: Callable[[], Any]) -> tuple[dict[str, float], bool]:
    """Store, load and hit one entry; also says whether every warm call was
    a hit that returned the same result."""
    cache = engine.cache
    assert cache is not None
    out: dict[str, float] = {}
    _, out["harness.cache_put_s"] = clock(cache.put, digest, result)
    got, out["harness.cache_get_s"] = clock(cache.get, digest)
    out["harness.cache_entry_kb"] = cache.path_for(digest).stat().st_size / 1024
    hits_before = cache.stats.hits
    walls = []
    fingerprints = {got.fingerprint() if got is not None else None}
    for _ in range(WARM_CALLS):
        warm, wall = clock(warm_call)
        walls.append(wall * 1e3)
        fingerprints.add(warm.fingerprint())
    out["harness.cache_hit_ms"] = statistics.median(walls)
    ok = (fingerprints == {result.fingerprint()}
          and cache.stats.hits - hits_before == WARM_CALLS)
    return out, ok


# -- one repetition ---------------------------------------------------------


class Rep:
    """The set-up of one repetition: what the timed sections run against."""

    def __init__(self, spec: dict) -> None:
        self.spec = spec
        self.nprocs, self.mode = spec["nprocs"], spec["mode"]
        self.serve = spec.get("serve")
        self.log = SpanLog() if spec.get("traced") else None
        if self.log is not None:
            install(self.log)
            self.log.begin_run("setup")
        self.plain = ExperimentEngine(jobs=1, cache=None, policy=RetryPolicy())
        self.work = os.path.join(spec["work"], f"rep-{os.getpid()}")
        self.server = self.served = self.tenants = self.program = None
        self.normalize_s = 0.0
        if self.serve is None:
            self.workload, self.params = spec["workload"], spec["params"]
            # through the module, so that a traced run sees the patched call
            self.steps = registry.make_workload(
                self.workload, **self.params).iterations
            return
        self.program = gen_stream.generate(
            self.serve["seed"], self.serve["steps"], self.nprocs)
        schema = event_schema()
        if schema is None:
            raise SystemExit("schemas/stream_events.schema.json is missing")
        for event in self.program:
            errors = schema_validate(event, schema)
            if errors:
                raise SystemExit(f"generated event violates schema: {errors[0]}")
        steps_json, self.normalize_s = clock(
            lambda: canonical_steps_json(normalize_steps(self.program)))
        self.workload, self.params = "stream", {"steps_json": steps_json}
        self.steps = len(self.program)
        self.served = ExperimentEngine(jobs=1, cache=RunCache(self.work),
                                       policy=RetryPolicy())
        self.server = ServerThread(self.served, ServeConfig(port=0)).start()
        self.tenants = Tenants(self.server.port, self.program, self.serve,
                               self.nprocs, self.mode)

    def run(self, mode: str, instrument: Any = None) -> Any:
        return repro.run(self.workload, self.nprocs, mode,
                         workload_params=self.params, engine=self.plain,
                         instrument=instrument)

    def cell(self, label: str, mode: str,
             instrument: Any = None) -> tuple[Any, float]:
        """One timed ``repro.run``; its own run id in a traced repetition."""
        if self.log is None:
            return clock(self.run, mode, instrument)
        self.log.begin_run(label)
        return clock(self.log.wrap(self.run, "api.run"), mode, instrument)

    def close(self) -> None:
        if self.server is not None:
            self.server.stop()
        shutil.rmtree(self.work, ignore_errors=True)


def traced_layers(rep: Rep, out: dict, result: Any, n_app: int,
                  cell_wall: float) -> dict[str, float]:
    """Everything a traced repetition adds once the cells have run."""
    log = rep.log
    totals = log.totals()
    layers = layer_metrics(log, totals, n_app, cell_wall)
    layers["workloads.normalize_s"] = rep.normalize_s
    layers.update(result_metrics(result))
    digest = make_cell(rep.workload, rep.nprocs, Mode(rep.mode),
                       workload_params=rep.params).digest()
    if rep.tenants is not None:
        out["extras"] = rep.tenants.extras(result)
        cached = rep.served

        def warm_call() -> Any:
            return repro.stream_run(rep.program, rep.nprocs, rep.mode,
                                    engine=cached)
    else:
        cached = ExperimentEngine(jobs=1, cache=RunCache(rep.work),
                                  policy=RetryPolicy())

        def warm_call() -> Any:
            return repro.run(rep.workload, rep.nprocs, rep.mode,
                             workload_params=rep.params, engine=cached)
    cache_layers, out["cache_ok"] = cache_metrics(cached, digest, result,
                                                  warm_call)
    layers.update(cache_layers)
    if rep.tenants is not None:
        layers.update(serve_metrics(out["round"], out["extras"], rep.tenants))
    log.dump(rep.spec["spans_out"], totals, meta={
        "workload": rep.spec["name"], "nprocs": rep.nprocs, "mode": rep.mode,
        "hash_seed": os.environ.get("PYTHONHASHSEED"),
    })
    return layers


def main() -> None:
    spec = json.loads(sys.argv[1])
    rep = Rep(spec)
    out: dict[str, Any] = {"steps": rep.steps}
    try:
        # Set-up ends with one untimed ``app`` twin: it builds the declared
        # patterns and finishes the lazy imports, so every timed twin is warm
        # and a change that moves work into the first call shows in setup_s.
        rep.run("app")
        out["setup_s"] = time.time() - spec["spawned"]
        # every timed section ends with a probe of the host's speed
        host = HostSpeed(before=spec["spawn_probe"])
        out["setup_speed"] = host.factor()
        app_walls: list[float] = []
        while (len(app_walls) < APP_MAX_REPEATS
               and sum(app_walls) < APP_MIN_SECONDS):
            _app, wall = rep.cell("app", "app")
            app_walls.append(wall)
        app_speed = host.factor()  # the twins are one section
        instrument = repro.Recorder() if spec.get("recorder") else None
        result, cell_wall = rep.cell("cell", rep.mode, instrument)
        out["cell_speed"] = host.factor()
        if rep.log is not None:
            rep.log.restore()
        recorded, skipped = events_of(result)
        out.update(
            app_walls=app_walls, app_speed=app_speed, cell_wall_s=cell_wall,
            events=recorded + skipped, fingerprint=result.fingerprint(),
            # every rank's final virtual clock: unlike the fingerprint (whose
            # stack signatures hash the checkout's absolute source paths)
            # this is the same wherever the repository is checked out
            clocks_sha=hashlib.sha256(
                repr(result.clocks).encode()).hexdigest()[:32],
            leads=sorted(result.lead_ranks),
            trace_bytes=len(result.trace.serialize()),
            cells=len(app_walls) + 2,  # warm-up twin, twins, the cell
        )
        if rep.tenants is not None:
            host.factor()  # a fresh probe: the lines above took a moment
            out["round"] = rep.tenants.round(result, probe=rep.log is not None)
            out["round"]["speed"] = host.factor()
        if rep.log is not None:
            out["layers"] = traced_layers(rep, out, result, len(app_walls),
                                          cell_wall)
    finally:
        rep.close()
    if rep.tenants is not None:
        out["http_requests"] = rep.tenants.requests
        out["http_errors"] = rep.tenants.errors
    out["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    )
    print(json.dumps(out))


if __name__ == "__main__":
    main()
