"""Job registry: tenant lifecycle, engine multiplexing, quarantine.

Two job kinds share one lifecycle vocabulary:

* **streamed** jobs (``POST /v1/jobs`` then NDJSON chunks) run a
  dedicated simulation thread that consumes an :class:`EventBuffer`
  incrementally — state ``open`` while accepting events, ``finalizing``
  after close, then ``complete``/``failed``/``cancelled``.  On success
  the result is written into the engine's content-addressed cache under
  the digest of the *equivalent batch cell*, so a later batch run (or
  upload of the same events) is a cache hit.
* **upload** jobs (``steps`` inline at creation) are batched by a single
  dispatcher thread into one ``engine.run_cells(..., contain_errors=True)``
  call: they multiplex over the engine's worker pool, dedup against the
  cache and each other, and a poisoned job is *quarantined* by the
  engine's :class:`~repro.resilience.RetryPolicy` machinery — it reports
  ``failed`` with its quarantine record while its batch siblings
  complete.

Streamed jobs cannot be deadline-killed (threads aren't killable), so
their supervision is ``ServeConfig.idle_timeout``: a stream that goes
quiet mid-job is aborted and failed as abandoned.
"""

from __future__ import annotations

import itertools
import math
import os
import threading
import time
from dataclasses import dataclass, field
from typing import Any

from ..core.config import ChameleonConfig
from ..harness.engine import Cell, ExperimentEngine, make_cell
from ..harness.runner import Mode, RunResult, chameleon_config_for, run_mode
from ..obs.metrics import MetricsRegistry
from ..resilience.policy import QuarantineError
from ..simmpi.simconfig import SimConfig, parse_config
from ..workloads.stream import (
    MAX_OPS_PER_STEP,
    StreamWorkload,
    canonical_steps_json,
    normalize_steps,
)
from .ingest import EventBuffer, LiveStreamWorkload, StreamAborted, \
    progress_snapshot
from .protocol import ProtocolError

__all__ = [
    "Job",
    "JobError",
    "JobRegistry",
    "ServeConfig",
    "TERMINAL_STATES",
]

TERMINAL_STATES = ("complete", "failed", "cancelled")

#: seconds the upload dispatcher waits after waking to coalesce
#: concurrently-submitted jobs into one engine batch
BATCH_WINDOW = 0.05


class JobError(Exception):
    """A request-level error with an HTTP status."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


@dataclass(frozen=True)
class ServeConfig:
    """Tunables of the ingestion service (service-level DoS bounds).

    ``idle_timeout`` is the wall-clock seconds a streamed job may wait
    for its next event chunk before it is failed as abandoned; ``None``
    disables the timeout.
    """

    host: str = "127.0.0.1"
    port: int = 8537
    max_stream_jobs: int = 32
    max_body_bytes: int = 8 * 1024 * 1024
    max_steps_per_job: int = 100_000
    max_ops_per_step: int = MAX_OPS_PER_STEP
    max_nprocs: int = 4096
    idle_timeout: float | None = 300.0
    retain_jobs: int = 1024

    def __post_init__(self) -> None:
        if self.max_stream_jobs < 1:
            raise ValueError("max_stream_jobs must be >= 1")
        if self.max_body_bytes < 1024:
            raise ValueError("max_body_bytes must be >= 1024")
        if self.max_nprocs < 1:
            raise ValueError("max_nprocs must be >= 1")
        if self.idle_timeout is not None and not (
            math.isfinite(self.idle_timeout) and self.idle_timeout > 0
        ):
            raise ValueError(
                "idle_timeout must be positive and finite (or None)"
            )


@dataclass(frozen=True)
class JobSpec:
    """Everything needed to rebuild a job's batch-equivalent cell."""

    nprocs: int
    mode: Mode
    call_frequency: int
    config: ChameleonConfig
    sim: SimConfig
    label: str = ""


def _parse_spec(body: dict[str, Any], limits: ServeConfig) -> JobSpec:
    if not isinstance(body, dict):
        raise JobError(400, "job body must be a JSON object")
    known = {"nprocs", "mode", "call_frequency", "config_overrides",
             "config", "label", "steps"}
    extra = set(body) - known
    if extra:
        raise JobError(400, f"unknown field(s): {', '.join(sorted(extra))}")
    nprocs = body.get("nprocs", 8)
    if (isinstance(nprocs, bool) or not isinstance(nprocs, int)
            or not 1 <= nprocs <= limits.max_nprocs):
        raise JobError(
            400, f"nprocs must be an int in [1, {limits.max_nprocs}]"
        )
    try:
        mode = Mode(body.get("mode", "chameleon"))
    except ValueError:
        raise JobError(
            400, f"unknown mode {body.get('mode')!r}; choose one of "
            f"{', '.join(m.value for m in Mode)}"
        ) from None
    call_frequency = body.get("call_frequency", 1)
    if (isinstance(call_frequency, bool) or not isinstance(call_frequency, int)
            or call_frequency < 1):
        raise JobError(400, "call_frequency must be an int >= 1")
    overrides = body.get("config_overrides", {})
    if not isinstance(overrides, dict):
        raise JobError(400, "config_overrides must be an object")
    try:
        config = chameleon_config_for(
            StreamWorkload, call_frequency=call_frequency, **overrides
        )
    except (TypeError, ValueError) as exc:
        raise JobError(400, f"bad config_overrides: {exc}") from None
    sim_kv = body.get("config", {})
    if not isinstance(sim_kv, dict):
        raise JobError(400, "config must be an object of SimConfig fields")
    try:
        sim = parse_config([f"{k}={v}" for k, v in sorted(sim_kv.items())])
    except ValueError as exc:
        raise JobError(400, f"bad config: {exc}") from None
    label = body.get("label", "")
    if not isinstance(label, str) or len(label) > 200:
        raise JobError(400, "label must be a string of <= 200 chars")
    return JobSpec(nprocs=nprocs, mode=mode, call_frequency=call_frequency,
                   config=config, sim=sim, label=label)


class Job:
    """One tenant job; all mutable state is guarded by ``_lock``."""

    def __init__(self, job_id: str, spec: JobSpec, kind: str,
                 idle_timeout: float | None) -> None:
        self.id = job_id
        self.spec = spec
        self.kind = kind  # "streamed" | "upload"
        self._lock = threading.Lock()
        self.state = "open" if kind == "streamed" else "finalizing"
        self.steps: list[dict] = []
        self.chunks = 0
        self.bytes_in = 0
        self.consumed = 0
        self.live: dict[str, Any] = {}
        self.error: str | None = None
        self.quarantine: dict[str, Any] | None = None
        self.result: RunResult | None = None
        self.fingerprint: str | None = None
        self.digest: str | None = None
        self.cache_outcome: str | None = None
        self.metrics = MetricsRegistry()
        self.buffer = (
            EventBuffer(idle_timeout) if kind == "streamed" else None
        )
        self.thread: threading.Thread | None = None

    # -- producer side (HTTP handlers) ----------------------------------

    def append_steps(self, steps: list[dict], nbytes: int,
                     max_steps: int) -> int:
        with self._lock:
            if self.state != "open":
                raise JobError(
                    409, f"job {self.id} is {self.state}, not accepting "
                    "events"
                )
            if len(self.steps) + len(steps) > max_steps:
                raise JobError(
                    413, f"job {self.id} would exceed {max_steps} steps"
                )
            self.steps.extend(steps)
            self.chunks += 1
            self.bytes_in += nbytes
            self.metrics.count("serve/chunks", 1)
            self.metrics.count("serve/steps_received", len(steps))
            self.metrics.count("serve/bytes_in", nbytes)
        assert self.buffer is not None
        try:
            return self.buffer.extend(steps)
        except StreamAborted as exc:
            raise JobError(409, f"job {self.id}: {exc}") from None

    def close(self) -> str:
        with self._lock:
            if self.state in TERMINAL_STATES:
                return self.state
            if self.state == "open":
                self.state = "finalizing"
        if self.buffer is not None:
            self.buffer.close()
        return "finalizing"

    def cancel(self) -> str:
        with self._lock:
            if self.state in TERMINAL_STATES:
                return self.state
        if self.buffer is not None:
            self.buffer.abort("cancelled")
        else:
            # upload job: mark for the dispatcher to skip
            with self._lock:
                self.state = "cancelled"
                self.error = "cancelled"
        return "cancelling"

    # -- consumer side (sim thread / dispatcher) -------------------------

    def publish(self, step_index: int, decision: Any, tracer: Any) -> None:
        snap = progress_snapshot(step_index, decision, tracer)
        with self._lock:
            self.consumed = step_index + 1
            self.live = snap
            self.metrics.count("serve/steps_consumed", 1)

    def fail(self, error: str, quarantine: dict[str, Any] | None = None,
             state: str = "failed") -> None:
        with self._lock:
            if self.state in TERMINAL_STATES:
                return
            self.state = state
            self.error = error
            self.quarantine = quarantine

    def complete_with(self, result: RunResult, digest: str | None,
                      cache_outcome: str | None) -> None:
        fingerprint = result.fingerprint()
        with self._lock:
            if self.state in TERMINAL_STATES:
                return
            self.result = result
            self.fingerprint = fingerprint
            self.digest = digest
            self.cache_outcome = cache_outcome
            self.state = "complete"

    def batch_cell(self) -> Cell:
        """The equivalent batch cell: ``repro run --workload stream`` over
        this job's events — its digest is the job's cache slot."""
        spec = self.spec
        return make_cell(
            "stream", spec.nprocs, spec.mode,
            workload_params={"steps_json": canonical_steps_json(self.steps)},
            config=spec.config, sim=spec.sim,
        )

    # -- views -----------------------------------------------------------

    def status_doc(self) -> dict[str, Any]:
        with self._lock:
            doc: dict[str, Any] = {
                "job": self.id,
                "kind": self.kind,
                "state": self.state,
                "label": self.spec.label,
                "nprocs": self.spec.nprocs,
                "mode": self.spec.mode.value,
                "steps_received": len(self.steps),
                "steps_consumed": self.consumed,
                "chunks": self.chunks,
                "bytes_in": self.bytes_in,
            }
            if self.live:
                doc["live"] = dict(self.live)
            if self.error is not None:
                doc["error"] = self.error
            if self.quarantine is not None:
                doc["quarantine"] = dict(self.quarantine)
            if self.digest is not None:
                doc["digest"] = self.digest
            if self.cache_outcome is not None:
                doc["cache"] = self.cache_outcome
            if self.result is not None:
                doc["result"] = self._result_summary()
            return doc

    def _result_summary(self) -> dict[str, Any]:
        result = self.result
        assert result is not None
        return {
            "fingerprint": self.fingerprint,
            "max_time": result.max_time,
            "total_time": result.total_time,
            "lead_ranks": sorted(result.lead_ranks),
            "failed_ranks": list(result.failed_ranks),
            "has_trace": result.trace is not None,
        }

    def clusters_doc(self) -> dict[str, Any]:
        with self._lock:
            doc: dict[str, Any] = {"job": self.id, "state": self.state}
            clusters = self.live.get("clusters")
            if clusters is not None:
                doc.update(clusters)
            elif self.result is not None:
                doc["leads"] = sorted(self.result.lead_ranks)
            return doc

    def metrics_doc(self) -> dict[str, Any]:
        with self._lock:
            doc: dict[str, Any] = {
                "job": self.id,
                "serve": self.metrics.to_dict(),
            }
            if self.result is not None:
                doc["run"] = self.result.registry().to_dict()
            return doc

    def trace_text(self) -> str:
        with self._lock:
            if self.state != "complete":
                raise JobError(
                    409, f"job {self.id} is {self.state}; trace is "
                    "available once complete"
                )
            assert self.result is not None
            if self.result.trace is None:
                raise JobError(
                    404, f"job {self.id} ran in mode "
                    f"{self.spec.mode.value!r}, which records no trace"
                )
            return self.result.trace.serialize()


class JobRegistry:
    """All jobs of one server, plus the threads that execute them."""

    def __init__(self, engine: ExperimentEngine,
                 config: ServeConfig | None = None) -> None:
        self.engine = engine
        self.config = config or ServeConfig()
        self._jobs: dict[str, Job] = {}
        self._lock = threading.RLock()
        self._counter = itertools.count(1)
        self._upload_q: list[Job] = []
        self._qcond = threading.Condition()
        self._shutdown = False
        self._dispatcher = threading.Thread(
            target=self._dispatch_loop, name="repro-serve-dispatch",
            daemon=True,
        )
        self._dispatcher.start()

    # -- creation --------------------------------------------------------

    def _new_id(self) -> str:
        return f"j{next(self._counter):05d}-{os.urandom(3).hex()}"

    def create(self, body: dict[str, Any]) -> Job:
        spec = _parse_spec(body, self.config)
        steps_raw = body.get("steps")
        if steps_raw is not None:
            try:
                steps = normalize_steps(
                    steps_raw, max_steps=self.config.max_steps_per_job,
                    max_ops=self.config.max_ops_per_step,
                )
            except ValueError as exc:
                raise JobError(400, f"bad steps: {exc}") from None
            if not steps:
                raise JobError(400, "steps must contain at least one step")
            job = Job(self._new_id(), spec, "upload", None)
            job.steps = steps
            with self._lock:
                self._register(job)
            with self._qcond:
                self._upload_q.append(job)
                self._qcond.notify_all()
            return job
        with self._lock:
            active = sum(
                1 for j in self._jobs.values()
                if j.kind == "streamed" and j.state not in TERMINAL_STATES
            )
            if active >= self.config.max_stream_jobs:
                raise JobError(
                    429, f"too many open streamed jobs "
                    f"({active}/{self.config.max_stream_jobs})"
                )
            job = Job(self._new_id(), spec, "streamed",
                      self.config.idle_timeout)
            self._register(job)
        job.thread = threading.Thread(
            target=self._run_streamed, args=(job,),
            name=f"repro-serve-{job.id}", daemon=True,
        )
        job.thread.start()
        return job

    def _register(self, job: Job) -> None:
        self._jobs[job.id] = job
        if len(self._jobs) > self.config.retain_jobs:
            for jid, old in list(self._jobs.items()):
                if old.state in TERMINAL_STATES:
                    del self._jobs[jid]
                    if len(self._jobs) <= self.config.retain_jobs:
                        break

    def get(self, job_id: str) -> Job:
        with self._lock:
            job = self._jobs.get(job_id)
        if job is None:
            raise JobError(404, f"no such job: {job_id}")
        return job

    # -- event ingestion -------------------------------------------------

    def append(self, job_id: str, body: bytes) -> dict[str, Any]:
        from .protocol import parse_ndjson_events

        job = self.get(job_id)
        if job.kind != "streamed":
            raise JobError(
                409, f"job {job_id} is an upload job; it takes no event "
                "chunks"
            )
        try:
            steps = parse_ndjson_events(
                body, max_ops_per_step=self.config.max_ops_per_step
            )
        except ProtocolError as exc:
            raise JobError(400, str(exc)) from None
        total = job.append_steps(steps, len(body),
                                 self.config.max_steps_per_job)
        return {"job": job.id, "accepted": len(steps),
                "steps_received": total}

    # -- streamed execution ----------------------------------------------

    def _run_streamed(self, job: Job) -> None:
        assert job.buffer is not None
        workload = LiveStreamWorkload(job.buffer, publish=job.publish)
        try:
            result = run_mode(
                workload, job.spec.nprocs, job.spec.mode,
                config=job.spec.config, sim=job.spec.sim,
            )
        except StreamAborted as exc:
            self._fail_streamed(job, str(exc))
        except Exception as exc:  # noqa: BLE001 - tenant isolation boundary
            # The simulator wraps a StreamAborted raised inside a rank
            # coroutine in its own failure type; the buffer remembers.
            aborted = job.buffer.abort_reason
            if aborted is not None:
                self._fail_streamed(job, aborted)
            else:
                reason = f"cell-error: {type(exc).__name__}: {exc}"
                job.fail(f"{type(exc).__name__}: {exc}",
                         quarantine={"reason": reason, "attempts": 1})
        else:
            self._finalize_streamed(job, result)

    @staticmethod
    def _fail_streamed(job: Job, reason: str) -> None:
        if reason == "cancelled":
            job.fail("cancelled", state="cancelled")
        else:
            job.fail(reason, quarantine={"reason": reason, "attempts": 1})

    def _finalize_streamed(self, job: Job, result: RunResult) -> None:
        """Record the streamed result and write it through the dedup layer.

        The digest is the *batch-equivalent cell's* — identical to what
        ``repro run --workload stream`` over the same events computes —
        and the stored result is bit-identical to that batch run (the
        oracle the test-suite asserts), so streamed work pre-warms the
        cache for batch reruns and vice versa.
        """
        if not job.steps:
            job.complete_with(result, None, None)
            return
        digest = job.batch_cell().digest()
        cache = self.engine.cache
        outcome = "disabled"
        if cache is not None:
            cached = cache.get(digest)
            if cached is None:
                cache.put(digest, result)
                outcome = "stored"
            else:
                outcome = (
                    "hit" if cached.fingerprint() == result.fingerprint()
                    else "divergent"
                )
        job.complete_with(result, digest, outcome)

    # -- upload execution (engine batches) --------------------------------

    def _dispatch_loop(self) -> None:
        while True:
            with self._qcond:
                while not self._upload_q and not self._shutdown:
                    self._qcond.wait()
                if self._shutdown and not self._upload_q:
                    return
            time.sleep(BATCH_WINDOW)  # coalesce a burst
            with self._qcond:
                batch = [j for j in self._upload_q
                         if j.state not in TERMINAL_STATES]
                self._upload_q.clear()
            if batch:
                self._run_upload_batch(batch)

    def _run_upload_batch(self, jobs: list[Job]) -> None:
        cells = []
        for job in jobs:
            cell = job.batch_cell()
            job.digest = cell.digest()
            cells.append(cell)
        cache = self.engine.cache
        pre_hit = {
            job.id: cache is not None and cache.path_for(job.digest).exists()
            for job in jobs if job.digest is not None
        }
        quarantined: dict[str, Any] = {}
        try:
            results = self.engine.run_cells(
                cells, contain_errors=True,
                digests=[job.digest for job in jobs],
            )
        except QuarantineError as err:
            results = err.results
            quarantined = {q.digest: q for q in err.quarantined}
        except Exception as exc:  # noqa: BLE001 - batch-level host failure
            for job in jobs:
                job.fail(f"{type(exc).__name__}: {exc}")
            return
        for job, result in zip(jobs, results):
            if result is None:
                q = quarantined.get(job.digest)
                reason = q.reason if q is not None else "quarantined"
                job.fail(reason, quarantine={
                    "reason": reason,
                    "attempts": q.attempts if q is not None else 1,
                })
            else:
                if cache is None:
                    outcome = "disabled"
                else:
                    outcome = "hit" if pre_hit.get(job.id) else "stored"
                job.complete_with(result, job.digest, outcome)

    # -- service views ----------------------------------------------------

    def stats(self) -> dict[str, Any]:
        with self._lock:
            by_state: dict[str, int] = {}
            for job in self._jobs.values():
                by_state[job.state] = by_state.get(job.state, 0) + 1
            doc: dict[str, Any] = {
                "jobs": len(self._jobs),
                "by_state": by_state,
                "engine": self.engine.metrics.as_dict(),
            }
        if self.engine.cache is not None:
            doc["cache"] = self.engine.cache.stats.as_dict()
        return doc

    def shutdown(self, timeout: float = 5.0) -> None:
        with self._qcond:
            self._shutdown = True
            self._qcond.notify_all()
        with self._lock:
            jobs = list(self._jobs.values())
        for job in jobs:
            if job.buffer is not None and job.state not in TERMINAL_STATES:
                job.buffer.abort("server shutdown")
        self._dispatcher.join(timeout)
        for job in jobs:
            if job.thread is not None:
                job.thread.join(timeout)
