"""Incremental ingestion: feeding a live event stream into the simulator.

The Chameleon machinery runs inside a single-threaded simulated SPMD
world (:func:`~repro.simmpi.launcher.run_spmd` drives every rank
coroutine in one OS thread).  Incremental clustering therefore works by
*blocking the simulation on the stream*: each streamed job simulates in
its own worker process (:func:`stream_worker`, started from a
``forkserver``), whose rank coroutines pull steps from a thread-safe
:class:`EventBuffer`; when the next step hasn't arrived yet the whole
simulation parks (virtual time is untouched — clocks only advance on
executed ops), and resumes the moment an HTTP chunk lands.  Clustering
state really does advance chunk-by-chunk: after every marker a progress
snapshot of the rank-0 tracer's marker log goes to the server, long
before close.

Bit-identity with the batch path is structural: the loop below replays
:meth:`repro.workloads.base.Workload.run` exactly (validate, setup,
pre-step, step, progress point, marker), executes the same normalized
step dicts through the same :func:`~repro.workloads.stream.exec_step`,
and defers nothing to job close.  The worker's own entry frames sit
above simmpi's engine frame, where the call-path walker stops, so they
never reach a signature.
"""

from __future__ import annotations

import multiprocessing
import threading
import time
from multiprocessing.connection import Connection
from multiprocessing.context import BaseContext
from typing import Any, Callable

from ..core.chameleon import ChameleonStats, ChameleonTracer
from ..core.config import ChameleonConfig
from ..harness.runner import Mode, run_mode
from ..simmpi.launcher import RankContext
from ..simmpi.simconfig import SimConfig
from ..workloads.base import Workload
from ..workloads.stream import StreamWorkload

__all__ = [
    "EOF",
    "EventBuffer",
    "LiveStreamWorkload",
    "StreamAborted",
    "stream_worker",
    "worker_context",
]

#: How a streamed job's worker starts.  Not ``fork``: the server always
#: has threads, and forking a threaded process is unsafe (Python 3.12
#: warns).  Not ``spawn``: every job would re-import the package.
START_METHOD = "forkserver"
#: What the fork server imports once, so every worker forks warm and
#: none re-runs the main script.
FORKSERVER_PRELOAD = ["__main__", "repro.serve.ingest"]


class StreamAborted(RuntimeError):
    """The event stream ended abnormally (cancelled or idle-timed-out)."""


class _Eof:
    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<EOF>"


#: Sentinel returned by :meth:`EventBuffer.get` once the stream is closed
#: and fully consumed.
EOF = _Eof()


class EventBuffer:
    """Thread-safe ordered buffer between a stream and a simulation.

    The producer (a worker's pipe-draining thread) calls :meth:`extend` /
    :meth:`close` / :meth:`abort`; the single consumer (the simulation,
    via every rank's coroutine) calls :meth:`get` with a monotonically
    non-decreasing index.
    """

    def __init__(self, idle_timeout: float | None = None) -> None:
        self._steps: list[dict] = []
        self._closed = False
        self._abort_reason: str | None = None
        self._cond = threading.Condition()
        self.idle_timeout = idle_timeout

    def __len__(self) -> int:
        with self._cond:
            return len(self._steps)

    @property
    def abort_reason(self) -> str | None:
        """Why the stream was aborted, or ``None``.  The simulator wraps
        a consumer-side :class:`StreamAborted` in its own failure type,
        so supervisors check this instead of the exception class."""
        with self._cond:
            return self._abort_reason

    def extend(self, steps: list[dict]) -> int:
        """Append normalized steps; returns the new total."""
        with self._cond:
            if self._closed:
                raise StreamAborted("stream is closed")
            if self._abort_reason is not None:
                raise StreamAborted(self._abort_reason)
            self._steps.extend(steps)
            self._cond.notify_all()
            return len(self._steps)

    def close(self) -> None:
        with self._cond:
            self._closed = True
            self._cond.notify_all()

    def abort(self, reason: str) -> None:
        with self._cond:
            self._abort_reason = reason
            self._cond.notify_all()

    def get(self, index: int) -> Any:
        """Step ``index``, blocking until it exists; :data:`EOF` once the
        stream is closed and drained.

        Raises :class:`StreamAborted` when the stream was aborted or no
        event arrived within ``idle_timeout`` seconds of waiting.
        """
        deadline = (
            time.monotonic() + self.idle_timeout
            if self.idle_timeout is not None else None
        )
        with self._cond:
            while True:
                if self._abort_reason is not None:
                    raise StreamAborted(self._abort_reason)
                if index < len(self._steps):
                    return self._steps[index]
                if self._closed:
                    return EOF
                if deadline is None:
                    self._cond.wait()
                    continue
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    # Record the abort so sibling rank generators (and
                    # the job supervisor) see a consistent reason.
                    self._abort_reason = (
                        f"idle-timeout: no event within "
                        f"{self.idle_timeout:g}s"
                    )
                    raise StreamAborted(self._abort_reason)
                self._cond.wait(remaining)


#: Called on rank 0 after each marker: (step_index, marker_decision,
#: tracer).  Implementations must be fast and must not touch the sim.
PublishFn = Callable[[int, Any, Any], None]


class LiveStreamWorkload(StreamWorkload):
    """A ``stream`` workload whose steps arrive while it runs.

    Bit-identity with the batch twin is enforced by construction: the
    *entire* execution path — :meth:`Workload.run`'s loop body,
    :meth:`StreamWorkload.timestep`, :func:`exec_step` — is inherited
    unchanged, so every captured call path hashes to the same signature
    as a batch run over the same steps.  The only overrides are the two
    hooks designed to stay off the stack: :meth:`_step_stream`, a
    generator that blocks on the :class:`EventBuffer` until the next
    step arrives (a suspended generator frame is invisible to the
    :class:`~repro.scalatrace.signatures.StackWalker`), and
    :meth:`_on_marker`, which publishes rank-0 progress after the
    marker has already run.  Blocking the generator stalls the entire
    single-threaded simulation, which is exactly right: no rank may run
    ahead of the declared program, and virtual clocks only advance on
    executed ops.
    """

    def __init__(self, buffer: EventBuffer, publish: PublishFn | None = None,
                 compute_scale: float = 1.0) -> None:
        # Bypass StreamWorkload.__init__: there is no steps_json yet.
        Workload.__init__(self, iterations=1, compute_scale=compute_scale)
        self.buffer = buffer
        self.publish = publish
        self._steps: list[dict] = []  # grown as events arrive

    def _step_stream(self, ctx: RankContext) -> Any:
        step = 0
        while True:
            entry = self.buffer.get(step)
            if entry is EOF:
                break
            # All rank coroutines share one OS thread and each runs its
            # own generator; the first to reach a step materializes it
            # for StreamWorkload.timestep.
            if step == len(self._steps):
                self._steps.append(entry)
            yield step
            step += 1
        self.iterations = max(step, 1)

    def _on_marker(self, ctx: RankContext, step: int, decision: Any,
                   tracer: Any) -> None:
        if self.publish is not None and ctx.rank == 0:
            self.publish(step, decision, tracer)


def progress_snapshot(step_index: int,
                      stats: ChameleonStats | None) -> dict[str, Any]:
    """The per-marker progress document published to a job, built from a
    Chameleon rank's marker log (the latest record's state, the latest
    clustering's view); ScalaTrace/APP runs (no ``stats``) yield steps-done
    only."""
    snap: dict[str, Any] = {"steps_done": step_index + 1}
    if stats is None:
        return snap
    if stats.log:
        snap["marker_state"] = stats.log[-1].state
        snap["phase_changed"] = stats.log[-1].phase_changed
    snap.update(reclusterings=stats.reclusterings, k_used=stats.k_used,
                num_callpaths=stats.num_callpaths)
    if (view := stats.cluster_view) is not None:
        snap["clusters"] = view
    return snap


# -- the worker process ------------------------------------------------------
#
# One duplex pipe per job; every message is a tuple whose first item names
# its kind.  Server -> worker: ("steps", list), ("close",), ("abort",
# reason).  Worker -> server: ("progress", step, snapshot) after each
# rank-0 marker, then exactly one of ("result", RunResult), ("aborted",
# reason) or ("error", "Type: msg").


def worker_context() -> BaseContext:
    """The context streamed jobs start their workers from.

    Starts this process's fork server (once; later calls find it running)
    with :data:`FORKSERVER_PRELOAD` imported.
    """
    # imported here, not at the top: the batch workloads import the app
    # and build no registry, so they load none of the fork server
    import multiprocessing.forkserver

    ctx = multiprocessing.get_context(START_METHOD)
    ctx.set_forkserver_preload(FORKSERVER_PRELOAD)
    multiprocessing.forkserver.ensure_running()
    return ctx


def _drain(conn: Connection, buffer: EventBuffer) -> None:
    """Move the server's messages into ``buffer`` as they arrive, so a
    handler's send never waits on a busy simulation."""
    try:
        while True:
            msg = conn.recv()
            if msg[0] == "steps":
                try:
                    buffer.extend(msg[1])
                except StreamAborted:
                    pass  # the job is ending; its terminal message says why
            elif msg[0] == "close":
                buffer.close()
            else:
                buffer.abort(msg[1])
    except (EOFError, OSError):
        buffer.abort("server connection lost")


def stream_worker(conn: Connection, nprocs: int, mode: Mode,
                  config: ChameleonConfig, sim: SimConfig,
                  idle_timeout: float | None) -> None:
    """A streamed job's worker process: run the stream fed over ``conn``
    and answer with progress snapshots and one terminal message."""
    buffer = EventBuffer(idle_timeout)
    threading.Thread(target=_drain, args=(conn, buffer),
                     name="repro-serve-drain", daemon=True).start()

    def publish(step: int, decision: Any, tracer: Any) -> None:
        stats = tracer.cstats if isinstance(tracer, ChameleonTracer) else None
        conn.send(("progress", step, progress_snapshot(step, stats)))

    try:
        result = run_mode(
            LiveStreamWorkload(buffer, publish=publish), nprocs, mode,
            config=config, sim=sim,
        )
    except Exception as exc:  # noqa: BLE001 - reported, not raised
        # The simulator wraps a StreamAborted raised inside a rank
        # coroutine in its own failure type; the buffer remembers.
        reason = buffer.abort_reason
        conn.send(("aborted", reason) if reason is not None
                  else ("error", f"{type(exc).__name__}: {exc}"))
    else:
        conn.send(("result", result))
