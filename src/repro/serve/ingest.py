"""Incremental ingestion: feeding a live event stream into the simulator.

The Chameleon machinery runs inside a single-threaded simulated SPMD
world (:func:`~repro.simmpi.launcher.run_spmd` drives every rank
coroutine in one OS thread).  Incremental clustering therefore works by
*blocking the simulation on the stream*: each per-job simulation runs in
a dedicated thread whose rank coroutines pull steps from a thread-safe
:class:`EventBuffer`; when the next step hasn't arrived yet the whole
simulation parks (virtual time is untouched — clocks only advance on
executed ops), and resumes the moment an HTTP chunk lands.  Clustering
state really does advance chunk-by-chunk: after every marker the rank-0
tracer's live :class:`~repro.core.clustering.ClusterSet` is published to
the job, long before close.

Bit-identity with the batch path is structural: the loop below replays
:meth:`repro.workloads.base.Workload.run` exactly (validate, setup,
pre-step, step, progress point, marker), executes the same normalized
step dicts through the same :func:`~repro.workloads.stream.exec_step`,
and defers nothing to job close.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable

from ..simmpi.launcher import RankContext
from ..workloads.base import Workload
from ..workloads.stream import StreamWorkload

__all__ = [
    "EOF",
    "EventBuffer",
    "LiveStreamWorkload",
    "StreamAborted",
    "cluster_snapshot",
]


class StreamAborted(RuntimeError):
    """The event stream ended abnormally (cancelled or idle-timed-out)."""


class _Eof:
    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<EOF>"


#: Sentinel returned by :meth:`EventBuffer.get` once the stream is closed
#: and fully consumed.
EOF = _Eof()


class EventBuffer:
    """Thread-safe ordered buffer between HTTP handlers and a simulation.

    Producers (the HTTP request handlers) call :meth:`extend` /
    :meth:`close` / :meth:`abort`; the single consumer (the job's
    simulation thread, via every rank's coroutine) calls :meth:`get`
    with a monotonically non-decreasing index.
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


def cluster_snapshot(topk: Any, *, member_cap: int = 64) -> dict[str, Any]:
    """JSON view of a live :class:`~repro.core.clustering.ClusterSet`."""
    clusters = []
    for info in topk.all_clusters():
        entry: dict[str, Any] = {
            "lead": info.lead,
            "size": info.members.count,
            "signature": list(info.signature),
        }
        if info.members.count <= member_cap:
            entry["members"] = list(info.members.ranks())
        clusters.append(entry)
    return {
        "num_clusters": len(topk),
        "num_callpaths": topk.num_callpaths,
        "leads": topk.leads(),
        "clusters": clusters,
    }


def progress_snapshot(step_index: int, decision: Any,
                      tracer: Any) -> dict[str, Any]:
    """The per-marker progress document published to a job.

    Built from whatever the tracer exposes: Chameleon tracers carry the
    live Top-K cluster set and per-rank stats; ScalaTrace/APP tracers
    yield steps-done only.
    """
    snap: dict[str, Any] = {"steps_done": step_index + 1}
    if decision is not None:
        snap["marker_state"] = decision.state.value
        snap["phase_changed"] = bool(decision.phase_changed)
    cstats = getattr(tracer, "cstats", None)
    if cstats is not None:
        snap["reclusterings"] = cstats.reclusterings
        snap["k_used"] = cstats.k_used
        snap["num_callpaths"] = cstats.num_callpaths
    topk = getattr(tracer, "topk", None)
    if topk is not None:
        snap["clusters"] = cluster_snapshot(topk)
    return snap
