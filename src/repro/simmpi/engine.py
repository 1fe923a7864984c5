"""Deterministic discrete-event engine driving rank coroutines.

Every simulated MPI rank is an ``async def`` coroutine.  The engine runs
tasks from a FIFO ready queue; a task runs until it awaits a
:class:`~repro.simmpi.futures.SimFuture` that is not yet resolved, at which
point it parks and the next ready task runs.  All cross-task interaction
(message matching, collective voting) happens through futures, so execution
order — and therefore every virtual timestamp — is fully deterministic.

Virtual time is *per rank*: each task owns a ``clock`` that only the rank's
own operations advance.  Causality between ranks is enforced at the moment a
communication operation completes (see :mod:`repro.simmpi.comm`).
"""

from __future__ import annotations

import enum
from collections import deque
from typing import Any, Coroutine

from ..faults.injector import LOST, NULL_INJECTOR, FaultInjector
from ..obs.instrument import NULL_INSTRUMENT, Instrument
from .errors import (
    DeadlockError,
    EngineLimitError,
    RankCrashedError,
    TaskFailedError,
)
from .futures import SimFuture
from .timing import NetworkModel, QDR_CLUSTER


class TaskState(enum.Enum):
    READY = "ready"
    RUNNING = "running"
    BLOCKED = "blocked"
    DONE = "done"
    FAILED = "failed"


class Task:
    """One simulated rank: a coroutine plus its virtual clock and stats."""

    __slots__ = (
        "rank",
        "coro",
        "clock",
        "busy",
        "state",
        "blocked_on",
        "result",
        "error",
        "msgs_sent",
        "bytes_sent",
        "msgs_received",
        "bytes_received",
        "logical_stack",
        "gate_wake",
    )

    def __init__(self, rank: int, coro: Coroutine[Any, Any, Any]) -> None:
        self.rank = rank
        self.coro = coro
        self.clock = 0.0
        #: virtual time spent actively computing/copying (vs waiting);
        #: the busy/slack split drives the DVFS energy model
        self.busy = 0.0
        self.state = TaskState.READY
        self.blocked_on: SimFuture | None = None
        self.result: Any = None
        self.error: BaseException | None = None
        self.msgs_sent = 0
        self.bytes_sent = 0
        self.msgs_received = 0
        self.bytes_received = 0
        # Logical call frames pushed by workloads (see RankContext.frame);
        # consumed by the tracer's stack-signature walker.
        self.logical_stack: list[str] = []
        #: set when this task was woken by a macro-collective gate; its next
        #: dispatch is bookkept as part of the collective's bulk advance
        #: rather than as an individual scheduler step
        self.gate_wake = False

    def advance_to(self, time: float | None) -> None:
        """Move the clock forward to ``time`` (never backward).

        The skipped span is *waiting*, not work — it does not count as busy.
        """
        if time is not None and time > self.clock:
            self.clock = time

    def charge(self, dt: float) -> None:
        """Advance the clock by active work (counts toward busy time)."""
        self.clock += dt
        self.busy += dt

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Task rank={self.rank} {self.state.value} t={self.clock:.3e}>"


class Engine:
    """FIFO scheduler over rank tasks with deadlock detection."""

    def __init__(
        self,
        network: NetworkModel = QDR_CLUSTER,
        max_steps: int | None = None,
        instrument: Instrument = NULL_INSTRUMENT,
        faults: FaultInjector = NULL_INJECTOR,
        gates: str = "fast",
    ) -> None:
        self.network = network
        #: gate policy for every gate kind (validated by ``SimConfig``):
        #: "fast" lets eligible collectives and declared exchanges resolve
        #: in closed form and falls back per instance otherwise,
        #: "simulated" runs every one message-level.  Bit-identical in
        #: virtual time and results.
        self.gates = gates
        #: per-rank gated calls of each family served by the closed form /
        #: run through the message-level interpreter
        self.collectives_fast = 0
        self.collectives_simulated = 0
        self.p2p_fast = 0
        self.p2p_simulated = 0
        self.tasks: list[Task] = []
        self._sorted_tasks: list[Task] | None = None
        self._ready: deque[Task] = deque()
        self._current: Task | None = None
        self._steps = 0
        self._resumes = 0
        self._in_wave = False
        self._max_steps = max_steps
        # Global communication counters (all comms, all ranks).
        self.total_messages = 0
        self.total_bytes = 0
        #: point-to-point matches actually fired (send paired with receive)
        self.total_matches = 0
        self._next_comm_id = 0
        #: observability event bus; the default is the zero-cost no-op, and
        #: no emission ever advances a virtual clock, so instrumented and
        #: uninstrumented runs are bit-identical in virtual time
        self.instrument = instrument
        #: fault-injection oracle; the default (and any empty plan) is
        #: inactive, making every fault hook a single attribute check
        self.faults = faults
        #: communicator contexts, registered at construction so a crash can
        #: purge the dead rank's pending receives from every mailbox
        self._contexts: list[Any] = []

    @property
    def failed_ranks(self) -> set[int]:
        """World ranks parked as FAILED (crashed or raised under faults)."""
        return self.faults.failed

    # -- task management ---------------------------------------------------

    def spawn(self, rank: int, coro: Coroutine[Any, Any, Any]) -> Task:
        task = Task(rank, coro)
        self.adopt(task)
        return task

    def adopt(self, task: Task) -> None:
        """Register an externally constructed task and make it runnable."""
        self.tasks.append(task)
        self._sorted_tasks = None
        self._ready.append(task)

    @property
    def steps(self) -> int:
        """Scheduler work units executed so far.

        Every coroutine resume counts as one step *except* the dispatch of
        a task woken by a macro-collective bulk advance: the whole wave was
        computed in closed form during the waking rank's step, so the
        O(1) re-entries it queues are accounted to that step rather than
        inflating the count with P-1 bookkeeping resumes.  The raw resume
        count, which the ``max_steps`` budget is enforced against, is
        ``_resumes``.
        """
        return self._steps

    def alloc_comm_id(self) -> int:
        self._next_comm_id += 1
        return self._next_comm_id

    # -- scheduling --------------------------------------------------------

    def _wake(self, task: Task, fut: SimFuture) -> None:
        if task.state is not TaskState.BLOCKED:
            # A message can still match a rank that crashed (or was
            # abandoned) while its receive was pending; there is nobody
            # left to wake.
            return
        task.state = TaskState.READY
        task.blocked_on = None
        if self._in_wave:
            task.gate_wake = True
        self._ready.append(task)
        ins = self.instrument
        if ins.enabled:
            ins.instant(task.rank, "wake", "sched", task.clock,
                        {"on": fut.label})

    def wave_resolve(self, resolutions) -> None:
        """Resolve ``(future, value, time)`` triples as one *bulk advance*.

        Used by the macro-collective fast path: every task woken here is
        flagged so its re-entry dispatch is charged to the waking step (see
        :attr:`steps`).  Wakes still go through the ordinary ready queue, so
        crash checks, instrumentation and exception handling are untouched.
        Futures already resolved externally (a fault-timeout release) are
        skipped.
        """
        self._in_wave = True
        try:
            for fut, value, time in resolutions:
                fut.try_resolve(value, time=time)
        finally:
            self._in_wave = False

    def _park(self, task: Task, fut: SimFuture) -> None:
        task.state = TaskState.BLOCKED
        task.blocked_on = fut
        fut.add_done_callback(lambda _f, t=task: self._wake(t, _f))

    def run(self) -> None:
        """Drive all tasks to completion.

        Without fault injection this fail-fasts: :class:`TaskFailedError`
        if any rank raised, :class:`DeadlockError` if unfinished tasks
        remain with an empty ready queue (classic message-matching
        deadlock), :class:`EngineLimitError` — attributed to no rank — when
        the ``max_steps`` budget trips.

        With an active :class:`~repro.faults.FaultInjector` the engine has
        *partial-failure semantics*: a crashed (or raising) rank parks as
        ``FAILED`` while its siblings keep running, and operations orphaned
        by the failure are released with :data:`~repro.faults.LOST` after
        the plan's virtual-time ``op_timeout`` instead of deadlocking.
        """
        ins = self.instrument
        inj = self.faults
        # An op-timeout release queues its victim, so the queue is never
        # empty inside the loop.
        while self._ready or (inj.active and self._release_one_orphan()):
            task = self._ready.popleft()
            if task.state != TaskState.READY:  # pragma: no cover - invariant
                continue
            if inj.active and inj.crash_due(task.rank, task.clock):
                self._crash(task)
                continue
            task.state = TaskState.RUNNING
            self._current = task
            stretch_start = task.clock
            skip_count = task.gate_wake
            task.gate_wake = False
            try:
                while True:
                    self._resumes += 1
                    if skip_count:
                        skip_count = False
                    else:
                        self._steps += 1
                    if (
                        self._max_steps is not None
                        and self._resumes > self._max_steps
                    ):
                        raise EngineLimitError(
                            self._max_steps, self._resumes
                        )
                    fut = task.coro.send(None)
                    if not isinstance(fut, SimFuture):
                        raise TypeError(
                            f"rank {task.rank} yielded {type(fut).__name__}; "
                            "only SimFuture awaitables are supported"
                        )
                    if fut.done:
                        # Resolved while we were getting here; loop and let
                        # the coroutine pick the value up immediately.
                        continue
                    self._park(task, fut)
                    if ins.enabled:
                        ins.span(task.rank, "run", "sched", stretch_start,
                                 task.clock, {"until": "park"})
                        ins.instant(task.rank, "park", "sched", task.clock,
                                    {"on": fut.label})
                    break
            except StopIteration as stop:
                task.state = TaskState.DONE
                task.result = stop.value
                if ins.enabled:
                    ins.span(task.rank, "run", "sched", stretch_start,
                             task.clock, {"until": "done"})
            except EngineLimitError:
                # The step budget is a property of the run, not of the
                # rank that happened to be scheduled when it tripped:
                # do not wrap, do not blame.
                task.state = TaskState.READY
                self._current = None
                self._close_unfinished()
                raise
            except BaseException as exc:  # noqa: BLE001 - reported to caller
                task.state = TaskState.FAILED
                task.error = exc
                self._current = None
                if inj.active:
                    # Partial failure: record the casualty, keep the
                    # survivors running; orphaned peers are released by
                    # the op_timeout below.
                    inj.failed.add(task.rank)
                    self._purge_pending(task)
                    if ins.enabled:
                        ins.instant(task.rank, "rank_failed", "fault",
                                    task.clock, {"error": repr(exc)})
                    continue
                self._close_unfinished()
                raise TaskFailedError(task.rank, exc) from exc
            finally:
                if self._current is task:
                    self._current = None

        unfinished = [
            t for t in self.tasks
            if t.state not in (TaskState.DONE, TaskState.FAILED)
        ]
        if unfinished:
            raise DeadlockError(self._deadlock_detail(unfinished))

    # -- fault handling ----------------------------------------------------

    def _crash(self, task: Task) -> None:
        """Park ``task`` as FAILED per the fault plan; siblings keep going."""
        inj = self.faults
        task.state = TaskState.FAILED
        task.error = RankCrashedError(task.rank, task.clock)
        if task.coro is not None:
            task.coro.close()
        inj.mark_failed(task.rank)
        self._purge_pending(task)
        ins = self.instrument
        if ins.enabled:
            ins.instant(task.rank, "crash", "fault", task.clock,
                        {"scheduled_at": inj.crash_time(task.rank)})

    def _purge_pending(self, task: Task) -> None:
        """Sever the dead rank from every communicator it participates in:

        * no gate waits for it any longer (``CommContext.rank_died``);
        * its own posted receives are dropped (later sends must not match a
          receiver that no longer exists);
        * live peers' pending receives *naming it as the source* are
          released with ``LOST`` — nothing can arrive from a dead rank, and
          all its pre-crash sends were structurally delivered at post time,
          so the match state is final;
        * rendezvous offers parked in its mailbox have their senders
          released (the payload goes into the void, like the dead-dest
          send path).

        Operations posted *after* the crash are handled at post time by the
        dead-source/dead-dest checks in :mod:`repro.simmpi.comm`; this
        sweep covers everything that was already in flight.  Membership and
        receive lookup go through the precomputed ``local_of`` map and the
        indexed pending lanes, so the sweep costs O(in-flight operations
        naming the dead rank), not O(P · mailboxes).
        """
        for ctx in self._contexts:
            local = ctx.local_of.get(task.rank)
            if local is None:
                continue
            ctx.rank_died(local)
            dead_mbox = ctx._mailboxes[local]
            for mbox in ctx._mailboxes.values():
                if mbox is dead_mbox:
                    continue
                for p in mbox.release_pending_from(local):
                    p.future.resolve(LOST, time=p.task.clock)
            # The dead rank's own posted receives vanish with it: later
            # sends must not match a receiver that no longer exists.
            dead_mbox.clear_pending()
            for msg in dead_mbox.drain_messages():
                if msg.sender_future is not None and not msg.sender_future.done:
                    t = (
                        msg.sender_task.clock
                        if msg.sender_task is not None
                        else None
                    )
                    # Only rendezvous offers still have a live sender future
                    # (eager sends complete at post time).  The payload is
                    # gone with the receiver, so the sender observes LOST —
                    # the same hole sentinel every other fault release uses —
                    # rather than a None indistinguishable from delivery.
                    msg.sender_future.resolve(LOST, time=t)

    def _release_one_orphan(self) -> bool:
        """Virtual-time timeout: when no task can run but blocked tasks
        remain, release the one blocked on the earliest-posted operation
        (ties broken by rank) with ``LOST`` at ``clock + op_timeout``.
        Returns True when something was released.

        This is the bounded-retry backstop that guarantees fault-injected
        runs always complete: every release makes progress, so the run
        terminates as long as the rank programs do.
        """
        blocked = [t for t in self.tasks if t.state is TaskState.BLOCKED]
        if not blocked:
            return False
        victim = min(blocked, key=self._orphan_key)
        fut = victim.blocked_on
        assert fut is not None and not fut.done
        release_t = victim.clock + self.faults.plan.op_timeout
        self.faults.injected["timeout"] += 1
        ins = self.instrument
        if ins.enabled:
            ins.instant(victim.rank, "op_timeout", "fault", release_t,
                        {"orphaned": fut.label,
                         "failed_ranks": sorted(self.faults.failed)})
        fut.resolve(LOST, time=release_t)
        return True

    @staticmethod
    def _orphan_key(t: Task) -> tuple[float, int]:
        # Earliest *posted* operation first — timeout order follows
        # virtual-time causality, with rank only as the deterministic
        # tie-break.  Futures without post metadata (synthetic waits)
        # fall back to the task clock.
        fut = t.blocked_on
        post = fut.post_time if fut is not None and fut.post_time is not None else t.clock
        return (post, t.rank)

    def _deadlock_detail(self, unfinished: list[Task]) -> list[str]:
        """One line per stuck rank; ops orphaned by a crashed peer say so.

        Attribution reads the structured ``SimFuture`` metadata (kind and
        world-rank peer), never the label text: substring-matching rank
        digits against a formatted label misfires once ranks reach double
        digits (``src=1`` is a prefix of ``src=12``) and breaks silently
        whenever the label format drifts.
        """
        failed = self.faults.failed if self.faults.active else set()
        detail = []
        for t in unfinished:
            fut = t.blocked_on
            label = fut.label if fut is not None else "<not started>"
            peer: int | None = None
            if fut is not None and failed:
                if fut.kind == "irecv":
                    peer = fut.src  # None for ANY_SOURCE: unattributable
                elif fut.kind == "isend":
                    peer = fut.dest
            if peer is not None and peer in failed:
                label += f" [orphaned by crash of rank {peer}]"
            detail.append(f"rank {t.rank}: blocked on {label}")
        return detail

    def _close_unfinished(self) -> None:
        """Abandon remaining tasks after a fatal error (suppresses the
        'coroutine was never awaited' warnings for ranks that never ran)."""
        for t in self.tasks:
            if t.state in (TaskState.READY, TaskState.BLOCKED) and t.coro is not None:
                t.coro.close()
                t.state = TaskState.FAILED

    # -- results -----------------------------------------------------------

    def _by_rank(self) -> list[Task]:
        # Sorted once and cached (invalidated by adopt): the per-call sort
        # made every results()/clocks()/busy_times() lookup O(P log P).
        if self._sorted_tasks is None:
            self._sorted_tasks = sorted(self.tasks, key=lambda t: t.rank)
        return self._sorted_tasks

    def results(self) -> list[Any]:
        """Per-rank return values (tasks sorted by rank)."""
        return [t.result for t in self._by_rank()]

    def clocks(self) -> list[float]:
        """Final virtual clocks per rank."""
        return [t.clock for t in self._by_rank()]

    def busy_times(self) -> list[float]:
        """Per-rank active (non-waiting) virtual time."""
        return [t.busy for t in self._by_rank()]
