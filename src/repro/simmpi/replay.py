"""The scalar schedule-replay engine behind both macro fast paths.

A *schedule* is one plain-Python generator per rank yielding operations

    ("isend", dest, tag, payload, size)  -> handle (non-blocking)
    ("send",  dest, tag, payload, size)  -> None   (isend + wait fused)
    ("recv",  src, tag)                  -> payload
    ("wait",  handle)                    -> None
    ("compute", seconds)                 -> None

and returning the rank's result.  Collective gates feed :class:`Replay`
the ``_g_*`` generators of :mod:`repro.simmpi.collectives`, declared-pattern
gates the script generator of :mod:`repro.simmpi.patterns`.  It is
one of a schedule's two interpreters; the other, ``Communicator._drive``,
issues the same operations through the real message-level primitives.

A gate's :class:`RankState` objects are what its ranks registered at
join: the replay advances them in place and the gate writes them back.

The replay reproduces what the real scheduler does under that message-level
interpreter, without touching the mailbox or parking a task per
message: generators are driven from a FIFO seeded in the order the states
are given (gate-arrival order), wakes append to the same FIFO, a wait on
an already-resolved handle continues inline like the engine's
resolved-future short-circuit, and matching is FIFO per ``(src, dest,
tag)`` lane — the indexed mailbox's discipline for exact receives.  Every
clock/busy mutation evaluates the :class:`~repro.simmpi.timing.NetworkModel`
cost helpers in the order ``Comm.isend`` / ``CommContext.fire_match`` do,
so the virtual times are bit-identical.  Gate eligibility keeps faults out
(every fault adjustment in those code paths is the identity), so no
``LOST`` hole can ever flow through a replay.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Any, Iterable

from .datatypes import payload_nbytes
from .errors import DeadlockError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .timing import NetworkModel


class Handle:
    """Completion handle of one in-flight send (mirrors ``SimFuture``)."""

    __slots__ = ("done", "time", "busy_charge", "waiter")

    def __init__(self) -> None:
        self.done = False
        self.time = 0.0
        self.busy_charge = 0.0
        self.waiter: "RankState | None" = None


#: Shared pre-resolved handle for eager sends: their completion time equals
#: the sender's clock at post, so waiting on them never advances anything —
#: one immutable singleton replaces a handle allocation per eager message,
#: and schedules may skip the ``wait`` op altogether when they hold it.
EAGER_DONE = Handle()
EAGER_DONE.done = True
EAGER_DONE.time = -1.0


class RankState:
    """One rank's share of one gated instance: registered when it joins
    the gate, replayed, and written back onto its task.

    It snapshots the task at join — fault-timeout releases can move the
    task on before the gate completes, so live reads would be stale — and
    the replays advance the snapshot, so the float accumulation chains
    continue exactly where the task left off.  The join clock stays on
    ``fut.post_time``.  The schedule generator is attached at replay time,
    and only when the scalar core runs: the vector replays never drive
    one."""

    __slots__ = (
        "rank", "task", "fut", "genargs", "gen", "clock", "busy",
        "msgs_sent", "bytes_sent", "msgs_received", "bytes_received",
        "done", "result", "events", "op", "mid",
    )

    def __init__(self, rank: int, task: Any, fut: Any = None,
                 genargs: Any = ()) -> None:
        self.rank = rank
        self.task = task
        self.fut = fut
        self.genargs = genargs
        self.gen: Any = None
        self.clock = task.clock
        self.busy = task.busy
        self.msgs_sent = task.msgs_sent
        self.bytes_sent = task.bytes_sent
        self.msgs_received = task.msgs_received
        self.bytes_received = task.bytes_received
        self.done = False
        self.result: Any = None
        #: ``[]`` when the gate collects them: the send-metric ``("s",
        #: nbytes)`` and recv-span ``("r", post, done, src, tag, nbytes,
        #: rendezvous)`` events the message-level path would have emitted,
        #: in program order
        self.events: list[tuple] | None = None
        #: the op this rank is parked on (deadlock diagnosis)
        self.op: tuple | None = None
        #: an allreduce's clock between its reduce and its bcast
        self.mid = 0.0

    def write_back(self) -> None:
        """Copy the replayed state onto the engine task it replicated."""
        task = self.task
        task.clock = self.clock
        task.busy = self.busy
        task.msgs_sent = self.msgs_sent
        task.bytes_sent = self.bytes_sent
        task.msgs_received = self.msgs_received
        task.bytes_received = self.bytes_received


# Messages are plain tuples (payload, nbytes, time, handle): ``handle`` is
# None for eager messages (``time`` is the arrival) and the sender's handle
# for rendezvous (``time`` is send_ready).  Ready-queue entries are
# (state, time, busy_charge, value): resume at ``time``, absorb the deferred
# charge, send ``value`` into the generator.


class Replay:
    """Replays one schedule instance over ``states`` (seeding order)."""

    __slots__ = ("net", "states", "_queued", "_pending", "_ready",
                 "total_messages", "total_bytes", "failed_state", "failure",
                 "_o_send", "_o_recv", "_latency", "_eager_max",
                 "_min_bytes", "_bandwidth")

    def __init__(self, net: "NetworkModel",
                 states: Iterable[RankState]) -> None:
        self.net = net
        # Hoisted NetworkModel constants: _isend/_fire below inline the
        # timing.py helpers (the one copy outside that module, held to them
        # bit-for-bit by tests/simmpi/test_replay_core.py) because the four
        # method calls per message cost a third more per replayed message
        # (docs/PERF.md, "Macro-collectives").
        self._o_send = net.o_send
        self._o_recv = net.o_recv
        self._latency = net.latency
        self._eager_max = net.eager_threshold
        self._min_bytes = net.min_message_bytes
        self._bandwidth = net.bandwidth
        self.states: dict[int, RankState] = {st.rank: st for st in states}
        # (src, dest, tag) -> FIFO lane of queued messages / the parked
        # receiver.  Every recv blocks, so a key has at most one receiver
        # waiting.  A lane is the bare message while it holds one (every
        # collective schedule, most patterns) and a deque once a second
        # arrives (a 2-rank ring sends both ways on one tag).
        self._queued: dict[tuple[int, int, int], tuple | deque] = {}
        self._pending: dict[tuple[int, int, int], RankState] = {}
        self._ready: deque = deque()
        self.total_messages = 0
        self.total_bytes = 0
        #: the rank whose schedule raised (a user reduction op), and what
        self.failed_state: RankState | None = None
        self.failure: BaseException | None = None

    def run(self) -> None:
        """Drive every state's generator to completion.

        Stops early with :attr:`failure` set when a schedule raises; raises
        :class:`DeadlockError` naming the blocked ranks when the schedules
        cannot complete (e.g. mutual rendezvous blocking sends) — the
        message-level path would deadlock on the same cycle.
        """
        ready = self._ready
        for st in self.states.values():
            ready.append((st, -1.0, 0.0, None))
        while ready:
            st, time, charge, value = ready.popleft()
            # Request.wait's resume: advance to the completion time, then
            # absorb any deferred busy charge, in that order.
            if time > st.clock:
                st.clock = time
            if charge:
                st.busy += charge
            self._step(st, value)
            if self.failure is not None:
                return
        blocked = [f"rank {st.rank}: replay blocked on {st.op!r}"
                   for st in self.states.values() if not st.done]
        if blocked:
            raise DeadlockError(blocked)

    def _step(self, st: RankState, value: Any) -> None:
        send = st.gen.send
        queued = self._queued
        while True:
            try:
                op = send(value)
            except StopIteration as stop:
                st.result = stop.value
                st.done = True
                return
            except BaseException as exc:  # noqa: BLE001 - re-raised on owner
                self.failed_state = st
                self.failure = exc
                return
            code = op[0]
            if code == "recv":
                key = (op[1], st.rank, op[2])
                msg = queued.pop(key, None)
                if msg is None:
                    self._pending[key] = st
                    st.op = op
                    return
                if type(msg) is deque:  # several in flight on this lane
                    lane = msg
                    msg = lane.popleft()
                    if lane:
                        queued[key] = lane
                # already queued: fire and continue inline, like irecv's
                # immediate match + Request.wait short-circuit
                done_recv = self._fire(st, msg, op[1], op[2])
                if done_recv > st.clock:
                    st.clock = done_recv
                value = msg[0]
                continue
            if code == "compute":
                sec = op[1]
                st.clock += sec
                st.busy += sec
                value = None
                continue
            if code == "wait":
                handle = op[1]
            else:  # "isend" / "send"
                handle = self._isend(st, op[1], op[2], op[3], op[4])
                if code == "isend":
                    value = handle
                    continue
            if handle.done:
                # resolved-future short-circuit: continue inline, advancing
                # to the completion time exactly like Request.wait()
                if handle.time > st.clock:
                    st.clock = handle.time
                if handle.busy_charge:
                    st.busy += handle.busy_charge
                    handle.busy_charge = 0.0
                value = None
            else:
                handle.waiter = st
                st.op = op
                return

    def _isend(self, st: RankState, dest: int, tag: int, payload: Any,
               size: int | None) -> Handle:
        nbytes = payload_nbytes(payload) if size is None else int(size)
        if st.events is not None:
            st.events.append(("s", nbytes))
        st.msgs_sent += 1
        st.bytes_sent += nbytes
        self.total_messages += 1
        self.total_bytes += nbytes
        o_send = self._o_send
        if nbytes <= self._eager_max:  # NetworkModel.eager
            # NetworkModel.eager_send_cost
            mb = self._min_bytes
            dt = o_send + (nbytes if nbytes > mb else mb) / self._bandwidth
            st.clock += dt
            st.busy += dt
            handle = EAGER_DONE
            msg = (payload, nbytes, st.clock + self._latency, None)
        else:
            st.clock += o_send  # posting cost is paid now
            st.busy += o_send
            handle = Handle()
            msg = (payload, nbytes, st.clock, handle)
        key = (st.rank, dest, tag)
        rst = self._pending.pop(key, None)
        if rst is not None:
            done_recv = self._fire(rst, msg, st.rank, tag)
            self._ready.append((rst, done_recv, 0.0, payload))
        else:
            queued = self._queued
            head = queued.get(key)
            if head is None:
                queued[key] = msg
            elif type(head) is deque:
                head.append(msg)
            else:
                queued[key] = deque((head, msg))
        return handle

    def _fire(self, rst: RankState, msg: tuple, src: int, tag: int) -> float:
        """Match ``msg`` with the receive ``rst`` posted at its current
        clock; returns the receive's completion time.  Mirrors
        ``CommContext.fire_match``: the sender resolves strictly before the
        receiver's counters, so wake order (and with it every downstream
        float-accumulation order) matches the engine."""
        _, nbytes, msg_time, handle = msg
        o_recv = self._o_recv
        post_time = rst.clock
        if handle is None:
            # NetworkModel.eager_recv_complete
            done_recv = post_time + o_recv
            if msg_time > done_recv:
                done_recv = msg_time
        else:
            net = self.net
            transfer = net.transfer_time(nbytes)
            done_send, done_recv = net.rendezvous_times(
                msg_time, post_time, transfer, net.latency)
            handle.done = True
            if handle.waiter is not None:
                self._ready.append((handle.waiter, done_send, transfer, None))
                handle.waiter = None
            else:
                handle.time = done_send
                handle.busy_charge = transfer
        rst.msgs_received += 1
        rst.bytes_received += nbytes
        rst.busy += o_recv
        if rst.events is not None:
            rst.events.append(("r", post_time, done_recv, src, tag, nbytes,
                               handle is not None))
        return done_recv
