"""Point-to-point communication with MPI matching semantics.

Implements blocking/non-blocking send/recv over the virtual-time engine:

* **Matching** follows MPI rules: a receive names ``(source, tag)`` where
  either may be a wildcard; messages between a sender/receiver pair on the
  same communicator are non-overtaking.
* **Eager protocol** (payload <= ``eager_threshold``): the send completes
  locally after the buffer copy; the message arrives ``latency`` later.
* **Rendezvous protocol** (large payloads): the sender blocks until the
  matching receive is posted; the wire transfer starts at the later of the
  two parties being ready.  This models the synchronizing behaviour that
  makes shipping large trace payloads up a reduction tree expensive —
  exactly the cost Chameleon's clustering is designed to avoid.

Matching state lives in per-destination mailboxes.  The default
:class:`Mailbox` indexes queued messages and posted receives by exact
``(src, tag)`` — one deque per class, so the collective-dominated traffic
that scales with P matches in O(1) — plus a *wildcard overflow lane*
holding user-tag messages in arrival order for ``ANY_SOURCE``/``ANY_TAG``
receives.  Every message and receive carries a mailbox-local sequence
number, and every lookup breaks ties by it, so the index produces exactly
the match a linear FIFO scan of one arrival queue would (the pre-index
implementation lives on as the test oracle
``tests/simmpi/linear_mailbox.py``, asserted equivalent by a
randomized-traffic property test).

Every rank holds its own :class:`Comm` view (rank, size, bound task) of a
shared :class:`CommContext`: membership, mailboxes, and the gate state of
:mod:`repro.simmpi.collectives` — the sequence counters that number a
rank's collectives and declared exchanges, the one table of open gates
(both families), the quorum a gate waits for and what happens when it
fills or a member dies.  The context is also the one place a p2p message
is described to a recorder (:meth:`CommContext.emit_send` /
:meth:`~CommContext.emit_recv`), for the primitives here and for a
replayed exchange alike.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Iterable, Sequence

from ..faults.injector import LOST
from .datatypes import payload_nbytes
from .engine import Engine, Task
from .errors import CommunicatorError, MatchingError
from .futures import SimFuture

ANY_SOURCE = -1
ANY_TAG = -1

#: Tags above this are reserved for internal collective plumbing.
MAX_USER_TAG = 1 << 20

#: Compact a lazy-deletion lane when it holds this many dead entries and
#: they outnumber the live ones.
_COMPACT_THRESHOLD = 64


@dataclass(slots=True)
class Message:
    """An in-flight message (eager: buffered; rendezvous: an offer)."""

    src: int
    dest: int
    tag: int
    payload: Any
    nbytes: int
    arrival: float  # eager: absolute arrival time of the payload
    rendezvous: bool = False
    send_ready: float = 0.0  # rendezvous: when the sender became ready
    sender_future: SimFuture | None = None  # rendezvous: wakes the sender
    sender_task: Task | None = None  # rendezvous: busy-time accounting
    seq: int = -1  # mailbox-local arrival order (set on enqueue)
    consumed: bool = False  # matched via another lane; skip on scan


@dataclass(slots=True)
class PendingRecv:
    src: int
    tag: int
    post_time: float
    future: SimFuture
    task: Task
    seq: int = -1  # mailbox-local post order (set on enqueue)


def _tag_matches(want: int, have: int) -> bool:
    if want == ANY_TAG:
        # Wildcards only see user-level traffic: tags above MAX_USER_TAG
        # belong to collective plumbing and tool (tracer) messages, which
        # real MPI isolates in separate communicator contexts.
        return have <= MAX_USER_TAG
    return want == have


def _src_matches(want: int, have: int) -> bool:
    return want == ANY_SOURCE or want == have


class Mailbox:
    """Per-(context, destination) matching state, indexed by ``(src, tag)``.

    Queued messages live in one deque per exact ``(src, tag)`` class; a
    user-tag message is additionally referenced from the wildcard overflow
    lane (``_wild``).  Exact receives match against the head of their class
    lane in O(1); wildcard receives scan the overflow lane in arrival
    order.  Because MPI matching classes are disjoint by ``(src, tag)``,
    the head of a class lane is always the earliest live message of that
    class, and sequence numbers arbitrate between lanes — the chosen match
    is bit-identical to a linear FIFO scan.

    Lazy deletion: a message matched through its class lane stays in the
    overflow lane flagged ``consumed`` until a scan skips past it or the
    lane compacts; a message matched through the overflow lane is provably
    at the head of its class lane (earlier same-class messages would have
    matched the same wildcard first) and is removed eagerly.

    Posted receives mirror the same structure: exact receives in per-class
    lanes, receives naming any wildcard in ``_pending_wild``.  Receives
    released by fault timeouts (``future.done``) are dropped lazily.
    """

    __slots__ = (
        "_seq",
        "_lanes",
        "_wild",
        "_wild_dead",
        "_pending_lanes",
        "_pending_wild",
        "_pending_count",
    )

    def __init__(self) -> None:
        self._seq = 0
        self._lanes: dict[tuple[int, int], deque[Message]] = {}
        self._wild: deque[Message] = deque()
        self._wild_dead = 0
        self._pending_lanes: dict[tuple[int, int], deque[PendingRecv]] = {}
        self._pending_wild: deque[PendingRecv] = deque()
        self._pending_count = 0

    # -- queued messages ---------------------------------------------------

    def push_msg(self, msg: Message) -> None:
        msg.seq = self._seq
        self._seq += 1
        key = (msg.src, msg.tag)
        lane = self._lanes.get(key)
        if lane is None:
            self._lanes[key] = lane = deque()
        lane.append(msg)
        if msg.tag <= MAX_USER_TAG:
            self._wild.append(msg)

    def _pop_wild_heads(self) -> None:
        wild = self._wild
        while wild and wild[0].consumed:
            wild.popleft()
            self._wild_dead -= 1

    def _compact_wild(self) -> None:
        if (
            self._wild_dead > _COMPACT_THRESHOLD
            and self._wild_dead * 2 > len(self._wild)
        ):
            self._wild = deque(m for m in self._wild if not m.consumed)
            self._wild_dead = 0

    def _take_exact(self, key: tuple[int, int]) -> Message | None:
        lane = self._lanes.get(key)
        if not lane:
            return None
        msg = lane.popleft()
        if not lane:
            del self._lanes[key]
        # The message stays in the overflow lane (if user-tagged) until a
        # scan or compaction drops it.
        if msg.tag <= MAX_USER_TAG:
            msg.consumed = True
            self._wild_dead += 1
            self._compact_wild()
        return msg

    def _find_wild(self, source: int, tag: int, remove: bool) -> Message | None:
        self._pop_wild_heads()
        for i, msg in enumerate(self._wild):
            if msg.consumed:
                continue
            if _src_matches(source, msg.src) and _tag_matches(tag, msg.tag):
                if remove:
                    del self._wild[i]
                    # Provably at the head of its class lane: any earlier
                    # same-class message would have matched this wildcard.
                    key = (msg.src, msg.tag)
                    lane = self._lanes[key]
                    popped = lane.popleft()
                    assert popped is msg
                    if not lane:
                        del self._lanes[key]
                return msg
        return None

    def match_msg(self, source: int, tag: int) -> Message | None:
        """Remove and return the earliest queued message matching the
        receive's ``(source, tag)`` filters, or None.  A wildcard receive
        names a user tag or ``ANY_TAG`` (``Comm.irecv`` rejects
        ``ANY_SOURCE`` on a reserved tag), so the overflow lane holds
        every message it could match."""
        if source != ANY_SOURCE and tag != ANY_TAG:
            return self._take_exact((source, tag))
        return self._find_wild(source, tag, remove=True)

    def peek_msg(self, source: int, tag: int) -> Message | None:
        """Like :meth:`match_msg` but non-destructive (``probe``)."""
        if source != ANY_SOURCE and tag != ANY_TAG:
            lane = self._lanes.get((source, tag))
            return lane[0] if lane else None
        return self._find_wild(source, tag, remove=False)

    def drain_messages(self) -> list[Message]:
        """Remove and return every queued message in arrival order."""
        out = [m for lane in self._lanes.values() for m in lane]
        out.sort(key=lambda m: m.seq)
        self._lanes.clear()
        self._wild.clear()
        self._wild_dead = 0
        return out

    # -- posted receives ---------------------------------------------------

    def push_pending(self, p: PendingRecv) -> None:
        p.seq = self._seq
        self._seq += 1
        self._pending_count += 1
        if p.src != ANY_SOURCE and p.tag != ANY_TAG:
            key = (p.src, p.tag)
            lane = self._pending_lanes.get(key)
            if lane is None:
                self._pending_lanes[key] = lane = deque()
            lane.append(p)
        else:
            self._pending_wild.append(p)

    def match_pending(
        self, msg: Message, faults_active: bool = False
    ) -> PendingRecv | None:
        """Remove and return the earliest live posted receive matching
        ``msg``, or None.  Receives already released by a fault timeout
        (``future.done``) are skipped and garbage-collected lazily."""
        key = (msg.src, msg.tag)
        exact: PendingRecv | None = None
        lane = self._pending_lanes.get(key)
        if lane:
            while lane and lane[0].future.done:
                lane.popleft()
                self._pending_count -= 1
            if lane:
                exact = lane[0]
            else:
                del self._pending_lanes[key]
                lane = None
        wild_at = -1
        wild: PendingRecv | None = None
        pw = self._pending_wild
        while pw and pw[0].future.done:
            pw.popleft()
            self._pending_count -= 1
        for i, p in enumerate(pw):
            if p.future.done:
                continue
            if _src_matches(p.src, msg.src) and _tag_matches(p.tag, msg.tag):
                wild, wild_at = p, i
                break
        if exact is not None and (wild is None or exact.seq < wild.seq):
            assert lane is not None
            lane.popleft()
            if not lane:
                del self._pending_lanes[key]
            self._pending_count -= 1
            return exact
        if wild is not None:
            del pw[wild_at]
            self._pending_count -= 1
            return wild
        return None

    def has_pending(self) -> bool:
        return self._pending_count > 0

    def has_queued(self) -> bool:
        """Any undelivered queued message?  Empty class lanes are always
        deleted, so the lane dict doubles as the live-message indicator."""
        return bool(self._lanes)

    def has_wild_pending(self) -> bool:
        """Any live posted receive that could match by wildcard?"""
        return any(not p.future.done for p in self._pending_wild)

    def has_tag_window(self, lo: int, hi: int) -> bool:
        """Any queued message or live posted receive with an exact tag in
        ``[lo, hi)``?  The macro-collective eligibility probe: a collective
        may only bypass the mailbox when nothing could observe its private
        tag window.  ``ANY_TAG`` receives never can (wildcards are blind to
        tags above ``MAX_USER_TAG``) and an ``ANY_SOURCE`` receive cannot
        name one (``Comm.irecv`` rejects it), so only the exact lanes are
        consulted."""
        for _src, tag in self._lanes:
            if lo <= tag < hi:
                return True
        for _src, tag in self._pending_lanes:
            if lo <= tag < hi:
                return True
        return False

    def clear_pending(self) -> None:
        """Drop every posted receive (the owning rank is gone)."""
        self._pending_lanes.clear()
        self._pending_wild.clear()
        self._pending_count = 0

    def release_pending_from(self, src: int) -> list[PendingRecv]:
        """Remove and return live posted receives naming ``src`` exactly
        (wildcard receives can still be fed by other senders), post order."""
        out: list[PendingRecv] = []
        dead_keys = [k for k in self._pending_lanes if k[0] == src]
        for key in dead_keys:
            for p in self._pending_lanes.pop(key):
                self._pending_count -= 1
                if not p.future.done:
                    out.append(p)
        if any(p.src == src for p in self._pending_wild):
            keep: deque[PendingRecv] = deque()
            for p in self._pending_wild:
                if p.src == src:
                    self._pending_count -= 1
                    if not p.future.done:
                        out.append(p)
                else:
                    keep.append(p)
            self._pending_wild = keep
        out.sort(key=lambda p: p.seq)
        return out


class _LazyMailboxes(dict):
    """Mailboxes materialized on first touch.

    A pure-collective run at P=65536 never routes a point-to-point
    message, so eagerly building P mailboxes per communicator is wasted
    allocation; unmaterialized entries behave as (and are) empty
    mailboxes.  Iteration (``values()`` in the crash sweep and the
    tag-window scan) only visits materialized entries, which is correct
    because an untouched mailbox holds neither messages nor pendings.
    """

    __slots__ = ("_factory",)

    def __init__(self, factory) -> None:
        super().__init__()
        self._factory = factory

    def __missing__(self, key):
        mbox = self._factory()
        self[key] = mbox
        return mbox


class CommContext:
    """State shared by all ranks of one communicator."""

    #: builds each destination's matching state on first touch; the
    #: equivalence tests swap in their linear-scan oracle here
    mailbox_factory = Mailbox

    def __init__(self, engine: Engine, ranks: Sequence[int]) -> None:
        self.engine = engine
        self.id = engine.alloc_comm_id()
        self.ranks = list(ranks)
        #: world rank -> local rank, precomputed so membership tests and
        #: crash sweeps never pay an O(P) ``list.index`` scan
        self.local_of: dict[int, int] = {
            world: i for i, world in enumerate(self.ranks)
        }
        self._mailboxes: dict[int, Any] = _LazyMailboxes(self.mailbox_factory)
        # Per-rank sequence numbers of the two gated families.  SPMD
        # programs call collectives, and declared exchanges, in the same
        # order on every rank, so number N names one instance: it gives a
        # collective its private tag window and names either in diagnostics.
        self.coll_seq: dict[int, int] = {i: 0 for i in range(len(self.ranks))}
        self.p2p_seq: dict[int, int] = {i: 0 for i in range(len(self.ranks))}
        # Open gates of both families, keyed ``(is_exchange, seq)``: the
        # first rank to reach an instance decides fast-vs-simulated for it,
        # later arrivals join (fast) or follow the verdict (simulated).  A
        # gate leaves the table once every live rank has consulted it.
        self._gates: dict[tuple[bool, int], Any] = {}
        #: how many ranks each new gate waits for: the live members
        self.gate_quorum = len(self.ranks)
        #: messages queued + receives posted so far, and the count at the
        #: last clean exchange-eligibility scan: only a post can dirty one
        self.posts = self.clean_posts = 0
        # Registered so a rank crash can purge its pending receives from
        # every communicator it participates in.
        engine._contexts.append(self)

    @property
    def size(self) -> int:
        return len(self.ranks)

    def mailbox(self, local_rank: int):
        return self._mailboxes[local_rank]

    def rank_died(self, local_rank: int) -> None:
        """A member failed: later gates stop counting it, and so does every
        open gate it never consulted — one still collecting fast joiners
        sends them to the message-level path, where a dead peer is a
        ``LOST`` hole rather than a join that never comes."""
        self.gate_quorum -= 1
        for key, gate in list(self._gates.items()):
            exchange, seq = key
            if (self.p2p_seq if exchange else self.coll_seq)[local_rank] > seq:
                continue  # consulted before it died
            if gate.reason is None:
                gate.abort(self.engine, "failed-participant")
            gate.awaited -= 1
            if not gate.awaited:
                del self._gates[key]

    # -- matching internals --------------------------------------------

    def deliver(self, msg: "Message") -> None:
        """Offer a message to its destination mailbox, matching if possible."""
        mbox = self._mailboxes[msg.dest]
        pending = mbox.match_pending(msg, self.engine.faults.active)
        if pending is not None:
            self.fire_match(pending, msg)
            return
        mbox.push_msg(msg)
        self.posts += 1

    def fire_match(self, pending: "PendingRecv", msg: "Message") -> None:
        """Compute completion times and resolve both sides' futures."""
        net = self.engine.network
        inj = self.engine.faults
        if inj.active and pending.future.done:
            # The receiver was already released by a fault timeout; consume
            # the message and free a still-waiting rendezvous sender.
            if (
                msg.rendezvous
                and msg.sender_future is not None
                and not msg.sender_future.done
            ):
                msg.sender_future.resolve(LOST, time=msg.send_ready)
            return
        self.engine.total_matches += 1
        if msg.rendezvous:
            latency = net.latency
            transfer = net.transfer_time(msg.nbytes)
            if inj.active:
                lat_f, bw_f = inj.link_factors(
                    self.ranks[msg.src], self.ranks[msg.dest]
                )
                latency *= lat_f
                transfer *= bw_f
            done_send, done_recv = net.rendezvous_times(
                msg.send_ready, pending.post_time, transfer, latency
            )
            assert msg.sender_future is not None
            if not msg.sender_future.done:
                # Streaming the payload is active work for the sender, but
                # the charge lands when the sender *waits* on the request:
                # busy then accumulates strictly in each rank's program
                # order, independent of global scheduling (the collective
                # fast path relies on this to replay busy times bitwise).
                msg.sender_future.busy_charge = transfer
                msg.sender_future.resolve(None, time=done_send)
        else:
            done_recv = net.eager_recv_complete(pending.post_time, msg.arrival)
        pending.task.msgs_received += 1
        pending.task.bytes_received += msg.nbytes
        # Like the rendezvous sender's transfer above, the receiver's
        # o_recv overhead is deferred to Request.wait so busy accumulates
        # in program order regardless of when the match fires — without
        # this, a non-blocking receive completed mid-compute would charge
        # o_recv at a schedule-dependent point, which the gate replays
        # could not reproduce bitwise.
        pending.future.busy_charge = net.o_recv
        ins = self.engine.instrument
        if ins.enabled:
            self.emit_recv(ins, msg.src, msg.dest, msg.tag, msg.nbytes,
                           msg.rendezvous, pending.post_time, done_recv)
        pending.future.resolve(msg, time=done_recv)

    # -- p2p emission ----------------------------------------------------
    #
    # The only statement of what one message looks like to a recorder: the
    # message-level primitives emit through these, and a replayed exchange
    # synthesizes its messages' events through them.

    def emit_send(self, ins, src: int, nbytes: int) -> None:
        """One message's send counters."""
        world = self.ranks[src]
        ins.metrics.count("p2p/bytes_sent", nbytes, rank=world, op="send")
        ins.metrics.count("p2p/messages", 1, rank=world, op="send")

    def emit_recv(self, ins, src: int, dest: int, tag: int, nbytes: int,
                  rendezvous: bool, post: float, done: float) -> None:
        """One span per delivered message on the *receiver's* lane, from
        the receive post to completion: the wait/latency view the paper's
        rendezvous-cost argument is about."""
        wsrc = self.ranks[src]
        wdest = self.ranks[dest]
        ins.span(
            wdest, f"recv<-{wsrc}",
            "p2p" if tag <= MAX_USER_TAG else "p2p.tool", post, done,
            {"src": wsrc, "tag": tag, "nbytes": nbytes,
             "rendezvous": rendezvous, "comm": self.id},
        )


def _status_of(msg: Message) -> dict:
    return {"source": msg.src, "tag": msg.tag, "nbytes": msg.nbytes}


class Request:
    """Handle for a non-blocking operation (isend/irecv).

    Receive requests resolve with the raw :class:`Message`; :meth:`wait`
    unwraps it to the payload and advances the caller's clock to the
    operation's completion time.
    """

    __slots__ = ("_future", "_task", "_kind")

    def __init__(self, future: SimFuture, task: Task, kind: str) -> None:
        self._future = future
        self._task = task
        self._kind = kind

    @property
    def done(self) -> bool:
        return self._future.done

    async def wait(self) -> Any:
        value = await self._future
        self._task.advance_to(self._future.time)
        charge = self._future.busy_charge
        if charge:
            self._future.busy_charge = 0.0
            self._task.busy += charge
        if isinstance(value, Message):
            return value.payload
        return value

    async def wait_with_status(self) -> tuple[Any, dict]:
        value = await self._future
        self._task.advance_to(self._future.time)
        charge = self._future.busy_charge
        if charge:
            self._future.busy_charge = 0.0
            self._task.busy += charge
        if isinstance(value, Message):
            return value.payload, _status_of(value)
        if self._kind == "irecv":
            # Fault release: the receive was resolved with LOST (dead
            # source or op_timeout) so no sender metadata survives.
            return value, {"source": -1, "tag": -1, "nbytes": 0}
        raise MatchingError("wait_with_status is only valid on receives")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Request {self._kind} done={self.done}>"


async def wait_all(requests: Sequence[Request]) -> list[Any]:
    """Wait for every request, returning their payloads in order."""
    return [await r.wait() for r in requests]


class Comm:
    """A rank's view of a communicator; all methods are awaitable."""

    def __init__(self, context: CommContext, rank: int, task: Task) -> None:
        if not (0 <= rank < context.size):
            raise CommunicatorError(
                f"rank {rank} outside communicator of size {context.size}"
            )
        self.context = context
        self.rank = rank
        self.task = task

    # -- introspection -------------------------------------------------

    @property
    def size(self) -> int:
        return self.context.size

    @property
    def engine(self) -> Engine:
        return self.context.engine

    @property
    def net(self):
        return self.context.engine.network

    def world_rank(self, local_rank: int) -> int:
        """Translate a rank in this communicator to a world rank."""
        return self.context.ranks[local_rank]

    # -- validation ------------------------------------------------------

    def _check_peer(self, peer: int, what: str) -> None:
        if not (0 <= peer < self.size):
            raise MatchingError(
                f"{what} rank {peer} outside communicator of size {self.size}"
            )

    def _check_tag(self, tag: int, recv: bool) -> None:
        if recv and tag == ANY_TAG:
            return
        if tag < 0:
            raise MatchingError(f"negative tag {tag}")

    @staticmethod
    def _check_wildcard(source: int, tag: int) -> None:
        # Tags above MAX_USER_TAG are the runtime's own and match exactly.
        if source == ANY_SOURCE and tag > MAX_USER_TAG:
            raise MatchingError(
                f"ANY_SOURCE receive on reserved tag {tag} "
                f"(above MAX_USER_TAG={MAX_USER_TAG}): name the source"
            )

    # -- point to point ----------------------------------------------------

    async def send(
        self, dest: int, payload: Any = None, tag: int = 0, size: int | None = None
    ) -> None:
        """Blocking standard-mode send (eager or rendezvous by size)."""
        req = self.isend(dest, payload, tag=tag, size=size)
        await req.wait()

    async def recv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> Any:
        """Blocking receive; returns the payload.

        Skips the status construction of :meth:`recv_with_status` — on the
        collective-heavy benchmarks that dict was a measurable share of the
        per-message allocation cost.
        """
        req = self.irecv(source, tag)
        return await req.wait()

    async def recv_with_status(
        self, source: int = ANY_SOURCE, tag: int = ANY_TAG
    ) -> tuple[Any, dict]:
        """Blocking receive returning ``(payload, status)``.

        ``status`` carries ``source``, ``tag`` and ``nbytes`` like
        ``MPI_Status`` so wildcard receivers can learn the actual sender.
        """
        req = self.irecv(source, tag)
        return await req.wait_with_status()

    async def sendrecv(
        self,
        dest: int,
        payload: Any = None,
        source: int = ANY_SOURCE,
        sendtag: int = 0,
        recvtag: int = ANY_TAG,
        size: int | None = None,
    ) -> Any:
        """Combined send+recv (deadlock-free like ``MPI_Sendrecv``)."""
        sreq = self.isend(dest, payload, tag=sendtag, size=size)
        rreq = self.irecv(source, recvtag)
        value = await rreq.wait()
        await sreq.wait()
        return value

    def isend(
        self, dest: int, payload: Any = None, tag: int = 0, size: int | None = None
    ) -> Request:
        """Non-blocking send.

        Eager sends complete immediately (buffered); rendezvous sends
        complete when the matching receive is posted.  The local overhead is
        charged at post time either way, mirroring real ``MPI_Isend``.
        """
        self._check_peer(dest, "destination")
        self._check_tag(tag, recv=False)
        nbytes = payload_nbytes(payload) if size is None else int(size)
        net = self.net
        task = self.task
        ranks = self.context.ranks
        task.msgs_sent += 1
        task.bytes_sent += nbytes
        self.engine.total_messages += 1
        self.engine.total_bytes += nbytes

        ins = self.engine.instrument
        if ins.enabled:
            self.context.emit_send(ins, self.rank, nbytes)

        fut = SimFuture(kind="isend", src=ranks[self.rank], dest=ranks[dest],
                        tag=tag, comm=self.context.id, post_time=task.clock)
        inj = self.engine.faults
        if inj.active and ranks[dest] in inj.failed:
            # Dead destination: the send completes locally and the payload
            # goes into the void — matching real MPI, where delivery to a
            # failed process is undetectable without an FT protocol.  This
            # also keeps rendezvous senders from stalling on a receive that
            # will never be posted.
            task.charge(net.o_send)
            if ins.enabled:
                wsrc = ranks[self.rank]
                ins.instant(wsrc, "dead_dest", "fault", task.clock,
                            {"dest": ranks[dest], "tag": tag,
                             "nbytes": nbytes})
            fut.resolve(None, time=task.clock)
            return Request(fut, task, "isend")
        if net.eager(nbytes):
            task.charge(net.eager_send_cost(nbytes))
            latency = net.latency
            inj = self.engine.faults
            if inj.active:
                wsrc = ranks[self.rank]
                wdest = ranks[dest]
                latency *= inj.link_factors(wsrc, wdest)[0]
                extra = inj.message_delay(wsrc, wdest, task.msgs_sent)
                if extra is None:
                    # Permanently lost past the retransmission budget: the
                    # eager send still completes locally (buffered), but
                    # the payload never arrives — the receiver is released
                    # with LOST by the engine's op_timeout.
                    if ins.enabled:
                        ins.instant(wsrc, "msg_lost", "fault", task.clock,
                                    {"dest": wdest, "tag": tag,
                                     "nbytes": nbytes})
                    fut.resolve(None, time=task.clock)
                    return Request(fut, task, "isend")
                latency += extra
                if extra and ins.enabled:
                    ins.instant(wsrc, "msg_delayed", "fault", task.clock,
                                {"dest": wdest, "tag": tag, "extra": extra})
            msg = Message(
                src=self.rank,
                dest=dest,
                tag=tag,
                payload=payload,
                nbytes=nbytes,
                arrival=task.clock + latency,
            )
            self.context.deliver(msg)
            fut.resolve(None, time=task.clock)
        else:
            task.charge(net.o_send)  # posting cost is paid now
            send_ready = task.clock
            msg = Message(
                src=self.rank,
                dest=dest,
                tag=tag,
                payload=payload,
                nbytes=nbytes,
                arrival=0.0,
                rendezvous=True,
                send_ready=send_ready,
                sender_future=fut,
                sender_task=task,
            )
            self.context.deliver(msg)
        return Request(fut, task, "isend")

    def irecv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> Request:
        """Non-blocking receive; ``await req.wait()`` returns the payload."""
        if source != ANY_SOURCE:
            self._check_peer(source, "source")
        self._check_wildcard(source, tag)
        self._check_tag(tag, recv=True)
        task = self.task
        ranks = self.context.ranks
        mbox = self.context.mailbox(self.rank)
        fut = SimFuture(
            kind="irecv",
            src=None if source == ANY_SOURCE else ranks[source],
            dest=ranks[self.rank],
            tag=tag,
            comm=self.context.id,
            post_time=task.clock,
        )

        msg = mbox.match_msg(source, tag)
        if msg is not None:
            self.context.fire_match(
                PendingRecv(source, tag, task.clock, fut, task), msg
            )
            return Request(fut, task, "irecv")
        inj = self.engine.faults
        if (
            inj.active
            and source != ANY_SOURCE
            and ranks[source] in inj.failed
        ):
            # The named peer is dead and nothing from it is queued: the
            # message can never arrive (all sends structurally deliver at
            # post time, so the queue state is complete).  Release the
            # receive immediately with a LOST hole.
            ins = self.engine.instrument
            if ins.enabled:
                wdest = ranks[self.rank]
                ins.instant(wdest, "dead_source", "fault", task.clock,
                            {"src": ranks[source], "tag": tag})
            fut.resolve(LOST, time=task.clock)
            return Request(fut, task, "irecv")
        mbox.push_pending(PendingRecv(source, tag, task.clock, fut, task))
        self.context.posts += 1
        return Request(fut, task, "irecv")

    def probe(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> dict | None:
        """Non-blocking probe: status of the first matching queued message."""
        self._check_wildcard(source, tag)
        mbox = self.context.mailbox(self.rank)
        msg = mbox.peek_msg(source, tag)
        return None if msg is None else _status_of(msg)
