"""The ScalaTrace tracer: a PMPI-style interposition layer.

:class:`ScalaTraceTracer` wraps a rank's :class:`~repro.simmpi.Communicator`
with the same awaitable API and records every MPI call into the online
intra-node compressor.  Its :meth:`finalize` performs the classic ScalaTrace
inter-node compression: all P ranks reduce their compressed traces over a
radix tree rooted at rank 0, interior nodes merging child traces into their
own — the ``O(n^2 log P)`` step whose cost Chameleon attacks.

One per-rank flag gates the event path (:meth:`ScalaTraceTracer._record`:
one stack walk, the signature hook, build-or-skip, charge).
``tracer.tracing = False`` stops *building trace records* while the stack
signature of every call keeps flowing into the signature hook — Chameleon
sets it on non-lead processes in the L state, which is where the paper's
Table IV space savings come from.  A declared phase
(:meth:`ScalaTraceTracer.exchange`) walks and feeds the hook once per
``exchange``, not per op, and hands its calls to the exchange gate as a
*schedule* with the pre/post steps inside: the tracer rides in the one
interpreter that runs the phase (the gate's replay, else ``_drive``), at
the event and on its clock, instead of being a second one beside it.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Any, Callable, Sequence

from ..faults.injector import LOST
from ..simmpi.collectives import SUM, Communicator
from ..simmpi.comm import ANY_SOURCE, ANY_TAG, MAX_USER_TAG, Request
from ..simmpi.datatypes import payload_nbytes
from ..simmpi.launcher import RankContext
from ..simmpi.patterns import NeighborPattern
from ..simmpi.replay import EAGER_DONE
from ..simmpi.topology import RadixTree
from .costmodel import DEFAULT_COSTS, InstrumentationCostModel
from .events import Op
from .inter import merge_traces
from .intra import IntraCompressor
from .ranklist import RankSet
from .rsd import WorkMeter
from .signatures import StackWalker, push_logical
from .trace import Trace

#: reserved tag for shipping trace payloads up the reduction tree
#: (above MAX_USER_TAG: invisible to application wildcard receives)
TRACE_TAG = MAX_USER_TAG + 1


@dataclass
class TracerStats:
    """Counters the experiment harness reads after a run."""

    events_recorded: int = 0
    events_skipped: int = 0  # calls made while tracing was disabled
    record_time: float = 0.0  # virtual seconds spent recording/compressing
    merge_time: float = 0.0  # virtual seconds spent in inter-node merging
    merge_comm_time: float = 0.0  # virtual seconds in merge communication
    peak_bytes: int = 0


async def reduce_over_tree(
    comm: Communicator,
    tree: RadixTree,
    value: Any,
    tag: int,
    combine: Callable[[Any, Any], Any],
    size_of: Callable[[Any], int],
    stats: TracerStats | None = None,
) -> Any:
    """One up-sweep of ``tree`` (Algorithm 3's reduction step), run by every
    member: receive the children's values in reverse order, ``combine`` each
    into ``value``, send the result to the parent.  Returns the reduced
    value on the tree root and None on every other member.

    A child's value that arrives as a ``LOST`` hole (dropped past the retry
    budget, or the child died) is skipped: that subtree's contribution is
    gone.  With ``stats``, the virtual time spent in the receives and the
    send is added to its ``merge_comm_time``.
    """
    task, rank = comm.task, comm.rank
    for child in reversed(tree.children(rank)):
        tc0 = task.clock
        got = await comm.recv(child, tag=tag)
        if stats is not None:
            stats.merge_comm_time += task.clock - tc0
        if got is not LOST:
            value = combine(value, got)
    parent = tree.parent(rank)
    if parent is None:
        return value
    tc0 = task.clock
    await comm.send(parent, value, tag=tag, size=size_of(value))
    if stats is not None:
        stats.merge_comm_time += task.clock - tc0
    return None


class ScalaTraceTracer:
    """Interposition layer recording one rank's MPI activity."""

    def __init__(
        self,
        ctx: RankContext,
        costs: InstrumentationCostModel = DEFAULT_COSTS,
        tree_arity: int = 2,
    ) -> None:
        self.ctx = ctx
        self.comm = ctx.comm
        #: this rank in ``comm``; a plain attribute, read on every event
        self.rank: int = ctx.comm.rank
        self.costs = costs
        self.tree_arity = tree_arity
        #: the run's observability event bus (no-op unless a Recorder was
        #: passed to run_spmd); never advances virtual time
        self.obs = ctx.comm.engine.instrument
        self.meter = WorkMeter()
        self.compressor = IntraCompressor(meter=self.meter)
        self.walker = StackWalker()
        #: what the signature hook feeds (the clustering tracers name theirs)
        self._sigaccs: tuple = ()
        #: shared by every record of this rank (a RankSet has no mutator)
        self._self_set = RankSet.single(self.rank)
        self._scripts: dict[tuple, tuple] = {}  # see _script
        #: building trace records (False on Chameleon's non-leads during
        #: the lead phase: signatures only)
        self.tracing = True
        self.stats = TracerStats()
        self._last_event_end = ctx.clock

    # -- identity -----------------------------------------------------------

    @property
    def nprocs(self) -> int:
        return self.comm.size

    # -- recording ---------------------------------------------------------

    def _record(
        self,
        op: Op,
        *,
        src: int | None = None,
        dest: int | None = None,
        root: int | None = None,
        nbytes: int = 0,
        tag: int = 0,
        comm_id: int | None = None,
    ) -> int:
        """PMPI pre-wrapper of a direct call (collective or p2p), the event
        path in this rank's own frames: capture the call site, feed the
        signature hook, then either build, charge and account the event
        record or (``tracing`` off) only charge the signature.  Returns the
        stack signature.
        """
        ctx, rank, task = self.ctx, self.rank, self.ctx.task
        t0 = task.clock
        site = self.walker.capture(task.logical_stack)
        sig = site[0]
        # the signature hook: every intercepted call, record built or not
        src_offset = None if src is None else src - rank
        dest_offset = None if dest is None else dest - rank
        for acc in self._sigaccs:
            acc.observe(sig, src_offset, dest_offset)
        if self.tracing:
            ctx.compute(self._build(op, t0, site, src, dest, nbytes, tag,
                                    root, comm_id))
            self._account(t0, task.clock)
        else:  # no trace is built; the signature still lets the rank vote
            self.stats.events_skipped += 1
            ctx.compute(self.costs.per_signature_event)
        return sig

    def _build(self, op: Op, t0: float, site: tuple[int, tuple[str, ...]],
               src: int | None, dest: int | None, nbytes: int, tag: int,
               root: int | None = None, comm_id: int | None = None) -> float:
        """Compress the call entered at virtual time ``t0`` (the compressor
        builds its record only when its open loop will not absorb it);
        returns the charge, known the moment it is appended."""
        rank = self.rank
        work0 = self.meter.total
        self.compressor.append(
            op, site, self._self_set,
            self.comm.context.id if comm_id is None else comm_id,
            None if src is None else (src - rank, src),
            None if dest is None else (dest - rank, dest),
            root, nbytes, tag, max(t0 - self._last_event_end, 0.0))
        self.stats.events_recorded += 1
        return (
            self.costs.per_event_record
            + (self.meter.total - work0) * self.costs.per_compression_op
        )

    def _account(self, t0: float, t1: float) -> None:
        """The event path past the charge, which ended at clock ``t1``."""
        stats = self.stats
        stats.record_time += t1 - t0
        stats.peak_bytes = max(stats.peak_bytes, self.compressor.size_bytes())

    def _track_signatures(self, events: Sequence[tuple]) -> None:
        """The hook for one declared exchange: all its calls at once, in
        program order and ahead of the calls themselves (hook state is read
        only at markers and finalize, never inside a phase)."""
        for acc in self._sigaccs:
            acc.observe_many(events)

    def _post(self) -> None:
        """PMPI post-wrapper: next delta time starts after the call."""
        self._last_event_end = self.ctx.clock

    async def _collective_done(self, stack_sig: int) -> None:
        """Post-wrapper of every collective: the one collective-completion
        point (the auto-marker tracer hangs its anchor detector here)."""
        self._post()

    # -- traced MPI API ------------------------------------------------------

    async def send(
        self, dest: int, payload: Any = None, tag: int = 0, size: int | None = None
    ) -> None:
        nbytes = payload_nbytes(payload) if size is None else int(size)
        self._record(Op.SEND, dest=dest, nbytes=nbytes, tag=tag)
        await self.comm.send(dest, payload, tag=tag, size=size)
        self._post()

    async def recv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> Any:
        payload, status = await self.recv_with_status(source, tag)
        return payload

    async def recv_with_status(
        self, source: int = ANY_SOURCE, tag: int = ANY_TAG
    ) -> tuple[Any, dict]:
        # ANY_SOURCE is recorded as a wildcard (no source encoding) so the
        # replay engine re-issues it as a wildcard receive.
        src = None if source == ANY_SOURCE else source
        self._record(Op.RECV, src=src, tag=0 if tag == ANY_TAG else tag)
        payload, status = await self.comm.recv_with_status(source, tag)
        self._post()
        return payload, status

    async def sendrecv(
        self,
        dest: int,
        payload: Any = None,
        source: int = ANY_SOURCE,
        sendtag: int = 0,
        recvtag: int = ANY_TAG,
        size: int | None = None,
    ) -> Any:
        nbytes = payload_nbytes(payload) if size is None else int(size)
        src = None if source == ANY_SOURCE else source
        self._record(
            Op.SENDRECV, dest=dest, src=src, nbytes=nbytes, tag=sendtag
        )
        value = await self.comm.sendrecv(
            dest, payload, source=source, sendtag=sendtag, recvtag=recvtag, size=size
        )
        self._post()
        return value

    def isend(
        self, dest: int, payload: Any = None, tag: int = 0, size: int | None = None
    ) -> Request:
        nbytes = payload_nbytes(payload) if size is None else int(size)
        self._record(Op.ISEND, dest=dest, nbytes=nbytes, tag=tag)
        req = self.comm.isend(dest, payload, tag=tag, size=size)
        self._post()
        return req

    def irecv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> Request:
        src = None if source == ANY_SOURCE else source
        self._record(Op.IRECV, src=src, tag=0 if tag == ANY_TAG else tag)
        req = self.comm.irecv(source, tag)
        self._post()
        return req

    async def wait(self, request: Request) -> Any:
        value = await request.wait()
        self._post()
        return value

    def _script(self, pattern: NeighborPattern) -> tuple[list, list, Any]:
        """This rank's script of ``pattern`` against the stack around the
        ``exchange`` call (walked once, here): ``(steps, events, pattern)``,
        memoised per (captured stack, pattern).

        ``steps`` pairs each op with the ``Op`` and ``_build`` arguments of
        its call, its site being the capture with the position's label
        pushed (None for waits and computes).  Placeholders are dropped; a
        ``("sendrecv", label)`` entry fuses an isend with the recv and wait
        at the next two positions into one ``("sendrecv", dest, sendtag,
        size, source, recvtag)`` op.  ``events``: the hook's inputs, in
        program order.
        """
        captured = self.walker.capture(self.ctx.task.logical_stack)
        key = (captured, id(pattern))
        known = self._scripts.get(key)
        if known is not None:
            return known
        rank, ops, sites = self.rank, pattern.ops[self.rank], pattern.sites
        if sites is None or len(sites) < len(ops):
            raise ValueError(
                f"pattern {pattern.name!r}: no call-site table covering "
                f"the {len(ops)} positions of rank {rank}'s script"
            )
        steps: list[tuple[tuple, tuple | None]] = []
        events: list[tuple[int, int | None, int | None]] = []
        script = zip(ops, sites)
        for op, label in script:
            if op is None:
                continue
            if op[0] in ("wait", "compute"):
                steps.append((op, None))
                continue
            if label is None:
                raise ValueError(
                    f"pattern {pattern.name!r}: {op!r} has no call-site label"
                )
            if type(label) is tuple:  # ("sendrecv", label)
                (recv, _), _ = next(script), next(script)
                op, label = ("sendrecv", *op[1:], *recv[1:]), label[1]
            kind = op[0]
            src = op[-2] if kind in ("recv", "sendrecv") else None
            dest, nbytes = (None, 0) if kind == "recv" else (op[1], op[3])
            site = push_logical(captured, label)
            steps.append((op, (Op[kind.upper()],
                               (site, src, dest, nbytes, op[2]))))
            events.append((site[0], None if src is None else src - rank,
                           None if dest is None else dest - rank))
        # the entry holds the pattern, so its id stays its own
        known = self._scripts[key] = (steps, events, pattern)
        return known

    async def exchange(self, pattern: NeighborPattern, *,
                       compute: Callable[[float], Any] | None = None) -> None:
        """Run this rank's script of a declared phase, traced.

        What needs this rank's own frames happens here, at the call: the
        one stack walk (:meth:`_script`; the ops of one ``exchange`` share
        their real frames and differ in the label ``pattern.sites`` gives
        their position) and the signature hook, fed the call as one batch.
        The calls are a schedule (:meth:`_traced`) handed to
        ``Communicator.exchange``: the gate's last arrival replays it, or
        this rank drives it message by message — one statement either way.
        """
        self.comm.check_pattern(pattern)  # before a script is looked up
        steps, events, _ = self._script(pattern)
        self._track_signatures(events)
        await self.comm.exchange(
            pattern, compute=compute or self.ctx.compute,
            schedule=functools.partial(self._traced, steps))

    def _traced(self, steps: list, state: Any):
        """The schedule of ``steps`` (:meth:`_script`), for whichever
        interpreter starts it: per call the pre-step this rank's state asks
        for (build + charge + account, or the signature charge alone with
        ``tracing`` off), the call in the replay core's vocabulary, the
        post-step.  It never walks the stack (it may
        run in the last arrival's frames: sites were resolved at the call)
        and reads time only off ``state.clock`` — the ``Task`` or
        ``RankState`` the interpreter advances."""
        tracing = self.tracing
        skip = ("compute", self.costs.per_signature_event)
        handles: list = []
        for op, event in steps:
            kind = op[0]
            if kind == "compute":
                yield op
                continue
            if kind == "wait":
                if handles[op[1]] is not EAGER_DONE:  # as _g_script
                    yield ("wait", handles[op[1]])
            else:
                if tracing:
                    t0 = state.clock
                    yield ("compute", self._build(event[0], t0, *event[1]))
                    self._account(t0, state.clock)
                else:
                    self.stats.events_skipped += 1
                    yield skip
                if kind == "recv":
                    yield op
                elif kind == "send":
                    yield ("send", op[1], op[2], None, op[3])
                else:  # a sendrecv is Comm.sendrecv under its one record
                    handle = yield ("isend", op[1], op[2], None, op[3])
                    handles.append(handle)
                    if kind == "sendrecv":
                        yield ("recv", op[4], op[5])
                        if handle is not EAGER_DONE:
                            yield ("wait", handle)
            self._last_event_end = state.clock  # the post-step

    async def barrier(self) -> None:
        sig = self._record(Op.BARRIER)
        await self.comm.barrier()
        await self._collective_done(sig)

    async def bcast(self, value: Any, root: int = 0, size: int | None = None) -> Any:
        nbytes = payload_nbytes(value) if size is None else int(size)
        sig = self._record(Op.BCAST, root=root, nbytes=nbytes)
        out = await self.comm.bcast(value, root=root, size=size)
        await self._collective_done(sig)
        return out

    async def reduce(
        self, value: Any, op=None, root: int = 0, size: int | None = None
    ) -> Any:
        nbytes = payload_nbytes(value) if size is None else int(size)
        sig = self._record(Op.REDUCE, root=root, nbytes=nbytes)
        out = await self.comm.reduce(value, op=op or SUM, root=root, size=size)
        await self._collective_done(sig)
        return out

    async def allreduce(self, value: Any, op=None, size: int | None = None) -> Any:
        nbytes = payload_nbytes(value) if size is None else int(size)
        sig = self._record(Op.ALLREDUCE, nbytes=nbytes)
        out = await self.comm.allreduce(value, op=op or SUM, size=size)
        await self._collective_done(sig)
        return out

    async def gather(self, value: Any, root: int = 0, size: int | None = None):
        nbytes = payload_nbytes(value) if size is None else int(size)
        sig = self._record(Op.GATHER, root=root, nbytes=nbytes)
        out = await self.comm.gather(value, root=root, size=size)
        await self._collective_done(sig)
        return out

    async def scatter(self, values, root: int = 0, size: int | None = None):
        sig = self._record(
            Op.SCATTER, root=root, nbytes=0 if size is None else size
        )
        out = await self.comm.scatter(values, root=root, size=size)
        await self._collective_done(sig)
        return out

    async def allgather(self, value: Any, size: int | None = None):
        nbytes = payload_nbytes(value) if size is None else int(size)
        sig = self._record(Op.ALLGATHER, nbytes=nbytes)
        out = await self.comm.allgather(value, size=size)
        await self._collective_done(sig)
        return out

    async def alltoall(self, values, size: int | None = None):
        sig = self._record(Op.ALLTOALL, nbytes=0 if size is None else size)
        out = await self.comm.alltoall(values, size=size)
        await self._collective_done(sig)
        return out

    async def marker(self):
        """Timestep-boundary marker hook.

        Plain ScalaTrace ignores markers (all clustering work happens in
        ``MPI_Finalize``); Chameleon overrides this with Algorithm 3.
        Returns the marker decision (None here).
        """
        return None

    # -- inter-node compression ----------------------------------------------

    async def merge_over_tree(
        self, trace: Trace, members: Sequence[int] | None = None
    ) -> Trace | None:
        """Reduce ``trace`` over the radix tree of ``members`` (default: all
        ranks).  Returns the merged trace on the tree root, None elsewhere.

        Interior nodes receive child traces as (rendezvous-sized) messages
        and merge them with the LCS alignment, charging virtual time for the
        measured merge work — the mechanics behind ``O(n^2 log P)``.
        """
        tree = RadixTree(members if members is not None else self.nprocs,
                         arity=self.tree_arity)
        if self.rank not in tree:
            return None
        t0 = self.ctx.clock

        def merge(trace: Trace, child_trace: Trace) -> Trace:
            work0 = self.meter.total
            trace.nodes = merge_traces(trace.nodes, child_trace.nodes, self.meter)
            trace.origin = trace.origin.union(child_trace.origin)
            self.ctx.compute(
                (self.meter.total - work0) * self.costs.per_merge_cell
            )
            return trace

        result: Trace | None = await reduce_over_tree(
            self.comm, tree, trace, TRACE_TAG, merge, Trace.size_bytes,
            self.stats,
        )
        self.stats.merge_time += self.ctx.clock - t0
        ins = self.obs
        if ins.enabled:
            ins.span(
                self.rank, "merge_over_tree", "tracer", t0, self.ctx.clock,
                {"members": tree.size, "root": result is not None},
            )
        return result

    async def finalize(self, members: Sequence[int] | None = None) -> Trace | None:
        """ScalaTrace's ``MPI_Finalize`` wrapper: global inter-node merge.

        Returns the global trace on rank 0 and ``None`` on other ranks
        (with ``members`` — the survivors of a faulted run — on the first
        member).
        """
        local = Trace(
            nodes=self.compressor.take_nodes(),
            origin=self._self_set,
            nprocs=self.nprocs,
        )
        return await self.merge_over_tree(local, members)
