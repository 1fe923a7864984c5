"""Conservative-PDES sharding: the engine partitioned over processes.

``run_spmd(..., config=SimConfig(shards=S))`` splits the world's ranks
into ``S`` contiguous blocks, each advanced by an unmodified
single-process :class:`~repro.simmpi.engine.Engine` in a forked worker.
Workers alternate between *waves* — :meth:`Engine.run_ready` drains every
runnable task until all owned ranks are parked on cross-shard futures —
and a barrier exchange through the coordinator (this process), which
routes cross-shard point-to-point messages, rendezvous completions and
macro-collective gate traffic.  Lookahead is implicit: a rank only parks
when its next event depends on a remote shard, and everything it produced
before parking carries final virtual timestamps (the LogGP model charges
costs at post time), so delivering at the barrier can never violate
causality — the classic conservative-PDES argument.

**Parallel gate replay.**  Fast-path collective gates are *not* replayed
by the coordinator: once every rank's columnar record has arrived, the
coordinator forwards the complete gate to a deterministic owner shard
(round-robin by collective sequence number), which runs the same
bit-exact replay the single-process engine uses
(:func:`~repro.simmpi.collectives._run_replay`), resolves its own ranks
immediately and ships the foreign ranks' completion columns back through
the coordinator.  Independent gates land on different owners, so replay
work scales with the shard count instead of serializing in one process.

**Bit-identity contract.**  A sharded run returns *bit-identical* virtual
clocks, busy times, results and communication totals to ``shards=1``.
This falls out of two properties:

* per-rank virtual state depends only on the rank's program order and on
  which message matched which receive — never on global scheduling order;
* every matching decision the sharded run makes is interleaving-invariant:
  exact-source receives (including ``ANY_TAG``) reduce to per-sender-pair
  FIFO matching, ``ANY_SOURCE`` receives are *held* until global
  quiescence and fired only when exactly one candidate sender exists
  (single source + per-pair FIFO pins the oracle's choice; a whole-run
  backstop hazard catches any later competing sender), and anything else
  order-sensitive is a *hazard* (below).

**Hazards and the oracle.**  Any construct whose outcome could depend on
cross-shard scheduling — an ``ANY_SOURCE`` receive racing multiple
senders, ``probe``, communicator ``split``/``dup``, a user tag colliding
with a collective's private tag window, an unpicklable payload — aborts
the shards and transparently reruns the whole program on the
single-process engine, which *is* the oracle: results and exceptions are
exact by construction.  Errors, deadlocks and collective mismatches take
the same route so their diagnostics match ``shards=1`` verbatim.  The
fallback reason is recorded in ``SpmdResult.extras["shard_fallback"]``;
sharding is purely an optimization and never changes observable
behaviour.

**Fault plans.**  Delay/duplicate message faults, degraded links and
compute noise are shard-safe: every draw keys on (seed, kind, endpoints,
per-sender ordinal), so it lands identically wherever it is evaluated.
Fault-timeout releases of orphaned operations are arbitrated by the
coordinator at global quiescence (the global minimum release key across
shards reproduces the oracle's release order exactly).  Crash plans are
shard-safe as long as no cross-shard traffic touches a crash-armed
shard — such traffic, and message *drops* anywhere, still require the
oracle (LOST holes on arbitrary edges are global engine state).

Set ``REPRO_SHARD_PROFILE=1`` to record a per-run wall-clock breakdown
(gate replay vs cross-shard forwarding vs barrier wait) in
``SpmdResult.extras["shard_profile"]``; it is also emitted as
``shard/*`` metrics when a recorder is attached.

See docs/PERF.md ("Sharded engine") for the design discussion and the
cases where ``shards > 1`` loses.
"""

from __future__ import annotations

import multiprocessing
import os
from array import array
from bisect import bisect_right
from collections import namedtuple
from time import perf_counter
from typing import Any, Sequence

from ..faults.injector import LOST, FaultInjector, injector_for
from ..faults.plan import FaultPlan
from ..obs.instrument import NULL_INSTRUMENT, Instrument, ObsData, Recorder
from ..resilience.hostfaults import (
    shard_final_hook,
    shard_replay_hook,
    shard_wave_hook,
)
from ..resilience.supervise import (
    DEFAULT_TEARDOWN_GRACE,
    Heartbeat,
    WorkerTimeout,
    recv_supervised,
    shutdown_workers,
    wave_deadline,
)
from .collectives import (
    _Gate,
    _TAG_STRIDE,
    _entry_rank,
    _run_replay,
    _tag_base,
    Communicator,
)
from .comm import (
    ANY_SOURCE,
    ANY_TAG,
    CommContext,
    MAX_USER_TAG,
    Message,
    PendingRecv,
    Request,
)
from .engine import Engine, Task, TaskState
from .futures import SimFuture
from .replay import RankState
from .simconfig import SimConfig

#: arm the per-wave wall-clock breakdown (coordinator + workers)
ENV_PROFILE = "REPRO_SHARD_PROFILE"


def _profiling() -> bool:
    return os.environ.get(ENV_PROFILE, "") not in ("", "0")


class ShardHazard(Exception):
    """Raised inside a worker when the program uses a construct the
    sharded engine cannot reproduce bit-identically; the run falls back
    to the single-process oracle."""


# -- shard-side communicator --------------------------------------------------


class ShardCommContext(CommContext):
    """World communicator context as seen by one shard.

    Rank numbering, mailboxes and collective sequence numbers cover the
    *whole* world (so they align exactly with the single-process run),
    but only ranks in ``[lo, hi)`` have live tasks here; traffic to the
    rest is queued in ``outbox`` for the coordinator to route.
    """

    def __init__(self, engine: Engine, nprocs: int, lo: int, hi: int,
                 shard_index: int = 0, bounds: Sequence[int] | None = None,
                 armed: frozenset = frozenset()) -> None:
        super().__init__(engine, range(nprocs))
        self.lo = lo
        self.hi = hi
        self.gate_quorum = hi - lo  # gates wait for the owned block only
        self.shard_index = shard_index
        #: sorted block-partition fencepost list for the whole world
        self.bounds = list(bounds) if bounds is not None else [0, nprocs]
        #: shards holding a plan-armed crash rank; any cross-shard traffic
        #: touching one of them is a hazard (LOST holes are global state)
        self.armed_shards = {self.shard_of(r) for r in armed}
        self.self_armed = shard_index in self.armed_shards
        #: set to a reason string the moment a hazard is detected; checked
        #: at every wave boundary (an active fault injector would swallow
        #: the exception as a partial failure, so the flag is the backstop)
        self.hazard: str | None = None
        #: cross-shard messages produced this wave
        self.outbox: list[tuple] = []
        #: rendezvous sender futures awaiting a remote completion,
        #: keyed by (src_world, sender ordinal)
        self.rdv_waiting: dict[tuple[int, int], SimFuture] = {}
        #: rendezvous completions produced this wave (we are the receiver)
        self.rdv_replies_out: list[tuple] = []
        #: locally-complete collective gates awaiting the global replay
        self.gates_out: list[_Gate] = []
        self.gate_pending: dict[int, _Gate] = {}
        #: owner-replay completion columns for foreign ranks, this wave
        self.gate_results_out: list[tuple] = []
        #: held ANY_SOURCE receives: rank -> (tag, post_time, future, task)
        self.wild_held: dict[int, tuple] = {}
        #: quiescent-drain resolutions: rank -> [(tag, matched_src)]
        self.wild_resolved: dict[int, list] = {}
        #: wall-clock profile accumulators (armed via REPRO_SHARD_PROFILE)
        self.profile = False
        self.replay_s = 0.0

    def owns(self, world_rank: int) -> bool:
        return self.lo <= world_rank < self.hi

    def shard_of(self, rank: int) -> int:
        return bisect_right(self.bounds, rank) - 1

    def flag_hazard(self, reason: str) -> None:
        if self.hazard is None:
            self.hazard = reason

    def gate_filled(self, gate: _Gate) -> None:
        """The owned block has joined: queue the gate for the coordinator,
        which forwards the complete instance to its owner shard."""
        self.gates_out.append(gate)
        self.gate_pending[gate.seq] = gate

    def deliver(self, msg: Message) -> None:
        if not self.lo <= msg.dest < self.hi:
            # Cross-shard: every sender-side cost was charged at post time,
            # so the finished message is just queued for the coordinator; a
            # rendezvous sender stays parked until the receiving shard's
            # completion is routed back under ``pid``.
            pid = None
            if msg.rendezvous:
                pid = (msg.src, msg.sender_task.msgs_sent)
                self.rdv_waiting[pid] = msg.sender_future
            self.outbox.append((
                msg.src, msg.dest, msg.tag, msg.payload, msg.nbytes,
                msg.send_ready if msg.rendezvous else msg.arrival,
                msg.rendezvous, pid,
            ))
            return
        hits = self.wild_resolved.get(msg.dest) if self.wild_resolved \
            else None
        if hits is not None and msg.tag <= MAX_USER_TAG and any(
            (t == ANY_TAG or t == msg.tag) and src != msg.src
            for t, src in hits
        ):
            # Backstop for the quiescent drain: a message the drained
            # wildcard could have matched arrives from a *different*
            # sender, so the oracle might have chosen it instead.  Any
            # competing send the oracle performs is divergence-independent
            # up to that send, so it necessarily happens in this run too
            # and trips this flag before finals are produced.
            self.flag_hazard("wildcard-race")
        super().deliver(msg)


class ShardCommunicator(Communicator):
    """World communicator bound to a rank owned by this shard.

    Everything runs the inherited implementation: intra-shard traffic
    unchanged, cross-shard sends routed at delivery
    (:meth:`ShardCommContext.deliver`), cross-shard receives parked in the
    local mailbox until the barrier delivers the message, gates filled by
    the owned block and handed on (:meth:`ShardCommContext.gate_filled`).
    What this class adds is only the hazard checks: ``ANY_SOURCE``
    receives are held for the coordinator's quiescent drain, and anything
    order-sensitive beyond that raises :class:`ShardHazard`.
    """

    def isend(
        self, dest: int, payload: Any = None, tag: int = 0, size: int | None = None
    ) -> Request:
        ctx: ShardCommContext = self.context  # type: ignore[assignment]
        if (ctx.armed_shards and 0 <= dest < ctx.size and not ctx.owns(dest)
                and (ctx.self_armed
                     or ctx.shard_of(dest) in ctx.armed_shards)):
            # Crash islands: a message into (or out of) a crash-armed
            # shard would need the global failed set and purge semantics.
            ctx.flag_hazard("fault-cross-shard")
            raise ShardHazard(
                "cross-shard traffic touching a crash-armed shard is not "
                "shard-safe; the run falls back to the single-process engine"
            )
        return super().isend(dest, payload, tag=tag, size=size)

    def irecv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> Request:
        ctx: ShardCommContext = self.context  # type: ignore[assignment]
        if self.rank in ctx.wild_held:
            # A receive posted while an ANY_SOURCE receive is held could
            # steal the message the oracle hands the wildcard.
            ctx.flag_hazard("wildcard-mixed")
            raise ShardHazard(
                "receive posted while recv(ANY_SOURCE) is outstanding"
            )
        if source != ANY_SOURCE:
            if (ctx.armed_shards and 0 <= source < ctx.size
                    and not ctx.owns(source)
                    and (ctx.self_armed
                         or ctx.shard_of(source) in ctx.armed_shards)):
                # The oracle resolves a receive from a dead peer with LOST
                # immediately at post time; whether a *remote* peer is
                # dead is not local knowledge.
                ctx.flag_hazard("fault-cross-shard")
                raise ShardHazard(
                    "cross-shard receive touching a crash-armed shard is "
                    "not shard-safe"
                )
            return super().irecv(source, tag)
        if self.engine.faults.active:
            # Wildcard matching consults arrival order *and* the failed
            # set; under an active plan the quiescent drain cannot
            # reproduce the oracle's combination of both.
            ctx.flag_hazard("wildcard-faults")
            raise ShardHazard(
                "recv(ANY_SOURCE) under an active fault plan is not "
                "shard-safe"
            )
        mbox = ctx.mailbox(self.rank)
        if mbox.has_pending():
            # An exact receive already pending on this rank could race
            # the held wildcard for the same message.
            ctx.flag_hazard("wildcard-mixed")
            raise ShardHazard(
                "recv(ANY_SOURCE) posted while exact receives are pending"
            )
        self._check_tag(tag, recv=True)
        task = self.task
        fut = SimFuture(kind="irecv", src=None, dest=self.rank, tag=tag,
                        comm=ctx.id, post_time=task.clock)
        # Hold the receive instead of posting it: the coordinator fires it
        # at global quiescence, when exactly one candidate sender exists
        # (single source + per-pair FIFO then pins the oracle's choice),
        # and falls back otherwise.  See docs/PERF.md "Sharded engine".
        ctx.wild_held[self.rank] = (tag, task.clock, fut, task)
        return Request(fut, task, "irecv")

    def probe(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> dict | None:
        # A probe observes in-flight state that may live on another shard.
        self.context.flag_hazard("probe")
        raise ShardHazard("probe() is not shard-safe")

    async def split(self, color: int, key: int | None = None):
        # Sub-communicator contexts are built on rank 0 and broadcast as
        # in-process objects; they cannot cross process boundaries.
        self.context.flag_hazard("split")
        raise ShardHazard("split()/dup() are not shard-safe")

    async def dup(self) -> "Communicator":
        self.context.flag_hazard("split")
        raise ShardHazard("split()/dup() are not shard-safe")

    # -- gates -----------------------------------------------------------

    def _fallback_reason(self, kind: str, seq: int) -> str | None:
        engine = self.engine
        if kind == "exchange" and engine.p2p == "fast":
            # A gate needs every participant's entry inside one engine,
            # which a shard never has: declared exchanges always drive
            # their message-level ops here (bit-identical in virtual time
            # by the macro-p2p contract; only the fast/simulated instance
            # counters differ from shards=1).  With a recorder attached
            # that counter difference would also surface as p2p/fallbacks
            # metrics the single-process run does not emit, so obs parity
            # requires the oracle.  Cross-shard pattern mismatches at the
            # same seq are caught by the message-level drive itself (a
            # mismatched exchange deadlocks, and the "stuck" fallback
            # reruns on the oracle, which raises the exact
            # PatternMismatchError).
            if engine.instrument.enabled:
                self.context.flag_hazard("p2p-patterns")
                raise ShardHazard(
                    "declared p2p patterns under instrumentation are not "
                    "shard-safe; the run falls back to the single-process "
                    "engine"
                )
            return "sharded"
        # Every other verdict input but one (knobs, instrument granularity,
        # static fault plan) is identical in all shards, so each shard
        # independently computes the same fast/simulated decision.  The
        # mailbox scan is not: a divergent per-shard verdict would
        # desynchronise the collective, so it is a whole-run hazard.
        reason = super()._fallback_reason(kind, seq)
        if reason == "tag-window":
            self.context.flag_hazard("tag-window")
            raise ShardHazard("pending traffic in a collective tag window")
        return reason


# -- wire format helpers ------------------------------------------------------


def _gate_record(gate: _Gate) -> tuple:
    """Columnar encoding of one shard's entries for ``gate``.  Typed
    arrays pickle as raw buffers: at P=65536 that is the difference
    between shipping the numeric columns as bytes and as boxed objects.

    Sorts ``gate.entries`` in place: chunks are rank-sorted on the wire,
    and the owner shard replays straight over its own (then-sorted)
    entry list without re-permuting."""
    gate.entries.sort(key=_entry_rank)
    es = gate.entries
    return (
        gate.seq, gate.kind, gate.root,
        array("q", [e.rank for e in es]),
        array("d", [e.clock0 for e in es]),
        array("d", [e.busy0 for e in es]),
        array("q", [e.sent0 for e in es]),
        array("q", [e.bytes_sent0 for e in es]),
        array("q", [e.recvd0 for e in es]),
        array("q", [e.bytes_recvd0 for e in es]),
        [e.genargs for e in es],
    )


#: Owner-shard stand-in for a _GateEntry: exactly the attributes the
#: replay's RankState snapshot (and its generator construction) reads.
_RemoteEntry = namedtuple(
    "_RemoteEntry", "rank genargs clock0 busy0 sent0 bytes_sent0 recvd0 "
                    "bytes_recvd0")


def _safe_send(hb: Heartbeat, obj) -> bool:
    """Send ``obj``, degrading to an error status on pickle failure.

    ``Connection.send`` pickles the full object before writing any bytes,
    so a failed attempt leaves the pipe clean and the fallback status can
    still go through.  Sends go through the heartbeat's lock so beat
    frames never interleave with protocol frames.
    """
    try:
        hb.send(obj)
        return True
    except Exception as exc:  # noqa: BLE001 - unpicklable payload/result
        hb.send(("error", f"pickle:{type(exc).__name__}"))
        return False


# -- shard worker -------------------------------------------------------------


def _result_columns(states: list) -> tuple:
    """Columnar encoding of replayed RankStates (sorted by caller)."""
    return (
        array("q", [st.rank for st in states]),
        [st.result for st in states],
        array("d", [st.clock for st in states]),
        array("d", [st.busy for st in states]),
        array("q", [st.msgs_sent for st in states]),
        array("q", [st.bytes_sent for st in states]),
        array("q", [st.msgs_received for st in states]),
        array("q", [st.bytes_received for st in states]),
    )


def _states_from_columns(ranks, results, *columns) -> dict:
    """Inverse of :func:`_result_columns`: the owner shard's replayed
    states for this shard's ranks, rebuilt from one wire record."""
    states = {}
    for rank, result, *counters in zip(ranks, results, *columns):
        # a state whose join-time snapshot *is* the replayed outcome
        st = states[rank] = RankState(_RemoteEntry(rank, None, *counters))
        st.result = result
    return states


def _replay_gate_job(ctx: ShardCommContext, engine: Engine, job: tuple) -> None:
    """Owner-shard replay of one complete gate.

    ``job`` carries only the *foreign* shards' chunks, pre-sorted by the
    coordinator; this shard's own entries are spliced in from the local
    gate (``_gate_record`` left them rank-sorted), so the merged entry
    list is globally rank-sorted without a permutation pass.  After the
    bit-exact replay the owned ranks resolve in place and each foreign
    chunk's completion columns queue for the coordinator as one
    per-destination-shard record."""
    seq, kind, root, chunks = job
    shard_replay_hook(ctx.shard_index)
    t0 = perf_counter() if ctx.profile else 0.0
    local = ctx.gate_pending[seq].entries
    own_first = local[0].rank
    entries: list = []
    spliced = False
    for ch in chunks:
        if not spliced and ch[0][0] > own_first:
            entries.extend(local)
            spliced = True
        ranks, clock0, busy0, sent0, bsent0, recvd0, brecvd0, genargs = ch
        entries.extend(
            _RemoteEntry(ranks[i], genargs[i], clock0[i], busy0[i],
                         sent0[i], bsent0[i], recvd0[i], brecvd0[i])
            for i in range(len(ranks))
        )
    if not spliced:
        entries.extend(local)
    sim = _run_replay(kind, root, engine.network, entries, len(entries))
    if sim.failure is not None:
        # A raising reduction op: the oracle rerun reproduces the exact
        # error semantics (which rank raises, at what clock).
        ctx.flag_hazard("collective-raise")
        return
    # Replay traffic is attributed to the owner shard; _merge sums the
    # per-shard engine totals, matching the single-process accounting.
    engine.total_messages += sim.total_messages
    engine.total_bytes += sim.total_bytes
    states = sim.states
    for ch in chunks:
        ctx.gate_results_out.append(
            (seq, *_result_columns([states[r] for r in ch[0]]))
        )
    ctx.gate_pending.pop(seq).settle(ctx, states)
    if ctx.profile:
        ctx.replay_s += perf_counter() - t0


def _drain_wildcard(ctx: ShardCommContext, rank: int) -> None:
    """Fire a held ANY_SOURCE receive against its (single-sender) mailbox.

    The coordinator only issues a drain at global quiescence with exactly
    one candidate source, where per-pair FIFO pins the oracle's choice;
    the completion time ``max(post_time + o_recv, arrival)`` computed by
    ``fire_match`` is identical to both oracle paths (immediate match at
    post and parked fire)."""
    tag, post_time, fut, task = ctx.wild_held.pop(rank)
    msg = ctx.mailbox(rank).match_msg(ANY_SOURCE, tag)
    if msg is None:  # pragma: no cover - the coordinator saw a candidate
        ctx.flag_hazard("wildcard-race")
        return
    ctx.wild_resolved.setdefault(rank, []).append((tag, msg.src))
    ctx.fire_match(PendingRecv(ANY_SOURCE, tag, post_time, fut, task), msg)


def _apply_inbox(ctx: ShardCommContext, engine: Engine, tasks: list[Task],
                 inbox: dict) -> None:
    """Apply one wave's deliveries.  Message records from one sender arrive
    in its program order (per-pair FIFO is all exact-source matching needs);
    gate jobs replay on this shard; gate results bulk-advance through the
    same ``_Gate.settle`` as a single-process gate."""
    for src, dest, tag, payload, nbytes, t, rdv, pid in inbox["msgs"]:
        if rdv:
            proxy = SimFuture(kind="isend", src=src, dest=dest, tag=tag,
                              comm=ctx.id, post_time=t)
            proxy.add_done_callback(
                lambda f, pid=pid: ctx.rdv_replies_out.append(
                    (pid, f.time, f.busy_charge, f.value is LOST)
                )
            )
            msg = Message(src=src, dest=dest, tag=tag, payload=payload,
                          nbytes=nbytes, arrival=0.0, rendezvous=True,
                          send_ready=t, sender_future=proxy)
        else:
            msg = Message(src=src, dest=dest, tag=tag, payload=payload,
                          nbytes=nbytes, arrival=t)
        ctx.deliver(msg)
    for pid, t, busy_charge, lost in inbox["replies"]:
        fut = ctx.rdv_waiting.pop(pid)
        if fut.done:
            # Already released by a fault timeout: the oracle's fire_match
            # skips a done sender future the same way.
            continue
        fut.busy_charge = busy_charge
        fut.resolve(LOST if lost else None, time=t)
    for job in inbox["gate_jobs"]:
        _replay_gate_job(ctx, engine, job)
        if ctx.hazard is not None:
            return
    for seq, *columns in inbox["gate_results"]:
        ctx.gate_pending.pop(seq).settle(ctx, _states_from_columns(*columns))
    for rank in inbox["drain"]:
        _drain_wildcard(ctx, rank)
        if ctx.hazard is not None:
            return
    victim = inbox["release"]
    if victim is not None:
        engine.release_orphan(tasks[victim - ctx.lo])


def _shard_worker(conn, shard_index: int, bounds: list[int], nprocs: int,
                  main, args, kwargs, cfg: SimConfig,
                  plan: FaultPlan | None,
                  rec_params: tuple | None) -> None:
    """Child process entry point (fork start method: ``main``/``args`` are
    inherited, never pickled).  Alternates run_ready waves with barrier
    exchanges until told to finish or abort.  A background heartbeat
    keeps the coordinator's supervision informed that this worker is
    alive even while a long wave computes."""
    import gc

    # Everything inherited from the parent is effectively immutable here;
    # moving it to the permanent generation takes the parent's heap off
    # every traversal a collection would make.  Collection is then
    # switched off for the worker's whole life: nothing allocated during
    # the task-graph build below can be garbage (it is all reachable
    # from the engine) ...
    gc.freeze()
    gc.disable()
    hb: Heartbeat | None = None
    try:
        lo, hi = bounds[shard_index], bounds[shard_index + 1]
        injector = injector_for(plan)
        if injector.active:
            injector.plan.validate(nprocs)
        armed = (frozenset(c.rank for c in plan.crashes)
                 if plan is not None else frozenset())
        ins: Instrument = NULL_INSTRUMENT
        if rec_params is not None:
            ins = Recorder(time_bucket=rec_params[0], max_events=rec_params[1],
                           granularity=rec_params[2])
        engine = Engine(network=cfg.network, instrument=ins, faults=injector,
                        collectives=cfg.collectives, p2p=cfg.p2p)
        ctx = ShardCommContext(engine, nprocs, lo, hi,
                               shard_index=shard_index, bounds=bounds,
                               armed=armed)
        ctx.profile = _profiling()
        tasks: list[Task] = []
        for rank in range(lo, hi):
            task = Task(rank, None)  # type: ignore[arg-type]
            comm = ShardCommunicator(ctx, rank, task)
            from .launcher import RankContext  # local: avoid import cycle

            rctx = RankContext(comm, task)
            task.coro = main(rctx, *args, **kwargs)
            engine.adopt(task)
            tasks.append(task)
        # ... and collection never resumes: wave-protocol garbage
        # (columnar records, remote entries, unpickled inboxes) is
        # acyclic, so plain refcounting reclaims it as each wave ends;
        # the only thing cyclic collection could add is re-scanning those
        # young objects on every threshold crossing — at P=65536 that
        # re-scan is the single-process engine's dominant cost.  Sound
        # ONLY because the worker is one-shot: any cyclic garbage is
        # bounded by one run and the process exits right after.
        hb = Heartbeat(conn, lambda: engine.steps).start()
        wave = 0
        while True:
            wave += 1
            shard_wave_hook(shard_index, wave)
            err: str | None = None
            try:
                engine.run_ready()
            except BaseException as exc:  # noqa: BLE001 - reported upstream
                err = repr(exc)
            if ctx.hazard is not None:
                hb.send(("error", f"hazard:{ctx.hazard}"))
                return
            if err is None:
                bad = {t.rank for t in tasks if t.state is TaskState.FAILED}
                if bad and not (injector.active and bad <= armed):
                    # Unplanned failures need the oracle's global partial-
                    # failure bookkeeping; plan-armed crashes are handled
                    # locally (cross-shard coupling is hazarded at the op).
                    err = "rank-failed"
            if err is not None:
                hb.send(("error", err))
                return
            blocked: tuple | None = None
            if injector.active:
                cand = engine._orphan_candidate()
                if cand is not None:
                    blocked = engine._orphan_key(cand)
            status = {
                "msgs": ctx.outbox,
                "replies": ctx.rdv_replies_out,
                "gates": [_gate_record(g) for g in ctx.gates_out],
                "gate_results": ctx.gate_results_out,
                "wild": [
                    (rank,
                     len(ctx.mailbox(rank).wild_candidate_sources(held[0])))
                    for rank, held in sorted(ctx.wild_held.items())
                ],
                "blocked": blocked,
                "done": all(t.state is TaskState.DONE
                            or t.state is TaskState.FAILED for t in tasks),
                "resumes": engine.resumes,
            }
            if ctx.profile:
                status["replay_s"] = ctx.replay_s
                ctx.replay_s = 0.0
            ctx.outbox = []
            ctx.rdv_replies_out = []
            ctx.gates_out = []
            ctx.gate_results_out = []
            if not _safe_send(hb, ("status", status)):
                return
            cmd = conn.recv()
            if cmd[0] == "deliver":
                _apply_inbox(ctx, engine, tasks, cmd[1])
                continue
            if cmd[0] == "finish":
                shard_final_hook(shard_index)
                final = {
                    "ranks": list(range(lo, hi)),
                    "results": [t.result for t in tasks],
                    "clocks": [t.clock for t in tasks],
                    "busy": [t.busy for t in tasks],
                    "total_messages": engine.total_messages,
                    "total_bytes": engine.total_bytes,
                    "total_matches": engine.total_matches,
                    "steps": engine.steps,
                    "resumes": engine.resumes,
                    "collectives_fast": engine.collectives_fast,
                    "collectives_simulated": engine.collectives_simulated,
                    "p2p_simulated": engine.p2p_simulated,
                    "injected": dict(injector.injected)
                    if injector.active else None,
                    "failed": sorted(injector.failed)
                    if injector.active else None,
                    "obs": ins.snapshot({"shard": (lo, hi)})
                    if rec_params is not None else None,
                }
                _safe_send(hb, ("final", final))
                return
            return  # abort
    except (EOFError, OSError, KeyboardInterrupt):  # pragma: no cover
        return
    finally:
        if hb is not None:
            hb.stop()
        conn.close()


# -- coordinator --------------------------------------------------------------


class _Fallback(Exception):
    """Internal: abort sharded execution and rerun on the oracle."""

    def __init__(self, reason: str) -> None:
        super().__init__(reason)
        self.reason = reason


def _coordinate(conns: Sequence, procs: Sequence, bounds: list[int],
                nprocs: int, cfg: SimConfig, plan: FaultPlan | None,
                profile: bool):
    """Run the wave-barrier protocol to completion.

    Returns ``(finals, waves, profile-dict-or-None)``, or raises
    _Fallback when anything requires the oracle.  Every receive is
    supervised — wall-clock deadline plus heartbeat-gap detection — and
    every send is wrapped, so a dead, stopped or wedged worker (including
    one that dies mid-gate-replay) becomes a ``worker-died`` /
    ``worker-timeout`` / ``worker-hung`` fallback instead of hanging the
    coordinator forever.
    """
    nshards = len(conns)

    def shard_of(rank: int) -> int:
        # bounds is the sorted block-partition fencepost list
        return bisect_right(bounds, rank) - 1

    def send(conn, frame) -> None:
        try:
            conn.send(frame)
        except (BrokenPipeError, OSError):
            # The worker died between its status and this delivery.
            raise _Fallback("worker-died") from None

    # gates accumulating across shards: seq -> [kind, root, rank_count,
    # chunks], one rank-sorted columnar chunk per contributing shard
    # (shards ship a chunk only once their whole block has joined).
    gates: dict[int, list] = {}
    high_tags_routed: set[int] = set()
    # outstanding per-destination-shard result records from dispatched
    # owner replays; termination waits for all of them to route back
    results_in_flight = 0
    waves = 0
    arming = plan is not None and not plan.is_empty()
    prof = ({"waves": 0, "barrier_wait_s": 0.0, "forward_s": 0.0,
             "gate_replay_s": 0.0} if profile else None)
    while True:
        waves += 1
        t0 = perf_counter() if profile else 0.0
        statuses = []
        for conn, proc in zip(conns, procs):
            try:
                msg = recv_supervised(conn, proc, stage="wave")
            except WorkerTimeout as wt:
                raise _Fallback(wt.reason) from None
            if msg[0] == "error":
                raise _Fallback(msg[1])
            statuses.append(msg[1])
        t1 = perf_counter() if profile else 0.0
        inboxes: list[dict] = [
            {"msgs": [], "replies": [], "gate_jobs": [], "gate_results": [],
             "drain": [], "release": None}
            for _ in range(nshards)
        ]
        routed = False
        for st in statuses:
            for rec in st["msgs"]:
                dest = rec[1]
                if rec[2] > MAX_USER_TAG:
                    high_tags_routed.add(rec[2])
                inboxes[shard_of(dest)]["msgs"].append(rec)
                routed = True
            for rep in st["replies"]:
                # pid = (src_world, ordinal): route back to the sender
                inboxes[shard_of(rep[0][0])]["replies"].append(rep)
                routed = True
            for g in st["gates"]:
                seq, kind, root = g[0], g[1], g[2]
                acc = gates.get(seq)
                if acc is None:
                    gates[seq] = [kind, root, len(g[3]), [g[3:]]]
                elif acc[0] != kind or acc[1] != root:
                    raise _Fallback("collective-mismatch")
                else:
                    acc[2] += len(g[3])
                    acc[3].append(g[3:])
            for res in st["gate_results"]:
                # One foreign chunk of an owner-shard replay came back;
                # chunks are per-destination-shard, so routing is a
                # single lookup on the first rank.
                results_in_flight -= 1
                inboxes[shard_of(res[1][0])]["gate_results"].append(res)
                routed = True
        for seq in sorted(s for s, acc in gates.items()
                          if acc[2] == nprocs):
            kind, root, _, chunks = gates.pop(seq)
            base = _tag_base(seq)
            if any(base <= t < base + _TAG_STRIDE for t in high_tags_routed):
                # A user (or tool) message crossed shards inside this
                # gate's private window; the single-process verdict scan
                # would have seen it, so ours is not trustworthy.
                raise _Fallback("tag-window")
            # Round-robin ownership: deterministic under any arrival
            # interleaving, and independent gates land on distinct shards
            # so replay work scales with the shard count.  The owner's
            # own chunk never leaves its process: ship only the foreign
            # chunks, pre-sorted by first rank (contiguous blocks, so
            # that is global rank order).
            owner = seq % nshards
            chunks.sort(key=lambda ch: ch[0][0])
            job = [ch for ch in chunks if shard_of(ch[0][0]) != owner]
            inboxes[owner]["gate_jobs"].append((seq, kind, root, job))
            results_in_flight += len(job)
            routed = True
        all_done = all(st["done"] for st in statuses)
        if all_done and not routed and not gates and not results_in_flight:
            break
        if not routed:
            # Global quiescence with ranks still blocked: arbitrate the
            # decisions that need a whole-world view before declaring the
            # program stuck.
            held = [(s, rank, n) for s, st in enumerate(statuses)
                    for rank, n in st["wild"]]
            if held:
                if any(n >= 2 for _, _, n in held):
                    # Two candidate senders: the oracle's pick depends on
                    # global arrival order, which sharding lost.
                    raise _Fallback("wildcard-race")
                for s, rank, n in held:
                    if n == 1:
                        inboxes[s]["drain"].append(rank)
                        routed = True
            if not routed and arming:
                # Fault-timeout release: the global minimum (post_time,
                # rank) candidate is exactly the orphan the oracle's
                # engine loop would release next.
                cands = [st["blocked"] for st in statuses
                         if st["blocked"] is not None]
                if cands:
                    rank = min(cands)[1]
                    inboxes[shard_of(rank)]["release"] = rank
                    routed = True
            if not routed:
                # Nothing in flight, nothing deliverable, ranks still
                # blocked: the program is deadlocked (or stuck in a
                # half-joined collective).  The oracle reruns to produce
                # the exact DeadlockError/diagnostic the single-process
                # engine raises.
                raise _Fallback("stuck")
        for conn, inbox in zip(conns, inboxes):
            send(conn, ("deliver", inbox))
        if profile:
            prof["barrier_wait_s"] += t1 - t0
            prof["forward_s"] += perf_counter() - t1
            prof["gate_replay_s"] += sum(st.get("replay_s", 0.0)
                                         for st in statuses)
    for conn in conns:
        send(conn, ("finish",))
    finals = []
    for conn, proc in zip(conns, procs):
        try:
            # Supervised like every wave receive: a worker that wedges
            # while finalizing (or never reads a command) is torn down
            # within its deadline instead of hanging this recv forever.
            msg = recv_supervised(conn, proc, stage="final")
        except WorkerTimeout as wt:
            raise _Fallback(wt.reason) from None
        if msg[0] == "error":
            raise _Fallback(msg[1])
        finals.append(msg[1])
    if profile:
        prof["waves"] = waves
        prof["gate_replay_s"] += sum(f.get("replay_s", 0.0) for f in finals)
    return finals, waves, prof


def run_sharded(main, nprocs: int, args: tuple, kwargs: dict, cfg: SimConfig,
                *, instrument: Instrument = NULL_INSTRUMENT,
                faults: FaultPlan | FaultInjector | None = None):
    """Entry point from :func:`~repro.simmpi.launcher.run_spmd` for
    ``cfg.shards > 1``.  Falls back to the single-process engine (with the
    reason in ``extras["shard_fallback"]``) whenever the run is not
    shard-eligible, before or after forking."""
    from .launcher import _run_single  # circular at module import time

    def _single(reason: str | None):
        result = _run_single(main, nprocs, args, kwargs, cfg,
                             instrument=instrument, faults=faults)
        result.extras["shards"] = cfg.shards
        if reason is not None:
            result.extras["shard_fallback"] = reason
        return result

    nshards = min(cfg.shards, nprocs)
    if nshards <= 1:
        return _single("nprocs")
    if cfg.max_steps is not None:
        # The raw resume count differs between sharded and single-process
        # scheduling, so a budget trip cannot be reproduced bit-exactly.
        return _single("max-steps")
    if isinstance(faults, FaultInjector):
        # A caller-held injector instance accumulates counters we cannot
        # mutate from worker processes.
        if faults.active:
            return _single("injector-instance")
        plan: FaultPlan | None = None
    else:
        plan = faults
    if plan is not None and not plan.is_empty():
        if plan.messages.drop_prob > 0.0:
            # Drops create LOST holes on arbitrary edges; their
            # timeout-release order is global engine state no static
            # hazard check can bound.
            return _single("faults")
        if plan.crashes and instrument is not NULL_INSTRUMENT \
                and instrument.enabled:
            # op_timeout instants embed the *global* failed set, which no
            # single shard knows.  Crash plans without a recorder stay
            # eligible: crashes fire inside their own shard and any
            # cross-shard coupling is hazarded at the offending op.
            return _single("faults")
    recorder: Recorder | None = None
    if instrument is not NULL_INSTRUMENT and instrument.enabled:
        if isinstance(instrument, Recorder):
            recorder = instrument
        else:
            return _single("instrument")
    if "fork" not in multiprocessing.get_all_start_methods():
        return _single("platform")

    # Keep the collector off for the coordination window: every wave
    # unpickles thousands of tracked objects (gate columns, genargs
    # tuples) and each threshold collection re-scans the whole long-lived
    # parent heap.  The garbage is bounded by wave traffic and reclaimed
    # by the first collection after re-enable.  No pre-fork collect: the
    # workers freeze the inherited heap and never collect, so parent
    # garbage is neither re-scanned nor COW-touched in the children, and
    # a full pass over a post-benchmark heap costs more than it saves.
    import gc

    gc_was_enabled = gc.isenabled()
    gc.disable()
    mp = multiprocessing.get_context("fork")
    bounds = [(s * nprocs) // nshards for s in range(nshards + 1)]
    profile = _profiling()
    rec_params = (
        (recorder.metrics.time_bucket, recorder.max_events,
         recorder.granularity)
        if recorder is not None else None
    )
    conns = []
    procs = []
    fallback: str | None = None
    teardown = "clean"
    prof = None
    try:
        for s in range(nshards):
            parent_conn, child_conn = mp.Pipe()
            proc = mp.Process(
                target=_shard_worker,
                args=(child_conn, s, bounds, nprocs, main,
                      args, kwargs, cfg, plan, rec_params),
                daemon=True,
            )
            proc.start()
            child_conn.close()
            conns.append(parent_conn)
            procs.append(proc)
        try:
            finals, waves, prof = _coordinate(
                conns, procs, bounds, nprocs, cfg, plan, profile
            )
        except _Fallback as fb:
            fallback = fb.reason
            for conn in conns:
                try:
                    conn.send(("abort",))
                except (BrokenPipeError, OSError):
                    pass
    finally:
        if gc_was_enabled:
            gc.enable()
        for conn in conns:
            conn.close()
        # Bounded escalation: a worker that never reads ("abort",) — or
        # cannot, because it is SIGSTOPped — is still gone within the
        # grace budget.  SIGKILL is the only signal a stopped process
        # cannot defer.
        teardown = shutdown_workers(
            procs, grace=min(DEFAULT_TEARDOWN_GRACE, wave_deadline())
        )

    if fallback is not None:
        if fallback in ("worker-died", "worker-timeout", "worker-hung") \
                and instrument.enabled:
            instrument.metrics.count("resilience/shard_fallback", 1,
                                     op=fallback)
        result = _single(fallback)
        if teardown != "clean":
            result.extras["shard_teardown"] = teardown
        return result

    return _merge(finals, nprocs, cfg, waves, prof, recorder, plan)


def _merge(finals: list[dict], nprocs: int, cfg: SimConfig, waves: int,
           prof: dict | None, recorder: Recorder | None,
           plan: FaultPlan | None):
    from .launcher import SpmdResult

    results: list[Any] = [None] * nprocs
    clocks = [0.0] * nprocs
    busy = [0.0] * nprocs
    total_messages = 0
    total_bytes = 0
    total_matches = 0
    steps = 0
    coll_fast = 0
    coll_sim = 0
    p2p_sim = 0
    injected: dict[str, int] = {}
    failed: set[int] = set()
    for final in finals:
        for i, rank in enumerate(final["ranks"]):
            results[rank] = final["results"][i]
            clocks[rank] = final["clocks"][i]
            busy[rank] = final["busy"][i]
        total_messages += final["total_messages"]
        total_bytes += final["total_bytes"]
        total_matches += final["total_matches"]
        steps += final["steps"]
        coll_fast += final["collectives_fast"]
        coll_sim += final["collectives_simulated"]
        p2p_sim += final["p2p_simulated"]
        if final["injected"] is not None:
            for k, v in final["injected"].items():
                injected[k] = injected.get(k, 0) + v
        if final["failed"]:
            failed.update(final["failed"])
    if recorder is not None:
        snaps = [f["obs"] for f in finals if f["obs"] is not None]
        _merge_obs(recorder, snaps)
    extras: dict[str, Any] = {"shards": len(finals), "waves": waves}
    if prof is not None:
        extras["shard_profile"] = prof
        if recorder is not None:
            for key in ("barrier_wait_s", "forward_s", "gate_replay_s"):
                recorder.metrics.count(f"shard/{key}", prof[key])
    failed_ranks = tuple(sorted(failed))
    fault_summary: dict[str, int] = {}
    if plan is not None and not plan.is_empty():
        fault_summary = dict(injected)
        fault_summary["failed_ranks"] = len(failed_ranks)
    return SpmdResult(
        results=results,
        clocks=clocks,
        busy_times=busy,
        total_messages=total_messages,
        total_bytes=total_bytes,
        extras=extras,
        engine_steps=steps,
        messages_matched=total_matches,
        failed_ranks=failed_ranks,
        fault_summary=fault_summary,
        collectives_fast=coll_fast,
        collectives_simulated=coll_sim,
        p2p_fast=0,
        p2p_simulated=p2p_sim,
    )


def _merge_obs(recorder: Recorder, snaps: list[ObsData]) -> None:
    """Merge per-shard span streams into the caller's recorder in
    virtual-time order (start time, rank as tie-break).  Per-event
    content is identical to a single-process run; only the stream order
    and the scheduler park/wake bookkeeping differ (documented in
    docs/PERF.md)."""
    spans = [s for snap in snaps for s in snap.spans]
    instants = [i for snap in snaps for i in snap.instants]
    spans.sort(key=lambda s: (s.start, s.rank))
    instants.sort(key=lambda i: (i.ts, i.rank))
    for s in spans:
        recorder.span(s.rank, s.name, s.cat, s.start, s.end, s.args)
    for i in instants:
        recorder.instant(i.rank, i.name, i.cat, i.ts, i.args)
    for snap in snaps:
        recorder.metrics.merge(snap.metrics)
