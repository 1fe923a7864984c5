"""Collective operations: one schedule per algorithm, two interpreters.

Each collective is implemented with the classic algorithm an MPI library
would use, so its virtual-time cost has the right shape automatically:

* ``barrier``      — dissemination, ``ceil(log2 P)`` rounds
* ``bcast``        — binomial tree, ``ceil(log2 P)`` rounds
* ``reduce``       — binomial tree (leaves fold upward)
* ``allreduce``    — reduce to rank 0, then bcast from it: one gate
* ``gather``       — binomial tree with growing segments
* ``scatter``      — binomial tree with shrinking segments
* ``allgather``    — ring, ``P - 1`` steps
* ``alltoall``     — pairwise exchange, ``P - 1`` steps
* ``scan``         — linear chain
* ``split``/``dup``— communicator construction via gather + bcast

Every collective instance claims a private tag window derived from the
caller's per-communicator collective sequence number; SPMD programs call
collectives in the same order on every rank, which keeps the windows
aligned (the same assumption a real MPI library makes about matching
collective calls).

**One schedule, two interpreters.**  Each algorithm above is written once,
as a *schedule*: a plain-Python generator per rank (the ``_g_*`` functions
below) that yields the operations of :mod:`repro.simmpi.replay` —
``isend``/``send``/``recv``/``wait`` with tags relative to the instance's
window — and returns the rank's result.  Two interpreters run it:

* the *message-level* one, :meth:`Communicator._drive`, issues every
  operation through the real ``isend``/``send``/``recv``/``Request.wait``
  — one engine-visible message per schedule edge through the Mailbox.  It
  is what ``SimConfig(gates="simulated")`` selects, what every
  ineligible instance falls back to, and what the bit-identity suites
  compare against;
* the *closed-form* one, :class:`repro.simmpi.replay.Replay`: the first
  rank to reach an instance opens a :class:`_Gate`, later ranks join it,
  and the last arrival replays all ranks' schedules — or, for large
  barriers, eager bcast/reduce and slot-aligned exchanges, an array
  recurrence — evaluating the same
  :class:`~repro.simmpi.timing.NetworkModel` cost helpers as
  :mod:`repro.simmpi.comm`, then bulk-advances every participant's clock
  in one scheduler step.

Both produce bit-identical virtual clocks, busy times and results; the
closed form just never touches the Mailbox and never parks a task per
round.

**One gate, every kind.**  A declared p2p pattern
(``Communicator.exchange``) is one more gate *kind* next to ``barrier`` …
``scan``: ``patterns._g_script`` is its schedule, and the same gate class,
consult/join pair, verdict function, replay dispatch, completion and
message-level tail run it.  A kind contributes data — its schedule, the
sequence counter that numbers its instances, the ``SimConfig`` switch and
engine counters it answers to — and the inputs its verdict reads.

An instance is *eligible* for the closed form only when nothing outside
the gate could observe the difference: no armed fault, pending receive or
stray message that could touch it (a recorder is not such an observer: it
records whichever interpreter ran).  Anything else takes the message-level
interpreter — per rank *and* per instance, with the verdict cached on the
gate so all participants always agree.  Only there can a fault punch a
``LOST`` hole into a receive, so the schedules' hole-handling branches
never run under the closed form.  The fallback ledger of docs/INTERNALS.md
lists every reason a verdict can return, the input it reads and the test
reaching it.

A gate waits for the communicator's live members
(:attr:`CommContext.gate_quorum`); the last to join replays it
(:meth:`_Gate.complete`).  See docs/PERF.md ("Gates").

``allreduce`` is one gate instance standing for two *leaves*, a reduce to
rank 0 and a bcast of its result: it claims both their tag windows,
replays both on the same states at completion, and reports what the two
would — their spans, two calls in the strategy counters.
"""

from __future__ import annotations

import functools
from operator import attrgetter
from typing import Any, Callable, Sequence

import numpy as np

from ..faults.injector import LOST
from .comm import Comm, CommContext, MAX_USER_TAG
from .datatypes import payload_nbytes
from .errors import CollectiveMismatchError, PatternMismatchError
from .futures import SimFuture
from .patterns import NeighborPattern, _g_script, slots_vector
from .rankstate import RankStateColumns
from .replay import EAGER_DONE, RankState, Replay
from .topology import binomial_children, binomial_parent, binomial_subtree

# -- reduction operators -----------------------------------------------------

def SUM(a: Any, b: Any) -> Any:
    return a + b


def PROD(a: Any, b: Any) -> Any:
    return a * b


def MAX(a: Any, b: Any) -> Any:
    if hasattr(a, "shape") or hasattr(b, "shape"):
        return np.maximum(a, b)
    return a if a >= b else b


def MIN(a: Any, b: Any) -> Any:
    if hasattr(a, "shape") or hasattr(b, "shape"):
        return np.minimum(a, b)
    return a if a <= b else b


def LOR(a: Any, b: Any) -> Any:
    return bool(a) or bool(b)


def LAND(a: Any, b: Any) -> Any:
    return bool(a) and bool(b)


def BOR(a: Any, b: Any) -> Any:
    return a | b


#: Tags per collective instance: room for log2(P) rounds plus ring steps.
_TAG_STRIDE = 4096

# Below this communicator size the vectorized replays lose to the scalar
# replay core on numpy call overhead; both are bit-exact.
_VEC_MIN_SIZE = 16

#: display algorithm per leaf collective (the ``algorithm`` span argument)
_ALGORITHMS = {
    "barrier": "dissemination",
    "bcast": "binomial-tree",
    "reduce": "binomial-tree",
    "gather": "binomial-tree",
    "scatter": "binomial-tree",
    "allgather": "ring",
    "alltoall": "pairwise-exchange",
    "scan": "linear-chain",
}


def _emit_coll(ins, ctx: CommContext, rank: int, name: str, algorithm: str,
               t0: float, t1: float, fast_hit: bool) -> None:
    """One collective call as a span on its caller's lane (cat ``coll``;
    its count and duration are read off the spans), plus ``coll/fast_hits``
    when a gate answered it.  The only place they are emitted: the
    message-level interpreter, the composed collectives and every gate
    write-back end here, so the paths cannot label a call differently."""
    world = ctx.ranks[rank]
    ins.span(world, name, "coll", t0, t1,
             {"algorithm": algorithm, "comm": ctx.id, "size": ctx.size})
    if fast_hit:
        ins.metrics.count("coll/fast_hits", 1, rank=world, op=name)


def _observed(name: str, algorithm: str):
    """Wrap a composed collective so its whole execution becomes one span,
    tagged with the algorithm the simulated MPI library would have used
    (the leaf calls inside emit their own).  With the no-op instrument the
    wrapper is a single attribute check and hands back ``fn``'s awaitable
    itself, adding no frame to the await chain — virtual time is untouched
    either way."""

    def deco(fn):
        async def spanned(self: "Communicator", t0: float, awaitable):
            result = await awaitable
            _emit_coll(self.engine.instrument, self.context, self.rank, name,
                       algorithm, t0, self.task.clock, False)
            return result

        @functools.wraps(fn)
        def wrapper(self: "Communicator", *args: Any, **kwargs: Any):
            if not self.engine.instrument.enabled:
                return fn(self, *args, **kwargs)
            return spanned(self, self.task.clock, fn(self, *args, **kwargs))

        return wrapper

    return deco


# -- schedules ----------------------------------------------------------------
#
# One plain-Python generator per collective algorithm: the only statement of
# it.  They yield the operations of repro.simmpi.replay (tags are offsets
# into the instance's private window) and return the rank's collective
# result.  A receive yields LOST when a fault left a hole where the message
# should be — possible under the message-level interpreter only (eligibility
# keeps faults away from the closed form) — and each schedule says what its
# algorithm does with one: reductions skip it, trees and rings pass it on.


def _g_barrier(rank: int, size: int):
    round_no = 0
    dist = 1
    while dist < size:
        to = (rank + dist) % size
        frm = (rank - dist) % size
        sreq = yield ("isend", to, round_no, None, 0)
        yield ("recv", frm, round_no)
        if sreq is not EAGER_DONE:  # waiting on eager sends is a no-op
            yield ("wait", sreq)
        dist <<= 1
        round_no += 1
    return None


def _g_bcast(rank: int, size: int, root: int, value: Any, nbytes: int | None):
    if size == 1:
        return value
    parent = binomial_parent(rank, size, root)
    if parent is not None:
        value = yield ("recv", parent, 0)
    for child in binomial_children(rank, size, root):
        yield ("send", child, 0, value, nbytes)
    return value


def _g_reduce(rank, size, root, value, op, nbytes):
    if size == 1:
        return value
    # Children in the bcast tree are exactly the senders in the reduce
    # tree; fold deepest-first for determinism.  A crashed subtree's LOST
    # is skipped: the reduction completes over the values that arrived.
    acc = value
    for child in reversed(binomial_children(rank, size, root)):
        child_val = yield ("recv", child, 0)
        if child_val is LOST:
            continue
        acc = child_val if acc is LOST else op(child_val, acc)
    parent = binomial_parent(rank, size, root)
    if parent is not None:
        yield ("send", parent, 0, acc, nbytes)
        return None
    return acc


def _g_gather(rank, size, root, value, nbytes):
    if size == 1:
        return [value]
    segment: dict[int, Any] = {rank: value}
    for child in reversed(binomial_children(rank, size, root)):
        child_seg = yield ("recv", child, 0)
        if child_seg is not LOST:  # else that subtree's values are gone
            segment.update(child_seg)
    parent = binomial_parent(rank, size, root)
    if parent is not None:
        seg_size = None if nbytes is None else nbytes * len(segment)
        yield ("send", parent, 0, segment, seg_size)
        return None
    # complete-with-holes: contributions a fault swallowed become LOST
    return [segment.get(r, LOST) for r in range(size)]


def _g_scatter(rank, size, root, values, nbytes):
    if size == 1:
        return values[0]
    parent = binomial_parent(rank, size, root)
    if parent is None:
        segment = {r: values[r] for r in range(size)}
    else:
        segment = yield ("recv", parent, 0)
        if segment is LOST:
            segment = {}  # nothing reached this subtree
    # Each child owns the contiguous block of its tree descendants.
    for child in binomial_children(rank, size, root):
        members = binomial_subtree(child, size, root)
        child_seg = {r: segment[r] for r in members if r in segment}
        seg_size = None if nbytes is None else nbytes * max(len(child_seg), 1)
        yield ("send", child, 0, child_seg, seg_size)
    return segment.get(rank, LOST)  # LOST only through a hole upstream


def _g_allgather(rank, size, value, nbytes):
    out: list[Any] = [None] * size
    out[rank] = value
    if size == 1:
        return out
    right = (rank + 1) % size
    left = (rank - 1) % size
    carry_rank, carry = rank, value
    for step in range(size - 1):
        sreq = yield ("isend", right, step, (carry_rank, carry), nbytes)
        got = yield ("recv", left, step)
        if sreq is not EAGER_DONE:
            yield ("wait", sreq)
        if got is LOST:
            # forward the hole so every rank learns the same segment is
            # missing, keep our own slots intact
            carry_rank, carry = None, LOST
            continue
        carry_rank, carry = got
        if carry_rank is not None:
            out[carry_rank] = carry
    return out


def _g_alltoall(rank, size, values, nbytes):
    out: list[Any] = [None] * size
    out[rank] = values[rank]
    for step in range(1, size):
        to = (rank + step) % size
        frm = (rank - step) % size
        sreq = yield ("isend", to, step, values[to], nbytes)
        out[frm] = yield ("recv", frm, step)
        if sreq is not EAGER_DONE:
            yield ("wait", sreq)
    return out


def _g_scan(rank, size, value, op, nbytes):
    acc = value
    if rank > 0:
        prev = yield ("recv", rank - 1, 0)
        if prev is not LOST:
            acc = op(prev, value)
    if rank < size - 1:
        yield ("send", rank + 1, 0, acc, nbytes)
    return acc


#: kind -> schedule-generator factory, called as ``factory(rank, size,
#: *genargs)``.  Dispatchers hand :meth:`Communicator._join` the plain
#: ``genargs`` tuple instead of a live generator: an array replay never
#: builds one.
_GEN_FACTORIES: dict[str, Callable[..., Any]] = {
    "barrier": _g_barrier,
    "bcast": _g_bcast,
    "reduce": _g_reduce,
    "gather": _g_gather,
    "scatter": _g_scatter,
    "allgather": _g_allgather,
    "alltoall": _g_alltoall,
    "scan": _g_scan,
}


def _schedule(kind: str, root: Any, rank: int, size: int, genargs: Any,
              state: Any):
    """``rank``'s schedule generator for one gated instance, built when an
    interpreter starts it.  An exchange's script is in the pattern, the
    gate's ``root``; for per-rank arguments it may bring its own schedule
    of that script (a tracer's): a factory, called with the interpreter's
    state object — the ``Task`` or ``RankState`` whose ``.clock`` is the
    rank's virtual time while the schedule runs."""
    if kind == "exchange":
        return genargs(state) if genargs else _g_script(root.ops[rank])
    return _GEN_FACTORIES[kind](rank, size, *genargs)


def _leaves(kind: str) -> int:
    """Leaf collectives an instance of ``kind`` stands for, each with its
    own tag window and strategy count: an allreduce's reduce and bcast."""
    return 2 if kind == "allreduce" else 1


# -- macro fast path: vector replays -----------------------------------------
#
# Whole-world numpy recurrences for the highest-traffic schedules.  They
# fill the same RankState objects the scalar core (replay.Replay) would and
# evaluate the NetworkModel array helpers, whose elementwise float64
# operations are IEEE-identical to the scalar chain.


def _barrier_vector(sim: Replay, size: int) -> None:
    """Dissemination barrier over arrays.

    Rank ``i`` in round ``r`` (dist ``2**r``) posts its send at
    ``S = C + dt`` and completes its recv from ``(i - dist) % size`` at
    ``max(S + o_recv, S_sender + latency)`` — what the scalar replay
    computes whether the message was queued or the receiver parked,
    because the recv immediately follows the send, so the post time *is*
    ``S``.
    """
    net = sim.net
    o_recv = net.o_recv
    dt = net.eager_send_cost(0)  # constant per-message charge
    nrounds = (size - 1).bit_length()
    states = sim.states
    C = np.empty(size, dtype=np.float64)
    B = np.empty(size, dtype=np.float64)
    for st in states.values():
        C[st.rank] = st.clock
        B[st.rank] = st.busy
    dist = 1
    for _ in range(nrounds):
        S = C + dt
        # np.roll(S, dist)[i] == S[(i - dist) % size]: the sender's post
        C = net.eager_round_array(np.roll(S, dist), S)
        B = (B + dt) + o_recv  # send charge then recv charge, in order
        dist <<= 1
    for st in states.values():
        r = st.rank
        st.clock = float(C[r])
        st.busy = float(B[r])
        st.msgs_sent += nrounds
        st.msgs_received += nrounds
        st.done = True
    sim.total_messages = size * nrounds


def _tree_vector(sim: Replay, kind: str, root: int, size: int) -> bool:
    """Binomial-tree bcast/reduce over arrays.

    Both schedules are round-synchronous in relative-rank space: bcast
    round ``t`` sends ``u -> u + 2**t`` for every ``u < 2**t`` (increasing
    ``t``, matching each rank's increasing-bit child order), reduce runs
    the same edges in *decreasing* ``t`` (matching the generator's
    ``reversed(binomial_children)`` fold).  Each rank's program order is a
    straight line — receives then sends for bcast, folds then one send for
    reduce — so per-round array updates reproduce the scalar clock/busy
    accumulation chains exactly.  Returns ``False`` with ``sim`` untouched
    (the caller then drives the generators) on any rendezvous-sized payload
    or a raising reduction op; the generator path reproduces the raise with
    the engine's exact failure semantics.
    """
    net = sim.net
    eager_max = net.eager_threshold
    states = sim.states
    # relative rank u lives at comm-local rank (u + root) % size
    rel = [states[(u + root) % size] for u in range(size)]
    halves = []
    half = 1
    while half < size:
        halves.append(half)
        half <<= 1
    # Data plane first: per-round byte counts (with the senders' eager
    # charge, NetworkModel.eager_send_cost) and each rank's result.
    o_send = net.o_send
    rounds = []
    if kind == "bcast":
        value = rel[0].genargs[1]  # root's payload, shared by reference
        default_nb = -1
        nbs = []
        for e in rel:
            arg = e.genargs[2]
            if arg is None:
                if default_nb < 0:
                    default_nb = payload_nbytes(value)
                nbs.append(default_nb)
            else:
                nbs.append(int(arg))
        if max(nbs) > eager_max:
            return False
        nb_arr = np.array(nbs, dtype=np.int64)
        dt_arr = o_send + net.transfer_time_array(nb_arr)
        for half in halves:
            n = min(half, size - half)
            rounds.append((half, nb_arr[:n], dt_arr[:n]))
        results: list[Any] = [value] * size
    else:
        acc = [e.genargs[1] for e in rel]
        ops = [e.genargs[2] for e in rel]
        nbargs = [e.genargs[3] for e in rel]
        halves.reverse()  # decreasing distance == reversed(children) fold
        # Fold accumulators in the exact per-receiver fold order.
        for half in halves:
            n = min(half, size - half)
            nbs = np.empty(n, dtype=np.int64)
            for u in range(n):
                v = u + half
                arg = nbargs[v]
                nb = payload_nbytes(acc[v]) if arg is None else int(arg)
                if nb > eager_max:
                    return False
                nbs[u] = nb
                try:
                    acc[u] = ops[u](acc[v], acc[u])
                except BaseException:  # noqa: BLE001 - replayed by generators
                    return False
            rounds.append((half, nbs, o_send + net.transfer_time_array(nbs)))
        results = [None] * size
        results[0] = acc[0]  # only the root returns the reduction
    o_recv = net.o_recv
    C = np.array([st.clock for st in rel], dtype=np.float64)
    B = np.array([st.busy for st in rel], dtype=np.float64)
    sent = np.zeros(size, dtype=np.int64)
    recvd = np.zeros(size, dtype=np.int64)
    bsent = np.zeros(size, dtype=np.int64)
    brecvd = np.zeros(size, dtype=np.int64)
    total_bytes = 0
    for half, nbs, dt in rounds:
        lo = slice(0, len(nbs))
        hi = slice(half, half + len(nbs))
        s, t = (lo, hi) if kind == "bcast" else (hi, lo)
        Cs = C[s] + dt  # sender posts: clock += dt
        C[s] = Cs
        C[t] = net.eager_round_array(Cs, C[t])
        B[t] += o_recv
        B[s] += dt
        sent[s] += 1
        bsent[s] += nbs
        recvd[t] += 1
        brecvd[t] += nbs
        total_bytes += int(nbs.sum())
    sim.total_messages = size - 1
    sim.total_bytes = total_bytes
    for i, st in enumerate(rel):
        st.clock = float(C[i])
        st.busy = float(B[i])
        st.msgs_sent += int(sent[i])
        st.bytes_sent += int(bsent[i])
        st.msgs_received += int(recvd[i])
        st.bytes_received += int(brecvd[i])
        st.result = results[i]
        st.done = True
    return True


def _run_replay(kind: str, root: Any, net, entries: list) -> Replay:
    """Run one gate instance through the cheapest bit-exact replay,
    advancing the ``entries`` (the ranks' join states) in place.

    Large barriers, eager bcast/reduce and slot-aligned exchanges take the
    array replays; everything else (and anything an array replay declines)
    drives the schedule generators through the scalar core.  Generators
    are only built when that path actually runs.  Only the core can run
    the schedules exchange entries bring along (all or none do: a run's
    ranks share one tracer class) or record an exchange's per-message obs
    events (entries given an ``events`` list).  An allreduce is two such
    runs on the same states: its reduce, then (unless an op raised) the
    bcast of the root's result, ``mid`` set in between.
    """
    if kind == "exchange":
        # A script has no user callable whose raise order the arrival
        # order would decide, and the slot columns are positional.
        entries.sort(key=_entry_rank)
        first = entries[0]
        cols = None if first.events is not None or first.genargs \
            else slots_vector(root, entries, net)
        if cols is not None:
            sim = Replay(net, ())
            sim.states = cols  # columnar: _Gate.complete lands them in bulk
            sim.total_messages = root.total_messages
            sim.total_bytes = root.total_bytes
            return sim
    sim = Replay(net, entries)
    if kind != "allreduce":
        _replay_leaf(sim, kind, root)
        return sim
    _replay_leaf(sim, "reduce", 0)
    if sim.failure is None:
        messages, nbytes = sim.total_messages, sim.total_bytes
        sim.total_messages = sim.total_bytes = 0
        for st in entries:
            st.mid = st.clock
            st.done = False
            st.genargs = (0, st.result, st.genargs[3])
        _replay_leaf(sim, "bcast", 0)
        sim.total_messages += messages
        sim.total_bytes += nbytes
    return sim


def _replay_leaf(sim: Replay, kind: str, root: Any) -> None:
    """One leaf instance of :func:`_run_replay` on ``sim``'s states."""
    size = len(sim.states)
    if kind != "exchange" and size >= _VEC_MIN_SIZE:
        if kind == "barrier":
            _barrier_vector(sim, size)
            return
        if (kind == "bcast" or kind == "reduce") and \
                _tree_vector(sim, kind, root, size):
            return
    for st in sim.states.values():
        st.gen = _schedule(kind, root, st.rank, size, st.genargs, st)
    sim.run()


class _Raised:
    """Wrapper carrying a replay exception back to its owning rank."""

    __slots__ = ("exc",)

    def __init__(self, exc: BaseException) -> None:
        self.exc = exc


#: What an aborted gate resolves its parked entries with: rerun this
#: instance on the message-level path, from your join clock.
RUN_SIM = object()

_entry_rank = attrgetter("rank")


def _tag_base(seq: int) -> int:
    """First tag of collective instance ``seq``'s private window.  Windows
    start well above MAX_USER_TAG (tags 1..1023 above it are reserved for
    tool traffic such as trace shipping)."""
    return MAX_USER_TAG + 1024 + seq * _TAG_STRIDE


class _Gate:
    """Rendezvous point for one gated instance — a collective or a declared
    exchange — on one communicator.

    The first arriving rank computes the fast-vs-simulated verdict
    (``reason`` is ``None`` for fast, else a fallback reason of the ledger
    in docs/INTERNALS.md); the verdict is cached so every participant takes
    the same path.  Fast joiners register a :class:`RankState` (their join
    snapshot, task and future) and park; the last arrival replays the
    whole instance on those states (:func:`_run_replay`) and resolves
    everyone in one bulk advance.  A conflict that only shows up
    between arrivals aborts the gate instead (:meth:`abort`).

    ``root`` is what, beyond ``kind``, all ranks of the instance must agree
    on: the root rank of a rooted collective, the pattern of an exchange
    (patterns compare by content), else ``None``.  ``awaited`` counts the live ranks
    still to consult; at zero the gate leaves the context's table and, on
    the fast path, is full.
    """

    __slots__ = ("kind", "root", "seq", "reason", "awaited", "entries")

    def __init__(self, kind: str, root: Any, seq: int, reason: str | None,
                 awaited: int) -> None:
        self.kind = kind
        self.root = root
        self.seq = seq
        self.reason = reason
        self.awaited = awaited
        self.entries: list[RankState] = []

    @property
    def name(self) -> str:
        """The instance's ``op`` label: a pattern's name, else the kind."""
        return self.root.name if self.kind == "exchange" else self.kind

    def abort(self, engine, reason: str) -> None:
        """Late conflict: the verdict becomes ``reason`` and every parked
        entry is released to the message-level path at its own join clock
        (parking cost nothing in virtual time)."""
        self.reason = reason
        entries, self.entries = self.entries, []
        engine.wave_resolve(
            [(st.fut, RUN_SIM, st.fut.post_time) for st in entries])

    def complete(self, ctx: CommContext) -> None:
        """Every awaited rank has joined: replay the instance on the
        entries, write each replayed state (or whole columns) back onto its
        task, emit what its message-level run would have, and resolve all
        of them in one bulk advance, in rank order."""
        engine = ctx.engine
        entries = self.entries
        if self.kind == "exchange" and engine.instrument.enabled:
            for st in entries:
                st.events = []  # the core collects what _emit reports
        sim = _run_replay(self.kind, self.root, engine.network, entries)
        engine.total_messages += sim.total_messages
        engine.total_bytes += sim.total_bytes
        if sim.failure is not None:
            # A reduction op (or similar user callable) raised inside the
            # replay: surface it on the rank that would have raised in the
            # simulated path.  Peers stay parked — without faults the run
            # aborts on that rank's TaskFailedError exactly like the
            # simulated path; with faults the op-timeout backstop releases
            # them, as it releases any rank orphaned mid-collective.
            st = sim.failed_state
            st.write_back()
            engine.wave_resolve([(st.fut, _Raised(sim.failure), st.clock)])
            return
        entries.sort(key=_entry_rank)  # wake order: by rank
        cols = sim.states
        if type(cols) is RankStateColumns:
            # A slot-replayed exchange, entries in rank order: uninstrumented
            # (nothing to emit) and fault-free (nobody was released early).
            cols.write_back([st.task for st in entries])
            engine.wave_resolve(
                [(st.fut, None, t)
                 for st, t in zip(entries, cols.clock.tolist())])
            return
        ins = engine.instrument
        emit = ins.enabled
        resolutions = []
        for st in entries:
            if st.fut.done:
                # Released by a fault timeout while parked: the task
                # already moved on with LOST at the release time; its
                # replayed state must not overwrite the real one.
                continue
            st.write_back()
            if emit:
                self._emit(ins, ctx, st)
            resolutions.append((st.fut, st.result, st.clock))
        engine.wave_resolve(resolutions)

    def _emit(self, ins, ctx: CommContext, st: RankState) -> None:
        """What the closed form reports of ``st``'s part in this instance:
        a collective's one ``coll`` span, from the join clock (an
        allreduce's two, its leaves', split at ``st.mid``); an exchange's
        per-message events, which the core collected."""
        kind = self.kind
        rank = st.rank
        if kind == "allreduce":
            _emit_coll(ins, ctx, rank, "reduce", _ALGORITHMS["reduce"],
                       st.fut.post_time, st.mid, True)
            _emit_coll(ins, ctx, rank, "bcast", _ALGORITHMS["bcast"],
                       st.mid, st.clock, True)
            return
        if kind != "exchange":
            _emit_coll(ins, ctx, rank, kind, _ALGORITHMS[kind],
                       st.fut.post_time, st.clock, True)
            return
        for ev in st.events:
            if ev[0] == "s":
                ctx.emit_send(ins, rank, ev[1])
            else:
                _, post, done, src, tag, nbytes, rdv = ev
                ctx.emit_recv(ins, src, rank, tag, nbytes, rdv, post, done)
        ins.metrics.count("p2p/fast_hits", 1, rank=ctx.ranks[rank],
                          op=self.name)


class Communicator(Comm):
    """A :class:`Comm` with collective operations attached.

    Public collective methods — and ``exchange``, one more gate kind — are
    thin dispatchers onto :meth:`_gated`: consult the instance's
    :class:`_Gate` and hand the schedule's arguments to the interpreter its
    verdict names, :meth:`_join` (closed form) or :meth:`_simulate`
    (message level).  ``allreduce`` is one such instance standing for a
    reduce and a bcast; ``split`` and ``dup`` are compositions of the leaf
    collectives and need no dispatch of their own.
    """

    # -- the gate protocol -----------------------------------------------

    def _traffic_reason(self) -> str | None:
        """Mailbox-state eligibility of an exchange: its gate may only
        bypass matching when nothing is queued or posted anywhere on this
        communicator (only materialized mailboxes are visited, so an idle
        communicator costs nothing to scan; nor does one nothing was posted
        on since its last clean scan — matching only ever removes)."""
        ctx = self.context
        if ctx.posts == ctx.clean_posts:
            return None
        for mbox in ctx._mailboxes.values():
            if mbox.has_wild_pending():
                return "pending-wildcard"
            if mbox.has_pending():
                return "pending-recv"
            if mbox.has_queued():
                return "queued-traffic"
        ctx.clean_posts = ctx.posts
        return None

    def _fallback_reason(self, kind: str, seq: int) -> str | None:
        """Why instance ``seq`` of ``kind`` must take the message-level
        path (``None`` = the gate is safe).  Evaluated once per instance by
        the first arriving rank; every input is either static for the whole
        run or can only strand the verdict on the safe (fallback) side —
        except an exchange's mailbox scan, which :meth:`_consult` repeats
        at every arrival.  The only place reasons are decided; the ledger
        in docs/INTERNALS.md lists each with the test that reaches it."""
        engine = self.engine
        if engine.gates != "fast":
            return "disabled"
        if kind == "exchange":
            if engine.faults.active:
                # Any armed plan falls back — message/link faults perturb
                # p2p directly, and compute factors are keyed to a per-rank
                # draw sequence only the real ``ctx.compute`` path advances.
                return "faults"
            return self._traffic_reason()
        ctx = self.context
        reason = engine.faults.collective_fallback_reason(ctx.ranks)
        if reason is not None:
            return reason
        base = _tag_base(seq)
        end = base + _leaves(kind) * _TAG_STRIDE
        for mbox in ctx._mailboxes.values():
            if mbox.has_tag_window(base, end):
                return "tag-window"
        return None

    def _consult(self, kind: str, root: Any) -> _Gate:
        """Take this rank's next sequence number of ``kind``'s family, join
        that instance's decision gate and return it; ``gate.reason`` is
        ``None`` when the instance runs on the fast path, else why it takes
        the message-level interpreter.  The verdict is computed once (first
        arrival) and cached, so all ranks of one instance always take the
        same path.  An exchange's mailbox scan is *re-checked* at every
        arrival: traffic posted between arrivals (by ranks still short of
        their exchange call) could interleave with the pattern's messages,
        so a dirty scan aborts the gate.
        """
        ctx = self.context
        exchange = kind == "exchange"
        seqs = ctx.p2p_seq if exchange else ctx.coll_seq
        seq = seqs[self.rank]
        key = (exchange, seq)
        gate = ctx._gates.get(key)
        if gate is None:
            gate = ctx._gates[key] = _Gate(
                kind, root, seq, self._fallback_reason(kind, seq),
                ctx.gate_quorum)
        elif gate.kind != kind or gate.root != root:
            if exchange:
                raise PatternMismatchError(
                    f"rank {self.rank} called exchange({root.name!r}) as p2p "
                    f"instance #{seq} but other ranks are in {gate.name!r}"
                )
            raise CollectiveMismatchError(
                f"rank {self.rank} called {kind}(root={root}) as collective "
                f"#{seq} but other ranks are in "
                f"{gate.kind}(root={gate.root})"
            )
        elif exchange and gate.reason is None \
                and self._traffic_reason() is not None:
            gate.abort(self.engine, "mid-phase-traffic")
        seqs[self.rank] = seq + _leaves(kind)
        gate.awaited -= 1
        if not gate.awaited:
            del ctx._gates[key]
        return gate

    def _gated(self, kind: str, root: Any, genargs: tuple,
               compute: Callable[[float], Any] | None = None):
        """This rank's share of one gated instance, as an awaitable: the
        gate when its verdict allows, else the message-level interpreter.
        (Not a coroutine itself: every resume walks the await chain, and a
        gated call is the hottest one there is.)"""
        gate = self._consult(kind, root)
        run = self._join if gate.reason is None else self._simulate
        return run(gate, genargs, compute)

    async def _join(self, gate: _Gate, genargs: tuple,
                    compute: Callable[[float], Any] | None = None) -> Any:
        """Register this rank on ``gate`` and await the bulk advance — or,
        when the gate aborts meanwhile (:data:`RUN_SIM`), rerun from the
        join clock on the message-level path."""
        ctx = self.context
        task = self.task
        exchange = gate.kind == "exchange"
        fut = SimFuture(
            kind="p2p" if exchange else "coll", tag=gate.seq,
            dest=ctx.ranks[self.rank], comm=ctx.id, post_time=task.clock,
        )
        gate.entries.append(RankState(self.rank, task, fut, genargs))
        if not gate.awaited:
            # The quorum is in: these calls are served by the fast path.
            if exchange:
                self.engine.p2p_fast += len(gate.entries)
            else:
                self.engine.collectives_fast += \
                    len(gate.entries) * _leaves(gate.kind)
            gate.complete(ctx)
        result = await fut
        task.advance_to(fut.time)
        if result is RUN_SIM:
            return await self._simulate(gate, genargs, compute)
        if type(result) is _Raised:
            raise result.exc
        return result

    async def _simulate(self, gate: _Gate, genargs: tuple,
                        compute: Callable[[float], Any] | None = None,
                        kind: str | None = None, window: int = 0) -> Any:
        """The message-level tail: run this rank's schedule for ``gate``'s
        instance through :meth:`_drive` — a collective inside its private
        tag window, an exchange on the script's own user tags (base 0).
        An allreduce runs as its two leaves (``kind``), the bcast in the
        second window (``window``)."""
        if kind is None and gate.kind == "allreduce":
            reduced = await self._simulate(gate, genargs, kind="reduce")
            return await self._simulate(gate, (0, reduced, genargs[3]),
                                        kind="bcast", window=1)
        kind = kind or gate.kind
        exchange = kind == "exchange"
        engine = self.engine
        if exchange:
            engine.p2p_simulated += 1
        else:
            engine.collectives_simulated += 1
        ins = engine.instrument
        t0 = self.task.clock
        if ins.enabled:
            ins.metrics.count(
                "p2p/fallbacks" if exchange else "coll/fallbacks", 1,
                rank=self.world_rank(self.rank),
                op=f"{gate.name if exchange else kind}:{gate.reason}",
            )
        schedule = _schedule(kind, gate.root, self.rank, self.size, genargs,
                             self.task)
        result = await self._drive(
            schedule, 0 if exchange else _tag_base(gate.seq + window),
            compute)
        if ins.enabled and not exchange:
            _emit_coll(ins, self.context, self.rank, kind, _ALGORITHMS[kind],
                       t0, self.task.clock, False)
        return result

    async def _drive(
        self,
        schedule,
        base: int,
        compute: Callable[[float], Any] | None = None,
    ) -> Any:
        """The message-level interpreter of a schedule: issue each yielded
        operation through the ordinary ``isend``/``send``/``recv``/
        ``Request.wait`` primitives, tags offset by ``base``, and return
        the schedule's result.  The closed-form interpreter of the same
        generators is :class:`repro.simmpi.replay.Replay`; this one is the
        bit-identity oracle for it.  ``compute`` charges ``("compute", s)``
        ops (default: the bare clock charge the replay makes).
        """
        value = None
        while True:
            try:
                op = schedule.send(value)
            except StopIteration as stop:
                return stop.value
            code = op[0]
            value = None
            if code == "recv":
                value = await self.recv(op[1], tag=base + op[2])
            elif code == "isend":
                # a Request, never EAGER_DONE: schedules always wait on it
                value = self.isend(op[1], op[3], tag=base + op[2], size=op[4])
            elif code == "send":
                await self.send(op[1], op[3], tag=base + op[2], size=op[4])
            elif code == "wait":
                await op[1].wait()
            elif compute is not None:
                compute(op[1])
            else:
                self.task.charge(op[1])

    # -- collectives ---------------------------------------------------------

    async def barrier(self) -> None:
        """Dissemination barrier: ceil(log2 P) rounds of paired messages."""
        return await self._gated("barrier", None, ())

    async def bcast(self, value: Any, root: int = 0, size: int | None = None) -> Any:
        """Binomial-tree broadcast; returns the value on every rank."""
        self._check_peer(root, "root")
        return await self._gated("bcast", root, (root, value, size))

    async def reduce(
        self,
        value: Any,
        op: Callable[[Any, Any], Any] = SUM,
        root: int = 0,
        size: int | None = None,
    ) -> Any:
        """Binomial-tree reduction; the result is returned on ``root`` only
        (other ranks get ``None``), matching ``MPI_Reduce``."""
        self._check_peer(root, "root")
        return await self._gated("reduce", root, (root, value, op, size))

    @_observed("allreduce", "reduce+bcast")
    def allreduce(
        self,
        value: Any,
        op: Callable[[Any, Any], Any] = SUM,
        size: int | None = None,
    ) -> Any:
        """Reduce to rank 0 followed by broadcast; all ranks get the result.
        One gated instance (its arguments are the reduce's), awaited like
        the leaves."""
        return self._gated("allreduce", None, (0, value, op, size))

    async def gather(
        self, value: Any, root: int = 0, size: int | None = None
    ) -> list[Any] | None:
        """Binomial-tree gather; ``root`` returns the rank-ordered list."""
        self._check_peer(root, "root")
        return await self._gated("gather", root, (root, value, size))

    async def scatter(
        self, values: Sequence[Any] | None, root: int = 0, size: int | None = None
    ) -> Any:
        """Binomial-tree scatter; each rank returns its element of ``values``."""
        self._check_peer(root, "root")
        if self.rank == root and (values is None or len(values) != self.size):
            raise CollectiveMismatchError(
                "scatter needs one value per rank" if self.size == 1
                else "scatter root must supply exactly one value per rank"
            )
        return await self._gated("scatter", root, (root, values, size))

    async def allgather(self, value: Any, size: int | None = None) -> list[Any]:
        """Ring allgather: P-1 steps, each forwarding the next segment."""
        return await self._gated("allgather", None, (value, size))

    async def alltoall(
        self, values: Sequence[Any], size: int | None = None
    ) -> list[Any]:
        """Pairwise-exchange all-to-all; ``values[i]`` goes to rank ``i``."""
        if len(values) != self.size:
            raise CollectiveMismatchError(
                f"alltoall needs {self.size} values, got {len(values)}"
            )
        return await self._gated("alltoall", None, (values, size))

    async def scan(
        self, value: Any, op: Callable[[Any, Any], Any] = SUM, size: int | None = None
    ) -> Any:
        """Inclusive prefix scan (linear chain, like small-P MPI_Scan)."""
        return await self._gated("scan", None, (value, op, size))

    # -- communicator construction ----------------------------------------

    @_observed("split", "gather+bcast")
    async def split(self, color: int, key: int | None = None) -> "Communicator | None":
        """Collective split; returns the new communicator (None if color<0)."""
        key = self.rank if key is None else key
        triples = await self.gather((color, key, self.rank), root=0)
        contexts: dict[int, CommContext] | None = None
        if self.rank == 0:
            assert triples is not None
            groups: dict[int, list[tuple[int, int]]] = {}
            for triple in triples:
                if triple is LOST:
                    continue  # fault hole: that rank cannot join any group
                c, k, r = triple
                if c >= 0:
                    groups.setdefault(c, []).append((k, r))
            contexts = {}
            for c in sorted(groups):
                members = [r for _k, r in sorted(groups[c])]
                contexts[c] = CommContext(self.engine, [self.world_rank(m) for m in members])
        contexts = await self.bcast(contexts, root=0)
        if color < 0:
            return None
        ctx = contexts[color]
        my_world = self.world_rank(self.rank)
        local_rank = ctx.local_of[my_world]
        return Communicator(ctx, local_rank, self.task)

    @_observed("dup", "gather+bcast")
    async def dup(self) -> "Communicator":
        """Collective duplicate: a congruent communicator with fresh state."""
        new = await self.split(color=0, key=self.rank)
        assert new is not None
        return new

    # -- declared p2p patterns -------------------------------------------

    def check_pattern(self, pattern: NeighborPattern) -> None:
        """``pattern`` has one script per rank of this communicator."""
        if pattern.size != self.size:
            raise PatternMismatchError(
                f"pattern {pattern.name!r} declares {pattern.size} ranks "
                f"but communicator {self.context.id} has {self.size}"
            )

    async def exchange(
        self,
        pattern: NeighborPattern,
        *,
        compute: Callable[[float], Any] | None = None,
        schedule: Callable[[Any], Any] | None = None,
    ) -> None:
        """Run one declared regular exchange (collective over the comm).

        Every rank must call ``exchange`` with an equal pattern (same
        content key) in the same program position.  The script is the only
        statement of the phase, traced or not: a tracer's ``exchange`` comes
        here too, bringing as ``schedule`` its own schedule of this rank's
        script (a factory, see :func:`_schedule`) in place of the plain one.
        It is one more gate kind: eligible instances resolve in one bulk
        clock advance with no mailbox traffic; the rest, and every instance
        under ``SimConfig(gates="simulated")``, run this rank's schedule
        through :meth:`_drive`.  Bit-identical virtual time all three ways.

        ``compute`` (pass ``ctx.compute``) charges the ``("compute", s)``
        ops in ``_drive`` so fault compute-factor draws advance; the gate
        charges them directly (fault plans never reach the gate).
        """
        self.check_pattern(pattern)
        await self._gated("exchange", pattern, schedule, compute)
