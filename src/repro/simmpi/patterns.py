"""Declared regular p2p patterns: the pattern, its slot compiler and the
vectorized slot replay.

The *regular* point-to-point phases that dominate the stencil/wavefront
workloads (POP halos, Sweep3D sweeps, AMG/LULESH neighbor exchanges, NPB
transposes) resolve in closed form, like collectives.  A workload states
such a phase once, as a :class:`NeighborPattern` — a per-rank script of
isend/send/recv/wait/compute ops with static peers, tags and sizes, plus a
call-site table for tracers — and ``Communicator.exchange`` runs it as one
more gate kind (:mod:`repro.simmpi.collectives`): an eligible instance is
replayed by its last arrival, every other one runs :func:`_g_script`
through ``Communicator._drive``, the message-level interpreter of the same
script.  Bit-identical in virtual time either way.

This module contributes the two things only a declared script has:

* **slot replay** (:func:`slots_vector`) — when the pattern compiles to
  aligned slots (uniform op kind per position, matched sends strictly
  earlier than their recvs), each slot is one vectorized numpy expression
  over a :class:`~.rankstate.RankStateColumns` store: no Python loop over
  ranks.  It sits in front of the scalar core exactly like the barrier and
  tree recurrences do for collectives.
* **script replay** (:func:`_g_script`) — a rank's script as a schedule for
  the shared scalar core (:class:`repro.simmpi.replay.Replay`); handles
  wavefront dependency chains, rendezvous fused sends and the obs events an
  instrumented gate synthesizes.

The op vocabulary (all peers are communicator-local ranks, payloads are
always ``None``):

* ``("isend", dest, tag, nbytes)`` — non-blocking send
* ``("send", dest, tag, nbytes)`` — blocking send (isend + wait fused)
* ``("recv", src, tag)`` — blocking exact-source, exact-tag receive
* ``("wait", k)`` — wait on this rank's ``k``-th ``isend`` (0-based)
* ``("compute", seconds)`` — local busy time (pre-scaled by the caller)
* ``None`` — placeholder keeping per-rank scripts slot-aligned
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Sequence

import numpy as np

from .comm import MAX_USER_TAG
from .rankstate import RankStateColumns
from .replay import EAGER_DONE

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .timing import NetworkModel


class NeighborPattern:
    """One declared regular exchange: per-rank op scripts, validated.

    Construction validates the whole pattern once (peers in range, user
    tags only, wait indices sane, and — the property the gate relies on —
    *channel balance*: every ``(src, dest, tag)`` channel carries exactly
    as many sends as receives, so a completed instance leaves every
    mailbox exactly as it found it).

    Instances are immutable and compare by content (name, size, scripts):
    ranks of one gate must present equal patterns or the gate raises
    ``PatternMismatchError``.
    """

    __slots__ = (
        "name", "size", "ops", "sites", "total_messages", "total_bytes",
        "_plan", "_plan_tried",
    )

    def __init__(self, name: str, size: int,
                 ops: Sequence[Sequence[tuple | None]],
                 sites: tuple | None = None) -> None:
        if not isinstance(name, str) or not name:
            raise ValueError("pattern name must be a non-empty string")
        if not isinstance(size, int) or size < 1:
            raise ValueError(f"pattern size must be a positive int, got {size!r}")
        if len(ops) != size:
            raise ValueError(
                f"pattern {name!r}: ops must list one script per rank "
                f"({size}), got {len(ops)}"
            )
        self.name = name
        self.size = size
        frozen = tuple(tuple(rank_ops) for rank_ops in ops)
        self.total_messages, self.total_bytes = self._validate(frozen)
        self.ops = frozen
        self.sites = sites  # call-site table, for tracers: never read here
        self._plan = None
        self._plan_tried = False

    def _validate(self, ops: tuple) -> tuple[int, int]:
        """Validate every op, raising the precise error at the first
        offending one, and return ``(total_messages, total_bytes)``.

        At P=16384 even this one pass over ~400k ops sits on the bench's
        critical path, so the checks are exact ``type`` tests (a ``bool``
        or numpy scalar is rejected like any other wrong type) and
        messages are formatted only on the error path."""
        name = self.name
        size = self.size
        maxtag = MAX_USER_TAG
        channels: dict[tuple[int, int, int], int] = {}
        get = channels.get
        nmsg = 0
        nbytes_total = 0

        def bad(rank: int, pos: int, what: str) -> ValueError:
            return ValueError(f"pattern {name!r} rank {rank} op {pos}: {what}")

        for rank, rank_ops in enumerate(ops):
            n_isends = 0
            waited = 0  # bitmask over this rank's isend indices
            for pos, op in enumerate(rank_ops):
                if op is None:
                    continue
                if not isinstance(op, tuple) or not op:
                    raise bad(rank, pos, f"unknown op {op!r}")
                kind = op[0]
                if kind == "isend" or kind == "send":
                    if len(op) != 4:
                        raise bad(rank, pos,
                                  f"{kind} needs (kind, dest, tag, nbytes)")
                    _, dest, tag, nbytes = op
                    if type(dest) is not int or dest < 0 or dest >= size:
                        raise bad(rank, pos, f"dest {dest!r} out of range "
                                  f"for size {size}")
                    if type(tag) is not int or tag < 0 or tag > maxtag:
                        raise bad(rank, pos, f"tag {tag!r} must be a user "
                                  f"tag in [0, {maxtag}]")
                    if type(nbytes) is not int or nbytes < 0:
                        raise bad(rank, pos, "nbytes must be a non-negative "
                                  f"int, got {nbytes!r}")
                    key = (rank, dest, tag)
                    channels[key] = get(key, 0) + 1
                    nmsg += 1
                    nbytes_total += nbytes
                    if kind == "isend":
                        n_isends += 1
                elif kind == "recv":
                    if len(op) != 3:
                        raise bad(rank, pos, "recv needs (kind, src, tag)")
                    _, src, tag = op
                    if type(src) is not int or src < 0 or src >= size:
                        raise bad(rank, pos, f"src {src!r} out of range "
                                  f"for size {size}")
                    if type(tag) is not int or tag < 0 or tag > maxtag:
                        raise bad(rank, pos, f"tag {tag!r} must be a user "
                                  f"tag in [0, {maxtag}]")
                    key = (src, rank, tag)
                    channels[key] = get(key, 0) - 1
                elif kind == "wait":
                    if len(op) != 2 or type(k := op[1]) is not int:
                        raise bad(rank, pos, "wait needs (kind, isend_index)")
                    if k < 0 or k >= n_isends:
                        raise bad(rank, pos, f"wait({k}) does not follow "
                                  f"isend #{k} (seen {n_isends})")
                    if (waited >> k) & 1:
                        raise bad(rank, pos, f"isend #{k} waited twice")
                    waited |= 1 << k
                elif kind == "compute":
                    if (len(op) != 2 or (type(op[1]) is not float
                                         and type(op[1]) is not int)
                            or op[1] < 0):
                        raise bad(rank, pos,
                                  "compute needs (kind, seconds >= 0)")
                else:
                    raise bad(rank, pos, f"unknown op {op!r}")
        for (src, dest, tag), balance in channels.items():
            if balance:
                more, fewer = (("send", "recv") if balance > 0
                               else ("recv", "send"))
                raise ValueError(
                    f"pattern {name!r}: channel {src}->{dest} tag={tag} "
                    f"has {abs(balance)} more {more}(s) than {fewer}(s)")
        return nmsg, nbytes_total

    def __eq__(self, other: object) -> bool:
        """Content identity: what ranks joining one gate must agree on."""
        return self is other or (
            type(other) is NeighborPattern
            and (self.name, self.size, self.ops)
            == (other.name, other.size, other.ops))

    def __hash__(self) -> int:
        return hash((self.name, self.size))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<NeighborPattern {self.name!r} size={self.size} "
            f"messages={self.total_messages} bytes={self.total_bytes}>"
        )

    def slot_plan(self):
        """The compiled vectorizable slot plan, or ``None`` when the
        pattern's structure cannot be replayed slot-by-slot (then the
        scalar script replay runs instead).  Compiled once, cached."""
        if not self._plan_tried:
            self._plan_tried = True
            self._plan = _compile_slots(self)
        return self._plan


# -- slot compilation ---------------------------------------------------------
#
# A slot plan exists when the per-rank scripts align positionally: every
# occupied position (slot) holds ops of one kind, each recv's matched send
# lives in a single earlier slot shared by all receivers of that slot, and
# each wait slot targets a single isend slot.  Halo exchanges and
# transposes compile; wavefront sweeps (recv-before-send chains) do not
# and take the script replay.


class _SendSlot:
    __slots__ = ("slot", "kind", "idx", "nb", "pos_of")

    def __init__(self, slot, kind, ranks, nbytes):
        self.slot = slot
        self.kind = kind
        self.idx = np.array(ranks, dtype=np.intp)
        self.nb = np.array(nbytes, dtype=np.int64)
        self.pos_of = {r: j for j, r in enumerate(ranks)}


class _RecvSlot:
    __slots__ = ("slot", "idx", "send", "gather")

    def __init__(self, slot, ranks, send, gather):
        self.slot = slot
        self.idx = np.array(ranks, dtype=np.intp)
        self.send = send
        self.gather = np.array(gather, dtype=np.intp)


class _WaitSlot:
    __slots__ = ("slot", "idx", "send", "pos", "rslot")

    def __init__(self, slot, ranks, send, pos, rslot):
        self.slot = slot
        self.idx = np.array(ranks, dtype=np.intp)
        self.send = send
        self.pos = np.array(pos, dtype=np.intp)
        self.rslot = np.array(rslot, dtype=np.int64)


class _ComputeSlot:
    __slots__ = ("slot", "idx", "sec")

    def __init__(self, slot, ranks, sec):
        self.slot = slot
        self.idx = np.array(ranks, dtype=np.intp)
        self.sec = np.array(sec, dtype=np.float64)


def _compile_slots(pattern: NeighborPattern):
    size = pattern.size
    ops = pattern.ops
    nslots = max((len(o) for o in ops), default=0)
    slot_kind: list[str | None] = [None] * nslots
    slot_ranks: list[list[int]] = [[] for _ in range(nslots)]
    slot_args: list[list[tuple]] = [[] for _ in range(nslots)]
    isend_slots: list[list[int]] = [[] for _ in range(size)]
    for r in range(size):
        for s, op in enumerate(ops[r]):
            if op is None:
                continue
            kind = op[0]
            if slot_kind[s] is None:
                slot_kind[s] = kind
            elif slot_kind[s] != kind:
                return None  # mixed kinds in one slot
            slot_ranks[s].append(r)
            slot_args[s].append(op)
            if kind == "isend":
                isend_slots[r].append(s)
    # Channel FIFO pairing: the i-th send on a (src, dest, tag) channel
    # matches the i-th recv — exactly the engine's per-lane discipline.
    # Ascending slot order is each rank's program order.
    chan_sends: dict[tuple, list[tuple[int, int]]] = {}
    chan_recvs: dict[tuple, list[tuple[int, int]]] = {}
    for s in range(nslots):
        kind = slot_kind[s]
        if kind == "isend" or kind == "send":
            for r, op in zip(slot_ranks[s], slot_args[s]):
                chan_sends.setdefault((r, op[1], op[2]), []).append((s, r))
        elif kind == "recv":
            for r, op in zip(slot_ranks[s], slot_args[s]):
                chan_recvs.setdefault((op[1], r, op[2]), []).append((s, r))
    match_of: dict[tuple[int, int], tuple[int, int]] = {}
    recv_slot_of_send: dict[tuple[int, int], int] = {}
    for key, sends in chan_sends.items():
        recvs = chan_recvs.get(key)
        if recvs is None or len(recvs) != len(sends):
            return None  # placeholder asymmetry; script replay handles it
        for (sslot, srank), (rslot, rrank) in zip(sends, recvs):
            if sslot >= rslot:
                return None  # send must land strictly before its recv slot
            match_of[(rslot, rrank)] = (sslot, srank)
            recv_slot_of_send[(sslot, srank)] = rslot
    compiled: list = []
    by_slot: dict[int, Any] = {}
    for s in range(nslots):
        kind = slot_kind[s]
        if kind is None:
            continue
        ranks = slot_ranks[s]
        args = slot_args[s]
        if kind == "isend" or kind == "send":
            rec: Any = _SendSlot(s, kind, ranks, [a[3] for a in args])
        elif kind == "recv":
            pairs = [match_of[(s, r)] for r in ranks]
            sslots = {p[0] for p in pairs}
            if len(sslots) != 1:
                return None  # receivers disagree on the send slot
            send = by_slot[sslots.pop()]
            rec = _RecvSlot(s, ranks, send,
                            [send.pos_of[p[1]] for p in pairs])
        elif kind == "wait":
            targets = {isend_slots[r][a[1]] for r, a in zip(ranks, args)}
            if len(targets) != 1:
                return None
            send = by_slot[targets.pop()]
            rec = _WaitSlot(
                s, ranks, send,
                [send.pos_of[r] for r in ranks],
                [recv_slot_of_send[(send.slot, r)] for r in ranks],
            )
        else:  # compute
            rec = _ComputeSlot(s, ranks, [float(a[1]) for a in args])
        compiled.append(rec)
        by_slot[s] = rec
    return compiled


# -- slot replay (vectorized) -------------------------------------------------


def _replay_slots(plan: list, cols: RankStateColumns,
                  net: "NetworkModel") -> bool:
    """Replay a compiled slot plan over the columns; one numpy expression
    per slot, no per-rank Python loop.

    Returns ``False`` without touching ``cols`` when the plan is
    infeasible for this network (a fused send or an unfireable wait would
    go rendezvous); the caller then runs the script replay.  The
    :class:`NetworkModel` array helpers evaluate the same IEEE-754
    operation sequence as their scalar forms, so the results are bit-equal.
    """
    o_send = net.o_send
    o_recv = net.o_recv
    latency = net.latency
    eager_max = net.eager_threshold
    # Feasibility pass first: no column is mutated unless the whole plan
    # can run.  Rendezvous needs the matching recv to have fired before
    # the sender's wait slot; a fused ("send", ...) has its wait at the
    # send itself, which can never follow the recv.
    eager_of: dict[int, np.ndarray] = {}
    for rec in plan:
        if isinstance(rec, _SendSlot):
            eager_m = rec.nb <= eager_max
            eager_of[rec.slot] = eager_m
            if rec.kind == "send" and not eager_m.all():
                return False
        elif isinstance(rec, _WaitSlot):
            rdv = ~eager_of[rec.send.slot][rec.pos]
            if rdv.any() and (rec.rslot[rdv] >= rec.slot).any():
                return False
    clock = cols.clock
    busy = cols.busy
    runtime: dict[int, tuple] = {}
    for rec in plan:
        if isinstance(rec, _SendSlot):
            idx = rec.idx
            nb = rec.nb
            eager_m = eager_of[rec.slot]
            cols.msgs_sent[idx] += 1
            cols.bytes_sent[idx] += nb
            # eager: charge(o_send + transfer); rendezvous: charge(o_send)
            transfer = net.transfer_time_array(nb)
            dt = np.where(eager_m, o_send + transfer, o_send)
            c = clock[idx] + dt
            clock[idx] = c
            busy[idx] += dt
            # eager message time is the arrival, rendezvous is send_ready
            msg_time = np.where(eager_m, c + latency, c)
            runtime[rec.slot] = (
                eager_m, transfer, msg_time, np.zeros(len(idx)),
            )
        elif isinstance(rec, _RecvSlot):
            g = rec.gather
            s_eager, s_transfer, s_msg_time, s_done_send = \
                runtime[rec.send.slot]
            mt = s_msg_time[g]
            eg = s_eager[g]
            tr = s_transfer[g]
            nbg = rec.send.nb[g]
            ridx = rec.idx
            post = clock[ridx]
            # eager: done_recv = max(post + o_recv, arrival)
            # rendezvous: start = max(post + o_recv, send_ready)
            start = net.match_start_array(post, mt)
            done_recv = np.where(eg, start, (start + latency) + tr)
            s_done_send[g] = start + tr
            cols.msgs_received[ridx] += 1
            cols.bytes_received[ridx] += nbg
            busy[ridx] += o_recv
            clock[ridx] = np.maximum(post, done_recv)
        elif isinstance(rec, _WaitSlot):
            s_eager, s_transfer, _, s_done_send = runtime[rec.send.slot]
            p = rec.pos
            rdv = ~s_eager[p]
            if rdv.any():
                widx = rec.idx[rdv]
                prdv = p[rdv]
                # Request.wait: advance to done_send, absorb the deferred
                # transfer busy charge.  Eager waits are no-ops.
                clock[widx] = np.maximum(clock[widx], s_done_send[prdv])
                busy[widx] += s_transfer[prdv]
        else:  # _ComputeSlot
            idx = rec.idx
            clock[idx] += rec.sec
            busy[idx] += rec.sec
    return True


def slots_vector(pattern: NeighborPattern, entries: list,
                 net: "NetworkModel") -> RankStateColumns | None:
    """Replay one whole exchange over arrays and return the final columns
    (``entries`` in rank order), or ``None`` when the pattern has no slot
    plan or the plan is infeasible on this network; the caller then drives
    the scripts through the scalar core.  Unlike the collective vector
    replays this fills no per-rank state objects — the gate lands the
    columns on the tasks in bulk: at P=16384 the objects alone cost a fifth
    of a slot-replayed instance."""
    plan = pattern.slot_plan()
    if plan is None:
        return None
    cols = RankStateColumns.from_entries(entries)
    return cols if _replay_slots(plan, cols, net) else None


# -- script replay (scalar core) -----------------------------------------------


def _g_script(ops: tuple):
    """One rank's declared script as a schedule for the replay core
    (payloads are always ``None``; ``wait k`` names the k-th isend)."""
    handles = []
    for op in ops:
        if op is None:
            continue
        code = op[0]
        if code == "isend":
            handles.append((yield ("isend", op[1], op[2], None, op[3])))
        elif code == "send":
            yield ("send", op[1], op[2], None, op[3])
        elif code == "wait":
            handle = handles[op[1]]
            if handle is not EAGER_DONE:  # waiting on eager sends is a no-op
                yield ("wait", handle)
        else:  # recv / compute: already in the core's vocabulary
            yield op
