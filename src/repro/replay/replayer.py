"""ScalaReplay: interpret compressed traces and re-issue their MPI calls.

The replay engine walks a (global) trace, and every replaying rank:

* expands the PRSD loops on the fly,
* replays only the events whose ranklist contains it,
* transposes endpoint parameters relative to its own task ID (the traces
  store ScalaTrace's relative encodings, so a lead's trace replays correctly
  on *every* member of its cluster — the paper's enhanced cluster replay
  falls out of this property),
* simulates computation with sleeps drawn from the delta-time histograms,
* issues the communication through the simulated MPI runtime, so the replay
  time includes real (virtual) communication costs.

Replay happens in two passes.  Pass 1 builds each rank's operation schedule
locally; a reconciliation step then drops point-to-point operations with no
counterpart (impossible for exact traces, possible when clustering merged
heterogeneous behaviour — the count is reported as a fidelity statistic and
contributes to the paper's <100% accuracy).  Pass 2 executes the schedule
under the simulator, which is deadlock-free by construction after
reconciliation.  Pass 2 (``_replay``) is one interpreter for both
:func:`replay_trace` and :func:`~repro.replay.timeline.reconstruct_timeline`.
"""

from __future__ import annotations

import random
from collections import Counter, defaultdict
from dataclasses import dataclass

import numpy as np

from ..scalatrace.events import EventRecord, Op
from ..scalatrace.trace import Trace
from ..simmpi.collectives import Communicator
from ..simmpi.comm import ANY_SOURCE
from ..simmpi.launcher import RankContext, SpmdResult, run_spmd
from ..simmpi.simconfig import SimConfig
from ..simmpi.timing import NetworkModel, QDR_CLUSTER

#: tag used for all replayed point-to-point traffic
REPLAY_TAG = 7


@dataclass
class ReplayOp:
    """One scheduled operation for one replaying rank."""

    kind: str  # "send" | "recv" | "coll"
    sleep: float  # pre-op computation
    size: int
    peer: int | None = None  # send/recv: transposed endpoint (None=wildcard)
    op: Op | None = None  # collectives: which one
    group: tuple[int, ...] | None = None  # collectives: participant ranks
    root: int = 0
    key: tuple | None = None  # collectives: (op, stack_sig, comm) identity
    instance: int = 0  # collectives: this rank's occurrence index of key


@dataclass
class ReplayStats:
    """Read off the schedules, as built and as the completed attempt ran
    them (:func:`_execute`)."""

    ops_scheduled: int = 0
    ops_issued: int = 0
    p2p_dropped: int = 0  # p2p ops scheduled but not issued
    collectives: int = 0
    sends: int = 0
    recvs: int = 0
    deadlock_repairs: int = 0  # ops removed by deadlock recovery


@dataclass
class ReplayResult:
    """Outcome of replaying one trace."""

    time: float  # makespan (the paper's replay wall-clock)
    clocks: list[float]
    stats: ReplayStats
    total_messages: int = 0
    total_bytes: int = 0


def _mean_int(stat) -> int:
    return max(int(round(stat.mean)), 0) if stat.n else 0


def build_schedule(
    trace: Trace,
    nprocs: int,
    timing: str = "mean",
    seed: int = 0x5CA1AB1E,
) -> list[list[ReplayOp]]:
    """Pass 1: expand the trace into a per-rank operation schedule.

    Loop expansion yields each compressed record once per iteration; the
    per-record occurrence counter drives strided endpoint patterns (a master
    whose sends were compressed to ``dest = rank+1+i mod (P-1)`` fans back
    out to all workers).

    ``timing`` selects the compute-gap model: ``"mean"`` (deterministic,
    preserves total time exactly) or ``"sampled"`` (per-occurrence draws
    from the delta-time histograms — the probabilistic replay of Wu et
    al. [27]; seeded, so still reproducible).
    """
    if timing not in ("mean", "sampled"):
        raise ValueError(f"unknown timing mode {timing!r}")
    rng = random.Random(seed) if timing == "sampled" else None
    schedules: list[list[ReplayOp]] = [[] for _ in range(nprocs)]
    occurrences: dict[int, int] = {}
    for rec in trace.events():
        idx = occurrences.get(id(rec), 0)
        occurrences[id(rec)] = idx + 1
        _schedule_record(rec, idx, nprocs, schedules, rng)
    return schedules


def _resolve(ep, rank: int, occurrence: int, nprocs: int) -> int | None:
    """Absolute, in-range endpoint or None (wildcard / out of range)."""
    if ep is None:
        return None
    target = ep.resolve(rank, occurrence)
    if target is None or not (0 <= target < nprocs):
        return -1  # sentinel: endpoint exists but is unreplayable
    return target


def _schedule_record(
    rec: EventRecord,
    occurrence: int,
    nprocs: int,
    schedules: list[list[ReplayOp]],
    rng=None,
) -> None:
    members = [r for r in rec.participants.ranks() if r < nprocs]
    if not members:
        return
    sleep = rec.dhist.draw(rng) if rng is not None else rec.dhist.sample()
    size = _mean_int(rec.count)

    if rec.op.is_collective:
        group = tuple(members)
        root = rec.root if rec.root is not None else group[0]
        if root not in group:
            root = group[0]
        key = (rec.op.value, rec.stack_sig, rec.comm_id)
        for r in members:
            schedules[r].append(
                ReplayOp(
                    "coll", sleep, size, op=rec.op, group=group, root=root,
                    key=key,
                )
            )
        return

    if rec.op in (Op.SEND, Op.ISEND):
        for r in members:
            dest = _resolve(rec.dest, r, occurrence, nprocs)
            if dest is None or dest < 0:
                continue
            schedules[r].append(ReplayOp("send", sleep, size, peer=dest))
        return

    if rec.op in (Op.RECV, Op.IRECV):
        for r in members:
            src = _resolve(rec.src, r, occurrence, nprocs)
            if src is not None and src < 0:
                continue
            schedules[r].append(ReplayOp("recv", sleep, size, peer=src))
        return

    if rec.op is Op.SENDRECV:
        for r in members:
            dest = _resolve(rec.dest, r, occurrence, nprocs)
            src = _resolve(rec.src, r, occurrence, nprocs)
            if dest is not None and dest >= 0:
                schedules[r].append(ReplayOp("send", sleep, size, peer=dest))
                # the paired receive carries no extra compute gap
                sleep_recv = 0.0
            else:
                sleep_recv = sleep
            if src is None or src >= 0:
                schedules[r].append(
                    ReplayOp("recv", sleep_recv, size, peer=src)
                )


def communication_matrix(trace: Trace, nprocs: int | None = None) -> np.ndarray:
    """P x P matrix of the bytes rank i sends rank j when the trace is
    replayed: the ``size`` of every send op of :func:`build_schedule`."""
    nprocs = trace.nprocs if nprocs is None else nprocs
    matrix = np.zeros((nprocs, nprocs), dtype=np.float64)
    for r, sched in enumerate(build_schedule(trace, nprocs)):
        for op in sched:
            if op.kind == "send":
                matrix[r, op.peer] += op.size
    return matrix


def hotspots(matrix: np.ndarray, top: int = 5) -> list[tuple[int, float]]:
    """Ranks sending the most point-to-point bytes in a
    :func:`communication_matrix`: [(rank, bytes)]."""
    sent = matrix.sum(axis=1)
    order = np.argsort(sent)[::-1][:top]
    return [(int(r), float(sent[r])) for r in order if sent[r] > 0]


def coalesce_collectives(schedules: list[list[ReplayOp]]) -> int:
    """Reunify collective instances that compression split across variants.

    One source-level collective (identified by ``(op, stack_sig, comm)``)
    can appear as several trace records with partial participant groups when
    different position classes fold into different loop shapes.  Replaying
    those as independent sub-group collectives loses the original global
    synchronization and can even deadlock against interleaved point-to-point
    ordering.  This pass aligns each rank's *i*-th occurrence of a collective
    key with every other rank's *i*-th occurrence and rebuilds the true
    participant group: ``group_i = { r : rank r has > i occurrences }``,
    and stores ``i`` as each op's ``instance``.

    Returns the number of operations whose group changed.
    """
    nprocs = len(schedules)
    counts: dict[tuple, list[int]] = defaultdict(lambda: [0] * nprocs)
    for r, sched in enumerate(schedules):
        for op in sched:
            if op.kind == "coll" and op.key is not None:
                counts[op.key][r] += 1
    groups_by_key: dict[tuple, list[tuple[int, ...]]] = {}
    for key, per_rank in counts.items():
        max_occ = max(per_rank)
        groups_by_key[key] = [
            tuple(r for r in range(nprocs) if per_rank[r] > i)
            for i in range(max_occ)
        ]
    changed = 0
    seen: dict[tuple, list[int]] = defaultdict(lambda: [0] * nprocs)
    for r, sched in enumerate(schedules):
        for op in sched:
            if op.kind != "coll" or op.key is None:
                continue
            i = op.instance = seen[op.key][r]
            seen[op.key][r] = i + 1
            group = groups_by_key[op.key][i]
            if group != op.group:
                changed += 1
                op.group = group
                if op.root not in group:
                    op.root = group[0]
    return changed


def reconcile(schedules: list[list[ReplayOp]]) -> int:
    """Drop point-to-point ops with no counterpart; returns dropped count.

    Counts sends per (src → dst) and receives per (dst ← src); the excess on
    either side is removed from the tail.  Wildcard receives are matched
    against any leftover inbound sends.
    """
    nprocs = len(schedules)
    sends: dict[tuple[int, int], int] = defaultdict(int)
    recvs: dict[tuple[int, int], int] = defaultdict(int)
    wild: dict[int, int] = defaultdict(int)
    for r, sched in enumerate(schedules):
        for op in sched:
            if op.kind == "send":
                sends[(r, op.peer)] += 1
            elif op.kind == "recv":
                if op.peer is None:
                    wild[r] += 1
                else:
                    recvs[(op.peer, r)] += 1

    # match directed pairs, then wildcard receivers soak up leftovers
    drop_send: dict[tuple[int, int], int] = {}
    drop_recv: dict[tuple[int, int], int] = {}
    leftover_in: dict[int, int] = defaultdict(int)
    for key in set(sends) | set(recvs):
        s, q = sends.get(key, 0), recvs.get(key, 0)
        if s > q:
            leftover_in[key[1]] += s - q
        elif q > s:
            drop_recv[key] = q - s
    for dst in set(wild) | set(leftover_in):
        w, l = wild.get(dst, 0), leftover_in.get(dst, 0)
        if w > l:
            # too many wildcard receives: drop the excess
            drop_recv[(None, dst)] = w - l  # type: ignore[index]
        elif l > w:
            # unmatched inbound sends: drop them at their sources
            need = l - w
            for (src, d), cnt in sends.items():
                if d != dst or need <= 0:
                    continue
                unmatched = cnt - recvs.get((src, d), 0)
                take = min(max(unmatched, 0), need)
                if take:
                    drop_send[(src, d)] = drop_send.get((src, d), 0) + take
                    need -= take

    dropped = 0
    for r, sched in enumerate(schedules):
        kept: list[ReplayOp] = []
        for op in reversed(sched):  # drop from the tail
            if op.kind == "send" and drop_send.get((r, op.peer), 0) > 0:
                drop_send[(r, op.peer)] -= 1
                dropped += 1
                continue
            if op.kind == "recv":
                key = (op.peer, r) if op.peer is not None else (None, r)
                if drop_recv.get(key, 0) > 0:
                    drop_recv[key] -= 1  # type: ignore[index]
                    dropped += 1
                    continue
            kept.append(op)
        kept.reverse()
        schedules[r] = kept
    return dropped


def _collective_groups(schedules: list[list[ReplayOp]]) -> list[tuple[int, ...]]:
    """Distinct non-world participant groups, in deterministic order."""
    groups = {
        op.group
        for sched in schedules
        for op in sched
        if op.kind == "coll" and op.group is not None
    }
    return sorted(groups)


async def _issue_collective(
    comm: Communicator, op: ReplayOp, world_size: int
) -> None:
    group = op.group or tuple(range(comm.size))
    root_local = group.index(op.root) if op.root in group else 0
    size = op.size
    kind = op.op
    if kind is Op.BARRIER:
        await comm.barrier()
    elif kind is Op.BCAST:
        await comm.bcast(None, root=root_local, size=size)
    elif kind is Op.REDUCE:
        await comm.reduce(0.0, root=root_local, size=size)
    elif kind is Op.ALLREDUCE:
        await comm.allreduce(0.0, size=size)
    elif kind is Op.GATHER:
        await comm.gather(0.0, root=root_local, size=size)
    elif kind is Op.SCATTER:
        values = [None] * comm.size if comm.rank == root_local else None
        await comm.scatter(values, root=root_local, size=size)
    elif kind is Op.ALLGATHER:
        await comm.allgather(0.0, size=size)
    elif kind is Op.ALLTOALL:
        await comm.alltoall([None] * comm.size, size=size)
    elif kind is Op.SCAN:
        await comm.scan(0.0, size=size)
    else:  # pragma: no cover - schedule builder filters ops
        raise ValueError(f"unsupported collective {kind}")


@dataclass(frozen=True)
class Interval:
    """One activity span on a rank's timeline."""

    kind: str  # "compute" | "send" | "recv" | "coll"
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start


def replay_trace(
    trace: Trace,
    nprocs: int | None = None,
    network: NetworkModel = QDR_CLUSTER,
    timing: str = "mean",
    seed: int = 0x5CA1AB1E,
) -> ReplayResult:
    """Replay a trace on the simulated runtime and time it."""
    result, stats = _replay(trace, nprocs, network, timing, seed)
    return ReplayResult(
        time=result.max_time,
        clocks=result.clocks,
        stats=stats,
        total_messages=result.total_messages,
        total_bytes=result.total_bytes,
    )


def _replay(
    trace: Trace,
    nprocs: int | None,
    network: NetworkModel,
    timing: str = "mean",
    seed: int = 0x5CA1AB1E,
    intervals: list[list[Interval]] | None = None,
) -> tuple[SpmdResult, ReplayStats]:
    """Both passes: the schedule, reconciled, executed under the simulator
    with deadlock repair (:func:`_execute`)."""
    nprocs = trace.nprocs if nprocs is None else nprocs
    if nprocs < 1:
        raise ValueError("nprocs must be >= 1")
    schedules = build_schedule(trace, nprocs, timing=timing, seed=seed)
    return _execute(schedules, network, intervals)


def _kinds(schedules: list[list[ReplayOp]]) -> Counter:
    return Counter(op.kind for sched in schedules for op in sched)


def _execute(
    schedules: list[list[ReplayOp]],
    network: NetworkModel,
    intervals: list[list[Interval]] | None = None,
) -> tuple[SpmdResult, ReplayStats]:
    """Pass 2 on built ``schedules`` (edited in place): coalesce, reconcile,
    run under the simulator with deadlock repair.  Every statistic is read
    off the schedules: as built, and as the attempt that completed ran them
    (each rank issues its whole final schedule).  Given ``intervals`` (one
    list per rank), also records each rank's activity spans there, refilled
    every round."""
    nprocs = len(schedules)
    scheduled = _kinds(schedules)
    coalesce_collectives(schedules)
    reconcile(schedules)
    reconciled = sum(len(s) for s in schedules)
    world = tuple(range(nprocs))

    def attempt(run_schedules: list[list[ReplayOp]], progress: list[int]):
        groups = _collective_groups(run_schedules)

        async def main(ctx: RankContext):
            subcomms: dict[tuple[int, ...], Communicator] = {}
            for group in groups:
                if group == world:
                    subcomms[group] = ctx.comm
                    continue
                color = 0 if ctx.rank in group else -1
                sub = await ctx.comm.split(color, key=ctx.rank)
                if sub is not None:
                    subcomms[group] = sub
            mine = None if intervals is None else intervals[ctx.rank]
            pending = []  # outstanding sends: waited at the end so exchange
            # patterns recorded as send+recv cannot rendezvous-deadlock
            for i, op in enumerate(run_schedules[ctx.rank]):
                progress[ctx.rank] = i
                t0 = ctx.clock
                if op.sleep > 0:
                    ctx.compute(op.sleep)
                    if mine is not None:
                        mine.append(Interval("compute", t0, ctx.clock))
                        t0 = ctx.clock
                if op.kind == "send":
                    pending.append(
                        ctx.comm.isend(
                            op.peer, None, tag=REPLAY_TAG, size=op.size
                        )
                    )
                elif op.kind == "recv":
                    src = ANY_SOURCE if op.peer is None else op.peer
                    await ctx.comm.recv(src, tag=REPLAY_TAG)
                else:
                    comm = subcomms.get(op.group or world, ctx.comm)
                    await _issue_collective(comm, op, nprocs)
                if mine is not None:
                    mine.append(Interval(op.kind, t0, ctx.clock))
            progress[ctx.rank] = len(run_schedules[ctx.rank])
            for req in pending:
                await req.wait()

        return run_spmd(main, nprocs, config=SimConfig(network=network))

    # Deadlock repair: clustered traces can carry endpoint substitutions
    # that mis-target a few messages (the paper's <100% accuracy); if the
    # resulting schedule wedges, remove the blocked operations and retry.
    # Lossy clustering can likewise leave ranks disagreeing on a
    # collective's identity (e.g. different recorded roots); the gate
    # surfaces that as CollectiveMismatchError, repaired the same way but
    # touching only the disagreeing collective instances.  Each round
    # removes >= 1 op, so this terminates.
    from ..simmpi.errors import (
        CollectiveMismatchError,
        DeadlockError,
        TaskFailedError,
    )

    result = None
    for _round in range(reconciled + 1):
        progress = [0] * nprocs
        if intervals is not None:
            for spans in intervals:
                spans.clear()
        try:
            result = attempt(schedules, progress)
            break
        except DeadlockError:
            if _repair_deadlock(schedules, progress) == 0:
                raise
        except TaskFailedError as exc:
            if not isinstance(exc.original, CollectiveMismatchError):
                raise
            if _repair_deadlock(schedules, progress, colls_only=True) == 0:
                raise
    assert result is not None
    issued = _kinds(schedules)
    ops_issued = sum(issued.values())
    return result, ReplayStats(
        ops_scheduled=sum(scheduled.values()),
        ops_issued=ops_issued,
        p2p_dropped=(scheduled["send"] + scheduled["recv"]
                     - issued["send"] - issued["recv"]),
        collectives=issued["coll"],
        sends=issued["send"],
        recvs=issued["recv"],
        deadlock_repairs=reconciled - ops_issued,
    )


def _repair_deadlock(
    schedules: list[list[ReplayOp]], progress: list[int],
    colls_only: bool = False,
) -> int:
    """Remove the operations the deadlocked ranks were blocked on.

    A blocked receive is simply dropped.  A blocked collective instance is
    dropped from *every* rank that has not executed it yet (identified by
    its key and the instance index :func:`coalesce_collectives` gave it),
    keeping the collective sequence aligned.  Returns the number of removed
    operations.

    With ``colls_only`` (the collective-mismatch abort, where ranks not
    parked in the disputed gate were interrupted mid-flight, not blocked)
    only collective instances are removed — a receive at a rank's progress
    cursor may have been about to complete normally.
    """
    removed = 0
    colls_to_drop: set[tuple[tuple, int]] = set()  # (key, instance)
    for rank, sched in enumerate(schedules):
        i = progress[rank]
        if i >= len(sched):
            continue
        op = sched[i]
        if op.kind == "recv":
            if colls_only:
                continue
            del sched[i]
            removed += 1
        elif op.kind == "coll" and op.key is not None:
            colls_to_drop.add((op.key, op.instance))
        # blocked sends resolve at the end; they cannot wedge mid-schedule
    # each names one op per rank, so the drops commute: any order will do
    for key, instance in colls_to_drop:
        for rank, sched in enumerate(schedules):
            for idx in range(progress[rank], len(sched)):
                op = sched[idx]
                if (op.kind == "coll" and op.key == key
                        and op.instance == instance):
                    del sched[idx]
                    removed += 1
                    break
    return removed
