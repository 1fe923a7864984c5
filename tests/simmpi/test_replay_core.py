"""The shared scalar replay core and the one statement of the LogGP
arithmetic, exercised directly.

The bit-identity fuzz suites reach :class:`repro.simmpi.replay.Replay`
only through the gates; here a collective schedule and a declared-pattern
script go through the *same* engine type by hand and are compared with the
message-level run, one hand-written schedule goes through both of its
interpreters (``Replay`` and ``Communicator._drive``) directly, and the
behaviours only the core owns (failure capture, deadlock diagnosis,
multi-message lanes) are pinned one by one.  The
property tests hold the array helpers of ``NetworkModel`` — and the replay
core's hoisted copy — to the scalar helpers bit for bit.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.simmpi import (
    QDR_CLUSTER,
    DeadlockError,
    NeighborPattern,
    NetworkModel,
    SimConfig,
    run_spmd,
)
from repro.simmpi.collectives import _GEN_FACTORIES, SUM
from repro.simmpi.errors import TaskFailedError
from repro.simmpi.patterns import _g_script
from repro.simmpi.replay import EAGER_DONE, RankState, Replay

from ..gates import SIMULATED

EAGER, RENDEZVOUS = 512, 1 << 17
SKEW = 3e-7  # per-rank start skew, so arrival times differ across ranks


class _Task:
    """A joining task: rank ``r`` joins after ``r * SKEW`` of compute."""

    def __init__(self, rank: int) -> None:
        self.clock = self.busy = rank * SKEW
        self.msgs_sent = self.bytes_sent = 0
        self.msgs_received = self.bytes_received = 0


def _replay(schedules, collect=False) -> Replay:
    states = [RankState(r, _Task(r)) for r in range(len(schedules))]
    for st, gen in zip(states, schedules):
        st.gen = gen
        if collect:
            st.events = []
    sim = Replay(QDR_CLUSTER, states)
    sim.run()
    return sim


def _assert_matches(sim: Replay, res) -> None:
    states = [sim.states[r] for r in range(res.nprocs)]
    assert [st.clock for st in states] == res.clocks
    assert [st.busy for st in states] == res.busy_times
    assert sim.total_messages == res.total_messages
    assert sim.total_bytes == res.total_bytes
    assert all(st.done for st in states)


# -- one engine, both schedule sources ---------------------------------------


@pytest.mark.parametrize("nbytes", [EAGER, RENDEZVOUS],
                         ids=["eager", "rendezvous"])
@pytest.mark.parametrize("kind", ["bcast", "allgather", "scan"])
def test_collective_schedule_matches_message_level(kind, nbytes):
    """bcast/scan use the fused ``send``, allgather ``isend`` + ``wait``."""
    size = 6
    genargs = {"bcast": lambda r: (2, "v", nbytes),
               "allgather": lambda r: (r, nbytes),
               "scan": lambda r: (r + 1, SUM, nbytes)}[kind]

    async def prog(ctx):
        ctx.compute(ctx.rank * SKEW)
        comm = ctx.comm
        if kind == "bcast":
            return await comm.bcast("v", root=2, size=nbytes)
        if kind == "allgather":
            return await comm.allgather(ctx.rank, size=nbytes)
        return await comm.scan(ctx.rank + 1, size=nbytes)

    res = run_spmd(prog, size, config=SIMULATED)
    sim = _replay([_GEN_FACTORIES[kind](r, size, *genargs(r))
                   for r in range(size)])
    _assert_matches(sim, res)
    assert [sim.states[r].result for r in range(size)] == res.results


def _busy_pattern(nbytes: int) -> NeighborPattern:
    """Every op kind, with two messages in flight on the 0->1 tag-7 lane
    before either is received."""
    return NeighborPattern("core", 3, [
        [("isend", 1, 7, nbytes), ("isend", 1, 7, 64), ("compute", 2e-6),
         ("recv", 2, 1), ("wait", 0), ("wait", 1)],
        [("compute", 5e-6), ("recv", 0, 7), ("recv", 0, 7),
         ("send", 2, 3, nbytes)],
        [("recv", 1, 3), ("send", 0, 1, 64)],
    ])


@pytest.mark.parametrize("nbytes", [EAGER, RENDEZVOUS],
                         ids=["eager", "rendezvous"])
def test_pattern_script_matches_message_level(nbytes):
    pattern = _busy_pattern(nbytes)

    async def prog(ctx):
        ctx.compute(ctx.rank * SKEW)
        await ctx.comm.exchange(pattern, compute=ctx.compute)

    res = run_spmd(prog, 3, config=SIMULATED)
    sim = _replay([_g_script(ops) for ops in pattern.ops], collect=True)
    _assert_matches(sim, res)
    # the lane delivered in FIFO order: rank 1's two receives saw the big
    # message first, and every send/recv left an obs event
    recvs = [ev for ev in sim.states[1].events if ev[0] == "r"]
    assert [ev[5] for ev in recvs] == [nbytes, 64]
    assert recvs[0][6] is (nbytes > QDR_CLUSTER.eager_threshold)
    sends = sum(ev[0] == "s" for st in sim.states.values()
                for ev in st.events)
    assert sends == pattern.total_messages


def _relay(rank: int, size: int, nbytes: int):
    """A schedule no collective or pattern states: a ring shift overlapped
    with compute, then everyone reports to rank 0 — every op kind once."""
    req = yield ("isend", (rank + 1) % size, 0, rank, nbytes)
    yield ("compute", 2e-6 * (rank + 1))
    got = yield ("recv", (rank - 1) % size, 0)
    if req is not EAGER_DONE:
        yield ("wait", req)
    if rank:
        yield ("send", 0, 1, 10 * got + rank, nbytes)
        return got
    reports = []
    for src in range(1, size):
        reports.append((yield ("recv", src, 1)))
    return reports


@pytest.mark.parametrize("nbytes", [EAGER, RENDEZVOUS],
                         ids=["eager", "rendezvous"])
def test_one_schedule_object_type_through_both_interpreters(nbytes):
    size = 5

    async def prog(ctx):
        ctx.compute(ctx.rank * SKEW)
        return await ctx.comm._drive(_relay(ctx.rank, size, nbytes), 40)

    res = run_spmd(prog, size)
    sim = _replay([_relay(r, size, nbytes) for r in range(size)])
    _assert_matches(sim, res)
    assert [sim.states[r].result for r in range(size)] == res.results
    assert res.results[0] == [1, 12, 23, 34]
    assert res.messages_matched == res.total_messages == 2 * size - 1


# -- behaviour only the core owns --------------------------------------------


def test_raising_reduction_surfaces_on_the_right_rank():
    def picky(a, b):
        if a + b >= 5:
            raise ArithmeticError("too big")
        return a + b

    async def prog(ctx):
        return await ctx.comm.reduce(ctx.rank, op=picky, root=0)

    with pytest.raises(TaskFailedError) as ei:
        run_spmd(prog, 4, config=SIMULATED)
    sim = _replay([_GEN_FACTORIES["reduce"](r, 4, 0, r, picky, None)
                   for r in range(4)])
    assert isinstance(sim.failure, ArithmeticError)
    assert sim.failed_state.rank == ei.value.rank
    # the same failure through the gate lands on the same rank
    with pytest.raises(TaskFailedError) as fast:
        run_spmd(prog, 4)
    assert fast.value.rank == ei.value.rank
    assert isinstance(fast.value.original, ArithmeticError)


def test_mutual_rendezvous_sends_deadlock_naming_blocked_ranks():
    pattern = NeighborPattern("knot", 3, [
        [("send", 1, 0, RENDEZVOUS), ("recv", 1, 0)],
        [("send", 0, 0, RENDEZVOUS), ("recv", 0, 0)],
        [],
    ])
    with pytest.raises(DeadlockError) as ei:
        _replay([_g_script(ops) for ops in pattern.ops])
    assert len(ei.value.blocked) == 2
    assert ei.value.blocked[0].startswith("rank 0: replay blocked on ('send', 1")
    assert ei.value.blocked[1].startswith("rank 1: replay blocked on ('send', 0")

    async def prog(ctx):
        await ctx.comm.exchange(pattern)

    for config in (SimConfig(), SIMULATED):  # same verdict either way
        with pytest.raises((DeadlockError, TaskFailedError)) as run:
            run_spmd(prog, 3, config=config)
        err = getattr(run.value, "original", run.value)
        assert isinstance(err, DeadlockError)


# -- one statement of the LogGP arithmetic -----------------------------------


def _interesting_sizes(net: NetworkModel, rng: random.Random) -> list[int]:
    around = [net.min_message_bytes, net.eager_threshold]
    sizes = [max(0, a + d) for a in around for d in (-2, -1, 0, 1, 2)]
    return sizes + [rng.randrange(0, 4 * net.eager_threshold + 1024)
                    for _ in range(40)]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_array_helpers_agree_with_scalar_helpers_bitwise(seed):
    rng = random.Random(seed)
    net = NetworkModel(latency=rng.uniform(1e-7, 1e-5),
                       bandwidth=rng.uniform(1e8, 1e10),
                       o_send=rng.uniform(1e-8, 1e-6),
                       o_recv=rng.uniform(1e-8, 1e-6),
                       eager_threshold=rng.choice([0, 1024, 65536]),
                       min_message_bytes=rng.choice([0, 8, 64]))
    sizes = _interesting_sizes(net, rng)
    post = [rng.uniform(0, 1e-3) for _ in sizes]
    sent = [rng.uniform(0, 1e-3) for _ in sizes]
    nb = np.array(sizes, dtype=np.int64)
    post_a = np.array(post)
    sent_a = np.array(sent)

    assert net.transfer_time_array(nb).tolist() == \
        [net.transfer_time(n) for n in sizes]
    # match_start is the eager completion (msg_time = arrival) ...
    assert net.match_start_array(post_a, sent_a).tolist() == \
        [net.eager_recv_complete(p, s) for p, s in zip(post, sent)]
    assert net.eager_round_array(sent_a, post_a).tolist() == \
        [net.eager_recv_complete(p, s + net.latency)
         for p, s in zip(post, sent)]
    # ... and the rendezvous wire start (msg_time = send_ready)
    start = net.match_start_array(post_a, sent_a)
    transfer = net.transfer_time_array(nb)
    times = [net.rendezvous_times(s, p, net.transfer_time(n), net.latency)
             for s, p, n in zip(sent, post, sizes)]
    assert (start + transfer).tolist() == [t[0] for t in times]
    assert ((start + net.latency) + transfer).tolist() == \
        [t[1] for t in times]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_replay_core_hoisted_copy_agrees_with_helpers_bitwise(seed):
    """One message per size through the core: its inlined eager charge and
    completion must be the helpers' values exactly."""
    rng = random.Random(seed)
    net = QDR_CLUSTER
    for nbytes in _interesting_sizes(net, rng):
        c0, c1 = rng.uniform(0, 1e-4), rng.uniform(0, 1e-4)

        def sender():
            yield ("send", 1, 0, None, nbytes)

        def receiver():
            yield ("recv", 0, 0)

        states = [RankState(0, _Task(0)), RankState(1, _Task(1))]
        states[0].clock, states[1].clock = c0, c1
        states[0].gen, states[1].gen = sender(), receiver()
        Replay(net, states).run()
        if net.eager(nbytes):
            sent = c0 + net.eager_send_cost(nbytes)
            assert states[0].clock == sent
            assert states[1].clock == max(
                c1, net.eager_recv_complete(c1, sent + net.latency))
        else:
            done_send, done_recv = net.rendezvous_times(
                c0 + net.o_send, c1, net.transfer_time(nbytes), net.latency)
            assert states[0].clock == done_send
            assert states[1].clock == done_recv
