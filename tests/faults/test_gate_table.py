"""A gate never outlives its instance, crash or no crash.

``CommContext._gates`` holds the open gates of a communicator.  A gate
leaves the table once every *live* rank has consulted it: a rank that
crashed can never consult, so the crash sweep (``CommContext.rank_died``)
stops every open gate — and every later one — from waiting for it.  Before
that, each collective instance the dead rank never reached stayed in the
table for the rest of the run.
"""

import pytest

from repro.faults import LOST
from repro.faults.plan import ComputeFault, CrashFault, FaultPlan
from repro.simmpi import NeighborPattern, run_spmd

from ..gates import SIMULATED

NPROCS = 8


def _ring(size: int) -> NeighborPattern:
    return NeighborPattern("gate-table-ring", size, [
        [("isend", (r + 1) % size, 0, 8), ("recv", (r - 1) % size, 0),
         ("wait", 0)]
        for r in range(size)
    ])


def _run(plan, config=None):
    """50 iterations of world allreduce + exchange + sub-communicator
    barrier; returns the result and every context the run created."""
    contexts = {}
    pattern = _ring(NPROCS)

    async def prog(ctx):
        comm = ctx.comm
        sub = await comm.split(color=ctx.rank % 2, key=ctx.rank)
        contexts[comm.context.id] = comm.context
        contexts[sub.context.id] = sub.context
        for _ in range(50):
            await comm.allreduce(ctx.rank)
            await comm.exchange(pattern, compute=ctx.compute)
            await sub.barrier()
            ctx.compute(1e-3)
        return ctx.rank

    return run_spmd(prog, NPROCS, faults=plan, config=config), contexts


@pytest.mark.parametrize("config", (
    None, SIMULATED))
class TestGateTable:
    def test_empty_after_a_fault_free_run(self, config):
        res, contexts = _run(None, config)
        assert res.failed_ranks == ()
        assert len(contexts) == 3  # world + two halves
        for ctx in contexts.values():
            assert ctx._gates == {}
            assert ctx.gate_quorum == ctx.size

    def test_empty_after_a_crashed_run(self, config):
        plan = FaultPlan(crashes=(CrashFault(rank=3, time=0.01),))
        res, contexts = _run(plan, config)
        assert res.failed_ranks == (3,)
        for ctx in contexts.values():
            assert ctx._gates == {}
            # later gates wait for the live members only
            assert ctx.gate_quorum == ctx.size - (3 in ctx.local_of)


def test_entry_released_while_parked_is_not_written_back():
    """A fast gate whose first joiner an op-timeout releases before the
    quorum is in.  Rank 0 parks in the barrier; rank 1 waits for a message
    rank 0 sends only after it.  A compute-only plan arms the timeout
    backstop but leaves the barrier eligible, so the release resolves
    rank 0's gate future with ``LOST``, and rank 0 moves on.  When rank 1
    then completes the gate, ``_Gate.complete`` skips the released entry:
    its replayed join snapshot must not overwrite rank 0's clock, and its
    future is not resolved twice."""
    plan = FaultPlan(compute=(ComputeFault(rank=0, slowdown=2.0),))
    seen = {}

    async def prog(ctx):
        comm = ctx.comm
        if ctx.rank == 0:
            seen[0] = await comm.barrier()
            seen["after_release"] = ctx.clock
            await comm.send(1, "x", tag=1)
        else:
            await comm.recv(0, tag=1)
            seen[1] = await comm.barrier()
        return ctx.clock

    res = run_spmd(prog, 2, faults=plan)
    assert res.failed_ranks == ()
    assert res.collectives_fast == 2 and res.collectives_simulated == 0
    assert res.fault_summary["timeout"] == 1
    assert seen[0] is LOST and seen[1] is None
    # released at its join clock (0) plus the timeout, and the clock rank
    # 0 finished its program with is the one the run reports
    assert seen["after_release"] == plan.op_timeout
    assert res.clocks[0] == res.results[0]
