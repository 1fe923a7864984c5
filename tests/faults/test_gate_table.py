"""A gate never outlives its instance, crash or no crash.

``CommContext._gates`` holds the open gates of a communicator.  A gate
leaves the table once every *live* rank has consulted it: a rank that
crashed can never consult, so the crash sweep (``CommContext.rank_died``)
stops every open gate — and every later one — from waiting for it.  Before
that, each collective instance the dead rank never reached stayed in the
table for the rest of the run.
"""

import pytest

from repro.faults.plan import CrashFault, FaultPlan
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
