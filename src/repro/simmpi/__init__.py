"""repro.simmpi — a deterministic, virtual-time simulated MPI runtime.

This package substitutes for a real MPI installation (see DESIGN.md): ranks
are coroutines scheduled deterministically, point-to-point messages follow
MPI matching semantics with eager/rendezvous protocols under a LogGP-style
cost model, and collectives use the classic tree/dissemination algorithms so
their virtual cost scales the way real implementations do.

Quick start::

    from repro.simmpi import run_spmd

    async def main(ctx):
        value = await ctx.comm.allreduce(ctx.rank)
        return value

    result = run_spmd(main, nprocs=8)
    assert result.results == [28] * 8
"""

from .collectives import BOR, LAND, LOR, MAX, MIN, PROD, SUM, Communicator
from .comm import ANY_SOURCE, ANY_TAG, Comm, CommContext, Request, wait_all
from .datatypes import doubles, ints, payload_nbytes
from .engine import Engine, Task, TaskState
from .errors import (
    CollectiveMismatchError,
    CommunicatorError,
    DeadlockError,
    EngineLimitError,
    MatchingError,
    PatternMismatchError,
    RankCrashedError,
    SimMPIError,
    TaskFailedError,
)
from .futures import SimFuture
from .launcher import RankContext, SpmdResult, run_spmd
from .patterns import NeighborPattern
from .rankstate import RankStateColumns
from .simconfig import DEFAULT_CONFIG, SimConfig
from .timing import QDR_CLUSTER, SLOW_CLUSTER, ZERO_COST, NetworkModel
from .topology import (
    Grid2D,
    Grid3D,
    RadixTree,
    binomial_children,
    binomial_parent,
    cube_grid,
    hypercube_neighbors,
    square_grid,
)

__all__ = [
    "ANY_SOURCE",
    "ANY_TAG",
    "BOR",
    "Comm",
    "CommContext",
    "CollectiveMismatchError",
    "Communicator",
    "CommunicatorError",
    "DEFAULT_CONFIG",
    "DeadlockError",
    "Engine",
    "EngineLimitError",
    "Grid2D",
    "Grid3D",
    "LAND",
    "LOR",
    "MAX",
    "MIN",
    "MatchingError",
    "NeighborPattern",
    "NetworkModel",
    "PROD",
    "PatternMismatchError",
    "QDR_CLUSTER",
    "RadixTree",
    "RankCrashedError",
    "RankContext",
    "RankStateColumns",
    "Request",
    "SLOW_CLUSTER",
    "SUM",
    "SimConfig",
    "SimFuture",
    "SimMPIError",
    "SpmdResult",
    "Task",
    "TaskFailedError",
    "TaskState",
    "ZERO_COST",
    "binomial_children",
    "binomial_parent",
    "cube_grid",
    "doubles",
    "hypercube_neighbors",
    "ints",
    "payload_nbytes",
    "run_spmd",
    "square_grid",
    "wait_all",
]
