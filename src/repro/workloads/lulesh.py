"""LULESH: Lagrangian shock-hydrodynamics proxy-app skeleton.

The paper lists LULESH among the iterative codes that "report progress at
the end of kernel loops or timesteps" — the natural marker point.  The
communication structure per timestep (from the LLNL proxy app, which runs
on a perfect-cube process grid):

* ``CalcForceForNodes`` — nodal force ghost exchange with the (up to six)
  face neighbours of the 3-D decomposition, send-then-receive pairs;
* ``LagrangeElements`` — element ghost exchange (smaller messages, one
  round with the same neighbours, distinct call site);
* ``CalcTimeConstraints`` — two global ``MPI_Allreduce(MIN)`` calls for the
  Courant and hydro timestep constraints.

Interior / face / edge / corner ranks give up to 27 relative-encoding
behaviour classes in principle; at the modest cube sizes the simulator
uses (2³, 3³, 4³) the classes that actually occur stay well within
Chameleon's dynamic-K reach.
"""

from __future__ import annotations

from ..simmpi.collectives import MIN
from ..simmpi.launcher import RankContext
from ..simmpi.topology import cube_grid
from .base import Workload, declare_pattern

#: the six face directions of the 3-D decomposition
_FACES = (
    (1, 0, 0),
    (-1, 0, 0),
    (0, 1, 0),
    (0, -1, 0),
    (0, 0, 1),
    (0, 0, -1),
)
#: call-site table of one ghost exchange (script layout of ``_ghost_ops``):
#: the isends are one site issued in a loop, the recvs another
_GHOST_SITES = (
    ("isend",) * len(_FACES) + ("recv",) * len(_FACES) + (None,) * len(_FACES)
)


class LULESH(Workload):
    """Sedov-blast skeleton on a cube grid (P must be a perfect cube)."""

    name = "lulesh"
    paper_k = 9  # interior/face/edge/corner classes; dynamic-K covers more

    def __init__(
        self,
        edge_elems: int = 30,
        iterations: int = 20,
        compute_scale: float = 1.0,
    ) -> None:
        super().__init__(iterations=iterations, compute_scale=compute_scale)
        if edge_elems < 1:
            raise ValueError("edge_elems must be >= 1")
        self.edge_elems = edge_elems

    def validate(self, nprocs: int) -> None:
        super().validate(nprocs)
        cube_grid(nprocs)  # raises for non-cubes

    def face_bytes(self) -> int:
        # one face of nodal fields: (edge+1)^2 nodes x 3 components x 8 B
        return 8 * 3 * (self.edge_elems + 1) ** 2

    def elem_bytes(self) -> int:
        return 8 * self.edge_elems**2

    def step_seconds(self) -> float:
        return self.edge_elems**3 * 6.0e-8

    def _ghost_ops(self, nprocs: int, tag: int, nbytes: int) -> list:
        """Per-rank scripts of one ghost exchange: all live-face isends,
        then the matching receives, then the waits in posting order."""
        grid = cube_grid(nprocs)
        ops = []
        for rank in range(nprocs):
            row: list = []
            n_isends = 0
            for i, d in enumerate(_FACES):
                peer = grid.neighbor(rank, *d)
                if peer is not None:
                    row.append(("isend", peer, tag + i, nbytes))
                    n_isends += 1
                else:
                    row.append(None)
            for i, d in enumerate(_FACES):
                opposite = i ^ 1
                peer = grid.neighbor(rank, *d)
                row.append(
                    ("recv", peer, tag + opposite) if peer is not None else None
                )
            for j in range(len(_FACES)):
                row.append(("wait", j) if j < n_isends else None)
            ops.append(row)
        return ops

    async def _ghost_exchange(
        self, ctx: RankContext, tracer, tag: int, nbytes: int
    ) -> None:
        pattern = declare_pattern(
            "lulesh-ghost", ctx.size, (tag, nbytes),
            lambda: self._ghost_ops(ctx.size, tag, nbytes),
            sites=_GHOST_SITES,
        )
        await tracer.exchange(pattern, compute=ctx.compute)

    async def timestep(self, ctx: RankContext, tracer, step: int) -> None:
        work = self.step_seconds()
        with ctx.frame("CalcForceForNodes"):
            self.compute(ctx, 0.55 * work)
            await self._ghost_exchange(
                ctx, tracer, tag=70, nbytes=self.face_bytes()
            )
        with ctx.frame("LagrangeElements"):
            self.compute(ctx, 0.35 * work)
            await self._ghost_exchange(
                ctx, tracer, tag=80, nbytes=self.elem_bytes()
            )
        with ctx.frame("CalcTimeConstraints"):
            self.compute(ctx, 0.1 * work)
            await tracer.allreduce(1.0, op=MIN, size=8)
            await tracer.allreduce(1.0, op=MIN, size=8)
