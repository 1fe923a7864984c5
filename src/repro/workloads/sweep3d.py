"""Sweep3D: wavefront particle-transport skeleton.

Sweep3D solves the 3-D discrete-ordinates transport equation with a
multidimensional wavefront over a 2-D process grid: for each of the eight
octants (sweep directions), every rank receives the upstream angular fluxes
from its two upstream neighbours, computes its blocks, and forwards the
downstream faces.  All octants go through the same ``sweep`` routine —
one call site — so the Call-Path stays stable across timesteps even though
the neighbour *direction* changes per octant, which the relative endpoint
encodings capture as distinct (per-direction) events.

The paper notes Sweep3D's load imbalance (pipeline fill/drain means corner
ranks idle more): we model it with a position-dependent compute factor,
which lands in the delta-time histograms exactly as the paper describes.
"""

from __future__ import annotations

from ..simmpi.launcher import RankContext
from ..simmpi.topology import square_grid
from .base import Workload, declare_pattern

#: the eight octants as (di, dj) sweep directions, each appearing twice
#: (two k-block sweeps per direction pair in the real code)
_OCTANTS = [
    (1, 1),
    (1, -1),
    (-1, 1),
    (-1, -1),
    (1, 1),
    (1, -1),
    (-1, 1),
    (-1, -1),
]


class Sweep3D(Workload):
    """The S3D rows of the paper's evaluation."""

    name = "sweep3d"
    paper_k = 9

    def __init__(
        self,
        nx: int = 100,
        ny: int = 100,
        nz: int = 1000,
        iterations: int = 10,
        compute_scale: float = 1.0,
        weak_scaling: bool = False,
    ) -> None:
        super().__init__(iterations=iterations, compute_scale=compute_scale)
        self.nx, self.ny, self.nz = nx, ny, nz
        self.weak_scaling = weak_scaling

    def points_per_rank(self, nprocs: int) -> float:
        total = float(self.nx * self.ny * self.nz)
        return total if self.weak_scaling else total / nprocs

    def face_bytes(self, nprocs: int) -> int:
        grid = square_grid(nprocs)
        if self.weak_scaling:
            cells = self.nx * self.nz
        else:
            cells = (self.nx // max(grid.rows, 1)) * self.nz
        return 8 * 6 * max(cells, 1)  # 6 angles per block face

    def _octant_ops(self, nprocs: int, di: int, dj: int, fb: int) -> list:
        """Per-rank scripts of one octant sweep.  The recv-before-send
        dependency chain cannot slot-align (each recv pairs with a *later*
        send slot), so the gate replays this with the scalar script tier —
        still one engine step for the whole wavefront."""
        grid = square_grid(nprocs)
        ops = []
        for rank in range(nprocs):
            row, col = grid.coords(rank)
            # position-dependent imbalance: ranks near the sweep origin
            # start earlier and wait longer at the far corner (paper:
            # "Sweep3D exhibits load imbalance")
            imbalance = 1.0 + 0.05 * ((row + col) % 4)
            work = self.points_per_rank(nprocs) * 1.5e-8 * imbalance / len(
                _OCTANTS
            )
            up_i = grid.neighbor(rank, -di, 0)
            up_j = grid.neighbor(rank, 0, -dj)
            down_i = grid.neighbor(rank, di, 0)
            down_j = grid.neighbor(rank, 0, dj)
            ops.append((
                ("recv", up_i, 30) if up_i is not None else None,
                ("recv", up_j, 31) if up_j is not None else None,
                ("compute", work * self.compute_scale),
                ("send", down_i, 30, fb) if down_i is not None else None,
                ("send", down_j, 31, fb) if down_j is not None else None,
            ))
        return ops

    async def timestep(self, ctx: RankContext, tracer, step: int) -> None:
        fb = self.face_bytes(ctx.size)
        for di, dj in _OCTANTS:
            with ctx.frame("sweep"):
                pattern = declare_pattern(
                    "sweep3d-octant", ctx.size,
                    (di, dj, fb, self.nx, self.ny, self.nz,
                     self.weak_scaling, self.compute_scale),
                    lambda di=di, dj=dj: self._octant_ops(ctx.size, di, dj, fb),
                    sites=("recv_i", "recv_j", None, "send_i", "send_j"),
                )
                await tracer.exchange(pattern, compute=ctx.compute)
        with ctx.frame("flux_err"):
            await tracer.allreduce(0.0, size=8)
