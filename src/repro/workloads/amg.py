"""AMG: algebraic-multigrid V-cycle skeleton.

An extension workload (not in the paper's evaluation) with a communication
structure that stresses the compressor differently from the stencil codes:
each timestep runs a V-cycle over ``levels`` grid levels; message sizes
shrink geometrically down the hierarchy and the *same call site* is visited
once per level with different payloads — exercising ParamStat merging —
while coarse levels engage fewer ranks (strided sub-groups), exercising
ranklist factorization and partial-group collectives.
"""

from __future__ import annotations

from ..simmpi.launcher import RankContext
from .base import Workload, declare_pattern


class AMG(Workload):
    """V-cycle solver skeleton on a 1-D rank partition."""

    name = "amg"
    paper_k = 9

    def __init__(
        self,
        fine_points: int = 1 << 16,
        levels: int = 4,
        iterations: int = 10,
        compute_scale: float = 1.0,
    ) -> None:
        super().__init__(iterations=iterations, compute_scale=compute_scale)
        if levels < 1:
            raise ValueError("levels must be >= 1")
        self.fine_points = fine_points
        self.levels = levels

    def level_bytes(self, level: int, nprocs: int) -> int:
        points = max(self.fine_points >> (2 * level), 1)
        return 8 * max(points // nprocs, 1)

    def active_stride(self, level: int) -> int:
        """Coarser levels keep every 2^level-th rank active."""
        return 1 << level

    def _smooth_ops(self, nprocs: int, level: int) -> list:
        """Per-rank scripts of one level's smoothing step; ranks inactive at
        this level get empty scripts (they still consult the gate — the
        declared path is hoisted above the early return so the exchange
        stays collective over the world)."""
        stride = self.active_stride(level)
        nbytes = self.level_bytes(level, nprocs)
        ops: list = []
        for rank in range(nprocs):
            if rank % stride != 0:
                ops.append(())
                continue
            left = rank - stride
            right = rank + stride
            seconds = max(self.fine_points >> (2 * level), 1) / nprocs * 2e-8
            ops.append((
                ("isend", right, 90 + level, nbytes)
                if right < nprocs else None,
                ("recv", left, 90 + level) if left >= 0 else None,
                ("wait", 0) if right < nprocs else None,
                ("compute", seconds * self.compute_scale),
            ))
        return ops

    async def _smooth(self, ctx: RankContext, tracer, level: int) -> None:
        """Jacobi smoothing halo exchange among the level's active ranks."""
        pattern = declare_pattern(
            "amg-smooth", ctx.size,
            (level, self.fine_points, self.compute_scale),
            lambda: self._smooth_ops(ctx.size, level),
            sites=("isend", "recv", None, None),
        )
        await tracer.exchange(pattern, compute=ctx.compute)

    async def timestep(self, ctx: RankContext, tracer, step: int) -> None:
        # down-sweep: smooth and restrict
        for level in range(self.levels):
            with ctx.frame("smooth_down"):
                await self._smooth(ctx, tracer, level)
        # coarse solve: a reduction among the coarsest active ranks only is
        # approximated with a world allreduce of the coarse residual
        with ctx.frame("coarse_solve"):
            await tracer.allreduce(0.0, size=8)
        # up-sweep: prolong and smooth
        for level in range(self.levels - 1, -1, -1):
            with ctx.frame("smooth_up"):
                await self._smooth(ctx, tracer, level)
        with ctx.frame("residual_norm"):
            await tracer.allreduce(0.0, size=8)
