"""POP: Parallel Ocean Program skeleton with irregular convergence.

POP alternates two phases per timestep (paper §IV/§V):

* **baroclinic** — regular 9-point stencil halo updates on the 2-D block
  decomposition (here: the four cardinal ``sendrecv`` exchanges);
* **barotropic** — a conjugate-gradient surface-pressure solver whose inner
  iteration count is *data dependent*: the number of halo+allreduce rounds
  varies per timestep.  The convergence count is identical on all ranks
  (it is a global residual test) but differs across timesteps, which makes
  the interval Call-Path signature fluctuate.

The paper states POP still clusters into 3 groups because Chameleon applies
the *automatic filter from [2]* to call parameters so the pattern becomes
regular; this reproduction implements that filter as the ``dedup``
signature mode (:class:`repro.core.SignatureAccumulator`), which hashes
the set of distinct call sites rather than the full event sequence.
"""

from __future__ import annotations

from ..simmpi.launcher import RankContext
from ..simmpi.topology import square_grid
from .base import Workload, declare_pattern


def convergence_iters(step: int, base: int = 12, spread: int = 8) -> int:
    """Deterministic pseudo-data-dependent solver iteration count."""
    # a small multiplicative hash gives an irregular but reproducible walk
    return base + (step * 2654435761 >> 7) % spread


class POP(Workload):
    """One-degree-grid POP skeleton (896x896 blocks of 16x16 in the paper)."""

    name = "pop"
    paper_k = 3
    #: POP needs the parameter filter to cluster (paper §V) — the harness
    #: reads this attribute to pick the Chameleon signature mode.
    needs_signature_filter = True

    def __init__(
        self,
        grid_points: int = 896,
        block: int = 16,
        iterations: int = 20,
        compute_scale: float = 1.0,
    ) -> None:
        super().__init__(iterations=iterations, compute_scale=compute_scale)
        self.grid_points = grid_points
        self.block = block

    def halo_bytes(self, nprocs: int) -> int:
        grid = square_grid(nprocs)
        cols = max(self.grid_points // max(grid.cols, 1), self.block)
        return 8 * 2 * cols  # two ghost rows of doubles

    def points_per_rank(self, nprocs: int) -> float:
        return float(self.grid_points * self.grid_points) / nprocs

    def _halo_ops(self, nprocs: int, tag: int, size: int) -> list:
        """Per-rank op scripts of one halo update, slot-aligned (``None``
        placeholders on edge ranks) so the macro gate can vectorize it."""
        grid = square_grid(nprocs)
        ops = []
        for rank in range(nprocs):
            row: list = []
            n_isends = 0
            for fwd_of, bwd_of in (
                (grid.east, grid.west),
                (grid.south, grid.north),
            ):
                fwd, bwd = fwd_of(rank), bwd_of(rank)
                if fwd is not None:
                    row.append(("isend", fwd, tag, size))
                    k = n_isends
                    n_isends += 1
                else:
                    row.append(None)
                    k = None
                row.append(("recv", bwd, tag) if bwd is not None else None)
                row.append(("wait", k) if k is not None else None)
            ops.append(row)
        return ops

    async def _halo(self, ctx: RankContext, tracer, tag: int, size: int) -> None:
        pattern = declare_pattern(
            "pop-halo", ctx.size, (tag, size),
            lambda: self._halo_ops(ctx.size, tag, size),
            sites=("isend", "recv", None) * 2,
        )
        await tracer.exchange(pattern, compute=ctx.compute)

    async def timestep(self, ctx: RankContext, tracer, step: int) -> None:
        hb = self.halo_bytes(ctx.size)
        work = self.points_per_rank(ctx.size) * 2.5e-8
        with ctx.frame("baroclinic"):
            self.compute(ctx, 0.6 * work)
            await self._halo(ctx, tracer, tag=40, size=hb)
        with ctx.frame("barotropic"):
            inner = convergence_iters(step)
            per_iter = 0.4 * work / inner
            for _ in range(inner):
                self.compute(ctx, per_iter)
                await self._halo(ctx, tracer, tag=41, size=hb // 2)
                await tracer.allreduce(0.0, size=8)
