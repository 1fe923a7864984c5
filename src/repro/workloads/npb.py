"""NAS Parallel Benchmark communication skeletons: BT, SP, LU (+CG).

Each skeleton reproduces the benchmark's documented communication structure
on a 2-D process grid with the standard class A–D problem sizes and paper
iteration counts:

* **BT / SP** — ADI solvers: per timestep, three directional solve phases
  (``x_solve``, ``y_solve``, ``z_solve``) each exchanging faces with the
  forward/backward grid neighbour, plus a boundary ``copy_faces`` exchange.
  Three relative-encoding behaviour groups emerge (interior / first / last
  column-row), matching the paper's K=3 for BT and SP (Table I).
* **LU** — SSOR: per timestep a lower-triangular wavefront sweep (``blts``:
  receive from north/west, send to south/east), the mirrored upper sweep
  (``buts``), and an ``l2norm`` allreduce.  Nine relative-encoding groups
  (corner/edge/interior of the 2-D grid) match the paper's K=9.
* **LUW** — LU under weak scaling: per-rank subdomain fixed as P grows.
* **CG** — conjugate gradient on a CSR sparse matrix: transpose exchange +
  dot-product allreduces; included for the irregular-codes discussion.

Compute models charge virtual time proportional to per-rank grid points;
message sizes are the real face sizes in doubles.
"""

from __future__ import annotations

from ..simmpi.launcher import RankContext
from ..simmpi.topology import Grid2D, square_grid
from .base import ProblemClass, Workload, declare_pattern

#: NPB problem classes (grid points per dimension, timesteps) — BT/SP/LU
#: use the same grids; iteration counts follow the benchmark specs
#: (BT 200→ paper runs 250 markers on class D; we keep the spec values
#: and let the harness scale iterations).
CLASSES_BT = {
    "A": ProblemClass("A", 64, 200),
    "B": ProblemClass("B", 102, 200),
    "C": ProblemClass("C", 162, 200),
    "D": ProblemClass("D", 408, 250),
}
CLASSES_SP = {
    "A": ProblemClass("A", 64, 400),
    "B": ProblemClass("B", 102, 400),
    "C": ProblemClass("C", 162, 400),
    "D": ProblemClass("D", 408, 500),
}
CLASSES_LU = {
    "A": ProblemClass("A", 64, 250),
    "B": ProblemClass("B", 102, 250),
    "C": ProblemClass("C", 162, 250),
    "D": ProblemClass("D", 408, 300),
}



class _GridWorkload(Workload):
    """Shared 2-D grid machinery for the NPB skeletons."""

    #: virtual seconds of computation per grid point per timestep
    time_per_point: float = 4.0e-8

    def __init__(
        self,
        problem_class: str = "D",
        iterations: int | None = None,
        compute_scale: float = 1.0,
        detail: int = 4,
    ) -> None:
        cls = self.classes()[problem_class]
        super().__init__(
            iterations=iterations if iterations is not None else cls.iterations,
            compute_scale=compute_scale,
        )
        self.problem_class = cls
        if detail < 1:
            raise ValueError("detail must be >= 1")
        # sub-blocks per solve phase: the real codes exchange one message
        # per cell block from distinct call contexts, which is what gives
        # their traces hundreds of PRSD events; `detail` controls that
        # richness (and therefore the paper's `n`)
        self.detail = detail

    @classmethod
    def classes(cls) -> dict[str, ProblemClass]:
        raise NotImplementedError

    def grid(self, nprocs: int) -> Grid2D:
        return square_grid(nprocs)

    def points_per_rank(self, nprocs: int) -> float:
        return self.problem_class.points / nprocs

    def face_bytes(self, nprocs: int) -> int:
        """One exchanged face: a 2-D slab of the per-rank subdomain, five
        solution components, double precision."""
        g = self.problem_class.grid
        side = max(int(round(g / max(self.grid(nprocs).rows, 1))), 1)
        return 8 * 5 * g * side

    def step_compute(self, ctx: RankContext) -> float:
        return self.points_per_rank(ctx.size) * self.time_per_point


class BT(_GridWorkload):
    """NPB BT: block-tridiagonal ADI solver skeleton."""

    name = "bt"
    paper_k = 3
    time_per_point = 6.0e-8

    @classmethod
    def classes(cls):
        return CLASSES_BT

    async def timestep(self, ctx: RankContext, tracer, step: int) -> None:
        grid = self.grid(ctx.size)
        fb = self.face_bytes(ctx.size)
        work = self.step_compute(ctx)
        blk_bytes = max(fb // self.detail, 8)
        with ctx.frame("copy_faces"):
            self.compute(ctx, 0.1 * work)
            east, west = grid.east(ctx.rank), grid.west(ctx.rank)
            for blk in range(self.detail):
                with ctx.frame(f"cell_{blk}"):
                    if east is not None:
                        await tracer.send(east, None, tag=1 + blk, size=blk_bytes)
                    if west is not None:
                        await tracer.recv(west, tag=1 + blk)
        for frame, fwd_of, bwd_of in (
            ("x_solve", grid.east, grid.west),
            ("y_solve", grid.south, grid.north),
            ("z_solve", grid.east, grid.west),
        ):
            with ctx.frame(frame):
                self.compute(ctx, 0.3 * work)
                fwd, bwd = fwd_of(ctx.rank), bwd_of(ctx.rank)
                for blk in range(self.detail):
                    with ctx.frame(f"cell_{blk}"):
                        if bwd is not None:
                            await tracer.recv(bwd, tag=100 + blk)
                        if fwd is not None:
                            await tracer.send(fwd, None, tag=100 + blk, size=blk_bytes)


class SP(_GridWorkload):
    """NPB SP: scalar-pentadiagonal ADI solver skeleton."""

    name = "sp"
    paper_k = 3
    time_per_point = 3.5e-8

    @classmethod
    def classes(cls):
        return CLASSES_SP

    async def timestep(self, ctx: RankContext, tracer, step: int) -> None:
        grid = self.grid(ctx.size)
        fb = self.face_bytes(ctx.size)
        work = self.step_compute(ctx)
        blk_bytes = max(fb // self.detail, 8)
        for frame, fwd_of, bwd_of in (
            ("txinvr_x", grid.east, grid.west),
            ("txinvr_y", grid.south, grid.north),
        ):
            with ctx.frame(frame):
                self.compute(ctx, 0.4 * work)
                fwd, bwd = fwd_of(ctx.rank), bwd_of(ctx.rank)
                for blk in range(self.detail):
                    with ctx.frame(f"cell_{blk}"):
                        if fwd is not None:
                            await tracer.send(fwd, None, tag=3 + blk, size=blk_bytes)
                        if bwd is not None:
                            await tracer.recv(bwd, tag=3 + blk)
        with ctx.frame("add"):
            self.compute(ctx, 0.2 * work)
            await tracer.allreduce(0.0, size=8)


class LU(_GridWorkload):
    """NPB LU: SSOR with wavefront pencil exchanges."""

    name = "lu"
    paper_k = 9

    @classmethod
    def classes(cls):
        return CLASSES_LU

    def pencil_bytes(self, nprocs: int) -> int:
        g = self.problem_class.grid
        side = max(int(round(g / max(self.grid(nprocs).rows, 1))), 1)
        return 8 * 5 * side

    async def timestep(self, ctx: RankContext, tracer, step: int) -> None:
        grid = self.grid(ctx.size)
        pb = self.pencil_bytes(ctx.size)
        work = self.step_compute(ctx)
        north, south = grid.north(ctx.rank), grid.south(ctx.rank)
        west, east = grid.west(ctx.rank), grid.east(ctx.rank)
        with ctx.frame("blts"):  # lower-triangular wavefront
            for blk in range(self.detail):
                with ctx.frame(f"pencil_{blk}"):
                    if north is not None:
                        await tracer.recv(north, tag=10 + blk)
                    if west is not None:
                        await tracer.recv(west, tag=40 + blk)
                    self.compute(ctx, 0.4 * work / self.detail)
                    if south is not None:
                        await tracer.send(south, None, tag=10 + blk, size=pb)
                    if east is not None:
                        await tracer.send(east, None, tag=40 + blk, size=pb)
        with ctx.frame("buts"):  # upper-triangular, reversed
            for blk in range(self.detail):
                with ctx.frame(f"pencil_{blk}"):
                    if south is not None:
                        await tracer.recv(south, tag=70 + blk)
                    if east is not None:
                        await tracer.recv(east, tag=130 + blk)
                    self.compute(ctx, 0.4 * work / self.detail)
                    if north is not None:
                        await tracer.send(north, None, tag=70 + blk, size=pb)
                    if west is not None:
                        await tracer.send(west, None, tag=130 + blk, size=pb)
        with ctx.frame("l2norm"):
            self.compute(ctx, 0.1 * work)
            await tracer.allreduce(0.0, size=40)


class LUModified(LU):
    """The paper's re-clustering stressor (Figure 10): LU with an *extra*
    barrier from a distinct call site injected every ``phase_period``
    timesteps, which changes the Call-Path and forces a phase change."""

    name = "lu_modified"

    def __init__(
        self,
        problem_class: str = "D",
        iterations: int | None = None,
        compute_scale: float = 1.0,
        phase_period: int = 10,
    ) -> None:
        super().__init__(problem_class, iterations, compute_scale)
        if phase_period < 1:
            raise ValueError("phase_period must be >= 1")
        self.phase_period = phase_period

    async def timestep(self, ctx: RankContext, tracer, step: int) -> None:
        await super().timestep(ctx, tracer, step)
        if (step + 1) % self.phase_period == 0:
            with ctx.frame("injected_phase_change"):
                await tracer.barrier()


class LUWeak(LU):
    """LU under weak scaling: the per-rank subdomain is fixed, so the
    global problem grows with P (paper's LUW rows)."""

    name = "luw"
    paper_k = 9

    def __init__(
        self,
        per_rank_grid: int = 64,
        iterations: int = 250,
        compute_scale: float = 1.0,
        detail: int = 4,
    ) -> None:
        Workload.__init__(self, iterations=iterations, compute_scale=compute_scale)
        self.per_rank_grid = per_rank_grid
        self.problem_class = ProblemClass("W", per_rank_grid, iterations)
        if detail < 1:
            raise ValueError("detail must be >= 1")
        self.detail = detail

    def points_per_rank(self, nprocs: int) -> float:
        return float(self.per_rank_grid**3)

    def pencil_bytes(self, nprocs: int) -> int:
        return 8 * 5 * self.per_rank_grid

    def face_bytes(self, nprocs: int) -> int:
        return 8 * 5 * self.per_rank_grid**2


class CG(_GridWorkload):
    """NPB CG: sparse conjugate gradient (SpMV in CSR) skeleton.

    Irregular *computation*, regular communication: a transpose exchange
    with the mirrored grid partner plus two dot-product allreduces per
    iteration — the paper's §V note that SpMV irregularity does not affect
    clustering."""

    name = "cg"
    paper_k = 3
    time_per_point = 2.0e-8

    @classmethod
    def classes(cls):
        # CG classes: n rows (approximated to a cube for the size model)
        return {
            "A": ProblemClass("A", 24, 15),
            "B": ProblemClass("B", 42, 75),
            "C": ProblemClass("C", 53, 75),
            "D": ProblemClass("D", 112, 100),
        }

    def transpose_partner(self, rank: int, nprocs: int) -> int:
        grid = self.grid(nprocs)
        row, col = grid.coords(rank)
        if grid.rows != grid.cols:
            return rank  # non-square layout: degenerate to self
        return grid.rank(col, row)

    def _transpose_ops(self, nprocs: int, row_bytes: int) -> list:
        """Per-rank scripts of the transpose exchange (``sendrecv`` is
        isend + recv + wait); diagonal ranks exchange nothing but still
        consult the gate with an empty script."""
        ops: list = []
        for rank in range(nprocs):
            partner = self.transpose_partner(rank, nprocs)
            if partner == rank:
                ops.append(())
            else:
                ops.append((
                    ("isend", partner, 20, row_bytes),
                    ("recv", partner, 20),
                    ("wait", 0),
                ))
        return ops

    async def timestep(self, ctx: RankContext, tracer, step: int) -> None:
        work = self.step_compute(ctx)
        row_bytes = 8 * max(self.problem_class.points // ctx.size, 1)
        with ctx.frame("spmv"):
            self.compute(ctx, 0.7 * work)
            pattern = declare_pattern(
                "cg-transpose", ctx.size, (row_bytes,),
                lambda: self._transpose_ops(ctx.size, row_bytes),
                sites=(("sendrecv", "transpose"), None, None),
            )
            await tracer.exchange(pattern, compute=ctx.compute)
        with ctx.frame("dot_rho"):
            self.compute(ctx, 0.15 * work)
            await tracer.allreduce(0.0, size=8)
        with ctx.frame("dot_alpha"):
            self.compute(ctx, 0.15 * work)
            await tracer.allreduce(0.0, size=8)
