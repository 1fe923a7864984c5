"""Workload framework: timestep-driven SPMD communication skeletons.

Every benchmark in the paper's evaluation is an iterative SPMD code; each
workload here reproduces its *communication structure* (who talks to whom,
which collectives, what calling contexts) plus a compute model, which is all
Chameleon observes.  The timestep loop inserts the Chameleon marker at the
progress-reporting point, exactly where the paper inserts it.

Workloads run against any object exposing the traced-communicator API:
:class:`~repro.scalatrace.ScalaTraceTracer`, the Chameleon/ACURDION
subclasses, or :class:`NullTracer` (the uninstrumented baseline).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Sequence

from ..simmpi.launcher import RankContext
from ..simmpi.patterns import NeighborPattern


class NullTracer:
    """Pass-through 'tracer': the uninstrumented application (APP mode).

    Forwards every traced call straight to the raw communicator and makes
    the marker a no-op, so the virtual time of a run under NullTracer is the
    paper's baseline application time.  That includes ``exchange``: a
    declared phase goes to ``Communicator.exchange`` and its macro gate.
    """

    def __init__(self, ctx: RankContext) -> None:
        self.ctx = ctx
        self.comm = ctx.comm

    def __getattr__(self, name: str) -> Any:
        return getattr(self.comm, name)

    async def wait(self, request) -> Any:
        return await request.wait()

    async def marker(self) -> None:
        return None

    async def finalize(self) -> None:
        return None


# -- declared regular exchanges ---------------------------------------------
#
# A regular p2p phase is stated once: per-rank op scripts plus one call-site
# table, handed to ``tracer.exchange(pattern, compute=ctx.compute)``.  Every
# tracer hands it on to ``Communicator.exchange`` (macro gate, or the
# message-level driver); a real tracer also hands the schedule of this rank's
# script (``ScalaTraceTracer._traced``) recording each op under the label its
# position has in the table.  No workload writes the messages out again.

#: process-wide pattern cache: building a NeighborPattern is O(P * ops) and
#: workloads re-enter the same phase every timestep, so instances are built
#: once per (pattern name, comm size, parameter key) and reused.
_PATTERN_CACHE: dict[tuple, NeighborPattern] = {}


def declare_pattern(
    name: str,
    size: int,
    key: tuple,
    build: Callable[[], Sequence],
    sites: Sequence,
) -> NeighborPattern:
    """Get (or build and cache) a declared exchange pattern.

    ``key`` must cover every parameter that changes the per-rank op lists
    (tags, byte counts, pre-scaled compute durations, ...); ``build`` is
    only called on a cache miss and returns the per-rank op lists for
    :class:`~repro.simmpi.patterns.NeighborPattern`.

    ``sites`` is the phase's call-site table, one entry per script
    *position* and shared by all ranks (``name`` fixes it, so it is not
    part of ``key``): a label for a position that is an MPI call site —
    positions with equal labels are one site, e.g. a send issued in a loop
    — ``None`` for waits and computes, and ``("sendrecv", label)`` on an
    isend whose next two positions (its recv and wait) belong to the same
    ``MPI_Sendrecv`` call.
    """
    cache_key = (name, size, key)
    pattern = _PATTERN_CACHE.get(cache_key)
    if pattern is None:
        pattern = _PATTERN_CACHE[cache_key] = NeighborPattern(
            name, size, build(), tuple(sites)
        )
    return pattern


@dataclass(frozen=True)
class ProblemClass:
    """An NPB-style problem class: global grid size and iteration count."""

    name: str
    grid: int  # points per dimension of the global cube
    iterations: int

    @property
    def points(self) -> int:
        return self.grid**3


class Workload(abc.ABC):
    """An iterative SPMD communication skeleton."""

    #: registry name, e.g. "bt"
    name: str = "workload"
    #: default cluster count K from the paper's Table I
    paper_k: int = 9

    def __init__(self, iterations: int, compute_scale: float = 1.0) -> None:
        if iterations < 1:
            raise ValueError("iterations must be >= 1")
        self.iterations = iterations
        self.compute_scale = compute_scale
        #: extra initialization events per early timestep (index = step):
        #: real codes run setup/norm kernels during their first iterations,
        #: which is what produces the AT (all-tracing) markers beyond the
        #: first one in the paper's Table II.  Each entry fires that many
        #: ``init_residual_<step>`` allreduces before the timestep.
        self.warmup_profile: tuple[int, ...] = ()

    @abc.abstractmethod
    async def timestep(self, ctx: RankContext, tracer: Any, step: int) -> None:
        """One iteration's communication + compute."""

    def validate(self, nprocs: int) -> None:
        """Raise ValueError if this workload cannot run on ``nprocs``."""
        if nprocs < 1:
            raise ValueError("nprocs must be >= 1")

    async def setup(self, ctx: RankContext, tracer: Any) -> None:
        """Optional pre-loop communication (input distribution etc.)."""

    async def _pre_step(self, ctx: RankContext, tracer: Any, step: int) -> None:
        """Fire this step's warmup events (distinct call site per step)."""
        if step < len(self.warmup_profile):
            for _ in range(self.warmup_profile[step]):
                with ctx.frame(f"init_residual_{step}"):
                    await tracer.allreduce(0.0, size=8)

    async def _progress_point(self, ctx: RankContext, tracer: Any) -> None:
        """The application's own timestep-boundary synchronization.

        The paper inserts its marker "in the progress reporting point" of
        iterative codes — a point where these applications already
        synchronize (residual prints, convergence checks).  Modelling that
        synchronization as part of the application (it runs in every mode,
        including the uninstrumented baseline) is what makes the marker's
        *additional* cost the paper's marker cost rather than a pipeline
        flush the real codes would have paid anyway.
        """
        with ctx.frame("progress"):
            await tracer.allreduce(0.0, size=8)

    def _step_stream(self, ctx: RankContext) -> Iterable[int]:
        """The step indices this rank will run, in order.

        The default is the declared iteration count.  Streaming workloads
        override this with a generator that blocks until the next step
        *arrives* — a generator is the one override point that never
        shows up in captured call paths (its frame is suspended while the
        timestep runs), which is what keeps streamed traces bit-identical
        to batch ones.
        """
        return range(self.iterations)

    def _on_marker(self, ctx: RankContext, step: int, decision: Any,
                   tracer: Any) -> None:
        """Observation hook after each marker (must not touch the sim)."""

    async def run(self, ctx: RankContext, tracer: Any) -> None:
        """The main loop: timesteps with the marker at each boundary."""
        self.validate(ctx.size)
        await self.setup(ctx, tracer)
        for step in self._step_stream(ctx):
            await self._pre_step(ctx, tracer, step)
            await self.timestep(ctx, tracer, step)
            await self._progress_point(ctx, tracer)
            decision = await tracer.marker()
            self._on_marker(ctx, step, decision, tracer)

    # -- helpers for subclasses ------------------------------------------

    def compute(self, ctx: RankContext, seconds: float) -> None:
        """Charge (scaled) computation to this rank."""
        ctx.compute(seconds * self.compute_scale)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} iters={self.iterations}>"
