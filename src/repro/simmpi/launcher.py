"""SPMD program launcher for the simulated runtime.

``run_spmd(main, nprocs)`` spawns ``nprocs`` rank coroutines, each receiving
a :class:`RankContext` (communicator + virtual clock + logical call frames),
drives them to completion and returns an :class:`SpmdResult` with per-rank
return values, final clocks and communication statistics.
"""

from __future__ import annotations

import contextlib
import gc
from dataclasses import dataclass, field
from typing import Any, Awaitable, Callable

from ..faults.injector import FaultInjector, injector_for
from ..faults.plan import FaultPlan
from ..obs.instrument import NULL_INSTRUMENT, Instrument
from .collectives import Communicator
from .comm import CommContext
from .engine import Engine, Task
from .simconfig import DEFAULT_CONFIG, SimConfig

#: World size from which ``run_spmd`` pauses the cyclic collector while it
#: builds the task graph and runs the engine.  A P-rank world is P live
#: coroutines, tasks and communicators that all survive to the end of the
#: run, so every generation-2 pass re-walks them and frees nothing; from
#: here up that re-walking is half the wall time (docs/PERF.md, "One
#: engine").  Below it every cell runs the engine with the collector as it
#: found it.
GC_PAUSE_NPROCS = 8192


class RankContext:
    """Everything a rank's program needs: identity, comm, and time.

    Attributes:
        comm: the world :class:`Communicator` for this rank.
        rank / size: shortcuts into ``comm``.
    """

    def __init__(self, comm: Communicator, task: Task) -> None:
        self.comm = comm
        self.task = task
        self._compute_seq = 0  # ordinal for seeded compute-noise draws

    @property
    def rank(self) -> int:
        return self.comm.rank

    @property
    def size(self) -> int:
        return self.comm.size

    @property
    def clock(self) -> float:
        """This rank's current virtual time in seconds."""
        return self.task.clock

    def compute(self, seconds: float) -> None:
        """Model local computation: advance this rank's clock only.

        Under an active fault plan the duration is scaled by the rank's
        :class:`~repro.faults.ComputeFault` (constant slowdown + seeded
        jitter); with the default null injector this is one attribute check.
        """
        if seconds < 0:
            raise ValueError("compute() needs a non-negative duration")
        inj = self.comm.engine.faults
        if inj.active:
            self._compute_seq += 1
            seconds *= inj.compute_factor(self.rank, self._compute_seq)
        self.task.charge(seconds)

    @contextlib.contextmanager
    def frame(self, name: str):
        """Push a logical call frame (function name) for the duration.

        The tracer's stack walker combines these frames with the real Python
        call stack, letting workload skeletons expose the calling contexts
        the original Fortran codes would have (``ssor``, ``exchange_3``, ...).
        """
        self.task.logical_stack.append(name)
        try:
            yield
        finally:
            self.task.logical_stack.pop()


@dataclass
class SpmdResult:
    """Outcome of one SPMD run."""

    results: list[Any]
    clocks: list[float]
    busy_times: list[float]
    total_messages: int
    total_bytes: int
    #: scheduler steps the engine executed (coroutine resumes)
    engine_steps: int = 0
    #: point-to-point matches fired (send paired with its receive)
    messages_matched: int = 0
    #: ranks parked as FAILED by fault injection (empty without faults);
    #: their ``results`` entries are None
    failed_ranks: tuple[int, ...] = ()
    #: counters of faults actually injected (see FaultInjector.summary)
    fault_summary: dict[str, int] = field(default_factory=dict)
    #: leaf collective instances (per rank) that took the closed-form
    #: macro fast path
    collectives_fast: int = 0
    #: leaf collective instances (per rank) that ran message-level,
    #: either by knob or by an eligibility fallback
    collectives_simulated: int = 0
    #: declared-pattern exchange instances (per rank) resolved by the
    #: macro p2p gate
    p2p_fast: int = 0
    #: declared-pattern exchange instances (per rank) that ran
    #: message-level, either by knob or by an eligibility fallback
    p2p_simulated: int = 0

    @property
    def nprocs(self) -> int:
        return len(self.results)

    @property
    def max_time(self) -> float:
        """Virtual makespan: the paper's 'execution time' of the run."""
        return max(self.clocks, default=0.0)

    @property
    def total_time(self) -> float:
        """Aggregated wall-clock across ranks (paper reports this for
        overhead experiments)."""
        return sum(self.clocks)


MainFn = Callable[..., Awaitable[Any]]


def run_spmd(
    main: MainFn,
    nprocs: int,
    *args: Any,
    config: SimConfig | None = None,
    instrument: Instrument = NULL_INSTRUMENT,
    faults: FaultPlan | FaultInjector | None = None,
    **kwargs: Any,
) -> SpmdResult:
    """Run ``main(ctx, *args, **kwargs)`` on ``nprocs`` simulated ranks.

    ``main`` must be an ``async def``; it is instantiated once per rank.
    Engine options travel in ``config`` (a :class:`SimConfig`); any other
    keyword is forwarded to ``main``.

    ``instrument`` receives the run's observability events (scheduler,
    p2p, collectives, tracers); the default is the zero-cost no-op.
    Raises :class:`~repro.simmpi.errors.TaskFailedError` if any rank raises
    and :class:`~repro.simmpi.errors.DeadlockError` on a matching deadlock.

    ``faults`` installs a :class:`~repro.faults.FaultPlan` (or prepared
    injector).  With an active plan the run has partial-failure semantics:
    crashed ranks appear in ``SpmdResult.failed_ranks`` with ``None``
    results, and no error is raised for them.  An empty plan is a strict
    no-op — all virtual times stay bit-identical.

    ``config.gates`` selects how collectives and declared regular
    exchanges (:class:`~repro.simmpi.patterns.NeighborPattern` via
    ``Communicator.exchange``) execute: ``"fast"`` (default) lets an
    eligible instance resolve in closed form at its gate — bit-identical
    virtual times and results, orders of magnitude fewer engine steps —
    while anything a fault or tracer could observe falls back per
    instance to the message-level reference path that ``"simulated"``
    takes for every instance.  See docs/PERF.md ("Macro-collectives",
    "Macro p2p").

    From ``GC_PAUSE_NPROCS`` ranks up the cyclic garbage collector is paused
    for the duration of the run and restored to its previous state on the
    way out, also when the run raises.
    """
    cfg = config or DEFAULT_CONFIG
    if nprocs <= 0:
        raise ValueError("nprocs must be positive")
    injector = injector_for(faults)
    if injector.active:
        injector.plan.validate(nprocs)
    engine = Engine(network=cfg.network, max_steps=cfg.max_steps,
                    instrument=instrument, faults=injector,
                    gates=cfg.gates)
    # Everything built below stays reachable from the engine until the
    # run returns: a collection during it can free nothing of the world.
    pause_gc = nprocs >= GC_PAUSE_NPROCS and gc.isenabled()
    if pause_gc:
        gc.disable()
    try:
        world_ctx = CommContext(engine, range(nprocs))
        for rank in range(nprocs):
            # Task must exist before the Communicator that references it;
            # spawn with a placeholder coroutine created right after.
            task = Task(rank, None)  # type: ignore[arg-type]
            comm = Communicator(world_ctx, rank, task)
            rctx = RankContext(comm, task)
            task.coro = main(rctx, *args, **kwargs)
            engine.adopt(task)
        engine.run()
    finally:
        if pause_gc:
            gc.enable()
    return SpmdResult(
        results=engine.results(),
        clocks=engine.clocks(),
        busy_times=engine.busy_times(),
        total_messages=engine.total_messages,
        total_bytes=engine.total_bytes,
        engine_steps=engine.steps,
        messages_matched=engine.total_matches,
        failed_ranks=tuple(sorted(injector.failed)),
        fault_summary=injector.summary() if injector.active else {},
        collectives_fast=engine.collectives_fast,
        collectives_simulated=engine.collectives_simulated,
        p2p_fast=engine.p2p_fast,
        p2p_simulated=engine.p2p_simulated,
    )
