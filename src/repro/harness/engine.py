"""ExperimentEngine: one scheduler and one cache for every experiment cell.

The paper's artifacts (Tables I-IV, Figures 4-11) decompose into *cells*,
each one deterministic ``(workload, params, warmup, nprocs, mode, config,
network)`` combination.  Historically every table/figure generator re-ran
its own serial loop, repeating identical simulations dozens of times —
exactly the redundancy Chameleon itself collapses across ranks.  The
engine fixes that at the harness level:

* **Declarative cells** (:class:`Cell`) carry everything needed to rebuild
  and execute a run, so they pickle cleanly across process boundaries and
  hash stably for the cache.
* **Lanes**: with ``jobs > 1`` cache misses execute on single-worker
  process pools, one cell per lane at a time, so a dead or overdue worker
  is always one known cell's.  Runs share no state and are deterministic,
  so parallel results are identical to serial ones (asserted by the
  test-suite via ``RunResult.fingerprint``).
* **Content-addressed caching** (:mod:`repro.harness.cache`): a second
  invocation of the same experiment serves its cells from disk.
* **Structured progress/metrics**: every scheduled/hit/executed cell is
  reported through an optional callback and aggregated in
  :class:`EngineMetrics` for the CLI and benchmarks.

Suites built through :func:`make_suite_cells` construct the workload and
``ChameleonConfig`` exactly once, so a ``config_overrides``-derived config
can never drift between the modes of one suite (all cells of a suite share
a ``suite_key``).
"""

from __future__ import annotations

import os
import time
from collections import deque
from concurrent.futures import (
    FIRST_COMPLETED,
    Future,
    ProcessPoolExecutor,
    wait,
)
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Sequence

from ..core.config import ChameleonConfig
from ..faults.plan import FaultPlan
from ..obs.instrument import NULL_INSTRUMENT, Instrument
from ..resilience.hostfaults import cell_hook
from ..resilience.policy import QuarantinedCell, QuarantineError, RetryPolicy
from ..simmpi.simconfig import DEFAULT_CONFIG, SimConfig
from ..workloads.base import Workload
from ..workloads.registry import make_workload
from .cache import (
    RunCache,
    cache_disabled_by_env,
    default_cache_dir,
    digest_of,
)
from .runner import Mode, RunResult, chameleon_config_for, run_mode

#: Environment variable for the default worker count (0 = all cores).
ENV_JOBS = "REPRO_JOBS"


# ---------------------------------------------------------------------------
# cells
# ---------------------------------------------------------------------------


def _freeze(value: Any) -> Any:
    """Recursively convert ``value`` into a hashable, picklable form."""
    if isinstance(value, dict):
        return tuple(sorted((k, _freeze(v)) for k, v in value.items()))
    if isinstance(value, (list, tuple)):
        return tuple(_freeze(v) for v in value)
    if isinstance(value, set):
        return tuple(sorted(_freeze(v) for v in value))
    return value


@dataclass(frozen=True)
class Cell:
    """One deterministic experiment unit, fully described by value.

    ``params`` is the frozen ``make_workload`` keyword dict; the workload
    itself is rebuilt from it inside whichever process executes the cell,
    so cells travel across worker boundaries without pickling stateful
    workload objects.
    """

    workload: str
    params: tuple[tuple[str, Any], ...]
    warmup: tuple[int, ...]
    nprocs: int
    mode: Mode
    config: ChameleonConfig
    sim: SimConfig = DEFAULT_CONFIG
    #: deterministic fault-injection plan, hashed into the cell digest so a
    #: faulted run never shares a cache slot with its fault-free twin
    faults: FaultPlan | None = None

    @property
    def label(self) -> str:
        return f"{self.workload}/P={self.nprocs}/{self.mode.value}"

    def digest(self) -> str:
        """Content address of this cell (see :mod:`repro.harness.cache`).

        APP runs ignore the tracer configuration entirely, so their digest
        normalizes ``config`` away — every suite over the same workload
        shares one cached baseline regardless of marker frequency.  The
        engine options enter through :meth:`SimConfig.cache_key`, which
        excludes the bit-identity-invariant ``gates`` switch: both
        spellings share one cache slot.
        """
        config = None if self.mode is Mode.APP else self.config
        return digest_of(
            (
                "cell",
                self.workload,
                self.params,
                self.warmup,
                self.nprocs,
                self.mode,
                config,
                self.sim.cache_key(),
                self.faults,
            )
        )

    def suite_key(self) -> str:
        """Digest of everything but the mode — equal across one suite."""
        return digest_of(
            (
                "suite",
                self.workload,
                self.params,
                self.warmup,
                self.nprocs,
                self.config,
                self.sim.cache_key(),
            )
        )

    def build_workload(self) -> Workload:
        workload = make_workload(self.workload, **dict(self.params))
        if self.warmup:
            workload.warmup_profile = tuple(self.warmup)
        return workload


def make_cell(
    workload_name: str,
    nprocs: int,
    mode: Mode,
    *,
    workload_params: dict[str, Any] | None = None,
    call_frequency: int = 1,
    config_overrides: dict[str, Any] | None = None,
    config: ChameleonConfig | None = None,
    sim: SimConfig | None = None,
    warmup: Sequence[int] | None = None,
    faults: FaultPlan | None = None,
) -> Cell:
    """Build one cell, deriving the paper's config from the workload."""
    params = dict(workload_params or {})
    if config is None:
        workload = make_workload(workload_name, **params)
        config = chameleon_config_for(
            workload, call_frequency=call_frequency, **(config_overrides or {})
        )
    if faults is not None and faults.is_empty():
        faults = None  # empty plan == no plan: share the fault-free cache slot
    return Cell(
        workload=workload_name,
        params=_freeze(params),
        warmup=tuple(warmup or ()),
        nprocs=nprocs,
        mode=mode,
        config=config,
        sim=sim or DEFAULT_CONFIG,
        faults=faults,
    )


def make_suite_cells(
    workload_name: str,
    nprocs: int,
    modes: Sequence[Mode] = (Mode.APP, Mode.CHAMELEON, Mode.SCALATRACE),
    *,
    workload_params: dict[str, Any] | None = None,
    call_frequency: int = 1,
    config_overrides: dict[str, Any] | None = None,
    sim: SimConfig | None = None,
    warmup: Sequence[int] | None = None,
) -> list[Cell]:
    """Cells for one suite: workload and config constructed exactly once.

    All modes share one ``ChameleonConfig`` instance derived before the
    mode loop, which is asserted via the shared ``suite_key`` — the drift
    the old per-mode reconstruction allowed is structurally impossible.
    """
    params = dict(workload_params or {})
    config = chameleon_config_for(
        make_workload(workload_name, **params),
        call_frequency=call_frequency,
        **(config_overrides or {}),
    )
    cells = [
        make_cell(workload_name, nprocs, mode, workload_params=params,
                  config=config, sim=sim, warmup=warmup)
        for mode in modes
    ]
    keys = {cell.suite_key() for cell in cells}
    assert len(keys) == 1, f"suite cells drifted apart: {sorted(keys)}"
    return cells


def _execute_cell(
    cell: Cell, digest: str = "", instrument: Instrument | None = None
) -> tuple[RunResult, float]:
    """The one place a cell becomes a ``run_mode`` call (inline, in a lane's
    worker, or instrumented): rebuild the workload and run it."""
    cell_hook(digest, cell.label)  # chaos injection point; no-op unarmed
    start = time.perf_counter()
    result = run_mode(
        cell.build_workload(),
        cell.nprocs,
        cell.mode,
        config=cell.config,
        sim=cell.sim,
        instrument=instrument,
        faults=cell.faults,
    )
    return result, time.perf_counter() - start


# ---------------------------------------------------------------------------
# progress + metrics
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CellEvent:
    """One structured progress notification from the engine.

    ``kind`` is one of ``scheduled`` / ``hit`` / ``start`` / ``done`` /
    ``retry`` (the cell's worker died and the cell is queued again) /
    ``deadline`` (a running cell exceeded its wall-clock budget and its
    worker was killed) / ``quarantine`` (a cell exhausted its attempt
    budget and was abandoned so the batch could finish) — every one
    carries the label and digest of the one cell it is about;
    ``index``/``total`` position the cell within its batch, ``wall`` is
    the execution wall-time (``done`` events only).
    """

    kind: str
    label: str
    digest: str
    index: int
    total: int
    wall: float = 0.0


ProgressFn = Callable[[CellEvent], None]


@dataclass
class EngineMetrics:
    """Cumulative counters across every batch an engine has run."""

    scheduled: int = 0  # cells requested (incl. within-batch duplicates)
    deduped: int = 0  # duplicates collapsed inside a batch
    hits: int = 0  # unique cells served from the cache
    executed: int = 0  # unique cells actually simulated
    quarantined: int = 0  # cells abandoned after repeated host faults
    batches: int = 0
    total_wall: float = 0.0  # wall-clock across batches

    def hit_rate(self) -> float:
        """Fraction of unique cells served from cache (0 when idle)."""
        looked_up = self.hits + self.executed
        return self.hits / looked_up if looked_up else 0.0

    def as_dict(self) -> dict[str, Any]:
        return {
            "scheduled": self.scheduled,
            "deduped": self.deduped,
            "hits": self.hits,
            "executed": self.executed,
            "quarantined": self.quarantined,
            "batches": self.batches,
            "total_wall": self.total_wall,
            "hit_rate": self.hit_rate(),
        }

    def summary(self) -> str:
        return (
            f"engine: {self.scheduled} cells scheduled"
            f" ({self.deduped} deduplicated) | "
            f"{self.hits} cache hits | {self.executed} executed | "
            f"hit rate {100 * self.hit_rate():.0f}% | "
            f"wall {self.total_wall:.2f}s"
        )


# ---------------------------------------------------------------------------
# the engine
# ---------------------------------------------------------------------------


class ExperimentEngine:
    """Schedules experiment cells over workers with an on-disk cache.

    Args:
        jobs: worker processes for cache misses; ``1`` runs inline,
            ``0`` means "all cores".
        cache: a :class:`RunCache`, or None to disable caching.
        progress: optional callback receiving :class:`CellEvent`\\ s.
        instrument: an :class:`~repro.obs.instrument.Instrument`; every
            :class:`CellEvent` (scheduled/hit/executed cells, retries,
            deadlines, quarantines) is counted into its metrics once, as
            ``engine/cells_<kind>``, and :meth:`run_cell_instrumented`
            threads it into the simulation itself.
        policy: a :class:`~repro.resilience.RetryPolicy` bounding the
            engine's host-fault recovery (worker-death retries, per-cell
            deadlines, quarantine); defaults to ``RetryPolicy()``.
    """

    def __init__(
        self,
        jobs: int = 1,
        cache: RunCache | None = None,
        progress: ProgressFn | None = None,
        instrument: Instrument = NULL_INSTRUMENT,
        policy: RetryPolicy | None = None,
    ) -> None:
        if jobs < 0:
            raise ValueError("jobs must be >= 0")
        self.jobs = jobs or (os.cpu_count() or 1)
        self.cache = cache
        self.progress = progress
        self.instrument = instrument
        self.policy = policy if policy is not None else RetryPolicy()
        self.metrics = EngineMetrics()

    # -- scheduling --------------------------------------------------------

    def _emit(self, event: CellEvent) -> None:
        if self.instrument.enabled:
            self.instrument.metrics.count(
                f"engine/cells_{event.kind}", 1, op=event.label
            )
        if self.progress is not None:
            self.progress(event)

    def run_cells(self, cells: Sequence[Cell]) -> list[RunResult]:
        """Execute a batch, resolving duplicates and cache hits first.

        Returns results positionally aligned with ``cells``.  Identical
        cells (same digest) within the batch are simulated once and the
        result shared; order of the returned list is deterministic and
        independent of worker completion order.

        Raises :class:`~repro.resilience.QuarantineError` when one or
        more cells exhausted their :class:`RetryPolicy` attempt budget
        (repeated worker deaths or deadline overruns); the error carries
        the completed partial results instead of discarding them.  A
        cell whose *execution* raises (a deterministic simulation error)
        fails the batch with that error.
        """
        started = time.perf_counter()
        total = len(cells)
        self.metrics.batches += 1
        self.metrics.scheduled += total

        by_digest: dict[str, list[int]] = {}
        for i, cell in enumerate(cells):
            digest = cell.digest()
            by_digest.setdefault(digest, []).append(i)
            self._emit(CellEvent("scheduled", cell.label, digest, i, total))
        self.metrics.deduped += total - len(by_digest)

        results: list[RunResult | None] = [None] * total
        pending: dict[str, Cell] = {}
        for digest, indices in by_digest.items():
            cell = cells[indices[0]]
            hit = self.cache.get(digest) if self.cache is not None else None
            if hit is not None:
                self.metrics.hits += 1
                self._emit(CellEvent("hit", cell.label, digest,
                                     indices[0], total))
                for i in indices:
                    results[i] = hit
            else:
                pending[digest] = cell

        quarantined = self._execute_pending(pending, by_digest, results,
                                            total)
        self.metrics.total_wall += time.perf_counter() - started
        if quarantined:
            raise QuarantineError(quarantined, list(results))
        assert all(r is not None for r in results)
        return results  # type: ignore[return-value]

    def _execute_pending(
        self,
        pending: dict[str, Cell],
        by_digest: dict[str, list[int]],
        results: list[RunResult | None],
        total: int,
    ) -> list[QuarantinedCell]:
        def settle(digest: str,
                   outcome: Callable[[], tuple[RunResult, float]]) -> None:
            """Record one executed cell's result; its error (or its
            worker's death) propagates to the caller."""
            cell, indices = pending[digest], by_digest[digest]
            result, wall = outcome()
            if self.cache is not None:
                self.cache.put(digest, result)
            self.metrics.executed += 1
            self._emit(CellEvent("done", cell.label, digest, indices[0],
                                 total, wall))
            for i in indices:
                results[i] = result

        for digest, cell in pending.items():
            self._emit(CellEvent("start", cell.label, digest,
                                 by_digest[digest][0], total))
        if self.jobs > 1 and len(pending) > 1:
            return self._execute_pool(pending, by_digest, settle, total)
        for digest, cell in pending.items():
            settle(digest, partial(_execute_cell, cell, digest))
        return []

    def _quarantine(self, cell: Cell, digest: str, reason: str,
                    attempts: int, index: int, total: int) -> QuarantinedCell:
        """Abandon ``cell`` so its batch can finish: counted, reported as
        a ``quarantine`` event, returned for the :class:`QuarantineError`."""
        self.metrics.quarantined += 1
        self._emit(CellEvent(
            "quarantine", f"{cell.label} ({reason} x{attempts})", digest,
            index, total
        ))
        return QuarantinedCell(cell.label, digest, attempts, reason)

    # -- host-fault recovery (worker deaths, deadlines, quarantine) --------

    @staticmethod
    def _kill_pool_workers(pool: ProcessPoolExecutor) -> None:
        """SIGKILL every live pool worker (deadline enforcement).  The
        executor notices the deaths and raises BrokenProcessPool, which
        the caller handles like any other crash.

        Workers can exit between the deadline check and this sweep: the
        ``_processes`` map may hold ``None`` sentinels mid-teardown, and a
        reaped ``Process`` handle raises ``ValueError`` once closed — both
        must be skipped so one dead worker can't abort the remaining
        kills and leave the overdue cell running."""
        for proc in list((getattr(pool, "_processes", None) or {}).values()):
            if proc is None:
                continue
            try:
                proc.kill()
            except (OSError, ValueError, AttributeError):
                pass  # racing exit / closed handle: already dead

    def _execute_pool(
        self,
        pending: dict[str, Cell],
        by_digest: dict[str, list[int]],
        settle: Callable[[str, Callable[[], tuple[RunResult, float]]], None],
        total: int,
    ) -> list[QuarantinedCell]:
        """Run pending cells over worker *lanes*, surviving host faults.

        A lane is a single-worker pool that is handed one cell at a time
        from a FIFO and reused for the next when that returns, so a dead
        worker (OOM kill, signal, interpreter crash, our own deadline
        kill) is its current cell's, precisely: it costs that cell one
        attempt and the lane is rebuilt.  The cell is queued again after
        ``policy.backoff(attempt)``, or quarantined once it has used
        ``policy.max_attempts``.  A cell running past
        ``policy.cell_deadline`` (measured from its submission to the idle
        lane) has its lane's worker killed; siblings on other lanes are
        untouched.  A worker *exception* is the cell's own error:
        ``settle`` raises it and the batch ends.
        """
        policy = self.policy
        queue = deque(pending)
        attempts = dict.fromkeys(pending, 0)
        quarantined: list[QuarantinedCell] = []
        idle = [ProcessPoolExecutor(max_workers=1)
                for _ in range(min(self.jobs, len(pending)))]
        # future -> (its lane, the cell's digest, when it was submitted)
        running: dict[Future, tuple[ProcessPoolExecutor, str, float]] = {}
        killed: set[Future] = set()  # overdue: lane worker already killed

        def kill_overdue() -> float | None:
            """Kill the worker of every lane whose cell is past the deadline
            (the death surfaces as that lane's BrokenProcessPool); return
            the seconds until the next lane is due, None to just block."""
            if policy.cell_deadline is None:
                return None
            now, due = time.monotonic(), None
            for fut, (lane, digest, begun) in running.items():
                if fut in killed:
                    continue
                left = begun + policy.cell_deadline - now
                if left > 0:
                    due = left if due is None else min(due, left)
                    continue
                cell = pending[digest]
                self._emit(CellEvent("deadline", cell.label, digest,
                                     by_digest[digest][0], total))
                self._kill_pool_workers(lane)
                killed.add(fut)
            return due

        def crashed(digest: str, reason: str) -> None:
            """The cell's worker died under it: one attempt spent."""
            cell, index = pending[digest], by_digest[digest][0]
            attempts[digest] += 1
            if attempts[digest] >= policy.max_attempts:
                quarantined.append(self._quarantine(
                    cell, digest, reason, attempts[digest], index, total))
                return
            self._emit(CellEvent("retry", cell.label, digest, index, total))
            time.sleep(policy.backoff(attempts[digest]))
            queue.append(digest)

        try:
            while queue or running:
                while queue and idle:
                    digest, lane = queue.popleft(), idle.pop()
                    try:
                        fut = lane.submit(_execute_cell, pending[digest],
                                          digest)
                    except BrokenProcessPool as exc:
                        # the lane's worker died between cells; nobody can
                        # tell that from dying at the start of this one
                        fut = Future()
                        fut.set_exception(exc)
                    running[fut] = (lane, digest, time.monotonic())
                done, _ = wait(running, timeout=kill_overdue(),
                               return_when=FIRST_COMPLETED)
                for fut in done:
                    lane, digest, _ = running[fut]  # the lane's until idle
                    # a killed lane is rebuilt even if the cell's result
                    # beat the kill: its worker is gone either way
                    broken = fut in killed
                    killed.discard(fut)
                    try:
                        settle(digest, fut.result)
                    except BrokenProcessPool:
                        crashed(digest, "deadline" if broken else "pool-crash")
                        broken = True
                    if broken:
                        lane.shutdown()
                        lane = ProcessPoolExecutor(max_workers=1)
                    del running[fut]
                    idle.append(lane)
        finally:
            # only an error leaves lanes running: their work is abandoned
            for lane, _, _ in running.values():
                self._kill_pool_workers(lane)
                lane.shutdown()
            for lane in idle:
                lane.shutdown()
        return quarantined

    def run_cell_instrumented(
        self, cell: Cell, instrument: Instrument | None = None
    ) -> RunResult:
        """Execute one cell with the simulation itself instrumented.

        Instrumented runs always execute inline and bypass the cache in
        both directions: an obs-laden result must never be served to a
        later uninstrumented request, and a cached plain result has no
        timeline to offer.  Virtual-time results are still identical to
        the cached path — the instrument only observes.
        """
        digest = cell.digest()
        result, wall = _execute_cell(
            cell, digest,
            instrument if instrument is not None else self.instrument,
        )
        self.metrics.batches += 1
        self.metrics.scheduled += 1
        self.metrics.executed += 1
        self.metrics.total_wall += wall
        self._emit(CellEvent("done", cell.label, digest, 0, 1, wall))
        return result

    # -- convenience entry points -----------------------------------------

    def run_suite(
        self,
        workload_name: str,
        nprocs: int,
        modes: Sequence[Mode] = (Mode.APP, Mode.CHAMELEON, Mode.SCALATRACE),
        workload_params: dict[str, Any] | None = None,
        call_frequency: int = 1,
        config_overrides: dict[str, Any] | None = None,
        sim: SimConfig | None = None,
    ) -> dict[Mode, RunResult]:
        """Run one workload under several modes (one config for all)."""
        cells = make_suite_cells(
            workload_name,
            nprocs,
            modes,
            workload_params=workload_params,
            call_frequency=call_frequency,
            config_overrides=config_overrides,
            sim=sim,
        )
        results = self.run_cells(cells)
        return {cell.mode: result for cell, result in zip(cells, results)}

    def run_suite_groups(
        self, groups: Sequence[Sequence[Cell]]
    ) -> list[dict[Mode, RunResult]]:
        """Run many suites as one flat batch (maximal fan-out), then
        regroup the results per suite in input order."""
        flat = [cell for group in groups for cell in group]
        results = self.run_cells(flat)
        out: list[dict[Mode, RunResult]] = []
        cursor = 0
        for group in groups:
            out.append(
                {
                    cell.mode: results[cursor + offset]
                    for offset, cell in enumerate(group)
                }
            )
            cursor += len(group)
        return out


# ---------------------------------------------------------------------------
# the process-wide default engine (what the CLI and generators share)
# ---------------------------------------------------------------------------

_DEFAULT_ENGINE: ExperimentEngine | None = None


def _env_jobs() -> int:
    try:
        return int(os.environ.get(ENV_JOBS, "1"))
    except ValueError:
        return 1


def get_engine() -> ExperimentEngine:
    """The process-wide engine every generator routes through.

    Created on first use from the environment (``REPRO_JOBS``,
    ``REPRO_CACHE_DIR``, ``REPRO_NO_CACHE``); reconfigure it with
    :func:`configure_engine`.
    """
    global _DEFAULT_ENGINE
    if _DEFAULT_ENGINE is None:
        _DEFAULT_ENGINE = ExperimentEngine(
            jobs=_env_jobs(),
            cache=None if cache_disabled_by_env() else RunCache(),
        )
    return _DEFAULT_ENGINE


def configure_engine(
    jobs: int | None = None,
    cache_dir: str | None = None,
    no_cache: bool | None = None,
    progress: ProgressFn | None = None,
    policy: RetryPolicy | None = None,
) -> ExperimentEngine:
    """Install (and return) a new default engine.

    Unspecified arguments fall back to the environment: ``REPRO_JOBS``,
    ``REPRO_CACHE_DIR`` and ``REPRO_NO_CACHE``.
    """
    global _DEFAULT_ENGINE
    if no_cache is None:
        no_cache = cache_disabled_by_env()
    cache = None if no_cache else RunCache(cache_dir or default_cache_dir())
    _DEFAULT_ENGINE = ExperimentEngine(
        jobs=_env_jobs() if jobs is None else jobs,
        cache=cache,
        progress=progress,
        policy=policy,
    )
    return _DEFAULT_ENGINE
