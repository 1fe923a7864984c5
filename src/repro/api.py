"""repro.api — the stable, scripting-friendly facade.

One import gives the whole workflow::

    import repro

    result = repro.run("bt", nprocs=16, mode="chameleon")
    rows, text = repro.run_experiment("table2")
    trace = repro.load_trace("bt.st")
    replayed = repro.replay(trace)
    diff = repro.compare("a.st", "b.st")

Everything here is re-exported from the top-level :mod:`repro` package.
The deep import paths (``repro.harness.runner``, ``repro.scalatrace.trace``,
…) keep working, but new code should prefer this module: it is the surface
the project commits to keeping stable.

All execution routes through the process-wide
:class:`~repro.harness.engine.ExperimentEngine`, so api calls share the
same worker pool and content-addressed run cache as the CLI and the
benchmark suite; tune it with :func:`configure_engine`.
"""

from __future__ import annotations

from typing import Any, Callable

from .harness import figures, tables
from .harness.engine import (
    ExperimentEngine,
    configure_engine,
    get_engine,
    make_cell,
)
from .faults.plan import (
    ComputeFault,
    CrashFault,
    FaultPlan,
    FaultPlanError,
    LinkFault,
    MessageFaults,
)
from .harness.runner import Mode, RunResult, overhead
from .obs import (
    Inspection,
    Instrument,
    MetricsRegistry,
    ObsData,
    Recorder,
    export_chrome_trace,
    export_metrics_jsonl,
)
from .replay.replayer import ReplayResult, replay_trace
from .resilience import QuarantineError, RetryPolicy
from .scalatrace.difftool import TraceDiff, diff_traces
from .scalatrace.trace import Trace
from .simmpi.simconfig import DEFAULT_CONFIG, SimConfig
from . import serve
from .simmpi.timing import NetworkModel, QDR_CLUSTER

#: Every paper artifact regenerable via :func:`run_experiment` / the CLI.
EXPERIMENTS: dict[str, Callable[[], tuple]] = {
    "table1": tables.table1,
    "table2": tables.table2,
    "table3": tables.table3,
    "table4": tables.table4,
    "fig4": figures.figure4,
    "fig5": figures.figure5,
    "fig6": figures.figure6,
    "fig7": figures.figure7,
    "fig8": figures.figure8,
    "fig9": figures.figure9,
    "fig10": figures.figure10,
    "fig11": figures.figure11,
}

__all__ = [
    "EXPERIMENTS",
    "ComputeFault",
    "CrashFault",
    "DEFAULT_CONFIG",
    "ExperimentEngine",
    "FaultPlan",
    "FaultPlanError",
    "Inspection",
    "Instrument",
    "LinkFault",
    "MessageFaults",
    "MetricsRegistry",
    "Mode",
    "NetworkModel",
    "ObsData",
    "QuarantineError",
    "Recorder",
    "RetryPolicy",
    "RunResult",
    "SimConfig",
    "Trace",
    "compare",
    "configure_engine",
    "export_chrome_trace",
    "export_metrics_jsonl",
    "get_engine",
    "inspect",
    "load_trace",
    "overhead",
    "replay",
    "run",
    "run_experiment",
    "serve",
    "stream_run",
]


def run(
    workload: str,
    nprocs: int = 16,
    mode: Mode | str = Mode.CHAMELEON,
    *,
    workload_params: dict[str, Any] | None = None,
    call_frequency: int = 1,
    config_overrides: dict[str, Any] | None = None,
    sim: SimConfig | None = None,
    engine: ExperimentEngine | None = None,
    instrument: Instrument | None = None,
    faults: FaultPlan | None = None,
) -> RunResult:
    """Run one ``(workload, nprocs, mode)`` cell and return its result.

    The workload is named as in ``repro.workloads.make_workload``; the
    paper's per-workload configuration (Table I's K, POP's signature
    filter) is derived automatically and adjusted via
    ``config_overrides``.  Results are cached and may be computed by the
    engine's worker pool.

    ``sim`` is a :class:`SimConfig` carrying every simulator engine option
    (network model, gate strategy, step budget).

    Pass ``instrument=Recorder()`` to capture the run's virtual-time event
    timeline on ``result.obs`` (see :func:`inspect`); instrumented runs
    always execute inline and bypass the cache, and their virtual clocks
    are bit-identical to the uninstrumented run.

    Pass ``faults=FaultPlan(...)`` to inject deterministic failures (rank
    crashes, message drops/delays, slow links, compute noise); the run
    degrades gracefully instead of erroring, reporting crashed ranks on
    ``result.failed_ranks`` and the injector's event counters under
    ``result.extra["fault_summary"]``.  The same plan and seed always
    reproduce the same result; an empty plan changes nothing.
    """
    engine = engine or get_engine()
    cell = make_cell(
        workload,
        nprocs,
        Mode(mode) if not isinstance(mode, Mode) else mode,
        workload_params=workload_params,
        call_frequency=call_frequency,
        config_overrides=config_overrides,
        sim=sim,
        faults=faults,
    )
    if instrument is not None:
        return engine.run_cell_instrumented(cell, instrument)
    (result,) = engine.run_cells([cell])
    return result


def inspect(result: RunResult) -> Inspection:
    """Queryable observability view of a :class:`RunResult`.

    Always provides the metrics registry (tracer/Chameleon/ACURDION
    statistics under ``tracer/…``, ``chameleon/…``, ``acurdion/…`` names);
    when the run executed with a :class:`Recorder` the event timeline
    (spans, instants, the live ``p2p/…``/``coll/…`` send and fast-path
    counters) is included too.  A fact a span or instant records is read
    off it (a collective's count and time from its ``coll`` spans, a
    crash from its ``fault`` instant), not from a counter::

        result = repro.run("bt", 16, "chameleon", instrument=repro.Recorder())
        view = repro.inspect(result)
        view.metric("chameleon/vote_time")        # summed over ranks
        view.spans(cat="coll", rank=0)            # collective spans, rank 0
        print(view.summary())
    """
    meta = {
        "workload": result.workload,
        "nprocs": result.nprocs,
        "mode": result.mode.value,
    }
    if result.obs is not None:
        meta = {**result.obs.meta, **meta}
    return Inspection(registry=result.registry(), obs=result.obs, meta=meta)


def run_experiment(
    name: str, *, engine: ExperimentEngine | None = None
) -> tuple[Any, str]:
    """Regenerate one paper artifact: ``(rows, rendered_text)``.

    ``name`` is one of :data:`EXPERIMENTS` (``table1``-``table4``,
    ``fig4``-``fig11``).  Passing ``engine`` temporarily installs it as
    the process default for the duration of the call.
    """
    try:
        fn = EXPERIMENTS[name]
    except KeyError:
        raise ValueError(
            f"unknown experiment {name!r}; choose from "
            f"{', '.join(sorted(EXPERIMENTS))}"
        ) from None
    if engine is None:
        return fn()
    import repro.harness.engine as _engine_mod

    previous = _engine_mod._DEFAULT_ENGINE
    _engine_mod._DEFAULT_ENGINE = engine
    try:
        return fn()
    finally:
        _engine_mod._DEFAULT_ENGINE = previous


def load_trace(path: str) -> Trace:
    """Load a trace file written by ``Trace.save`` / ``repro run -o``."""
    return Trace.load(path)


def _as_trace(trace: Trace | str) -> Trace:
    return trace if isinstance(trace, Trace) else Trace.load(trace)


def replay(
    trace: Trace | str,
    nprocs: int | None = None,
    *,
    network: NetworkModel = QDR_CLUSTER,
    timing: str = "mean",
    seed: int = 0x5CA1AB1E,
) -> ReplayResult:
    """Replay a trace (object or file path) on the simulated runtime."""
    return replay_trace(
        _as_trace(trace), nprocs=nprocs, network=network, timing=timing,
        seed=seed,
    )


def compare(a: Trace | str, b: Trace | str) -> TraceDiff:
    """Semantically diff two traces (objects or file paths)."""
    return diff_traces(_as_trace(a), _as_trace(b))


def stream_run(
    steps: "list[dict] | str",
    nprocs: int = 16,
    mode: Mode | str = Mode.CHAMELEON,
    *,
    call_frequency: int = 1,
    config_overrides: dict[str, Any] | None = None,
    sim: SimConfig | None = None,
    engine: ExperimentEngine | None = None,
) -> RunResult:
    """Run a declared event stream as a batch ``stream`` workload.

    ``steps`` is either a list of step-event dicts (the same objects a
    client would POST to ``repro serve`` as NDJSON lines) or an
    already-canonical steps-JSON string.  This is the batch twin of the
    serving path — and its oracle: a served job over the same events
    produces a bit-identical :class:`RunResult` (same fingerprint, same
    trace bytes) and shares the same cache entry.
    """
    from .workloads.stream import canonical_steps_json, normalize_steps

    if isinstance(steps, str):
        import json as _json

        steps = _json.loads(steps)
    steps_json = canonical_steps_json(normalize_steps(steps))
    return run(
        "stream", nprocs, mode,
        workload_params={"steps_json": steps_json},
        call_frequency=call_frequency,
        config_overrides=config_overrides,
        sim=sim,
        engine=engine,
    )
