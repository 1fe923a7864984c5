"""Command-line interface: run, inspect, replay, and reproduce.

Usage (installed as a module)::

    python -m repro list
    python -m repro run --workload bt --nprocs 16 --mode chameleon -o bt.st
    python -m repro run --workload synthetic --mode chameleon \
        --obs-out run.obs.json
    python -m repro trace run.obs.json -o t.json
    python -m repro stats run.obs.json
    python -m repro info bt.st
    python -m repro replay bt.st
    python -m repro timeline bt.st --width 60
    python -m repro experiment table2
    python -m repro experiment fig4 --jobs 4
    python -m repro run --workload bt --faults plan.json --fault-seed 7
    python -m repro chaos --workload bt --nprocs 16 --report chaos.json
    python -m repro bench --baseline benchmarks/BENCH_scaling.json
    python -m repro serve --port 8537

``run`` builds one cell and, for a fault-free tracing mode, the APP
baseline its overhead is measured against, runs them as one batch and
prints one result block.  ``experiment`` regenerates one of the paper's
tables/figures and prints the same rows the paper reports (see
EXPERIMENTS.md for the mapping).  ``run``, ``experiment`` and ``serve``
share the process-wide experiment engine: ``--jobs N`` fans ``run`` and
``experiment`` cells out over worker processes, and a content-addressed
run cache (``--cache-dir``, disable with ``--no-cache``) makes
re-invocations serve previously-computed cells from disk.  Flags several
subcommands take are declared once, in :func:`build_parser`'s shared
groups.

Observability: ``run --obs-out`` writes the run's observability bundle
(spans, instants and every metric of ``RunResult.registry()``);
``repro trace`` exports it as a Chrome ``trace_event`` JSON of the
virtual-time timeline (open it in ui.perfetto.dev) and ``repro stats
--jsonl`` as a flat metrics JSONL.  Instrumented runs bypass the cache;
their virtual clocks are bit-identical to uninstrumented ones.

Fault injection: ``run --faults PLAN.json`` installs a deterministic
:class:`~repro.faults.FaultPlan` (see docs/FAULTS.md for the schema).
``repro chaos`` sweeps a built-in matrix of such faults, and ``repro
chaos host`` one of *host-level* faults (killed and hung pool workers,
damaged cache files; docs/RESILIENCE.md), both through one loop
(:mod:`repro.resilience.chaos`) that runs every scenario twice and
checks the reruns agree.  ``repro cache verify`` (``--fix``) sweeps the
run cache for corrupt and orphaned entries.

Failures map to distinct exit codes with one-line diagnostics: a usage
error (including an out-of-range numeric flag) or invalid fault plan = 2,
deadlock = 3, rank failure = 4, engine limit = 5, quarantined cells = 6
(partial results preserved on the error).  Pass ``repro --traceback …`` to
get the full Python stack instead.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from functools import partial
from pathlib import Path
from typing import Callable, Sequence

from .api import EXPERIMENTS as _EXPERIMENTS, run_experiment
from .faults.plan import FaultPlan, FaultPlanError
from .harness import Mode, overhead
from .harness.engine import (
    CellEvent,
    ExperimentEngine,
    configure_engine,
    make_cell,
)
from .obs import Recorder
from .replay import accuracy, communication_matrix, hotspots, replay_trace
from .resilience.chaos import (
    FAULT_SCENARIOS,
    HOST_SCENARIOS,
    UnknownScenarioError,
    run_fault_chaos,
    run_host_chaos,
)
from .resilience.policy import QuarantineError
from .scalatrace.analysis import summarize
from .scalatrace.trace import Trace
from .simmpi.errors import DeadlockError, EngineLimitError, TaskFailedError
from .workloads.registry import workload_names


def _at_least(low: int, high: int | None = None) -> Callable[[str], int]:
    """``type=`` for an integer flag that must be >= ``low`` (and <=
    ``high``): a value out of range is an argparse usage error (exit 2),
    not a traceback."""

    def convert(text: str) -> int:
        value = int(text)
        if value < low or (high is not None and value > high):
            bound = "" if high is None else f" and <= {high}"
            raise argparse.ArgumentTypeError(
                f"must be >= {low}{bound}, got {value}")
        return value

    convert.__name__ = "int"  # argparse names it in "invalid int value"
    return convert


def _progress_printer(event: CellEvent) -> None:
    if event.kind == "scheduled":
        return
    wall = f" [{event.wall:.2f}s]" if event.kind == "done" else ""
    print(f"[engine] {event.kind:>5s} {event.label}{wall}", file=sys.stderr)


def _engine_from(args: argparse.Namespace) -> ExperimentEngine:
    if args.cache_dir and Path(args.cache_dir).is_file():
        raise SystemExit(
            f"error: --cache-dir {args.cache_dir!r} is a file, not a directory"
        )
    return configure_engine(
        jobs=getattr(args, "jobs", None),
        cache_dir=args.cache_dir or None,
        no_cache=True if args.no_cache else None,
        progress=_progress_printer if getattr(args, "progress", False)
        else None,
    )


def _faults_from(args: argparse.Namespace) -> FaultPlan | None:
    """Load + validate the --faults plan, applying --fault-seed."""
    if not args.faults:
        if args.fault_seed is not None:
            raise SystemExit("error: --fault-seed requires --faults PLAN.json")
        return None
    plan = FaultPlan.load(args.faults)
    if args.fault_seed is not None:
        plan = dataclasses.replace(plan, seed=args.fault_seed)
    plan.validate(args.nprocs)
    return plan


def _cmd_list(_args: argparse.Namespace) -> int:
    print("workloads:")
    for name in workload_names():
        print(f"  {name}")
    print("experiments:")
    for name in sorted(_EXPERIMENTS):
        print(f"  {name}")
    return 0


def _workload_params(args: argparse.Namespace) -> dict:
    """The ``make_workload`` keywords the workload flags set."""
    params = {}
    if args.problem_class:
        params["problem_class"] = args.problem_class
    if args.iterations:
        params["iterations"] = args.iterations
    return params


def _cmd_run(args: argparse.Namespace) -> int:
    engine = _engine_from(args)
    mode = Mode(args.mode)
    faults = _faults_from(args)
    cell = make_cell(
        args.workload,
        args.nprocs,
        mode,
        workload_params=_workload_params(args),
        call_frequency=args.call_frequency,
        sim=_sim_from(args),
        faults=faults,
    )
    # A fault-free traced run is measured against its APP baseline; a
    # faulted run has no fault-free twin to compare with.
    cells = [cell]
    if faults is None and mode is not Mode.APP:
        cells.insert(0, dataclasses.replace(cell, mode=Mode.APP))
    recorder = Recorder() if args.obs_out else None
    # with a Recorder the selected mode runs inline, bypassing the cache;
    # a baseline still goes through the engine
    results = engine.run_cells(cells if recorder is None else cells[:-1])
    if recorder is not None:
        results.append(engine.run_cell_instrumented(cell, recorder))
    result = results[-1]
    if faults is None:
        app = results[0]
        print(f"application time (aggregated): {app.total_time:.6f} s")
        if mode is not Mode.APP:
            print(f"{mode.value} overhead:            "
                  f"{overhead(result, app):.6f} s")
    else:
        print(f"{mode.value} run under fault plan {args.faults}")
        print(f"virtual makespan: {result.max_time:.6f} s")
        if result.failed_ranks:
            print(f"crashed ranks: {', '.join(map(str, result.failed_ranks))}")
        summary = result.extra.get("fault_summary", {})
        if summary:
            items = ", ".join(f"{k}={v}" for k, v in sorted(summary.items()))
            print(f"fault events: {items}")
    if result.trace is not None:
        print(
            f"trace: {result.trace.leaf_count()} PRSD events / "
            f"{result.trace.expanded_count()} MPI calls"
        )
        if args.output:
            result.trace.save(args.output)
            print(f"written to {args.output}")
    elif args.output:
        why = (
            "APP mode runs uninstrumented and produces no trace; pick a "
            "tracing mode (chameleon/scalatrace/acurdion) to save one"
            if mode is Mode.APP
            else f"the {mode.value} run produced no trace"
        )
        print(f"warning: --output ignored — {why}", file=sys.stderr)
    if recorder is not None:
        _write_obs_bundle(result, args.obs_out)
    return 0


def _write_obs_bundle(result, path: str) -> None:
    """The instrumented run's spans and instants, with every metric of
    ``result.registry()`` (the per-rank statistics and the live ones)."""
    import json

    obs = dataclasses.replace(result.obs, metrics=result.registry())
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obs.to_dict(), fh)
    print(f"obs bundle: {path} (inspect with `repro trace` / `repro stats`)")


def _load_obs_bundle(path: str):
    import json

    from .obs import ObsData

    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, ValueError) as exc:
        raise SystemExit(f"error: cannot read obs bundle {path!r}: {exc}")
    if "traceEvents" in data:
        raise SystemExit(
            f"error: {path!r} is an exported Chrome trace; `repro trace` "
            "and `repro stats` take the raw bundle written by "
            "`repro run --obs-out`"
        )
    return ObsData.from_dict(data)


def _load_trace(path: str) -> Trace:
    """``Trace.load``, or one line on stderr and exit 2 for a file that
    cannot be read (``repro diff`` keeps exit 1 for "the traces differ")."""
    try:
        return Trace.load(path)
    except (OSError, ValueError) as exc:
        print(f"error: cannot read trace {path!r}: {exc}", file=sys.stderr)
        raise SystemExit(2) from None


def _cmd_trace(args: argparse.Namespace) -> int:
    from .obs import export_chrome_trace

    obs = _load_obs_bundle(args.run)
    out = args.output or str(Path(args.run).with_suffix("")) + ".trace.json"
    doc = export_chrome_trace(obs, out)
    print(
        f"chrome trace: {out} ({len(doc['traceEvents'])} events, "
        f"{len(obs.ranks())} lanes) — open in ui.perfetto.dev"
    )
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    from .obs import export_metrics_jsonl, format_summary

    obs = _load_obs_bundle(args.run)
    print(format_summary(obs))
    if args.jsonl:
        rows = export_metrics_jsonl(obs, args.jsonl)
        print(f"metrics: {args.jsonl} ({rows} rows)")
    return 0


def _cmd_info(args: argparse.Namespace) -> int:
    trace = _load_trace(args.trace)
    print(summarize(trace).report())
    matrix = communication_matrix(trace)
    hs = hotspots(matrix)
    if hs:
        print("  top senders (p2p bytes):")
        for rank, nbytes in hs:
            print(f"    rank {rank:5d}: {nbytes:.0f} B")
    if args.matrix:
        print("  communication matrix (bytes):")
        for row in matrix:
            print("   ", " ".join(f"{v:10.0f}" for v in row))
    return 0


def _cmd_replay(args: argparse.Namespace) -> int:
    trace = _load_trace(args.trace)
    nprocs = args.nprocs or trace.nprocs
    result = replay_trace(trace, nprocs=nprocs)
    print(f"replayed {result.stats.ops_issued} operations on {nprocs} ranks")
    print(f"replay time: {result.time:.6f} s")
    if result.stats.p2p_dropped:
        print(f"warning: {result.stats.p2p_dropped} unmatched p2p ops dropped")
    if args.reference is not None:
        print(f"accuracy vs reference: {100 * accuracy(args.reference, result.time):.2f}%")
    return 0


def _cmd_timeline(args: argparse.Namespace) -> int:
    from .replay import reconstruct_timeline

    trace = _load_trace(args.trace)
    nprocs = args.nprocs or trace.nprocs
    timeline = reconstruct_timeline(trace, nprocs=nprocs)
    print(timeline.gantt(width=args.width))
    print()
    for rank in range(timeline.nprocs):
        print(
            f"rank {rank:4d}: busy "
            f"{100 * timeline.busy_fraction(rank):5.1f}%"
        )
    return 0


def _cmd_diff(args: argparse.Namespace) -> int:
    from .scalatrace.difftool import diff_traces

    a = _load_trace(args.trace_a)
    b = _load_trace(args.trace_b)
    diff = diff_traces(a, b)
    print(diff.report())
    return 0 if diff.similarity() >= args.threshold else 1


def _cmd_chaos(args: argparse.Namespace) -> int:
    seed = args.fault_seed
    if args.kind == "host":
        sweep = partial(run_host_chaos, seed=0x0457 if seed is None else seed)
    else:
        cell = make_cell(args.workload, args.nprocs, Mode(args.mode),
                         workload_params=_workload_params(args),
                         sim=_sim_from(args))
        sweep = partial(run_fault_chaos, cell,
                        seed=FaultPlan.seed if seed is None else seed)
    try:
        report = sweep(args.scenario, report_path=args.report, log=print)
    except UnknownScenarioError as exc:
        raise SystemExit(f"error: {exc}") from None
    if args.report:
        print(f"chaos report: {args.report}")
    if report["ok"]:
        print(f"chaos {report['kind']}: every scenario recovered, "
              "reruns identical")
    else:
        print(f"chaos {report['kind']}: FAILURES above", file=sys.stderr)
    return 0 if report["ok"] else 1


def _cmd_cache(args: argparse.Namespace) -> int:
    import json

    from .harness.cache import RunCache, default_cache_dir

    root = Path(args.cache_dir) if args.cache_dir else default_cache_dir()
    cache = RunCache(root=root)
    report = cache.verify(fix=args.fix)
    print(f"cache: {root} (generation {report.generation})")
    print(report.summary())
    for path in report.corrupt:
        print(f"  corrupt:  {path}")
    for path in report.orphaned:
        print(f"  orphaned: {path}")
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            json.dump(report.as_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"cache report: {args.report}")
    if report.clean:
        return 0
    damage = len(report.corrupt) + len(report.orphaned)
    return 0 if args.fix and report.removed == damage else 1


def _sim_from(args: argparse.Namespace):
    """Parse repeated ``--config KEY=VAL`` flags into a SimConfig."""
    from .simmpi.simconfig import parse_config

    try:
        return parse_config(args.config or ())
    except ValueError as exc:
        raise SystemExit(f"error: {exc}")


def _cmd_bench(args: argparse.Namespace) -> int:
    from .harness.bench import (
        KERNELS,
        compare,
        format_bench,
        load_bench,
        run_scaling_bench,
        save_bench,
    )

    sim = _sim_from(args)
    ps = tuple(args.p) if args.p else None
    kernels = tuple(args.kernel) if args.kernel else tuple(KERNELS)

    def _progress(record: dict) -> None:
        print(
            f"[bench] {record['kernel']} P={record['nprocs']}: "
            f"{record['wall_s']:.3f}s, "
            f"{record['matched_per_s']} matches/s",
            file=sys.stderr,
        )

    doc = run_scaling_bench(ps=ps, kernels=kernels, progress=_progress,
                            sim=sim)
    print(format_bench(doc))
    if args.output:
        save_bench(doc, args.output)
        print(f"written to {args.output}")
    if args.baseline:
        try:
            baseline = load_bench(args.baseline)
        except (OSError, ValueError) as exc:
            raise SystemExit(f"error: cannot read baseline: {exc}")
        problems = compare(doc, baseline, tolerance=args.tolerance)
        if problems:
            print(
                f"bench: {len(problems)} regression(s) vs {args.baseline}:",
                file=sys.stderr,
            )
            for p in problems:
                print(f"  {p}", file=sys.stderr)
            return 1
        print(f"bench: within {args.tolerance:.0%} of {args.baseline}")
    return 0


def _cmd_config(args: argparse.Namespace) -> int:
    """``repro config show``: print the resolved engine configuration."""
    from .simmpi.simconfig import NETWORK_PRESETS

    sim = _sim_from(args)
    n = sim.network
    preset = next(
        (name for name, model in NETWORK_PRESETS.items() if model == n),
        "<custom>",
    )
    ms = "unlimited" if sim.max_steps is None else str(sim.max_steps)
    print(f"network       {preset}")
    print(f"  latency             {n.latency:.3e} s")
    print(f"  bandwidth           {n.bandwidth:.3e} B/s")
    print(f"  o_send              {n.o_send:.3e} s")
    print(f"  o_recv              {n.o_recv:.3e} s")
    print(f"  eager_threshold     {n.eager_threshold} B")
    print(f"  min_message_bytes   {n.min_message_bytes} B")
    print(f"gates         {sim.gates}")
    print(f"max_steps     {ms}")
    print(f"cache digest  {sim.digest()}")
    print("  (digests only the outcome-determining fields; "
          "gates\n   selects bit-identical strategies that "
          "share one cache slot)")
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    engine = _engine_from(args)
    try:
        rows, text = run_experiment(args.name)
    except ValueError as exc:  # an unknown name
        print(exc, file=sys.stderr)
        return 2
    print(text)
    print(engine.metrics.summary())
    if args.export:
        from .harness.export import save_rows

        if isinstance(rows, dict):  # table4 returns a dict payload
            rows = [rows]
        path = save_rows(rows, args.export)
        print(f"rows exported to {path}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import signal
    import threading

    from .serve.app import ServerThread
    from .serve.jobs import ServeConfig

    engine = _engine_from(args)
    try:
        config = ServeConfig(
            host=args.host,
            port=args.port,
            max_stream_jobs=args.max_stream_jobs,
            idle_timeout=args.idle_timeout,
        )
    except ValueError as exc:
        print(f"repro serve: {exc}", file=sys.stderr)
        return 2
    # Explicit handlers rather than relying on KeyboardInterrupt: a
    # process started in the background inherits SIGINT as SIG_IGN, in
    # which case Python never raises KeyboardInterrupt at all —
    # signal.signal overrides the disposition either way, and SIGTERM
    # gets the same graceful path.  Installed before the banner so
    # "listening on" means signals are handled too.
    stop = threading.Event()
    for sig in (signal.SIGINT, signal.SIGTERM):
        signal.signal(sig, lambda *_: stop.set())
    try:
        server = ServerThread(engine, config)
    except OSError as exc:
        print(f"repro serve: cannot listen on {config.host}:{config.port}: "
              f"{exc.strerror or exc}", file=sys.stderr)
        return 1
    with server:
        print(
            f"repro serve: listening on http://{config.host}:{server.port} "
            f"(cache={'on' if engine.cache is not None else 'off'})",
            flush=True,
        )
        stop.wait()
        print("repro serve: shutting down", file=sys.stderr)
    return 0


def _add_workload_flags(
    parser: argparse.ArgumentParser,
    workload: str | None = None,
    modes: Sequence[Mode] = tuple(Mode),
) -> None:
    """The flags naming one cell, shared by ``run`` and ``chaos``; without
    a default ``--workload`` is required."""
    parser.add_argument(
        "--workload", default=workload, required=workload is None,
        choices=workload_names(),
    )
    parser.add_argument("--nprocs", type=_at_least(1), default=16)
    parser.add_argument(
        "--mode", default="chameleon", choices=[m.value for m in modes],
        help="tracing mode (chaos: APP produces no trace to compare)",
    )
    parser.add_argument("--problem-class", default="")
    parser.add_argument("--iterations", type=_at_least(0), default=0)
    parser.add_argument(
        "--fault-seed", type=int, default=None, metavar="N",
        help="seed of the fault plan (run: overrides the --faults plan's; "
        "chaos: every scenario's, default the plan default)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Chameleon reproduction: run workloads, inspect traces, "
        "regenerate the paper's experiments.",
    )
    parser.add_argument(
        "--traceback", action="store_true",
        help="print full Python tracebacks instead of one-line diagnostics",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # Flag groups several subcommands share, each declared once and
    # inherited through ``parents=``.
    cache_dir = argparse.ArgumentParser(add_help=False)
    cache_dir.add_argument(
        "--cache-dir", default="", metavar="DIR",
        help="run cache directory (default: $REPRO_CACHE_DIR or .repro-cache)",
    )
    cache = argparse.ArgumentParser(add_help=False, parents=[cache_dir])
    cache.add_argument(
        "--no-cache", action="store_true",
        help="disable the on-disk run cache for this invocation",
    )
    engine = argparse.ArgumentParser(add_help=False, parents=[cache])
    engine.add_argument(
        "--jobs", type=_at_least(0), default=None, metavar="N",
        help="worker processes for experiment cells "
        "(default: $REPRO_JOBS or 1; 0 = all cores)",
    )
    engine.add_argument(
        "--progress", action="store_true",
        help="print per-cell progress (hit/start/done) to stderr",
    )
    config = argparse.ArgumentParser(add_help=False)
    config.add_argument(
        "--config", action="append", metavar="KEY=VAL",
        help="engine option as a SimConfig field (repeatable): "
        "network=qdr|slow|zero, gates=fast|simulated, max_steps=N|none; "
        "with `run --obs-out`, gates=simulated puts every constituent "
        "message on the timeline",
    )
    report = argparse.ArgumentParser(add_help=False)
    report.add_argument(
        "--report", default="", metavar="FILE",
        help="write the machine-readable report as JSON",
    )

    sub.add_parser("list", help="list workloads and experiments").set_defaults(
        fn=_cmd_list
    )

    p_run = sub.add_parser("run", parents=[engine, config],
                           help="run a workload under a tracing mode")
    _add_workload_flags(p_run)
    p_run.add_argument("--call-frequency", type=_at_least(1), default=1)
    p_run.add_argument("-o", "--output", default="", help="save trace here")
    p_run.add_argument(
        "--obs-out", default="", metavar="FILE",
        help="instrument the run and write its observability bundle "
        "(export with `repro trace` / `repro stats --jsonl`)",
    )
    p_run.add_argument(
        "--faults", default="", metavar="PLAN.json",
        help="inject deterministic faults from this plan "
        "(schema in docs/FAULTS.md); the run degrades gracefully and "
        "reports crashed ranks + fault-event counters",
    )
    p_run.set_defaults(fn=_cmd_run)

    p_info = sub.add_parser("info", help="summarize a trace file")
    p_info.add_argument("trace")
    p_info.add_argument("--matrix", action="store_true",
                        help="print the full communication matrix")
    p_info.set_defaults(fn=_cmd_info)

    p_replay = sub.add_parser("replay", help="replay a trace file")
    p_replay.add_argument("trace")
    p_replay.add_argument("--nprocs", type=_at_least(0), default=0,
                          help="ranks to replay on (0 = the trace's)")
    p_replay.add_argument(
        "--reference", type=float, default=None,
        help="reference time for the accuracy metric",
    )
    p_replay.set_defaults(fn=_cmd_replay)

    p_tl = sub.add_parser("timeline", help="ASCII Gantt chart of a trace")
    p_tl.add_argument("trace")
    p_tl.add_argument("--nprocs", type=_at_least(0), default=0,
                      help="ranks to replay on (0 = the trace's)")
    p_tl.add_argument("--width", type=_at_least(10), default=72)
    p_tl.set_defaults(fn=_cmd_timeline)

    p_diff = sub.add_parser("diff", help="semantically compare two traces")
    p_diff.add_argument("trace_a")
    p_diff.add_argument("trace_b")
    p_diff.add_argument(
        "--threshold", type=float, default=0.95,
        help="exit non-zero if similarity falls below this",
    )
    p_diff.set_defaults(fn=_cmd_diff)

    p_trace = sub.add_parser(
        "trace", help="export an obs bundle as a Chrome/Perfetto trace"
    )
    p_trace.add_argument("run", help="bundle written by `repro run --obs-out`")
    p_trace.add_argument(
        "-o", "--output", default="",
        help="output path (default: <run>.trace.json)",
    )
    p_trace.set_defaults(fn=_cmd_trace)

    p_stats = sub.add_parser(
        "stats", help="summarize an obs bundle's metrics in the terminal"
    )
    p_stats.add_argument("run", help="bundle written by `repro run --obs-out`")
    p_stats.add_argument(
        "--jsonl", default="", metavar="FILE",
        help="also export the metric samples as JSONL",
    )
    p_stats.set_defaults(fn=_cmd_stats)

    p_chaos = sub.add_parser(
        "chaos", parents=[config, report],
        help="sweep a fault matrix (virtual-time faults) or the host-fault "
        "suite (`chaos host`); report survival and determinism",
    )
    p_chaos.add_argument(
        "kind", nargs="?", default="matrix", choices=("matrix", "host"),
        help="matrix = virtual-time fault scenarios inside the simulation "
        "(default); host = kill/stop/delay real worker processes and "
        "damage cache files, asserting recorded recovery",
    )
    _add_workload_flags(p_chaos, workload="bt",
                        modes=[m for m in Mode if m is not Mode.APP])
    p_chaos.add_argument(
        "--scenario", action="append", metavar="NAME",
        help="run only this scenario (repeatable; matrix scenarios: "
        f"{', '.join(FAULT_SCENARIOS)}; host scenarios: "
        f"{', '.join(HOST_SCENARIOS)})",
    )
    p_chaos.set_defaults(fn=_cmd_chaos, chaos_parser=p_chaos)

    p_cache = sub.add_parser(
        "cache", parents=[cache_dir, report],
        help="inspect and repair the on-disk run cache",
    )
    p_cache.add_argument(
        "action", choices=("verify",),
        help="verify: re-validate every entry of the current generation "
        "(schema, key, checksum) and report orphaned .tmp spills and "
        "stale-generation entries",
    )
    p_cache.add_argument(
        "--fix", action="store_true",
        help="delete corrupt and orphaned files instead of just reporting "
        "them",
    )
    p_cache.set_defaults(fn=_cmd_cache)

    p_bench = sub.add_parser(
        "bench", parents=[config],
        help="measure simulator scaling (wall time, RSS, match throughput) "
        "and optionally gate against a committed BENCH_scaling.json",
    )
    p_bench.add_argument(
        "--p", type=int, action="append", metavar="N",
        help="process count to benchmark (repeatable; "
        "default 256 1024 4096 16384)",
    )
    p_bench.add_argument(
        "--kernel", action="append", metavar="NAME",
        choices=["allreduce_barrier", "halo_exchange"],
        help="kernel to run (repeatable; default: all)",
    )
    p_bench.add_argument(
        "-o", "--output", default="BENCH_scaling.json", metavar="FILE",
        help="write the benchmark document here (empty string to skip)",
    )
    p_bench.add_argument(
        "--baseline", default="", metavar="FILE",
        help="compare against this committed benchmark document; "
        "exit 1 on wall-time regression beyond --tolerance",
    )
    p_bench.add_argument(
        "--tolerance", type=float, default=0.2, metavar="FRAC",
        help="allowed wall-time growth vs baseline (default 0.2 = +20%%)",
    )
    p_bench.set_defaults(fn=_cmd_bench)

    p_config = sub.add_parser(
        "config", parents=[config],
        help="inspect the resolved engine configuration",
    )
    p_config.add_argument(
        "action", choices=("show",),
        help="show: print the resolved SimConfig (preset expanded) and "
        "its cache digest",
    )
    p_config.set_defaults(fn=_cmd_config)

    p_exp = sub.add_parser("experiment", parents=[engine],
                           help="regenerate a paper experiment")
    p_exp.add_argument("name")
    p_exp.add_argument(
        "--export", default="",
        help="also write the rows to this .json or .csv file",
    )
    p_exp.set_defaults(fn=_cmd_experiment)

    p_serve = sub.add_parser(
        "serve", parents=[cache],
        help="run the streaming trace-ingestion service (docs/SERVING.md)",
    )
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument(
        "--port", type=_at_least(0, 65535), default=8537,
        help="TCP port (0 picks a free one and prints it)",
    )
    p_serve.add_argument(
        "--max-stream-jobs", type=int, default=32,
        help="cap on concurrently running jobs, streamed or uploaded",
    )
    p_serve.add_argument(
        "--idle-timeout", type=float, default=300.0, metavar="SECONDS",
        help="fail a streamed job when no event arrives for this long "
        "(default: 300)",
    )
    p_serve.set_defaults(fn=_cmd_serve)

    return parser


#: Exception-to-exit-code map: distinct nonzero codes per failure class,
#: checked in order (FaultPlanError subclasses ValueError, the rest
#: SimMPIError; EngineLimitError must precede TaskFailedError — deliberately
#: unrelated classes, but the ordering documents the intent).
_DIAGNOSTIC_EXITS: tuple[tuple[type, int, str], ...] = (
    (FaultPlanError, 2, "invalid fault plan"),
    (DeadlockError, 3, "deadlock"),
    (EngineLimitError, 5, "engine limit"),
    (TaskFailedError, 4, "rank failure"),
    (QuarantineError, 6, "cells quarantined"),
)


def _reject_matrix_flags(chaos: argparse.ArgumentParser,
                         chaos_argv: list[str]) -> None:
    """Make a workload flag given to ``repro chaos host`` a usage error
    (re-parsed with the flags preset to a sentinel, so a flag given at its
    default value shows too)."""
    dests, unset = ("workload", "nprocs", "mode", "problem_class",
                    "iterations"), object()
    seen = chaos.parse_args(chaos_argv, argparse.Namespace(
        **dict.fromkeys(dests, unset)))
    given = [f"--{d.replace('_', '-')}" for d in dests
             if getattr(seen, d) is not unset]
    if given:
        chaos.error(f"chaos host takes no workload flags (given: "
                    f"{', '.join(given)})")


def main(argv: Sequence[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser().parse_args(argv)
    if args.command == "chaos" and args.kind == "host":
        _reject_matrix_flags(args.chaos_parser,
                             argv[argv.index("chaos") + 1:])
    try:
        return args.fn(args)
    except BrokenPipeError:  # e.g. `python -m repro list | head`
        return 0
    except (FaultPlanError, DeadlockError, EngineLimitError,
            TaskFailedError, QuarantineError) as exc:
        if args.traceback:
            raise
        for etype, code, label in _DIAGNOSTIC_EXITS:
            if isinstance(exc, etype):
                first_line = str(exc).splitlines()[0] if str(exc) else repr(exc)
                print(
                    f"repro: {label}: {first_line} "
                    "(re-run with --traceback for the full stack)",
                    file=sys.stderr,
                )
                return code
        raise  # unreachable: the tuple above covers every caught type


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
