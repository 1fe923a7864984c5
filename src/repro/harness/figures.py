"""Generators for the paper's Figures 4-11 (series + rendered tables).

Each function reruns the underlying experiment at the configured scale and
returns ``(series, text)`` where ``series`` is the figure's data (the bars /
lines the paper plots) and ``text`` an ASCII rendering.  Scale defaults are
small (see ``runner.default_p_list``); ``REPRO_FULL_SCALE=1`` lifts them.
"""

from __future__ import annotations

from typing import Any

from ..replay.accuracy import AccuracyReport
from ..replay.replayer import replay_trace
from ..simmpi.timing import QDR_CLUSTER
from .engine import get_engine, make_cell, make_suite_cells
from .metrics import breakdown
from .reporting import percent, render_table
from .runner import Mode, default_p_list, full_scale, overhead

#: strong-scaling benchmarks of Figure 4/5 with quick-mode parameters
STRONG_BENCHMARKS: dict[str, dict[str, Any]] = {
    "bt": {"problem_class": "A", "iterations": 15},
    "lu": {"problem_class": "A", "iterations": 16},
    "sp": {"problem_class": "A", "iterations": 20},
    "pop": {"grid_points": 64, "block": 8, "iterations": 10},
    "emf": {"total_tasks": 360, "task_seconds": 0.002},
}

#: per-benchmark marker frequency (scaled Table II values)
STRONG_FREQ = {"bt": 3, "lu": 4, "sp": 4, "pop": 1, "emf": 4}


def _params_for(name: str) -> dict[str, Any]:
    params = dict(STRONG_BENCHMARKS[name])
    if full_scale():
        scale_up = {
            "bt": {"problem_class": "D", "iterations": 250},
            "lu": {"problem_class": "D", "iterations": 300},
            "sp": {"problem_class": "D", "iterations": 500},
            "pop": {"grid_points": 896, "block": 16, "iterations": 20},
            "emf": {"total_tasks": 36000},
        }
        params.update(scale_up[name])
        params.pop("task_seconds", None)
    return params


def _freq_for(name: str) -> int:
    if full_scale():
        return {"bt": 25, "lu": 20, "sp": 20, "pop": 1, "emf": 32}[name]
    return STRONG_FREQ[name]


# ---------------------------------------------------------------------------
# Figure 4 — strong scaling: overhead of APP vs Chameleon vs ScalaTrace
# ---------------------------------------------------------------------------


def _run_suites(
    specs: list[tuple[str, int, dict[str, Any], int]]
) -> list[tuple[str, int, dict]]:
    """APP/Chameleon/ScalaTrace suites of ``(workload, P, params,
    call_frequency)`` as one engine batch: ``(workload, P, suite)``."""
    groups = [make_suite_cells(name, p, workload_params=params,
                               call_frequency=freq)
              for name, p, params, freq in specs]
    suites = get_engine().run_suite_groups(groups)
    return [(name, p, suite) for (name, p, _, _), suite in zip(specs, suites)]


def _strong_suites(
    benchmarks: list[str], p_list: list[int]
) -> list[tuple[str, int, dict]]:
    """All (benchmark, P) suites of Figures 4/5 as one engine batch."""
    return _run_suites([
        (name, p, _params_for(name), _freq_for(name))
        for name in benchmarks
        for p in p_list
        if not (name == "emf" and p < 2)
    ])


def _overhead_figure(
    suites: list[tuple[str, int, dict]], title: str
) -> tuple[list[dict], str]:
    """Figures 4/6: each suite's APP time and both tracers' overhead."""
    rows = []
    for name, p, suite in suites:
        app = suite[Mode.APP]
        rows.append(
            {
                "benchmark": name,
                "P": p,
                "app_time": app.total_time,
                "chameleon_overhead": overhead(suite[Mode.CHAMELEON], app),
                "scalatrace_overhead": overhead(suite[Mode.SCALATRACE], app),
            }
        )
    text = render_table(
        ["bench", "P", "APP total [s]", "Chameleon ovh [s]",
         "ScalaTrace ovh [s]", "ST/CH"],
        [
            [r["benchmark"], r["P"], r["app_time"], r["chameleon_overhead"],
             r["scalatrace_overhead"],
             r["scalatrace_overhead"] / r["chameleon_overhead"]
             if r["chameleon_overhead"] else float("inf")]
            for r in rows
        ],
        title=title,
    )
    return rows, text


def figure4(
    benchmarks: list[str] | None = None, p_list: list[int] | None = None
) -> tuple[list[dict], str]:
    return _overhead_figure(
        _strong_suites(benchmarks or list(STRONG_BENCHMARKS),
                       p_list or default_p_list()),
        "Figure 4: strong-scaling execution overhead",
    )


# ---------------------------------------------------------------------------
# Figure 5 — strong scaling: replay time and accuracy
# ---------------------------------------------------------------------------


def _replay_figure(
    suites: list[tuple[str, int, dict]], title: str,
    columns: tuple[tuple[str, str], ...],
) -> tuple[list[dict], str]:
    """Figures 5/7: each suite's APP time, both tracers' replay times on
    the QDR cluster and their accuracy; ``columns`` are the (header, row
    key) accuracy columns rendered, followed by the point-to-point ops the
    Chameleon replay dropped as unmatched (what its accuracy leaves out)."""
    rows = []
    for name, p, suite in suites:
        st_replay, ch_replay = (
            replay_trace(suite[mode].trace, nprocs=p, network=QDR_CLUSTER)
            for mode in (Mode.SCALATRACE, Mode.CHAMELEON))
        report = AccuracyReport(suite[Mode.APP].max_time, st_replay.time,
                                ch_replay.time)
        rows.append({"benchmark": name, "P": p, **report.row(),
                     "dropped_p2p": ch_replay.stats.p2p_dropped})
    text = render_table(
        ["bench", "P", "APP [s]", "ST replay [s]", "CH replay [s]",
         *(header for header, _ in columns), "CH p2p dropped"],
        [
            [r["benchmark"], r["P"], r["app"], r["replay_scalatrace"],
             r["replay_chameleon"], *(percent(r[key]) for _, key in columns),
             r["dropped_p2p"]]
            for r in rows
        ],
        title=title,
    )
    return rows, text


def figure5(
    benchmarks: list[str] | None = None, p_list: list[int] | None = None
) -> tuple[list[dict], str]:
    return _replay_figure(
        _strong_suites(benchmarks or list(STRONG_BENCHMARKS),
                       p_list or default_p_list()),
        "Figure 5: strong-scaling replay time / accuracy",
        (("ACC vs APP", "acc_vs_app"), ("ACC vs ST", "acc_vs_scalatrace")),
    )


# ---------------------------------------------------------------------------
# Figures 6/7 — weak scaling: overhead and replay
# ---------------------------------------------------------------------------


def _weak_workloads() -> dict[str, dict[str, Any]]:
    if full_scale():
        return {
            "luw": {"per_rank_grid": 64, "iterations": 250},
            "sweep3d": {"nx": 100, "ny": 100, "nz": 1000, "iterations": 10,
                        "weak_scaling": True},
        }
    return {
        "luw": {"per_rank_grid": 8, "iterations": 15},
        "sweep3d": {"nx": 8, "ny": 8, "nz": 32, "iterations": 5,
                    "weak_scaling": True},
    }


def _weak_suites(p_list: list[int]) -> list[tuple[str, int, dict]]:
    """All weak-scaling suites of Figures 6/7 as one engine batch."""
    return _run_suites([
        (name, p, params, 3 if name == "luw" else 1)
        for name, params in _weak_workloads().items()
        for p in p_list
    ])


def figure6(p_list: list[int] | None = None) -> tuple[list[dict], str]:
    return _overhead_figure(
        _weak_suites(p_list or default_p_list()),
        "Figure 6: weak-scaling execution overhead (LU-W, Sweep3D)",
    )


def figure7(p_list: list[int] | None = None) -> tuple[list[dict], str]:
    return _replay_figure(
        _weak_suites(p_list or default_p_list()),
        "Figure 7: weak-scaling replay time / accuracy",
        (("ACC vs APP", "acc_vs_app"),),
    )


# ---------------------------------------------------------------------------
# Figure 8 — per-state time breakdown at maximum marker calls
# ---------------------------------------------------------------------------


def figure8(
    benchmarks: list[str] | None = None, nprocs: int | None = None
) -> tuple[list[dict], str]:
    benchmarks = benchmarks or ["bt", "lu", "sp", "pop", "emf"]
    nprocs = nprocs or (1024 if full_scale() else 16)
    # max marker calls: one per timestep
    suites = _run_suites([(name, nprocs, _params_for(name), 1)
                          for name in benchmarks])
    rows = []
    for name, _, suite in suites:
        ch = breakdown(suite[Mode.CHAMELEON])
        st = breakdown(suite[Mode.SCALATRACE])
        rows.append(
            {
                "benchmark": name,
                "ch_clustering": ch.clustering + ch.vote + ch.signature,
                "ch_intercompression": ch.intercompression,
                "st_clustering": 0.0,
                "st_intercompression": st.intercompression,
            }
        )
    text = render_table(
        ["bench", "CH clustering [s]", "CH inter-comp [s]",
         "ST clustering [s]", "ST inter-comp [s]"],
        [
            [r["benchmark"], r["ch_clustering"], r["ch_intercompression"],
             r["st_clustering"], r["st_intercompression"]]
            for r in rows
        ],
        title=f"Figure 8: per-state time, max markers, P={nprocs}",
    )
    return rows, text


# ---------------------------------------------------------------------------
# Figure 9 — overhead vs number of marker (clustering) calls
# ---------------------------------------------------------------------------


def figure9(
    nprocs: int | None = None, call_counts: list[int] | None = None
) -> tuple[list[dict], str]:
    nprocs = nprocs or (1024 if full_scale() else 16)
    params = _params_for("lu")
    iters = params["iterations"]
    call_counts = call_counts or sorted(
        {1, max(iters // 8, 1), max(iters // 4, 1), max(iters // 2, 1), iters}
    )
    freqs = [max(iters // calls, 1) for calls in call_counts]
    cells = [make_cell("lu", nprocs, Mode.APP, workload_params=params)] + [
        make_cell("lu", nprocs, Mode.CHAMELEON, workload_params=params,
                  call_frequency=freq)
        for freq in freqs
    ]
    app, *traced = get_engine().run_cells(cells)
    rows = []
    for freq, result in zip(freqs, traced):
        rows.append(
            {
                "marker_calls": result.cstats0.effective_calls,
                "freq": freq,
                "overhead": overhead(result, app),
            }
        )
    text = render_table(
        ["#effective calls", "freq", "Chameleon overhead [s]"],
        [[r["marker_calls"], r["freq"], r["overhead"]] for r in rows],
        title=f"Figure 9: overhead vs # clustering calls (LU, P={nprocs})",
    )
    return rows, text


# ---------------------------------------------------------------------------
# Figure 10 — re-clustering cost (modified LU)
# ---------------------------------------------------------------------------


def figure10(
    nprocs: int | None = None, recluster_counts: list[int] | None = None
) -> tuple[list[dict], str]:
    nprocs = nprocs or (1024 if full_scale() else 16)
    params = _params_for("lu")
    iters = params["iterations"]
    # a phase needs >= 4 stable markers to flush, re-cluster and re-enter
    # the lead state, so the number of *achievable* re-clusterings is
    # bounded by iterations / 4
    recluster_counts = recluster_counts or [1, 2, max(iters // 4, 1)]
    periods = [max(iters // n, 4) for n in recluster_counts]
    cells = [
        make_cell("lu", nprocs, Mode.APP, workload_params=params),
        make_cell("lu", nprocs, Mode.SCALATRACE, workload_params=params),
    ] + [
        make_cell("lu_modified", nprocs, Mode.CHAMELEON,
                  workload_params={"phase_period": period, **params},
                  call_frequency=1)
        for period in periods
    ]
    app, st, *traced = get_engine().run_cells(cells)
    rows = []
    for n, period, result in zip(recluster_counts, periods, traced):
        rows.append(
            {
                "requested_reclusterings": n,
                "phase_period": period,
                "measured_reclusterings": result.cstats0.reclusterings,
                "overhead": overhead(result, app),
            }
        )
    st_overhead = overhead(st, app)
    text = render_table(
        ["#reclusterings (req)", "period", "#reclusterings (measured)",
         "Chameleon overhead [s]", "ScalaTrace overhead [s]"],
        [
            [r["requested_reclusterings"], r["phase_period"],
             r["measured_reclusterings"], r["overhead"], st_overhead]
            for r in rows
        ],
        title=f"Figure 10: re-clustering cost (modified LU, P={nprocs})",
    )
    for r in rows:
        r["scalatrace_overhead"] = st_overhead
    return rows, text


# ---------------------------------------------------------------------------
# Figure 11 — overhead per method vs input problem size (LU classes)
# ---------------------------------------------------------------------------


def figure11(
    nprocs: int | None = None, classes: list[str] | None = None
) -> tuple[list[dict], str]:
    nprocs = nprocs or (256 if full_scale() else 16)
    classes = classes or ["A", "B", "C", "D"]
    quick_iterations = {"A": 8, "B": 10, "C": 12, "D": 15}
    class_params: list[dict[str, Any]] = [
        {"problem_class": cls} if full_scale()
        else {"problem_class": cls, "iterations": quick_iterations[cls]}
        for cls in classes
    ]
    suites = _run_suites([("lu", nprocs, params, 1)
                          for params in class_params])
    rows = []
    for cls, params, (_, _, suite) in zip(classes, class_params, suites):
        app = suite[Mode.APP]
        ch = breakdown(suite[Mode.CHAMELEON])
        rows.append(
            {
                "class": cls,
                "iterations": params.get("iterations"),
                "app_time": app.total_time,
                "ch_clustering": ch.clustering + ch.vote + ch.signature,
                "ch_intercompression": ch.intercompression,
                "chameleon_overhead": overhead(suite[Mode.CHAMELEON], app),
                "scalatrace_overhead": overhead(suite[Mode.SCALATRACE], app),
            }
        )
    text = render_table(
        ["class", "APP [s]", "CH clustering [s]", "CH inter-comp [s]",
         "CH total ovh [s]", "ST ovh [s]"],
        [
            [r["class"], r["app_time"], r["ch_clustering"],
             r["ch_intercompression"], r["chameleon_overhead"],
             r["scalatrace_overhead"]]
            for r in rows
        ],
        title=f"Figure 11: overhead per method vs input class (LU, P={nprocs})",
    )
    return rows, text
