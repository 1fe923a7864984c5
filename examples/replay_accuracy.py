#!/usr/bin/env python3
"""Replay-accuracy study: BT under all four tracing modes.

Reproduces the paper's central accuracy experiment in miniature: run NPB BT
uninstrumented, under ScalaTrace, under Chameleon and under the ACURDION
baseline; replay the ScalaTrace and Chameleon traces; and compare replay
times against the application (paper Figure 5 / Observation 3).

Run:  python examples/replay_accuracy.py
"""

from repro.harness import Mode, get_engine, overhead, render_table
from repro.replay import AccuracyReport, replay_trace

NPROCS = 16
PARAMS = {"problem_class": "A", "iterations": 12}


def run() -> None:
    print(f"== BT class A on {NPROCS} simulated ranks ==\n")
    suite = get_engine().run_suite(
        "bt",
        NPROCS,
        modes=(Mode.APP, Mode.CHAMELEON, Mode.SCALATRACE, Mode.ACURDION),
        workload_params=PARAMS,
        call_frequency=3,
    )
    app = suite[Mode.APP]

    rows = []
    for mode in (Mode.CHAMELEON, Mode.SCALATRACE, Mode.ACURDION):
        result = suite[mode]
        trace = result.trace
        rows.append(
            [
                mode.value,
                overhead(result, app),
                trace.leaf_count(),
                trace.expanded_count(),
                trace.size_bytes(),
            ]
        )
    print(
        render_table(
            ["mode", "overhead [s]", "PRSD events", "MPI calls", "trace bytes"],
            rows,
            title="Tracing overhead and trace sizes",
        )
    )

    st_replay = replay_trace(suite[Mode.SCALATRACE].trace, nprocs=NPROCS)
    ch_replay = replay_trace(suite[Mode.CHAMELEON].trace, nprocs=NPROCS)
    report = AccuracyReport(
        app_time=app.max_time,
        scalatrace_replay_time=st_replay.time,
        chameleon_replay_time=ch_replay.time,
    )
    print()
    print(
        render_table(
            ["quantity", "seconds"],
            [
                ["application", report.app_time],
                ["ScalaTrace replay", report.scalatrace_replay_time],
                ["Chameleon replay", report.chameleon_replay_time],
            ],
            title="Replay times",
        )
    )
    print()
    print(f"Chameleon accuracy vs application : "
          f"{100 * report.chameleon_vs_app:.2f}%")
    print(f"Chameleon accuracy vs ScalaTrace  : "
          f"{100 * report.chameleon_vs_scalatrace:.2f}%")
    print("(paper: 97.75% for BT under strong scaling)")


if __name__ == "__main__":
    run()
