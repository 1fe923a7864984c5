"""Ablation: trace extrapolation vs native tracing (ScalaExtrap-lite).

How well does a trace collected at small P stand in for a native trace at
larger P?  For 1-D decompositions and hub topologies the location-
independent encodings make the extrapolated replay nearly indistinguishable
from the native one — the property ScalaTrace's encodings were designed
around and the reason Chameleon's cluster replay works at all.
"""

from repro.harness import Mode, get_engine, render_table
from repro.harness.runner import full_scale
from repro.replay import accuracy, extrapolate_trace, replay_trace

# fixed dispatch rounds: extrapolation preserves the iteration structure,
# so the native comparison must scale weakly (same rounds, more workers)
PARAMS = {"iterations": 12, "task_seconds": 0.002}


def _rows():
    base_p = 9
    targets = [17, 33, 65] if full_scale() else [17, 33]
    small = get_engine().run_suite(
        "emf", base_p, modes=(Mode.SCALATRACE,), workload_params=PARAMS
    )[Mode.SCALATRACE].trace
    rows = []
    for p in targets:
        native_suite = get_engine().run_suite(
            "emf", p, modes=(Mode.APP, Mode.SCALATRACE), workload_params=PARAMS
        )
        native = native_suite[Mode.SCALATRACE].trace
        extrap, report = extrapolate_trace(small, p)
        rep_native = replay_trace(native, nprocs=p)
        rep_extrap = replay_trace(extrap, nprocs=p)
        rows.append(
            {
                "P": p,
                "native_time": rep_native.time,
                "extrap_time": rep_extrap.time,
                "accuracy": accuracy(rep_native.time, rep_extrap.time),
                "dropped": rep_extrap.stats.p2p_dropped,
                "coverage": report.coverage,
            }
        )
    return rows


def test_extrapolation(benchmark, record_result):
    rows = benchmark.pedantic(_rows, rounds=1, iterations=1)
    text = render_table(
        ["P", "native replay [s]", "extrapolated replay [s]", "accuracy",
         "dropped p2p", "ranklist coverage"],
        [
            [r["P"], r["native_time"], r["extrap_time"],
             f"{100 * r['accuracy']:.2f}%", r["dropped"],
             f"{100 * r['coverage']:.0f}%"]
            for r in rows
        ],
        title="Ablation: ScalaExtrap-lite (EMF traced at P=9)",
    )
    record_result("ablation_extrapolation", text)

    for r in rows:
        assert r["dropped"] == 0
        assert r["accuracy"] > 0.75
        assert r["coverage"] > 0.9
