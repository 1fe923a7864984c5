"""Ablation: lead-selection algorithm (K-Medoids vs K-Farthest vs K-Random).

Paper §III: "Users could select any clustering algorithm (e.g., K-Medoid,
K-Furthest, K-Random selection).  Bahmani and Mueller in [3] compared
K-Medoid and K-Furthest clustering and observed that the accuracy of traces
is very close for these clustering algorithms."

This bench runs the same workload under all three selectors and compares
tracing overhead and replay accuracy.
"""

from repro.harness import Mode, get_engine, overhead, render_table
from repro.replay import accuracy, replay_trace

ALGOS = ("kfarthest", "kmedoids", "krandom", "hierarchical")
P = 16
PARAMS = {"problem_class": "A", "iterations": 12}


def _rows():
    rows = []
    for algo in ALGOS:
        suite = get_engine().run_suite(
            "bt",
            P,
            modes=(Mode.APP, Mode.CHAMELEON),
            workload_params=PARAMS,
            call_frequency=3,
            config_overrides={"algorithm": algo},
        )
        app, ch = suite[Mode.APP], suite[Mode.CHAMELEON]
        replay = replay_trace(ch.trace, nprocs=P)
        rows.append(
            {
                "algorithm": algo,
                "overhead": overhead(ch, app),
                "accuracy": accuracy(app.max_time, replay.time),
                "k_used": ch.cstats0.k_used,
            }
        )
    return rows


def test_clustering_algorithms(benchmark, record_result):
    rows = benchmark.pedantic(_rows, rounds=1, iterations=1)
    text = render_table(
        ["algorithm", "overhead [s]", "replay accuracy", "K used"],
        [
            [r["algorithm"], r["overhead"], f"{100 * r['accuracy']:.2f}%",
             r["k_used"]]
            for r in rows
        ],
        title=f"Ablation: clustering algorithm (BT, P={P})",
    )
    record_result("ablation_clustering_algos", text)

    # the paper's finding: accuracies are very close across selectors
    accs = [r["accuracy"] for r in rows]
    assert min(accs) > 0.85
    assert max(accs) - min(accs) < 0.10
    # overheads are in the same ballpark (same marker machinery)
    ovs = [r["overhead"] for r in rows]
    assert max(ovs) < 3 * min(ovs)
