"""Ablation: network sensitivity (QDR-like vs 10x-slower interconnect).

Finding: Chameleon's per-marker vote (reduce + bcast every effective
marker) makes it *latency-sensitive* — on a 10x-slower interconnect its
overhead grows much faster than ScalaTrace's single finalize reduction at
small P, eroding the quick-scale gap.  Chameleon's advantage rests on
merge-work dominance (large P / large traces), not on the interconnect.
"""

from repro.harness import Mode, get_engine, overhead, render_table
from repro.simmpi import QDR_CLUSTER, SLOW_CLUSTER, SimConfig

P = 16
PARAMS = {"problem_class": "A", "iterations": 10}


def _rows():
    rows = []
    for name, network in (("qdr", QDR_CLUSTER), ("slow", SLOW_CLUSTER)):
        suite = get_engine().run_suite(
            "bt",
            P,
            modes=(Mode.APP, Mode.CHAMELEON, Mode.SCALATRACE),
            workload_params=PARAMS,
            call_frequency=2,
            sim=SimConfig(network=network),
        )
        app = suite[Mode.APP]
        ch = overhead(suite[Mode.CHAMELEON], app)
        st = overhead(suite[Mode.SCALATRACE], app)
        rows.append(
            {
                "network": name,
                "app": app.total_time,
                "chameleon": ch,
                "scalatrace": st,
                "ratio": st / ch if ch else float("inf"),
            }
        )
    return rows


def test_network_sensitivity(benchmark, record_result):
    rows = benchmark.pedantic(_rows, rounds=1, iterations=1)
    text = render_table(
        ["network", "APP [s]", "Chameleon ovh [s]", "ScalaTrace ovh [s]",
         "ST/CH"],
        [
            [r["network"], r["app"], r["chameleon"], r["scalatrace"],
             r["ratio"]]
            for r in rows
        ],
        title=f"Ablation: interconnect speed (BT, P={P})",
    )
    record_result("ablation_network", text)

    qdr, slow = rows[0], rows[1]
    # the slower network makes everything dearer
    assert slow["app"] > qdr["app"]
    assert slow["chameleon"] > qdr["chameleon"]
    assert slow["scalatrace"] > qdr["scalatrace"] * 0.9
    # on the fast interconnect Chameleon wins at this scale
    assert qdr["ratio"] > 1.0
    # the vote's latency sensitivity: Chameleon's overhead grows faster
    # than ScalaTrace's on the slow network
    ch_growth = slow["chameleon"] / qdr["chameleon"]
    st_growth = slow["scalatrace"] / qdr["scalatrace"]
    assert ch_growth > st_growth
