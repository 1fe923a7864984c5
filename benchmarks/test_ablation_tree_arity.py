"""Ablation: radix-tree arity for the inter-node trace reduction.

ScalaTrace reduces traces over a radix tree; the arity trades tree depth
(latency, log_k P levels) against per-node merge fan-in.  The resulting
global trace must be identical in content regardless of arity — only the
cost profile moves.
"""

from repro.harness import Mode, get_engine, overhead, render_table

ARITIES = (2, 4, 8)
P = 16
PARAMS = {"problem_class": "A", "iterations": 10}


def _rows():
    rows = []
    for arity in ARITIES:
        suite = get_engine().run_suite(
            "bt",
            P,
            modes=(Mode.APP, Mode.SCALATRACE),
            workload_params=PARAMS,
            config_overrides={"tree_arity": arity},
        )
        app, st = suite[Mode.APP], suite[Mode.SCALATRACE]
        mass = sum(l.record.dhist.total for l in st.trace.leaves())
        rows.append(
            {
                "arity": arity,
                "overhead": overhead(st, app),
                "leaves": st.trace.leaf_count(),
                "mass": mass,
                "merge_time": st.stat("merge_time", source="tracer"),
            }
        )
    return rows


def test_tree_arity(benchmark, record_result):
    rows = benchmark.pedantic(_rows, rounds=1, iterations=1)
    text = render_table(
        ["arity", "ST overhead [s]", "merge time [s]", "trace leaves",
         "event mass"],
        [
            [r["arity"], r["overhead"], r["merge_time"], r["leaves"],
             r["mass"]]
            for r in rows
        ],
        title=f"Ablation: reduction-tree arity (BT, P={P})",
    )
    record_result("ablation_tree_arity", text)

    # every (rank, event) observation is represented regardless of tree
    # shape (leaf counts may differ: merge order moves splice boundaries)
    assert len({r["mass"] for r in rows}) == 1
    # all arities complete with sane overheads, same order of magnitude
    ovs = [r["overhead"] for r in rows]
    assert all(o > 0 for o in ovs)
    assert max(ovs) < 4 * min(ovs)
