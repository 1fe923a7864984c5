"""Ablation: DVFS energy savings on non-lead ranks (paper's future work).

The paper's conclusion proposes harvesting the idle time of the P-K
non-representative processes with DVFS.  This bench quantifies the proposal
with the reproduction's busy/slack accounting: tracing BT under Chameleon,
then comparing run energy with idle-power slack vs DVFS-power slack on the
non-leads.
"""

from repro.core import energy_report
from repro.harness import Mode, get_engine, render_table
from repro.harness.runner import full_scale


def _rows():
    # P must exceed the ~9 positional behaviour classes of the 2-D grid or
    # every rank is a lead and there is no idle time to harvest
    p_list = [16, 64, 256] if full_scale() else [16, 36]
    rows = []
    for p in p_list:
        suite = get_engine().run_suite(
            "bt",
            p,
            modes=(Mode.APP, Mode.CHAMELEON),
            workload_params={"problem_class": "A", "iterations": 12},
            call_frequency=3,
        )
        app, ch = suite[Mode.APP], suite[Mode.CHAMELEON]
        report = energy_report(
            app.busy_times, app.max_time, ch.busy_times, ch.max_time,
            ch.lead_ranks,
        )
        rows.append(
            {
                "P": p,
                "leads": len(ch.lead_ranks),
                "app_J": report.app_joules,
                "traced_J": report.traced_joules,
                "dvfs_J": report.traced_dvfs_joules,
                "savings": report.dvfs_savings,
            }
        )
    return rows


def test_dvfs_energy(benchmark, record_result):
    rows = benchmark.pedantic(_rows, rounds=1, iterations=1)
    text = render_table(
        ["P", "#leads", "APP [J]", "traced [J]", "traced+DVFS [J]",
         "DVFS savings"],
        [
            [r["P"], r["leads"], r["app_J"], r["traced_J"], r["dvfs_J"],
             f"{100 * r['savings']:.1f}%"]
            for r in rows
        ],
        title="Ablation: DVFS energy on non-lead ranks (BT)",
    )
    record_result("ablation_dvfs_energy", text)

    for r in rows:
        assert r["leads"] < r["P"]  # some ranks actually idle
        assert r["dvfs_J"] < r["traced_J"]  # DVFS always saves
        assert r["savings"] > 0.0
    # more non-leads at larger P -> at least comparable relative savings
    assert rows[-1]["savings"] >= rows[0]["savings"] * 0.5
