"""Ablation: the automatic parameter filter on POP (paper §V).

POP's barotropic solver has data-dependent inner iteration counts, so the
raw sequence Call-Path signature never stabilizes and Chameleon would stay
in the all-tracing state forever.  The paper applies "the automatic filter
from [2] for call parameters so that the communication pattern becomes
regular and can be represented by 3 clusters" — reproduced here as the
``dedup`` signature mode.  This bench shows the filter is what enables
clustering.
"""

from repro.harness import Mode, get_engine, render_table

P = 16
PARAMS = {"grid_points": 64, "block": 8, "iterations": 12}


def _rows():
    rows = []
    for mode_name in ("sequence", "dedup"):
        suite = get_engine().run_suite(
            "pop",
            P,
            modes=(Mode.CHAMELEON,),
            workload_params=PARAMS,
            call_frequency=1,
            config_overrides={"signature_filter": mode_name},
        )
        cs = suite[Mode.CHAMELEON].cstats0
        rows.append(
            {
                "filter": mode_name,
                "C": cs.state_counts.get("clustering", 0),
                "L": cs.state_counts.get("lead", 0),
                "AT": cs.state_counts.get("all-tracing", 0),
                "callpaths": cs.num_callpaths,
            }
        )
    return rows


def test_signature_filter(benchmark, record_result):
    rows = benchmark.pedantic(_rows, rounds=1, iterations=1)
    text = render_table(
        ["filter", "#C", "#L", "#AT", "#Call-Paths"],
        [[r["filter"], r["C"], r["L"], r["AT"], r["callpaths"]] for r in rows],
        title=f"Ablation: POP signature filter (P={P})",
    )
    record_result("ablation_signature_filter", text)

    raw = next(r for r in rows if r["filter"] == "sequence")
    dedup = next(r for r in rows if r["filter"] == "dedup")
    # without the filter POP never leaves all-tracing (no clustering)
    assert raw["C"] == 0
    assert raw["L"] == 0
    # with it the transition graph stabilizes into the lead phase
    assert dedup["C"] >= 1
    assert dedup["L"] >= 1
