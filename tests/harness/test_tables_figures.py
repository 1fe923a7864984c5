"""Table/figure generators produce the paper's structure (scaled down).

These run the real generators at reduced scale; the bench targets under
``benchmarks/`` run them at the configured experiment scale.
"""

import pytest

from repro.harness.tables import table2_configs
from repro.harness import figures, tables


class TestTable2Configs:
    def test_every_paper_benchmark_present(self):
        pgms = {c.pgm for c in table2_configs()}
        assert pgms == {"BT", "LU", "SP", "POP", "S3D", "LUW", "EMF"}

    def test_scaled_calls_match_paper(self):
        for cfg in table2_configs():
            scaled_calls = cfg.iters // cfg.freq
            assert scaled_calls == cfg.paper["calls"], cfg.pgm


@pytest.mark.slow
class TestTableGenerators:
    def test_table2_reproduces_state_counts(self):
        rows, text = tables.table2()
        for row in rows:
            assert row["calls"] == row["paper"]["calls"], row["pgm"]
            assert row["C"] == row["paper"]["C"], row["pgm"]
            assert row["L"] == row["paper"]["L"], row["pgm"]
            assert row["AT"] == row["paper"]["AT"], row["pgm"]
        assert "Table II" in text

    def test_table1_k_and_callpaths(self):
        rows, _ = tables.table1()
        by_pgm = {r["pgm"]: r for r in rows}
        assert by_pgm["EMF"]["measured_callpaths"] == 2
        for row in rows:
            # dynamic-K rule: enough leads for every Call-Path group
            assert row["k_used"] >= min(row["configured_k"],
                                        row["measured_callpaths"])

    def test_table3_direction(self):
        rows, _ = tables.table3(p_list=[4, 9])
        for row in rows:
            # ACURDION (cluster once at finalize) is cheaper in time
            assert row["acurdion"] < row["chameleon"]

    def test_table4_space_claims(self):
        data, text = tables.table4(nprocs=9)
        assert data["non_lead_zero_in_lead_state"]
        # rank 0 allocates own trace + global online trace: biggest average
        avgs = {r: s["avg"] for r, s in data["summary"].items()}
        assert max(avgs, key=avgs.get) == 0


@pytest.mark.slow
class TestFigureGenerators:
    def test_figure4_rows(self):
        rows, text = figures.figure4(benchmarks=["bt"], p_list=[4, 9])
        assert len(rows) == 2
        for r in rows:
            assert r["chameleon_overhead"] >= 0
            assert r["scalatrace_overhead"] >= 0
        assert "Figure 4" in text

    def test_figure5_accuracy_positive(self):
        rows, _ = figures.figure5(benchmarks=["bt"], p_list=[9])
        assert rows[0]["acc_vs_app"] > 0.8

    def test_replay_figures_print_the_dropped_ops(self):
        """Fig. 5/7 print each row's ``dropped_p2p`` beside the accuracy it
        qualifies: POP's Chameleon trace drops ops, BT's none."""
        rows, text = figures.figure5(benchmarks=["bt", "pop"], p_list=[9])
        header, *lines = [line for line in text.splitlines() if "|" in line]
        assert [c.strip() for c in header.split("|")][-2:] == [
            "ACC vs ST", "CH p2p dropped"]
        cells = [[c.strip() for c in line.split("|")] for line in lines
                 if not set(line) <= set("-+")]
        assert [int(row[-1]) for row in cells] == [r["dropped_p2p"]
                                                   for r in rows]
        dropped = {r["benchmark"]: r["dropped_p2p"] for r in rows}
        assert dropped["bt"] == 0 < dropped["pop"]
        _, weak = figures.figure7(p_list=[4])
        assert "| CH p2p dropped" in weak

    def test_figure6_weak(self):
        rows, _ = figures.figure6(p_list=[4])
        assert {r["benchmark"] for r in rows} == {"luw", "sweep3d"}

    def test_figure7_weak_replay(self):
        rows, _ = figures.figure7(p_list=[9])
        for r in rows:
            assert r["replay_chameleon"] > 0

    def test_figure8_breakdown(self):
        # P=16: with K=9 leads, 9 of 9 ranks at P=9 would all be leads and
        # the inter-compression asymmetry only shows once P exceeds K
        rows, _ = figures.figure8(benchmarks=["bt"], nprocs=16)
        r = rows[0]
        assert r["st_clustering"] == 0.0
        assert r["ch_clustering"] > 0
        assert r["st_intercompression"] > r["ch_intercompression"]

    def test_figure9_overhead_grows_with_calls(self):
        rows, _ = figures.figure9(nprocs=9)
        assert rows[0]["marker_calls"] < rows[-1]["marker_calls"]
        assert rows[-1]["overhead"] > rows[0]["overhead"]

    def test_figure10_reclustering(self):
        rows, _ = figures.figure10(nprocs=9)
        measured = [r["measured_reclusterings"] for r in rows]
        assert measured[-1] > measured[0]

    def test_figure11_classes(self):
        rows, _ = figures.figure11(nprocs=9, classes=["A", "B"])
        assert [r["class"] for r in rows] == ["A", "B"]
        # larger classes -> larger app time
        assert rows[1]["app_time"] > rows[0]["app_time"]
