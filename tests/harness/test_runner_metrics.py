"""Runner modes, overhead accounting, metric derivation, reporting."""

import pytest

from repro.harness import (
    Mode,
    breakdown,
    chameleon_config_for,
    default_p_list,
    get_engine,
    overhead,
    overhead_fraction,
    render_table,
    run_mode,
    state_space_summary,
)
from repro.harness.reporting import fmt, percent
from repro.workloads import make_workload

PARAMS = {"problem_class": "A", "iterations": 6, "detail": 2}


@pytest.fixture(scope="module")
def bt_suite():
    return get_engine().run_suite(
        "bt",
        9,
        modes=(Mode.APP, Mode.CHAMELEON, Mode.SCALATRACE, Mode.ACURDION),
        workload_params=PARAMS,
        call_frequency=2,
    )


class TestRunner:
    def test_all_modes_complete(self, bt_suite):
        assert set(bt_suite) == {
            Mode.APP,
            Mode.CHAMELEON,
            Mode.SCALATRACE,
            Mode.ACURDION,
        }
        for result in bt_suite.values():
            assert result.max_time > 0
            assert result.nprocs == 9

    def test_app_mode_has_no_tracer_stats(self, bt_suite):
        app = bt_suite[Mode.APP]
        assert app.tracer_stats == []
        assert app.trace is None

    def test_traced_modes_produce_traces(self, bt_suite):
        for mode in (Mode.CHAMELEON, Mode.SCALATRACE, Mode.ACURDION):
            trace = bt_suite[mode].trace
            assert trace is not None
            assert trace.expanded_count() > 0

    def test_overhead_nonnegative_and_ordered(self, bt_suite):
        app = bt_suite[Mode.APP]
        for mode in (Mode.CHAMELEON, Mode.SCALATRACE, Mode.ACURDION):
            assert overhead(bt_suite[mode], app) >= 0
        assert 0 <= overhead_fraction(bt_suite[Mode.CHAMELEON], app) < 1

    def test_deterministic_rerun(self):
        a = run_mode(make_workload("bt", **PARAMS), 4, Mode.CHAMELEON)
        b = run_mode(make_workload("bt", **PARAMS), 4, Mode.CHAMELEON)
        assert a.max_time == b.max_time
        assert a.total_time == b.total_time

    def test_config_for_applies_paper_k(self):
        wl = make_workload("bt", **PARAMS)
        cfg = chameleon_config_for(wl)
        assert cfg.k == 3
        pop = make_workload("pop", grid_points=64, block=8, iterations=2)
        cfg = chameleon_config_for(pop)
        assert cfg.signature_filter == "dedup"

    def test_default_p_list_quick(self, monkeypatch):
        monkeypatch.delenv("REPRO_FULL_SCALE", raising=False)
        assert default_p_list() == [16, 64]
        monkeypatch.setenv("REPRO_FULL_SCALE", "1")
        assert default_p_list()[-1] == 1024


class TestMetrics:
    def test_breakdown_chameleon(self, bt_suite):
        b = breakdown(bt_suite[Mode.CHAMELEON])
        assert b.record > 0
        assert b.vote > 0
        assert b.clustering > 0
        assert b.total > 0

    def test_breakdown_scalatrace(self, bt_suite):
        b = breakdown(bt_suite[Mode.SCALATRACE])
        assert b.vote == 0 and b.clustering == 0
        assert b.intercompression > 0

    def test_breakdown_acurdion(self, bt_suite):
        b = breakdown(bt_suite[Mode.ACURDION])
        assert b.clustering > 0
        assert b.vote == 0

    def test_state_space_summary(self, bt_suite):
        summary = state_space_summary(bt_suite[Mode.CHAMELEON])
        assert set(summary) == set(range(9))
        for data in summary.values():
            assert data["calls"] > 0
            assert data["avg"] >= 0


class TestReporting:
    def test_render_basic(self):
        text = render_table(["a", "bb"], [[1, 2.5], [30, 0.0001]], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[2] and "bb" in lines[2]
        assert len(lines) == 6

    def test_fmt_floats(self):
        assert fmt(0.0) == "0"
        assert "e" in fmt(1e-9)
        assert fmt(3.14159) == "3.142"
        assert fmt("x") == "x"

    def test_percent(self):
        assert percent(0.9775) == "97.75%"

    def test_render_empty_rows(self):
        text = render_table(["h1", "h2"], [])
        assert "h1" in text
