"""RunResult.stat()/registry(): the unified metric path and its shims."""

import pytest

from repro.harness import Mode, breakdown, run_mode
from repro.obs import Recorder
from repro.workloads import make_workload

PARAMS = {"iterations": 4}


@pytest.fixture(scope="module")
def chameleon():
    return run_mode(make_workload("synthetic", **PARAMS), 4, Mode.CHAMELEON)


@pytest.fixture(scope="module")
def scalatrace():
    return run_mode(make_workload("synthetic", **PARAMS), 4, Mode.SCALATRACE)


class TestStat:
    def test_matches_raw_dataclass_sums(self, chameleon):
        expected = sum(s.vote_time for s in chameleon.chameleon_stats)
        assert chameleon.stat("vote_time", source="chameleon") == expected
        expected = sum(s.record_time for s in chameleon.tracer_stats)
        assert chameleon.stat("record_time", source="tracer") == expected

    def test_qualified_names(self, chameleon):
        assert chameleon.stat("chameleon/vote_time") == chameleon.stat(
            "vote_time", source="chameleon"
        )

    def test_auto_resolution_order(self, chameleon):
        # record_time only exists on the tracer side, vote_time only on
        # the chameleon side; auto finds both without a source hint.
        assert chameleon.stat("record_time") == chameleon.stat(
            "record_time", source="tracer"
        )
        assert chameleon.stat("vote_time") == chameleon.stat(
            "vote_time", source="chameleon"
        )

    def test_missing_is_zero(self, chameleon):
        assert chameleon.stat("no_such_metric") == 0.0
        assert chameleon.stat("vote_time", source="tracer") == 0.0

    def test_rank_filter(self, chameleon):
        per_rank = [
            chameleon.stat("vote_time", source="chameleon", rank=r)
            for r in range(chameleon.nprocs)
        ]
        assert sum(per_rank) == pytest.approx(
            chameleon.stat("vote_time", source="chameleon")
        )

    def test_phase_filter(self, chameleon):
        reg = chameleon.registry()
        assert reg.has("chameleon/state_markers")
        total = chameleon.stat("chameleon/state_markers")
        phases = {
            key[2] for key in reg.labels("chameleon/state_markers")
            if key[2] is not None
        }
        assert "all-tracing" in phases
        by_phase = [
            chameleon.stat("chameleon/state_markers", phase=p)
            for p in phases
        ]
        assert sum(by_phase) == total > 0


class TestRegistry:
    def test_covers_all_sources(self, chameleon, scalatrace):
        names = chameleon.registry().names()
        assert any(n.startswith("tracer/") for n in names)
        assert any(n.startswith("chameleon/") for n in names)
        assert all(
            n.startswith("tracer/") for n in scalatrace.registry().names()
        )

    def test_acurdion_extra(self):
        result = run_mode(
            make_workload("synthetic", **PARAMS), 4, Mode.ACURDION
        )
        assert result.registry().has("acurdion/clustering_time")
        assert result.stat("clustering_time", source="acurdion") >= 0.0

    def test_merges_live_obs_metrics(self):
        result = run_mode(
            make_workload("synthetic", **PARAMS), 4, Mode.CHAMELEON,
            instrument=Recorder(),
        )
        reg = result.registry()
        assert reg.value("p2p/messages") > 0  # live metric, via obs
        assert reg.has("chameleon/vote_time")  # stats-derived


class TestBreakdownFix:
    def test_breakdown_totals_consistent(self, chameleon):
        bd = breakdown(chameleon)
        assert bd.record > 0.0
        assert bd.total == pytest.approx(
            bd.record + bd.signature + bd.vote + bd.clustering
            + bd.intercompression
        )


class TestOneNamePerFact:
    """A recorder's live metrics restate nothing that the tracer stats, the
    marker log or the recorder's own spans and instants hold: each fact is
    read under its stats-derived name, or off its span or instant (a
    collective's count and time, a receive's bytes and latency, a fault)."""

    RESTATED = ("tracer/", "chameleon/", "acurdion/", "record/", "merge/",
                "marker/", "space/", "coll/calls", "coll/time",
                "p2p/bytes_received", "p2p/recv_latency", "fault/",
                "resilience/")

    def test_chameleon_cell(self):
        result = run_mode(
            make_workload("lu_modified", problem_class="A", iterations=12,
                          phase_period=5),
            9, Mode.CHAMELEON, instrument=Recorder(),
        )
        live = result.obs.metrics.names()
        assert live and not [n for n in live if n.startswith(self.RESTATED)]
        reg = result.registry()
        assert {name: reg.value(name) for name in (
            "tracer/record_time", "tracer/events_recorded",
            "tracer/merge_time", "chameleon/signature_time",
            "chameleon/vote_time", "chameleon/clustering_time",
            "chameleon/intercompression_time", "chameleon/state_markers",
        )} == {
            "tracer/record_time": 0.0020058600000001756,
            "tracer/events_recorded": 2538,
            "tracer/merge_time": 0.03151827466666673,
            "chameleon/signature_time": 7.613999999997543e-05,
            "chameleon/vote_time": 0.0011381040000006757,
            "chameleon/clustering_time": 0.00046053333333353347,
            "chameleon/intercompression_time": 0.031787074666666734,
            "chameleon/state_markers": 108,
        }

    def test_scalatrace_cell(self):
        result = run_mode(
            make_workload("synthetic", **PARAMS), 4, Mode.SCALATRACE,
            instrument=Recorder(),
        )
        live = result.obs.metrics.names()
        assert live and not [n for n in live if n.startswith(self.RESTATED)]
        reg = result.registry()
        for name in ("tracer/events_recorded", "tracer/record_time",
                     "tracer/merge_time"):
            assert reg.value(name) > 0
