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
        assert reg.value("coll/calls") > 0  # live metric, via obs
        assert reg.has("chameleon/vote_time")  # stats-derived


class TestBreakdownFix:
    def test_chameleon_record_without_tracer_stats(self, chameleon):
        """Record time must survive the loss of the tracer_stats list.

        The old implementation gated on ``if result.tracer_stats`` and
        reported record=0.0 whenever that list was empty even though the
        Chameleon stats (and the registry) still knew the recording cost.
        """
        import dataclasses

        assert breakdown(chameleon).record > 0.0
        # registry still derives record time when the run was instrumented
        recorded = run_mode(
            make_workload("synthetic", **PARAMS), 4, Mode.CHAMELEON,
            instrument=Recorder(),
        )
        stripped = dataclasses.replace(recorded, tracer_stats=[])
        assert breakdown(stripped).record > 0.0
        assert stripped.chameleon_stats  # chameleon stats were present

    def test_breakdown_totals_consistent(self, chameleon):
        bd = breakdown(chameleon)
        assert bd.total == pytest.approx(
            bd.record + bd.signature + bd.vote + bd.clustering
            + bd.intercompression
        )
