"""Instrument event bus: no-op fast path and the Recorder.

The load-bearing guarantee is the first test class: a run with a live
Recorder must be *bit-identical* in virtual time to the same run with the
default no-op instrument — instrumentation observes, never perturbs.
"""

import pytest

from repro.harness.runner import Mode, run_mode
from repro.obs import NULL_INSTRUMENT, ObsData, Recorder
from repro.workloads import make_workload

PARAMS = {"iterations": 4}
NP = 8


def _run(mode, instrument=None):
    return run_mode(
        make_workload("synthetic", **PARAMS), NP, mode, instrument=instrument
    )


class TestNoopFastPath:
    @pytest.mark.parametrize(
        "mode", [Mode.APP, Mode.SCALATRACE, Mode.CHAMELEON]
    )
    def test_recorder_does_not_perturb_virtual_time(self, mode):
        plain = _run(mode)
        recorded = _run(mode, instrument=Recorder())
        assert recorded.clocks == plain.clocks  # bit-identical, not approx
        assert recorded.busy_times == plain.busy_times
        assert recorded.max_time == plain.max_time
        assert recorded.total_time == plain.total_time

    def test_traces_byte_identical(self):
        plain = _run(Mode.CHAMELEON)
        recorded = _run(Mode.CHAMELEON, instrument=Recorder())
        assert plain.trace is not None
        assert recorded.trace.serialize() == plain.trace.serialize()
        # fingerprint ignores obs, so cached/instrumented results compare
        assert recorded.fingerprint() == plain.fingerprint()

    def test_null_instrument_is_the_default(self):
        assert NULL_INSTRUMENT.enabled is False
        # hooks are inert and never raise
        NULL_INSTRUMENT.span(0, "x", "cat", 0.0, 1.0)
        NULL_INSTRUMENT.instant(0, "x", "cat", 0.0)

    def test_plain_run_has_no_obs(self):
        assert _run(Mode.CHAMELEON).obs is None


class TestRecorder:
    @pytest.fixture(scope="class")
    def chameleon_obs(self):
        result = _run(Mode.CHAMELEON, instrument=Recorder())
        assert result.obs is not None
        return result.obs

    def test_snapshot_meta(self, chameleon_obs):
        assert chameleon_obs.meta["mode"] == "chameleon"
        assert chameleon_obs.meta["nprocs"] == NP
        assert "dropped_events" not in chameleon_obs.meta

    def test_every_rank_has_a_lane(self, chameleon_obs):
        assert chameleon_obs.ranks() == list(range(NP))
        for rank in range(NP):
            assert chameleon_obs.spans_for(rank=rank, cat="sched")

    def test_layers_all_emit(self, chameleon_obs):
        cats = {s.cat for s in chameleon_obs.spans}
        assert {"sched", "coll", "chameleon"} <= cats
        icats = {i.cat for i in chameleon_obs.instants}
        assert {"sched", "chameleon", "state"} <= icats
        assert chameleon_obs.instants_for(name="marker")

    def test_state_transitions_recorded(self, chameleon_obs):
        transitions = chameleon_obs.instants_for(name="state_transition")
        assert transitions
        first = transitions[0]
        assert first.args["from"] == "start"
        states = {t.args["to"] for t in transitions}
        assert "final" in states  # finalize always reaches F

    def test_metrics_collected(self, chameleon_obs):
        reg = chameleon_obs.metrics
        assert reg.value("coll/fast_hits") > 0
        assert reg.value("p2p/messages") > 0

    def test_roundtrip(self, chameleon_obs):
        back = ObsData.from_dict(chameleon_obs.to_dict())
        assert back.to_dict() == chameleon_obs.to_dict()
        assert len(back.spans) == len(chameleon_obs.spans)
        assert back.metrics.value("p2p/bytes_sent") == (
            chameleon_obs.metrics.value("p2p/bytes_sent")
        )

    def test_max_events_drops_and_counts(self):
        rec = Recorder(max_events=3)
        for i in range(5):
            rec.instant(0, f"e{i}", "t", float(i))
        assert len(rec.instants) == 3
        assert rec.dropped == 2
        assert rec.snapshot().meta["dropped_events"] == 2

    def test_clear(self):
        rec = Recorder()
        rec.span(0, "s", "t", 0.0, 1.0)
        rec.metrics.count("x", 1)
        rec.clear()
        assert not rec.spans and len(rec.metrics) == 0
