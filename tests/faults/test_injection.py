"""Injected faults: the no-op guarantee, seeded determinism, and the
observability of every fault event."""

import json
from collections import Counter

import pytest

from repro.api import run as api_run
from repro.faults.plan import (
    ComputeFault, CrashFault, FaultPlan, LinkFault, MessageFaults,
)
from repro.harness.engine import ExperimentEngine
from repro.harness.runner import Mode, run_mode
from repro.obs import Recorder, export_chrome_trace
from repro.workloads.registry import make_workload

UNIFORM = {"iterations": 4}


@pytest.fixture
def engine():
    return ExperimentEngine(jobs=1, cache=None)


def _run(engine, plan, workload="uniform", nprocs=4, instrument=None):
    return api_run(
        workload, nprocs, Mode.CHAMELEON, workload_params=UNIFORM,
        engine=engine, faults=plan, instrument=instrument,
    )


class TestNoOpGuarantee:
    def test_empty_plan_is_bit_identical(self):
        # Bypass make_cell (which normalizes empty plans away) so the
        # injector really is installed — and must not perturb anything.
        wl = make_workload("uniform", **UNIFORM)
        baseline = run_mode(wl, 4, Mode.CHAMELEON)
        empty = run_mode(
            make_workload("uniform", **UNIFORM), 4, Mode.CHAMELEON,
            faults=FaultPlan(),
        )
        assert empty.clocks == baseline.clocks
        assert empty.max_time == baseline.max_time
        assert empty.fingerprint() == baseline.fingerprint()
        assert empty.failed_ranks == ()
        assert "fault_summary" not in empty.extra

    def test_make_cell_normalizes_empty_plan(self, engine):
        a = _run(engine, None)
        b = _run(engine, FaultPlan())
        assert a.fingerprint() == b.fingerprint()


class TestDeterminism:
    def test_same_seed_same_plan_byte_identical(self, engine):
        plan = FaultPlan(
            seed=1234,
            messages=MessageFaults(drop_prob=0.2, delay_prob=0.2),
        )
        first = _run(engine, plan)
        second = _run(engine, plan)
        assert first.fingerprint() == second.fingerprint()
        assert first.clocks == second.clocks
        assert (first.extra.get("fault_summary")
                == second.extra.get("fault_summary"))

    def test_seed_changes_the_draws(self, engine):
        summaries = []
        for seed in (1, 2, 3):
            plan = FaultPlan(seed=seed, messages=MessageFaults(drop_prob=0.3))
            res = _run(engine, plan)
            summaries.append(res.extra["fault_summary"]["drop"])
        # three different seeds giving three identical drop counts would
        # mean the seed is ignored; any variation proves it is not
        assert len(set(summaries)) > 1 or summaries[0] > 0


class TestMessageFaults:
    def test_drops_are_counted_and_survivable(self, engine):
        plan = FaultPlan(seed=7, messages=MessageFaults(drop_prob=0.2))
        res = _run(engine, plan)
        summary = res.extra["fault_summary"]
        assert summary["drop"] > 0
        assert res.failed_ranks == ()
        assert res.trace is not None

    def test_delays_slow_the_run(self, engine):
        base = _run(engine, None)
        plan = FaultPlan(
            seed=7, messages=MessageFaults(delay_prob=1.0, delay=1e-3)
        )
        res = _run(engine, plan)
        assert res.extra["fault_summary"]["delay"] > 0
        assert res.max_time > base.max_time

    def test_degraded_link_slows_the_run(self, engine):
        base = _run(engine, None)
        plan = FaultPlan(links=(LinkFault(src=0, dest=1, latency_factor=8.0,
                                          bandwidth_factor=8.0),))
        res = _run(engine, plan)
        assert res.max_time > base.max_time

    def test_compute_noise_perturbs_clocks(self, engine):
        base = _run(engine, None)
        plan = FaultPlan(
            seed=5, compute=(ComputeFault(rank=1, slowdown=2.0, jitter=0.1),)
        )
        res = _run(engine, plan)
        assert res.extra["fault_summary"]["compute"] > 0
        assert res.clocks != base.clocks


class TestObservability:
    def test_fault_events_reach_the_recorder_and_chrome_trace(
        self, engine, tmp_path
    ):
        plan = FaultPlan(
            seed=7,
            messages=MessageFaults(drop_prob=0.3, delay_prob=0.3),
        )
        res = _run(engine, plan, instrument=Recorder())
        assert res.obs is not None
        fault_instants = res.obs.instants_for(cat="fault")
        assert fault_instants, "injected faults must be visible as events"
        names = {i.name for i in fault_instants}
        assert names & {"msg_lost", "msg_delayed"}
        # and they survive the Chrome trace export
        out = tmp_path / "t.trace.json"
        export_chrome_trace(res.obs, str(out))
        doc = json.loads(out.read_text())
        cats = {e.get("cat") for e in doc["traceEvents"]}
        assert "fault" in cats

    def test_fault_instants_count_the_fault_summary(self, engine):
        """A fault is counted once, by its instant: each pair below is
        advanced at one site (``comm.isend``, ``Engine._crash``,
        ``Engine._release_one_orphan``)."""
        plan = FaultPlan(
            seed=7, crashes=(CrashFault(rank=3, time=0.03),),
            messages=MessageFaults(drop_prob=0.3, max_retries=1),
        )
        res = _run(engine, plan, instrument=Recorder())
        summary = res.extra["fault_summary"]
        assert summary["lost"] > 0 and summary["crash"] == 1
        assert summary["timeout"] > 0
        counts = Counter(i.name for i in res.obs.instants_for(cat="fault"))
        assert [counts["msg_lost"], counts["crash"], counts["op_timeout"]] \
            == [summary["lost"], summary["crash"], summary["timeout"]]
        assert not [n for n in res.registry().names()
                    if n.startswith("fault/")]
