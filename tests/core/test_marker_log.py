"""The marker log: one record per effective marker call plus finalize.

Every Chameleon counter (Table II's state counts, Table IV's space
samples, Fig. 10's re-clusterings, the time breakdown) derives from
``ChameleonStats.log``; these tests hold the log itself.
"""

from __future__ import annotations

from collections import Counter

from repro.core.chameleon import FINAL
from repro.faults.plan import CrashFault, FaultPlan
from repro.harness.engine import get_engine
from repro.harness.runner import Mode, run_mode
from repro.harness.tables import _chameleon_cell, table2_configs
from repro.obs.instrument import Recorder
from repro.workloads import make_workload


def _logs(result):
    return [cs.log for cs in result.chameleon_stats]


def test_observing_does_not_change_the_log():
    workload = make_workload("lu_modified", problem_class="A", iterations=12,
                             phase_period=5)
    plain = run_mode(workload, 9, Mode.CHAMELEON)
    recorder = Recorder()
    observed = run_mode(workload, 9, Mode.CHAMELEON, instrument=recorder)
    assert _logs(observed) == _logs(plain)
    # the obs events were emitted from the log
    assert len(observed.obs.instants_for(name="marker")) == sum(
        cs.effective_calls for cs in observed.chameleon_stats)


def test_log_records_and_derived_fields():
    workload = make_workload("lu_modified", problem_class="A", iterations=12,
                             phase_period=5)
    result = run_mode(workload, 9, Mode.CHAMELEON)
    for rank, cs in enumerate(result.chameleon_stats):
        log = cs.log
        assert len(log) == 12 + 1 and log[-1].state == FINAL
        assert cs.effective_calls == 12 == cs.marker_invocations
        assert cs.state_counts == Counter(r.state for r in log[:-1])
        picks = [r.cluster for r in log if r.clustering_s is not None]
        assert None not in picks
        assert cs.reclusterings == len(picks) >= 3
        assert cs.k_used == max(c.k for c in picks)
        assert all(c.leads == tuple(sorted(c.leads)) for c in picks)
        # only rank 0 keeps the published cluster view
        views = [c.view for c in picks]
        if rank == 0:
            assert all(v["leads"] == list(c.leads)
                       for v, c in zip(views, picks))
            assert cs.cluster_view == views[-1]
        else:
            assert views == [None] * len(views) and cs.cluster_view is None


def test_crashed_lead_degraded_records_keep_their_bytes():
    # Lead 12 leads a cluster of one: when it dies the cluster collapses
    # and rank 0 falls back to full tracing for the rest of the run.  The
    # bytes are the space samples recorded before the marker log existed.
    plan = FaultPlan(seed=11, crashes=(CrashFault(rank=12, time=0.019),))
    workload = make_workload("bt", problem_class="A", iterations=24)
    result = run_mode(workload, 16, Mode.CHAMELEON, faults=plan)
    log = result.chameleon_stats[0].log
    # the degraded markers: AT with no vote; then the degraded finalize
    degraded = log[17:]
    assert [(r.state, r.bytes) for r in degraded] == [
        ("all-tracing", 49424)] + [("all-tracing", 49440)] * 6 + [
        ("final", 49440)]
    assert all(r.vote_s is None and r.clustering_s is None
               for r in degraded)
    assert all(r.vote_s is not None for r in log[:17])
    assert degraded[-1].intercompression_s > 0


def test_derived_fields_reproduce_a_table2_row():
    # Table II's S3D row: #Calls, #C, #L, #AT at quick scale.
    cfg = next(c for c in table2_configs() if c.pgm == "S3D")
    (result,) = get_engine().run_cells([_chameleon_cell(cfg)])
    cs = result.cstats0
    states = Counter(r.state for r in cs.log if r.state != FINAL)
    row = (cs.effective_calls, cs.state_counts.get("clustering", 0),
           cs.state_counts.get("lead", 0),
           cs.state_counts.get("all-tracing", 0))
    assert row == (sum(states.values()), states["clustering"],
                   states["lead"], states["all-tracing"])
    assert row == (10, 1, 7, 2)  # S3D(16) in the rendered Table II
