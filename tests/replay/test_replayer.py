"""Replay engine: schedules, reconciliation, timed replay, accuracy."""

import pytest

from repro.core import ChameleonConfig, ChameleonTracer
from repro.harness.figures import _params_for
from repro.harness.runner import Mode, run_mode
from repro.replay import (
    AccuracyReport,
    ReplayStats,
    accuracy,
    build_schedule,
    coalesce_collectives,
    reconcile,
    replay_trace,
)
from repro.scalatrace import ScalaTraceTracer
from repro.simmpi import QDR_CLUSTER, SimConfig, ZERO_COST, run_spmd
from repro.workloads import make_workload


def trace_of(prog, nprocs, tracer_cls=ScalaTraceTracer, **kw):
    async def main(ctx):
        tracer = tracer_cls(ctx, **kw)
        await prog(ctx, tracer)
        return await tracer.finalize()

    res = run_spmd(main, nprocs, config=SimConfig(network=ZERO_COST))
    return res.results[0]


def clustered_stream_trace():
    """A clustered three-group stream with a phase change, whose replay
    needs many deadlock-repair rounds."""
    import repro
    from repro.harness.engine import ExperimentEngine

    groups = 3

    def computes(base):
        return [{"op": "compute", "seconds": base + 1e-4 * g,
                 "ranks": {"mod": groups, "eq": g}}
                for g in range(groups)]

    warmup = {"ops": [{"op": "compute", "seconds": 3e-4},
                      {"op": "allreduce", "size": 8, "frame": "init"}]}
    phase_a = {"ops": [
        *computes(5e-4),
        {"op": "shift", "groups": groups, "offset": 1, "size": 512,
         "frame": "sweep_{group}"},
        {"op": "bcast", "root": 3, "size": 64, "frame": "params"},
        {"op": "allreduce", "size": 8, "frame": "residual"},
    ]}
    phase_b = {"ops": [
        *computes(3e-4),
        {"op": "shift", "groups": groups, "offset": 2, "tag": 1,
         "size": 1024, "frame": "relax_{group}"},
        {"op": "shift", "groups": groups, "offset": 1, "tag": 2,
         "size": 128, "frame": "halo_{group}"},
        {"op": "barrier", "frame": "sync"},
        {"op": "allreduce", "size": 8, "frame": "norm"},
    ]}
    return repro.stream_run(
        [warmup] * 2 + [phase_a] * 4 + [phase_b] * 6, 8, "chameleon",
        engine=ExperimentEngine(jobs=1, cache=None)).trace


async def stencil(ctx, tr, steps=4, work=0.01):
    for _ in range(steps):
        with ctx.frame("sweep"):
            ctx.compute(work)
            if ctx.rank + 1 < ctx.size:
                await tr.send(ctx.rank + 1, None, size=64)
            if ctx.rank > 0:
                await tr.recv(ctx.rank - 1)
            await tr.allreduce(1.0)
        await tr.marker()


class TestScheduleBuilding:
    def test_every_participant_scheduled(self):
        trace = trace_of(stencil, 6)
        schedules = build_schedule(trace, 6)
        assert all(len(s) > 0 for s in schedules)

    def test_endpoint_transposition(self):
        trace = trace_of(stencil, 6)
        schedules = build_schedule(trace, 6)
        sends = [(r, op.peer) for r, s in enumerate(schedules) for op in s
                 if op.kind == "send"]
        # every send goes to rank+1
        assert sends and all(dst == r + 1 for r, dst in sends)

    def test_out_of_range_endpoints_skipped(self):
        trace = trace_of(stencil, 6)
        # replay on fewer ranks: offsets beyond the edge are dropped
        schedules = build_schedule(trace, 3)
        for r, sched in enumerate(schedules):
            for op in sched:
                if op.kind in ("send", "recv") and op.peer is not None:
                    assert 0 <= op.peer < 3

    def test_collective_groups_cover_world(self):
        # Edge ranks fold into different loop shapes than interior ranks, so
        # one source-level allreduce can appear as several records with
        # partial groups; their union must still cover every rank.
        trace = trace_of(stencil, 4)
        schedules = build_schedule(trace, 4)
        colls = [op for s in schedules for op in s if op.kind == "coll"]
        assert colls
        covered = set()
        for op in colls:
            covered.update(op.group)
        assert covered == {0, 1, 2, 3}

    def test_uniform_collective_group_is_world(self):
        async def prog(ctx, tr):
            for _ in range(3):
                with ctx.frame("u"):
                    await tr.allreduce(1.0)
                await tr.marker()

        trace = trace_of(prog, 4)
        schedules = build_schedule(trace, 4)
        colls = [op for s in schedules for op in s if op.kind == "coll"]
        assert colls and all(op.group == (0, 1, 2, 3) for op in colls)

    def test_sleep_from_histogram(self):
        trace = trace_of(stencil, 4)
        schedules = build_schedule(trace, 4)
        assert any(op.sleep > 0 for s in schedules for op in s)


class TestReconcile:
    def test_balanced_schedule_untouched(self):
        trace = trace_of(stencil, 6)
        schedules = build_schedule(trace, 6)
        before = sum(len(s) for s in schedules)
        dropped = reconcile(schedules)
        assert dropped == 0
        assert sum(len(s) for s in schedules) == before

    def test_unmatched_recv_dropped(self):
        from repro.replay import ReplayOp

        schedules = [
            [ReplayOp("send", 0.0, 8, peer=1)],
            [
                ReplayOp("recv", 0.0, 8, peer=0),
                ReplayOp("recv", 0.0, 8, peer=0),
            ],
        ]
        dropped = reconcile(schedules)
        assert dropped == 1
        assert len(schedules[1]) == 1

    def test_unmatched_send_dropped(self):
        from repro.replay import ReplayOp

        schedules = [
            [ReplayOp("send", 0.0, 8, peer=1), ReplayOp("send", 0.0, 8, peer=1)],
            [ReplayOp("recv", 0.0, 8, peer=0)],
        ]
        dropped = reconcile(schedules)
        assert dropped == 1

    def test_wildcard_recv_matches_leftover(self):
        from repro.replay import ReplayOp

        schedules = [
            [ReplayOp("send", 0.0, 8, peer=1)],
            [ReplayOp("recv", 0.0, 8, peer=None)],
        ]
        assert reconcile(schedules) == 0


class TestTimedReplay:
    def test_replay_runs_and_times(self):
        trace = trace_of(stencil, 6)
        result = replay_trace(trace)
        assert result.time > 0
        assert result.stats.ops_issued == result.stats.ops_scheduled
        assert result.stats.p2p_dropped == 0

    def test_replay_time_tracks_compute(self):
        fast = trace_of(lambda c, t: stencil(c, t, work=0.001), 4)
        slow = trace_of(lambda c, t: stencil(c, t, work=0.1), 4)
        t_fast = replay_trace(fast).time
        t_slow = replay_trace(slow).time
        assert t_slow > t_fast * 5

    def test_replay_accuracy_against_app(self):
        """Replaying an (unclustered) trace approximates the original app's
        virtual time — the foundation of Figures 5/7."""
        steps, work = 5, 0.02

        async def app(ctx):
            await stencil(ctx, _NullTracer(ctx), steps=steps, work=work)
            return ctx.clock

        trace = trace_of(lambda c, t: stencil(c, t, steps=steps, work=work), 8)
        app_time = max(run_spmd(app, 8).results)
        rep = replay_trace(trace)
        assert accuracy(app_time, rep.time) > 0.85

    def test_chameleon_trace_cluster_replay(self):
        """A Chameleon trace (lead events stamped with cluster ranklists)
        replays on ALL ranks."""
        trace = trace_of(
            lambda c, t: stencil(c, t, steps=6),
            8,
            tracer_cls=ChameleonTracer,
            config=ChameleonConfig(k=3),
        )
        rep = replay_trace(trace)
        assert rep.time > 0
        # every rank's own stencil, endpoints resolved in range: each of
        # the 6 steps sends right and receives from the left
        for r, sched in enumerate(build_schedule(trace, 8)):
            p2p = [(op.kind, op.peer) for op in sched if op.kind != "coll"]
            step = [("send", r + 1)] * (r < 7) + [("recv", r - 1)] * (r > 0)
            assert p2p == step * 6

    def test_events_by_rank_balanced_for_spmd(self):
        trace = trace_of(stencil, 8)
        counts = [len(sched) for sched in build_schedule(trace, 8)]
        assert len(counts) == 8
        assert min(counts) > 0
        assert max(counts) <= 2 * min(counts)

    def test_replay_invalid_nprocs(self):
        trace = trace_of(stencil, 4)
        with pytest.raises(ValueError):
            replay_trace(trace, nprocs=0)


class _NullTracer:
    """Pass-through 'tracer' used to time the uninstrumented app."""

    def __init__(self, ctx):
        self.ctx = ctx
        self.comm = ctx.comm

    def __getattr__(self, name):
        return getattr(self.comm, name)

    async def marker(self):
        return None


class TestAccuracyMetric:
    def test_perfect(self):
        assert accuracy(10.0, 10.0) == 1.0

    def test_ten_percent_off(self):
        assert accuracy(10.0, 11.0) == pytest.approx(0.9)
        assert accuracy(10.0, 9.0) == pytest.approx(0.9)

    def test_zero_reference(self):
        assert accuracy(0.0, 0.0) == 1.0
        assert accuracy(0.0, 5.0) == 0.0

    def test_report_properties(self):
        rep = AccuracyReport(
            app_time=10.0, scalatrace_replay_time=9.5, chameleon_replay_time=9.0
        )
        assert rep.chameleon_vs_scalatrace == pytest.approx(1 - 0.5 / 9.5)
        assert rep.chameleon_vs_app == pytest.approx(0.9)
        assert rep.scalatrace_vs_app == pytest.approx(0.95)
        row = rep.row()
        assert set(row) == {
            "app",
            "replay_scalatrace",
            "replay_chameleon",
            "acc_vs_scalatrace",
            "acc_vs_app",
        }


class TestDeadlockRepairOrder:
    """The repair names a blocked collective instance by its key and the
    index ``coalesce_collectives`` gave it, so what it drops does not follow
    the order of the drops — nor the signature values or
    ``PYTHONHASHSEED``."""

    def test_two_droppable_instances_of_one_key(self):
        from repro.replay.replayer import ReplayOp, _repair_deadlock
        from repro.scalatrace import Op

        # Rank 0 is blocked on instance 0 of the key, rank 1 (which ran its
        # instance 0 in an earlier, partly repaired round) on instance 1.
        # Each instance keeps the index coalesce_collectives gave it, so
        # both ranks lose instance 1 and rank 0 its instance 0 too; both
        # keep instance 2, whatever order the drops go in.
        for sig in range(16):  # some key hashes every set order wrong
            key = (Op.ALLREDUCE.value, sig, 0)
            schedules = [
                [ReplayOp("coll", sleep, 8, op=Op.ALLREDUCE, key=key,
                          instance=i)
                 for i, sleep in enumerate((0.1, 0.2, 0.3))]
                for _rank in range(2)
            ]
            assert _repair_deadlock(schedules, [0, 1]) == 3
            assert [[op.sleep for op in s] for s in schedules] \
                == [[0.3], [0.1, 0.3]]

    def test_replay_does_not_depend_on_the_hash_seed(self, tmp_path):
        """One trace text, replayed in fresh interpreters under four hash
        seeds: one event count."""
        import os
        import subprocess
        import sys

        import repro

        path = tmp_path / "trace.st"
        clustered_stream_trace().save(str(path))
        script = (
            "import sys\n"
            "from repro.replay import replay_trace\n"
            "from repro.scalatrace import Trace\n"
            "stats = replay_trace(Trace.load(sys.argv[1])).stats\n"
            "print(stats.ops_issued, stats.deadlock_repairs)\n"
        )
        src = os.path.join(os.path.dirname(repro.__file__), os.pardir)
        outputs = set()
        for hash_seed in range(4):
            proc = subprocess.run(
                [sys.executable, "-c", script, str(path)],
                env={"PYTHONHASHSEED": str(hash_seed), "PYTHONPATH": src,
                     "PATH": os.environ.get("PATH", "")},
                capture_output=True, text=True, timeout=120, check=True)
            outputs.add(proc.stdout)
        assert len(outputs) == 1
        issued, repairs = map(int, outputs.pop().split())
        assert issued > 0 and repairs > 0  # the repair path did run


class TestReplayStats:
    """Every statistic is read off the schedules, as built and as the
    completed attempt ran them: a collective instance the deadlock repair
    removes is a repair, never a dropped p2p op."""

    def test_clustered_stream_counts(self):
        trace = clustered_stream_trace()
        schedules = build_schedule(trace, trace.nprocs)
        coalesce_collectives(schedules)
        assert reconcile(schedules) == 49
        stats = replay_trace(trace).stats
        # reconcile's 49 plus the 16 receives the repair removed; its 240
        # collective ops count as repairs only.  A collective-mismatch
        # abort removes what each rank's cursor stood on when the run
        # stopped, and where the cursors stand depends on how far the
        # ranks got first: with one gate per allreduce (one park, not two)
        # ranks 6 and 7 stand elsewhere at the third mismatch's abort, and
        # the rounds after it drop one more receive (was 15, 255, 62, 18).
        assert stats.p2p_dropped == 49 + 16
        assert stats.deadlock_repairs == 256
        assert (stats.ops_issued, stats.sends, stats.recvs,
                stats.collectives) == (61, 33, 17, 11)

    def test_repaired_collective_is_not_a_p2p_drop(self):
        """Three sub-group collectives wait on each other in a cycle: the
        repair removes their six ops, and the send/recv pair behind them
        still runs."""
        from repro.replay.replayer import ReplayOp, _execute
        from repro.scalatrace import Op

        def coll(sig, group):
            return ReplayOp("coll", 0.0, 8, op=Op.ALLREDUCE, group=group,
                            key=(Op.ALLREDUCE.value, sig, 0))

        schedules = [
            [coll(1, (0, 1)), coll(3, (0, 2)),
             ReplayOp("send", 0.0, 8, peer=1)],
            [coll(2, (1, 2)), coll(1, (0, 1)),
             ReplayOp("recv", 0.0, 8, peer=0)],
            [coll(3, (0, 2)), coll(2, (1, 2))],
        ]
        _, stats = _execute(schedules, ZERO_COST)
        assert [[op.kind for op in s] for s in schedules] \
            == [["send"], ["recv"], []]
        assert stats == ReplayStats(
            ops_scheduled=8, ops_issued=2, p2p_dropped=0, collectives=0,
            sends=1, recvs=1, deadlock_repairs=6)


@pytest.mark.parametrize("name", ["bt", "lu", "sp", "pop", "emf"])
def test_figure5_scalatrace_traces_replay_every_op(name):
    """Fig. 5's ScalaTrace traces (its own parameters, P=16) replay whole:
    no p2p op unmatched, no deadlock repaired.  What a Chameleon trace
    drops (``dropped_p2p`` on every Fig. 5/7 row: POP and SP) is the
    clustering's, not the replayer's."""
    run = run_mode(make_workload(name, **_params_for(name)), 16,
                   Mode.SCALATRACE)
    stats = replay_trace(run.trace, nprocs=16, network=QDR_CLUSTER).stats
    assert stats.ops_scheduled > 0
    assert (stats.p2p_dropped, stats.deadlock_repairs) == (0, 0)
