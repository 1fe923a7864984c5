"""Timeline reconstruction (mini-Vampir) from replayed traces."""

import pytest

from repro.replay import reconstruct_timeline, replay_trace
from repro.scalatrace import ScalaTraceTracer
from repro.simmpi import run_spmd

from .test_replayer import clustered_stream_trace


@pytest.fixture(scope="module")
def trace():
    async def main(ctx):
        tracer = ScalaTraceTracer(ctx)
        for _ in range(4):
            with ctx.frame("work"):
                ctx.compute(0.01)
                if ctx.rank + 1 < ctx.size:
                    await tracer.send(ctx.rank + 1, None, size=128)
                if ctx.rank > 0:
                    await tracer.recv(ctx.rank - 1)
                await tracer.allreduce(0.0, size=8)
        return await tracer.finalize()

    return run_spmd(main, 4).results[0]


class TestTimeline:
    def test_every_rank_has_intervals(self, trace):
        tl = reconstruct_timeline(trace)
        assert tl.nprocs == 4
        assert all(len(ivs) > 0 for ivs in tl.intervals)
        assert tl.makespan > 0

    def test_interval_kinds(self, trace):
        tl = reconstruct_timeline(trace)
        kinds = {iv.kind for ivs in tl.intervals for iv in ivs}
        assert "compute" in kinds
        assert "coll" in kinds
        assert "send" in kinds or "recv" in kinds

    def test_intervals_ordered_and_bounded(self, trace):
        tl = reconstruct_timeline(trace)
        for ivs in tl.intervals:
            for prev, cur in zip(ivs, ivs[1:]):
                assert cur.start >= prev.start - 1e-12
            for iv in ivs:
                assert 0 <= iv.start <= iv.end <= tl.makespan + 1e-12

    def test_busy_fraction(self, trace):
        tl = reconstruct_timeline(trace)
        for rank in range(tl.nprocs):
            assert 0 <= tl.busy_fraction(rank) <= 1
        # compute dominates this kernel on at least one rank
        assert max(tl.busy_fraction(r) for r in range(4)) > 0.3

    def test_gantt_renders(self, trace):
        tl = reconstruct_timeline(trace)
        text = tl.gantt(width=40)
        lines = text.splitlines()
        assert len(lines) == 5  # 4 ranks + axis
        assert all("|" in ln for ln in lines[:4])
        assert "=" in text  # compute blocks visible

    def test_empty_timeline_gantt(self):
        from repro.replay import Timeline

        assert "(empty timeline)" in Timeline([], 0.0).gantt()


def test_timeline_replays_what_replay_repairs():
    """A clustered trace whose replay wedges until deadlock repair drops
    operations: the timeline runs the same repaired schedule."""
    trace = clustered_stream_trace()
    replayed = replay_trace(trace)
    assert replayed.stats.deadlock_repairs > 0
    assert reconstruct_timeline(trace).makespan == replayed.time
