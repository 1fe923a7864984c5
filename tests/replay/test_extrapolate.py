"""ScalaExtrap-lite: extrapolating traces to larger process counts."""

import pytest

from repro.replay import build_schedule, extrapolate_trace, replay_trace
from repro.scalatrace import ScalaTraceTracer
from repro.simmpi import SimConfig, ZERO_COST, run_spmd


def trace_of(prog, nprocs):
    async def main(ctx):
        tracer = ScalaTraceTracer(ctx)
        await prog(ctx, tracer)
        return await tracer.finalize()

    return run_spmd(main, nprocs, config=SimConfig(network=ZERO_COST)).results[0]


async def chain(ctx, tr, steps=4):
    """1-D stencil: interior band sends right, receives left."""
    for _ in range(steps):
        with ctx.frame("halo"):
            if ctx.rank + 1 < ctx.size:
                await tr.send(ctx.rank + 1, None, size=128)
            if ctx.rank > 0:
                await tr.recv(ctx.rank - 1)
            await tr.allreduce(0.0, size=8)


async def hub(ctx, tr, rounds=3):
    """Master-worker: rank 0 dispatches to 1..P-1."""
    for _ in range(rounds):
        if ctx.rank == 0:
            with ctx.frame("dispatch"):
                for w in range(1, ctx.size):
                    await tr.send(w, None, tag=5, size=64)
            with ctx.frame("collect"):
                for _w in range(1, ctx.size):
                    await tr.recv(tag=6)
        else:
            with ctx.frame("work"):
                await tr.recv(0, tag=5)
                await tr.send(0, None, tag=6, size=16)


class TestExtrapolateStencil:
    def test_validation(self):
        trace = trace_of(chain, 4)
        with pytest.raises(ValueError):
            extrapolate_trace(trace, 2)

    def test_same_size_is_copy(self):
        trace = trace_of(chain, 6)
        out, report = extrapolate_trace(trace, 6)
        assert out.nprocs == 6
        assert out.expanded_count() == trace.expanded_count()

    def test_world_collective_scales(self):
        from repro.scalatrace import Op

        trace = trace_of(chain, 8)
        out, report = extrapolate_trace(trace, 16)
        colls = [
            l.record for l in out.leaves() if l.record.op is Op.ALLREDUCE
        ]
        covered = set()
        for rec in colls:
            covered.update(rec.participants.ranks())
        assert covered == set(range(16))

    def test_band_participants_scale(self):
        from repro.scalatrace import Op

        trace = trace_of(chain, 8)
        out, _ = extrapolate_trace(trace, 16)
        sends = [l.record for l in out.leaves() if l.record.op is Op.SEND]
        covered = set()
        for rec in sends:
            covered.update(rec.participants.ranks())
        # senders: everyone but the last rank at the NEW size
        assert covered == set(range(15))

    def test_extrapolated_replay_covers_new_ranks(self):
        trace = trace_of(chain, 8)
        out, report = extrapolate_trace(trace, 24)
        assert all(build_schedule(out, 24))  # every rank replays ops
        assert report.coverage > 0.9

    def test_extrapolated_replay_matches_native_trace(self):
        """The headline property: replaying a P=8 trace extrapolated to 16
        behaves like a real P=16 trace."""
        small = trace_of(chain, 8)
        big_native = trace_of(chain, 16)
        big_extrap, _ = extrapolate_trace(small, 16)

        native = replay_trace(big_native, nprocs=16)
        extrap = replay_trace(big_extrap, nprocs=16)
        assert extrap.stats.p2p_dropped == 0
        # same number of operations replayed at the new scale
        assert extrap.stats.sends == native.stats.sends
        assert extrap.stats.recvs == native.stats.recvs
        # replay time within 25% of the native trace's
        assert abs(extrap.time - native.time) <= 0.25 * native.time


class TestExtrapolateHub:
    def test_master_fanout_stretches(self):
        from repro.scalatrace import Op

        trace = trace_of(hub, 5)
        out, report = extrapolate_trace(trace, 9)
        master_sends = [
            l.record
            for l in out.leaves()
            if l.record.op is Op.SEND and 0 in l.record.participants.ranks()
        ]
        assert master_sends
        p = master_sends[0].dest.pattern
        assert p is not None and p.length == 8  # P' - 1 workers

    def test_workers_scale_and_replay(self):
        small = trace_of(hub, 5)
        out, _ = extrapolate_trace(small, 9)
        native = trace_of(hub, 9)
        e = replay_trace(out, nprocs=9)
        n = replay_trace(native, nprocs=9)
        assert e.stats.p2p_dropped == 0
        assert e.stats.sends == n.stats.sends
        assert e.stats.recvs == n.stats.recvs
