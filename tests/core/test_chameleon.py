"""End-to-end Chameleon tracer behaviour on the simulated runtime."""

import gc
import weakref

import pytest

from repro.core import (
    AcurdionTracer,
    AutoMarkerTracer,
    ChameleonConfig,
    ChameleonTracer,
    MarkerState,
)
from repro.scalatrace import EventRecord, Op, ScalaTraceTracer, StackWalker, Trace
from repro.simmpi import NeighborPattern, SimConfig, ZERO_COST, run_spmd


def run_chameleon(prog, nprocs, config=None, network=ZERO_COST):
    async def main(ctx):
        tracer = ChameleonTracer(ctx, config or ChameleonConfig(k=4))
        await prog(ctx, tracer)
        trace = await tracer.finalize()
        return {
            "trace": trace,
            "cstats": tracer.cstats,
            "stats": tracer.stats,
            "tracing": tracer.tracing,
            "clock": ctx.clock,
        }

    return run_spmd(main, nprocs, config=SimConfig(network=network))


async def stencil_step(ctx, tr, tag=0):
    """One timestep of a 1-D stencil: exchange with +/-1 neighbours."""
    with ctx.frame("stencil"):
        if ctx.rank + 1 < ctx.size:
            await tr.send(ctx.rank + 1, None, tag=tag, size=64)
        if ctx.rank > 0:
            await tr.recv(ctx.rank - 1, tag=tag)
        await tr.allreduce(1.0)


class TestStatesOverRun:
    def test_steady_workload_reaches_lead_phase(self):
        async def prog(ctx, tr):
            for _ in range(6):
                await stencil_step(ctx, tr)
                await tr.marker()

        res = run_chameleon(prog, 8)
        cs = res.results[0]["cstats"]
        assert cs.marker_invocations == 6
        assert cs.effective_calls == 6
        # AT (baseline), C (cluster), then steady L
        assert cs.state_counts["all-tracing"] == 1
        assert cs.state_counts["clustering"] == 1
        assert cs.state_counts["lead"] == 4
        assert cs.reclusterings >= 1

    def test_call_frequency_gates_markers(self):
        async def prog(ctx, tr):
            for _ in range(12):
                await stencil_step(ctx, tr)
                await tr.marker()

        res = run_chameleon(prog, 4, config=ChameleonConfig(k=4, call_frequency=4))
        cs = res.results[0]["cstats"]
        assert cs.marker_invocations == 12
        assert cs.effective_calls == 3

    def test_all_ranks_agree_on_states(self):
        async def prog(ctx, tr):
            for _ in range(5):
                await stencil_step(ctx, tr)
                await tr.marker()

        res = run_chameleon(prog, 6)
        counts = [r["cstats"].state_counts for r in res.results]
        assert all(c == counts[0] for c in counts)

    def test_phase_change_triggers_flush_and_recluster(self):
        async def prog(ctx, tr):
            for _ in range(4):  # phase 1: stencil
                await stencil_step(ctx, tr)
                await tr.marker()
            for _ in range(4):  # phase 2: pure collectives
                with ctx.frame("collective-phase"):
                    await tr.allreduce(2.0)
                    await tr.barrier()
                await tr.marker()

        res = run_chameleon(prog, 8)
        cs = res.results[0]["cstats"]
        # phase 1: AT C L L; phase 2: flush(L) AT C L
        assert cs.state_counts["clustering"] == 2
        assert cs.reclusterings >= 2  # includes finalize


class TestLeadBehaviour:
    def test_non_leads_stop_tracing_in_lead_phase(self):
        async def prog(ctx, tr):
            for _ in range(6):
                with ctx.frame("uniform"):
                    await tr.allreduce(1.0)
                await tr.marker()

        res = run_chameleon(prog, 8, config=ChameleonConfig(k=1))
        tracing_flags = [r["tracing"] for r in res.results]
        # identical signatures -> one cluster -> exactly one lead still traced
        assert sum(tracing_flags) == 1
        skipped = [r["stats"].events_skipped for r in res.results]
        assert sum(1 for s in skipped if s > 0) == 7

    def test_non_lead_space_is_zero_in_lead_state(self):
        async def prog(ctx, tr):
            for _ in range(6):
                with ctx.frame("uniform"):
                    await tr.allreduce(1.0)
                await tr.marker()

        res = run_chameleon(prog, 8, config=ChameleonConfig(k=1))
        # find a non-lead rank
        non_leads = [r for r in res.results if not r["tracing"]]
        assert non_leads
        for r in non_leads:
            lead_samples = [
                b for s, b in r["cstats"].space_samples if s == "lead"
            ]
            assert lead_samples and all(b == 0 for b in lead_samples)

    def test_leads_cover_every_callpath_cluster(self):
        async def prog(ctx, tr):
            # two behaviour groups: even ranks also do a send
            for _ in range(6):
                with ctx.frame("common"):
                    await tr.allreduce(1.0)
                if ctx.rank % 2 == 0:
                    with ctx.frame("extra"):
                        peer = ctx.rank + 1 if ctx.rank + 1 < ctx.size else 0
                        await tr.send(peer, None, size=8)
                        _ = None
                if ctx.rank % 2 == 1:
                    src = ctx.rank - 1
                    await tr.recv(src)
                await tr.marker()

        res = run_chameleon(prog, 8, config=ChameleonConfig(k=4))
        cs = res.results[0]["cstats"]
        assert cs.num_callpaths >= 2
        assert cs.k_used >= cs.num_callpaths


class TestOnlineTrace:
    def test_online_trace_on_rank0_only(self):
        async def prog(ctx, tr):
            for _ in range(5):
                await stencil_step(ctx, tr)
                await tr.marker()

        res = run_chameleon(prog, 8)
        assert isinstance(res.results[0]["trace"], Trace)
        assert all(r["trace"] is None for r in res.results[1:])

    def test_online_trace_covers_all_ranks(self):
        async def prog(ctx, tr):
            for _ in range(5):
                with ctx.frame("uniform"):
                    await tr.allreduce(1.0)
                await tr.marker()

        res = run_chameleon(prog, 8, config=ChameleonConfig(k=2))
        trace = res.results[0]["trace"]
        leaf = next(trace.leaves())
        assert leaf.record.participants.count == 8

    def test_online_trace_event_ops(self):
        async def prog(ctx, tr):
            for _ in range(5):
                await stencil_step(ctx, tr)
                await tr.marker()

        res = run_chameleon(prog, 8)
        trace = res.results[0]["trace"]
        ops = {l.record.op for l in trace.leaves()}
        assert Op.ALLREDUCE in ops
        assert Op.SEND in ops and Op.RECV in ops

    def test_online_trace_grows_incrementally(self):
        """After a phase change the flush merges the old phase into the
        online trace before finalize."""

        async def prog(ctx, tr):
            for _ in range(4):
                await stencil_step(ctx, tr)
                await tr.marker()
            for _ in range(4):
                with ctx.frame("phase2"):
                    await tr.barrier()
                await tr.marker()

        res = run_chameleon(prog, 4)
        trace = res.results[0]["trace"]
        ops = {l.record.op for l in trace.leaves()}
        assert Op.BARRIER in ops and Op.ALLREDUCE in ops

    def test_expanded_event_counts_reasonable(self):
        steps = 6

        async def prog(ctx, tr):
            for _ in range(steps):
                with ctx.frame("uniform"):
                    await tr.allreduce(1.0)
                await tr.marker()

        res = run_chameleon(prog, 4, config=ChameleonConfig(k=1))
        trace = res.results[0]["trace"]
        # the allreduce appears once per timestep in the merged trace
        assert trace.expanded_count() == steps


class TestAcurdion:
    def test_acurdion_produces_global_trace(self):
        async def main(ctx):
            tracer = AcurdionTracer(ctx, ChameleonConfig(k=2))
            for _ in range(5):
                with ctx.frame("uniform"):
                    await tracer.allreduce(1.0)
                await tracer.marker()  # no-op for ACURDION
            trace = await tracer.finalize()
            return {"trace": trace, "bytes": tracer.compressor.size_bytes(),
                    "stats": tracer.stats}

        res = run_spmd(main, 8, config=SimConfig(network=ZERO_COST))
        trace = res.results[0]["trace"]
        assert trace is not None
        leaf = next(trace.leaves())
        assert leaf.record.participants.count == 8

    def test_acurdion_all_ranks_allocate(self):
        async def main(ctx):
            tracer = AcurdionTracer(ctx, ChameleonConfig(k=1))
            for _ in range(5):
                with ctx.frame("uniform"):
                    await tracer.allreduce(1.0)
            peak = tracer.stats.peak_bytes
            await tracer.finalize()
            return peak

        res = run_spmd(main, 8, config=SimConfig(network=ZERO_COST))
        # no lead phase: every rank paid trace memory
        assert all(p > 0 for p in res.results)

    def test_acurdion_cheaper_in_time_than_chameleon_markers(self):
        """Table III's direction: with max marker calls Chameleon's online
        machinery costs more virtual time than ACURDION's single pass."""
        steps = 12

        async def cham(ctx):
            tr = ChameleonTracer(ctx, ChameleonConfig(k=2))
            for _ in range(steps):
                with ctx.frame("u"):
                    await tr.allreduce(1.0)
                await tr.marker()
            await tr.finalize()
            return ctx.clock

        async def acur(ctx):
            tr = AcurdionTracer(ctx, ChameleonConfig(k=2))
            for _ in range(steps):
                with ctx.frame("u"):
                    await tr.allreduce(1.0)
            await tr.finalize()
            return ctx.clock

        t_cham = max(run_spmd(cham, 8).results)
        t_acur = max(run_spmd(acur, 8).results)
        assert t_acur < t_cham


class CountingWalker(StackWalker):
    """Counts the stack walks a tracer performs."""

    calls = 0

    def capture(self, logical_stack=()):
        self.calls += 1
        return super().capture(logical_stack)


class TestEventPath:
    """Every tracer class runs the one event path of
    ``ScalaTraceTracer._record``: one stack walk per intercepted call — per
    ``exchange`` for the calls of a declared phase — and no per-event
    state beyond the compressed tree."""

    @pytest.mark.parametrize("make, has_non_leads", (
        (ScalaTraceTracer, False),
        (lambda ctx: ChameleonTracer(ctx, ChameleonConfig(k=2)), True),
        (lambda ctx: AcurdionTracer(ctx, ChameleonConfig(k=2)), False),
        (lambda ctx: AutoMarkerTracer(ctx, ChameleonConfig(k=2)), True),
    ), ids=("scalatrace", "chameleon", "acurdion", "automarker"))
    def test_one_stack_walk_per_intercepted_call(self, make, has_non_leads):
        """walks == exchanges + collectives + direct p2p calls."""
        nprocs, steps = 8, 10
        # a declared ring: 2 recorded calls (isend, recv) per exchange
        ring = NeighborPattern("ring", nprocs, [
            [("isend", (r + 1) % nprocs, 5, 64),
             ("recv", (r - 1) % nprocs, 5), ("wait", 0)]
            for r in range(nprocs)], ("put", "get", None))

        async def main(ctx):
            tracer = make(ctx)
            tracer.walker = CountingWalker()
            for _ in range(steps):
                await stencil_step(ctx, tracer)
                await tracer.exchange(ring)
                await tracer.marker()
            calls = tracer.walker.calls
            await tracer.finalize()
            return calls, tracer.stats

        res = run_spmd(main, nprocs, config=SimConfig(network=ZERO_COST))
        for rank, (calls, stats) in enumerate(res.results):
            direct = (rank + 1 < nprocs) + (rank > 0)  # stencil send, recv
            assert calls == steps * (1 + 1 + direct)  # + exchange, allreduce
            assert stats.events_recorded + stats.events_skipped \
                == steps * (2 + 1 + direct)
        # the signature-only branch (non-leads in the lead phase) was taken
        skipped = sum(stats.events_skipped for _, stats in res.results)
        assert (skipped > 0) == has_non_leads

    @pytest.mark.parametrize("make", (
        ScalaTraceTracer,
        # a call site per rank and K >= P: every rank is its own cluster's
        # lead and traces through the lead phase
        lambda ctx: ChameleonTracer(ctx, ChameleonConfig(k=4)),
    ), ids=("scalatrace", "chameleon-lead"))
    def test_folded_events_are_not_retained(self, make, monkeypatch):
        """A rank that records N foldable events holds the compressed
        tree's few records afterwards, not N raw ones (whether or not the
        compressor built a record for a call)."""
        steps, per_step = 50, 4
        built: dict[tuple, list] = {}
        of = EventRecord.of.__func__

        def keep(cls, *call):
            rec = of(cls, *call)
            built.setdefault(rec.participants.ranks(), []).append(
                weakref.ref(rec))
            return rec

        monkeypatch.setattr(EventRecord, "of", classmethod(keep))

        async def main(ctx):
            tracer = make(ctx)
            born = [0]
            append = tracer.compressor.append

            def tap(*call):
                born[0] += 1
                append(*call)

            tracer.compressor.append = tap
            for _ in range(steps):
                for _ in range(per_step):
                    with ctx.frame(f"kernel_{ctx.rank}"):
                        await tracer.allreduce(1.0)
                await tracer.marker()
            gc.collect()
            live = sum(ref() is not None
                       for ref in built.get((ctx.rank,), ()))
            leaves = tracer.compressor.leaf_count()
            online = getattr(tracer, "online", None)
            if online is not None:
                leaves += online.leaf_count()
            await tracer.finalize()
            return born[0], live, leaves

        res = run_spmd(main, 2, config=SimConfig(network=ZERO_COST))
        assert [born for born, _, _ in res.results] == [steps * per_step] * 2
        # summed over the ranks: a lead's merged records live on in rank
        # 0's online trace (messages pass references in the simulation)
        live = sum(live for _, live, _ in res.results)
        assert live <= sum(leaves for _, _, leaves in res.results)
