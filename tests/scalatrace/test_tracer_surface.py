"""Remaining tracer API surface: collectives, counters, subset merges."""

import pytest

from repro.scalatrace import EventRecord, Op, RankSet, ScalaTraceTracer, Trace
from repro.simmpi import (ANY_SOURCE, ZERO_COST, NeighborPattern, SimConfig,
                          run_spmd)
from repro.simmpi.errors import TaskFailedError


class RecordingTracer(ScalaTraceTracer):
    """Keeps the raw event record of every call it hands to its compressor
    (the tracer itself holds only the compressed tree)."""

    def __init__(self, ctx):
        super().__init__(ctx)
        self.records = []
        append = self.compressor.append

        def keep(*call):
            self.records.append(EventRecord.of(*call))
            append(*call)

        self.compressor.append = keep


def run_traced(prog, nprocs, tracer_cls=ScalaTraceTracer):
    async def main(ctx):
        tracer = tracer_cls(ctx)
        ret = await prog(ctx, tracer)
        return {"ret": ret, "tracer": tracer}

    return run_spmd(main, nprocs, config=SimConfig(network=ZERO_COST))


class TestTracedCollectives:
    def test_all_collective_wrappers_record(self):
        async def prog(ctx, tr):
            await tr.bcast(b"data", root=0, size=64)
            await tr.reduce(1.0, root=0, size=8)
            await tr.gather(ctx.rank, root=0, size=8)
            values = [0] * ctx.size if ctx.rank == 0 else None
            await tr.scatter(values, root=0, size=8)
            await tr.allgather(ctx.rank, size=8)
            await tr.alltoall([0] * ctx.size, size=8)
            trace = await tr.finalize()
            return trace

        res = run_traced(prog, 4)
        trace = res.results[0]["ret"]
        ops = {l.record.op for l in trace.leaves()}
        assert ops == {
            Op.BCAST,
            Op.REDUCE,
            Op.GATHER,
            Op.SCATTER,
            Op.ALLGATHER,
            Op.ALLTOALL,
        }
        # semantic results unchanged by tracing: roots recorded
        roots = {l.record.root for l in trace.leaves()}
        assert 0 in roots

    def test_collective_results_correct_through_tracer(self):
        async def prog(ctx, tr):
            total = await tr.allreduce(ctx.rank)
            gathered = await tr.gather(ctx.rank, root=0)
            return (total, gathered)

        res = run_traced(prog, 4)
        assert res.results[0]["ret"][0] == 6
        assert res.results[0]["ret"][1] == [0, 1, 2, 3]
        assert res.results[1]["ret"][1] is None


class TestIntervalTracking:
    def test_peak_bytes_monotone(self):
        async def prog(ctx, tr):
            peaks = []
            for i in range(4):
                with ctx.frame(f"site_{i}"):  # distinct sites: trace grows
                    await tr.allreduce(0.0, size=8)
                peaks.append(tr.stats.peak_bytes)
            await tr.finalize()
            return peaks

        peaks = run_traced(prog, 2).results[0]["ret"]
        assert peaks == sorted(peaks)
        assert peaks[-1] > peaks[0]

    def test_events_counters(self):
        async def prog(ctx, tr):
            await tr.barrier()
            tr.tracing = False
            await tr.barrier()
            tr.tracing = True
            await tr.finalize()
            return (tr.stats.events_recorded, tr.stats.events_skipped)

        assert run_traced(prog, 2).results[0]["ret"] == (1, 1)


class TestSubsetTreeMerge:
    def test_merge_over_tree_subset_members(self):
        """Chameleon's lead merge: only the listed members participate."""

        async def prog(ctx, tr):
            with ctx.frame("k"):
                await tr.allreduce(0.0, size=8)
            members = [0, 2, 3]
            if ctx.rank in members:
                local = Trace(
                    nodes=tr.compressor.take_nodes(),
                    origin=RankSet.single(ctx.rank),
                    nprocs=ctx.size,
                )
                merged = await tr.merge_over_tree(local, members=members)
                return merged
            return await tr.merge_over_tree(Trace(), members=members)

        res = run_traced(prog, 5)
        merged = res.results[0]["ret"]
        assert merged is not None
        assert all(res.results[r]["ret"] is None for r in (1, 2, 3, 4))
        covered = set()
        for l in merged.leaves():
            covered.update(l.record.participants.ranks())
        assert covered == {0, 2, 3}

    def test_nonmember_returns_none_without_comm(self):
        async def prog(ctx, tr):
            result = await tr.merge_over_tree(Trace(), members=[1])
            return result is None if ctx.rank != 1 else result is not None

        res = run_traced(prog, 3)
        assert all(r["ret"] for r in res.results)


class TestTracedWildcards:
    def test_sendrecv_with_wildcard_source(self):
        async def prog(ctx, tr):
            peer = (ctx.rank + 1) % ctx.size
            got = await tr.sendrecv(peer, ctx.rank, source=ANY_SOURCE)
            trace = await tr.finalize()
            return (got, trace)

        res = run_traced(prog, 3)
        trace = res.results[0]["ret"][1]
        srs = [l.record for l in trace.leaves() if l.record.op is Op.SENDRECV]
        assert srs and all(r.src is None for r in srs)  # wildcard recorded


class TestDeclaredExchange:
    """``tracer.exchange``: a declared script as a traced schedule, each
    op recorded under its position's call-site label."""

    @staticmethod
    def ring(size, sites):
        ops = [
            [("isend", (r + 1) % size, 3, 8), ("recv", (r - 1) % size, 3),
             ("wait", 0), ("compute", 1e-6),
             ("isend", (r + 1) % size, 4, 8), ("recv", (r - 1) % size, 4),
             ("wait", 1)]
            for r in range(size)
        ]
        return NeighborPattern("ring", size, ops, sites)

    def test_labels_are_the_call_site_classes(self):
        pattern = self.ring(4, ("put", "get", None, None, "put", "get", None))

        async def prog(ctx, tr):
            await tr.exchange(pattern, compute=ctx.compute)
            return [(r.op, r.stack_sig, r.frames[-1]) for r in tr.records]

        res = run_traced(prog, 4, RecordingTracer)
        for out in res.results:
            recs = out["ret"]
            assert [r[0] for r in recs] == [Op.ISEND, Op.RECV] * 2
            assert [r[2] for r in recs] == ["<put>", "<get>"] * 2
            # equal labels share a signature, distinct labels do not
            assert recs[0][1] == recs[2][1] != recs[1][1] == recs[3][1]
        # the traced script is a schedule: the gate replayed it
        assert (res.p2p_fast, res.p2p_simulated) == (4, 0)
        assert all(c >= 1e-6 for c in res.clocks)

    def test_sendrecv_entry_fuses_three_positions(self):
        pattern = self.ring(
            4, (("sendrecv", "shift"), None, None, None, "put", "get", None))

        async def prog(ctx, tr):
            await tr.exchange(pattern)
            return [(r.op, r.tag.mean) for r in tr.records]

        res = run_traced(prog, 4, RecordingTracer)
        for out in res.results:
            assert out["ret"] == [(Op.SENDRECV, 3), (Op.ISEND, 4),
                                  (Op.RECV, 4)]

    @pytest.mark.parametrize("sites", (
        None,  # an unlabelled pattern is for the simulator only
        ("put", "get", None),  # table shorter than the script
        ("put", None, None, None, "put", "get", None),  # recv unlabelled
    ))
    def test_incomplete_table_is_an_error(self, sites):
        pattern = self.ring(2, sites)

        async def prog(ctx, tr):
            await tr.exchange(pattern)

        with pytest.raises(TaskFailedError, match="call-site"):
            run_traced(prog, 2)
