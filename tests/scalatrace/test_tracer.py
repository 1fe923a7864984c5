"""ScalaTrace tracer end-to-end over the simulated runtime."""

import pytest

from repro.scalatrace import Op, ScalaTraceTracer, Trace, ZERO_COSTS
from repro.simmpi import SimConfig, ZERO_COST, run_spmd


def run_traced(prog, nprocs, network=ZERO_COST, **tracer_kw):
    async def main(ctx):
        tracer = ScalaTraceTracer(ctx, **tracer_kw)
        ret = await prog(ctx, tracer)
        trace = await tracer.finalize()
        return {"trace": trace, "ret": ret, "stats": tracer.stats, "clock": ctx.clock}

    return run_spmd(main, nprocs, config=SimConfig(network=network))


class TestBasicTracing:
    def test_ring_trace_merges_to_single_events(self):
        async def prog(ctx, tr):
            peer = (ctx.rank + 1) % ctx.size
            src = (ctx.rank - 1) % ctx.size
            for _ in range(5):
                await tr.sendrecv(peer, b"x" * 16, source=src)
            return None

        res = run_traced(prog, 8)
        trace = res.results[0]["trace"]
        assert trace is not None
        assert all(r["trace"] is None for r in res.results[1:])
        # One call site, but the ring wraparound gives three distinct
        # relative encodings: interior (+1,-1), rank 0 (+1,+7), rank 7
        # (-7,-1) — exactly ScalaTrace's location-independent behaviour.
        assert trace.leaf_count() == 3
        leaves = list(trace.leaves())
        assert all(l.record.op is Op.SENDRECV for l in leaves)
        interior = max(leaves, key=lambda l: l.record.participants.count)
        assert interior.record.participants.ranks() == (1, 2, 3, 4, 5, 6)
        assert interior.record.dest_offset == 1
        assert interior.record.src_offset == -1
        # 5 iterations x 3 distinct encodings
        assert trace.expanded_count() == 15

    def test_relative_endpoint_encoding(self):
        async def prog(ctx, tr):
            if ctx.rank + 1 < ctx.size:
                await tr.send(ctx.rank + 1, None, size=8)
            if ctx.rank > 0:
                await tr.recv(ctx.rank - 1)

        res = run_traced(prog, 6)
        trace = res.results[0]["trace"]
        leaves = {l.record.op: l.record for l in trace.leaves()}
        send = leaves[Op.SEND]
        assert send.dest_offset == 1
        # ranks 0..4 send; 5 has no +1 neighbour
        assert send.participants.ranks() == (0, 1, 2, 3, 4)
        recv = leaves[Op.RECV]
        assert recv.src_offset == -1
        assert recv.participants.ranks() == (1, 2, 3, 4, 5)

    def test_collectives_merge_across_ranks(self):
        async def prog(ctx, tr):
            for _ in range(3):
                await tr.allreduce(1.0)
                await tr.barrier()

        res = run_traced(prog, 4)
        trace = res.results[0]["trace"]
        assert trace.leaf_count() == 2
        assert trace.expanded_count() == 6
        for leaf in trace.leaves():
            assert leaf.record.participants.count == 4

    def test_different_call_sites_stay_distinct(self):
        async def prog(ctx, tr):
            await tr.barrier()  # site A
            await tr.barrier()  # site B

        res = run_traced(prog, 2)
        trace = res.results[0]["trace"]
        assert trace.leaf_count() == 2
        assert len(trace.distinct_stack_signatures()) == 2

    def test_isend_irecv_traced(self):
        async def prog(ctx, tr):
            peer = 1 - ctx.rank
            sreq = tr.isend(peer, None, tag=1, size=8)
            rreq = tr.irecv(peer, tag=1)
            await tr.wait(rreq)
            await tr.wait(sreq)

        res = run_traced(prog, 2)
        trace = res.results[0]["trace"]
        ops = {l.record.op for l in trace.leaves()}
        assert ops == {Op.ISEND, Op.IRECV}

    def test_delta_times_recorded(self):
        async def prog(ctx, tr):
            for _ in range(4):
                ctx.compute(0.25)
                await tr.barrier()

        res = run_traced(prog, 2, tracer_kw_sentinel=None) if False else run_traced(prog, 2)
        trace = res.results[0]["trace"]
        leaf = next(trace.leaves())
        # 4 iterations x 2 ranks, each preceded by 0.25s compute
        assert leaf.record.dhist.total == 8
        assert leaf.record.dhist.mean == pytest.approx(0.25, rel=0.2)


class TestTracingControl:
    def test_zero_costs_charge_no_time(self):
        async def prog(ctx, tr):
            for _ in range(10):
                await tr.barrier()
            return None

        res = run_traced(prog, 2, costs=ZERO_COSTS)
        assert res.results[0]["stats"].record_time == 0.0


class TestFinalizeMerge:
    def test_finalize_produces_global_trace_on_rank0(self):
        async def prog(ctx, tr):
            for _ in range(3):
                if ctx.rank % 2 == 0 and ctx.rank + 1 < ctx.size:
                    await tr.send(ctx.rank + 1, None, size=8)
                elif ctx.rank % 2 == 1:
                    await tr.recv(ctx.rank - 1)
                await tr.barrier()

        res = run_traced(prog, 8)
        trace = res.results[0]["trace"]
        assert isinstance(trace, Trace)
        assert trace.origin.ranks() == tuple(range(8))
        ops = {l.record.op for l in trace.leaves()}
        assert ops == {Op.SEND, Op.RECV, Op.BARRIER}

    def test_merge_stats_tracked(self):
        async def prog(ctx, tr):
            await tr.barrier()

        res = run_traced(prog, 16)
        # interior tree nodes did merging work
        stats0 = res.results[0]["stats"]
        assert stats0.merge_time > 0.0

    def test_larger_comm_means_more_merge_comm(self):
        async def prog(ctx, tr):
            for i in range(10):
                await tr.allreduce(i)

        small = run_traced(prog, 4).results[0]["stats"].merge_comm_time
        large = run_traced(prog, 64).results[0]["stats"].merge_comm_time
        # rank 0 receives from more children / bigger subtrees take longer
        assert large >= small

    def test_tree_arity_configurable(self):
        async def prog(ctx, tr):
            await tr.barrier()

        res = run_traced(prog, 9, tree_arity=4)
        assert res.results[0]["trace"].leaf_count() == 1


class TestRecordSizingWork:
    """Work counters, no timing, on one converged PRSD: ``prefix`` unfolded
    setup events, then ``iters`` repetitions of a ``width``-site body."""

    PREFIX, WIDTH, ITERS = 40, 3, 30
    COUNTED = ("size_bytes", "same_shape", "can_merge", "merge",
               "can_merge_sample", "merge_sample")

    def converged(self, monkeypatch) -> tuple[dict, dict]:
        """Calls made inside each ``_record`` after the loop converged (two
        bodies in), by what was called: in the first iteration, which runs
        the rules while the compressor's cursor follows it, and in the
        others, whose calls wait in the cursor's pending iteration."""
        from repro.scalatrace import EventRecord, intra

        calls = dict.fromkeys(self.COUNTED, 0)
        per_record: dict[str, list[int]] = {name: [] for name in calls}
        record = ScalaTraceTracer._record

        def counting(name, fn):
            def counted(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return counted

        def counted_record(self, *args, **kwargs):
            before = dict(calls)
            sig = record(self, *args, **kwargs)
            for name in calls:
                per_record[name].append(calls[name] - before[name])
            return sig

        for name in self.COUNTED:
            if name != "same_shape":
                monkeypatch.setattr(
                    EventRecord, name, counting(name, getattr(EventRecord, name)))
        monkeypatch.setattr(
            intra, "same_shape", counting("same_shape", intra.same_shape))
        monkeypatch.setattr(ScalaTraceTracer, "_record", counted_record)
        prefix, width, iters = self.PREFIX, self.WIDTH, self.ITERS

        async def main(ctx):
            tr = ScalaTraceTracer(ctx)
            for i in range(prefix):
                with ctx.frame(f"setup_{i}"):
                    await tr.barrier()
            for _ in range(iters):
                for site in range(width):
                    with ctx.frame(f"step_{site}"):
                        await tr.allreduce(1.0)
            assert len(tr.compressor.nodes) == prefix + 1
            assert tr.stats.peak_bytes >= tr.compressor.size_bytes() == sum(
                n.size_bytes() for n in tr.compressor.nodes)

        run_spmd(main, 1, config=SimConfig(network=ZERO_COST))
        start = prefix + 2 * width
        followed = {name: counts[start:start + width]
                    for name, counts in per_record.items()}
        pending = {name: counts[start + width:]
                   for name, counts in per_record.items()}
        assert len(pending["merge"]) == (iters - 3) * width
        return followed, pending

    def test_converged_loop_sizes_the_fold_not_the_tree(self, monkeypatch):
        """One ``_record`` of the followed iteration sizes the new record
        and, when its fold absorbs a run, that run once (the merges report
        their own change) — never the loop body, never the unfolded nodes in
        front of the loop.  A pending call sizes nothing."""
        followed, pending = self.converged(monkeypatch)
        assert max(followed["size_bytes"]) == 1 + self.WIDTH < self.PREFIX
        assert sum(followed["size_bytes"]) == self.WIDTH + self.WIDTH
        assert sum(pending["size_bytes"]) == 0

    def test_converged_loop_compares_only_what_can_match(self, monkeypatch):
        """A candidate run length whose first pair differs in node type or
        call site costs no ``same_shape`` call: what is left in the followed
        iteration is one real comparison per event, made when the body is
        complete.  A pending call compares nothing."""
        followed, pending = self.converged(monkeypatch)
        assert max(followed["same_shape"]) == self.WIDTH
        assert sum(followed["same_shape"]) == self.WIDTH
        assert sum(pending["same_shape"]) == 0

    def test_one_can_merge_evaluation_per_merged_record(self, monkeypatch):
        """``merge`` validates for itself instead of calling ``can_merge``
        and then merging the endpoints again; the pending iteration checks
        each of its samples once (``can_merge_sample``) before merging it."""
        followed, pending = self.converged(monkeypatch)
        assert (sum(followed["can_merge"]) == sum(followed["merge"])
                == self.WIDTH)
        assert sum(pending["can_merge"]) == sum(pending["merge"]) == 0
        assert (sum(pending["can_merge_sample"])
                == sum(pending["merge_sample"]) == len(pending["merge"]))


class TestSharedParticipants:
    def test_one_rankset_per_tracer_survives_every_rewrite(self):
        """Every record a rank builds shares the tracer's one ``RankSet``
        (nothing mutates a RankSet: ``union`` returns ``self`` or a new
        set, ``replace_participants`` assigns a new one).  After the PRSD
        fold, a participant substitution and an inter-node merge rewrote
        the records around it, the shared instance still reads ``{rank}``."""
        from repro.core.online import replace_participants
        from repro.scalatrace import RankSet, merge_traces

        taken: dict[int, tuple] = {}

        async def main(ctx):
            tr = ScalaTraceTracer(ctx)
            born = []
            append = tr.compressor.append

            def tap(op, site, participants, *rest):
                born.append(participants)
                append(op, site, participants, *rest)

            tr.compressor.append = tap
            for _ in range(4):  # folds into one loop: fold_tail merges
                with ctx.frame("a"):
                    await tr.allreduce(1.0, size=8)
                with ctx.frame("b"):
                    await tr.barrier()
            assert len(born) == 8 and all(p is tr._self_set for p in born)
            assert len(tr.compressor.nodes) == 1
            taken[ctx.rank] = (tr._self_set, tr.compressor.take_nodes())

        run_spmd(main, 3, config=SimConfig(network=ZERO_COST))
        shared = {rank: own for rank, (own, _) in taken.items()}
        before = {rank: (own.ranks(), own.size_bytes(), str(own))
                  for rank, own in shared.items()}
        assert before == {rank: ((rank,), RankSet.single(rank).size_bytes(),
                                 str(RankSet.single(rank)))
                          for rank in range(3)}
        merged = merge_traces(taken[0][1], taken[1][1])
        leaf = next(Trace(nodes=merged).leaves())
        assert leaf.record.participants.ranks() == (0, 1)
        replace_participants(taken[2][1], RankSet([2, 5, 8]))
        leaf = next(Trace(nodes=taken[2][1]).leaves())
        assert leaf.record.participants.ranks() == (2, 5, 8)
        assert {rank: (own.ranks(), own.size_bytes(), str(own))
                for rank, own in shared.items()} == before
