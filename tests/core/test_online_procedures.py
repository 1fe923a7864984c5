"""Algorithm 3's tree procedures, exercised directly."""

import pytest

from repro.core import (
    ChameleonConfig,
    IntervalSignatures,
    cluster_over_tree,
    fold_into_online,
    merge_lead_traces,
    replace_participants,
)
from repro.core import chameleon
from repro.faults.plan import CrashFault, FaultPlan
from repro.harness.runner import Mode, run_mode
from repro.scalatrace import (
    EndpointStat,
    EventNode,
    EventRecord,
    Op,
    RankSet,
    ScalaTraceTracer,
    Trace,
)
from repro.simmpi import SimConfig, ZERO_COST, run_spmd
from repro.workloads import make_workload


def run_ranks(prog, nprocs):
    async def main(ctx):
        tracer = ScalaTraceTracer(ctx)
        return await prog(ctx, tracer)

    return run_spmd(main, nprocs, config=SimConfig(network=ZERO_COST)).results


class TestClusterOverTree:
    def test_identical_signatures_one_cluster(self):
        async def prog(ctx, tr):
            sigs = IntervalSignatures(callpath=7, src=100, dest=200)
            topk = await cluster_over_tree(tr, sigs, ChameleonConfig(k=3))
            return topk

        results = run_ranks(prog, 8)
        for topk in results:
            assert len(topk) == 1
            assert topk.covered_ranks() == tuple(range(8))
            assert topk.leads() == [0]

    def test_per_rank_signatures_cluster_by_group(self):
        async def prog(ctx, tr):
            group = ctx.rank % 2
            sigs = IntervalSignatures(
                callpath=group + 1, src=group * 1000, dest=0
            )
            topk = await cluster_over_tree(tr, sigs, ChameleonConfig(k=4))
            return topk

        results = run_ranks(prog, 8)
        topk = results[0]
        assert topk.num_callpaths == 2
        assert topk.covered_ranks() == tuple(range(8))
        # all ranks received identical broadcast results
        assert all(t.leads() == topk.leads() for t in results)

    def test_pruning_under_budget(self):
        async def prog(ctx, tr):
            # every rank a distinct src signature in ONE callpath group
            sigs = IntervalSignatures(callpath=1, src=ctx.rank * 999, dest=0)
            topk = await cluster_over_tree(tr, sigs, ChameleonConfig(k=2))
            return topk

        topk = run_ranks(prog, 12)[0]
        assert len(topk) <= 2
        assert topk.covered_ranks() == tuple(range(12))


def _leaf(op, rank, dest_abs=None):
    rec = EventRecord(
        op=op,
        stack_sig=0xABC,
        comm_id=1,
        dest=None if dest_abs is None else EndpointStat.of(dest_abs, rank),
        participants=RankSet.single(rank),
    )
    rec.count.add(8)
    rec.tag.add(0)
    rec.dhist.record(0.0)
    return EventNode(rec)


class TestReplaceParticipants:
    def test_homogeneous_keeps_rel(self):
        node = _leaf(Op.SEND, rank=3, dest_abs=4)
        replace_participants([node], RankSet([3, 4, 5]))
        assert node.record.participants.ranks() == (3, 4, 5)
        assert node.record.dest.rel == 1  # untouched

    def test_heterogeneous_prefers_abs(self):
        node = _leaf(Op.SEND, rank=3, dest_abs=0)
        replace_participants(
            [node], RankSet([1, 2, 3]), dest_homogeneous=False
        )
        assert node.record.dest.rel is None
        assert node.record.dest.abs_ == 0

    def test_heterogeneous_without_abs_keeps_rel(self):
        node = _leaf(Op.SEND, rank=3, dest_abs=4)
        node.record.dest.abs_ = None  # abs already invalidated
        replace_participants(
            [node], RankSet([1, 2, 3]), dest_homogeneous=False
        )
        assert node.record.dest.rel == 1  # nothing better available


class TestMergeLeadTraces:
    def test_merge_into_online_at_rank0(self):
        async def prog(ctx, tr):
            sigs = IntervalSignatures(callpath=1, src=0, dest=0)
            config = ChameleonConfig(k=2)
            with ctx.frame("k"):
                await tr.allreduce(0.0, size=8)
            topk = await cluster_over_tree(tr, sigs, config)
            online = Trace(nprocs=ctx.size) if ctx.rank == 0 else None
            segment = await merge_lead_traces(tr, topk)
            assert (segment is not None) == (ctx.rank == 0)
            if segment is not None:
                fold_into_online(tr, online, segment)
            return online

        results = run_ranks(prog, 6)
        online = results[0]
        assert online is not None
        assert all(r is None for r in results[1:])
        leaf = next(online.leaves())
        assert leaf.record.participants.count == 6

    def test_online_grows_across_two_merges(self):
        async def prog(ctx, tr):
            config = ChameleonConfig(k=1)
            online = Trace(nprocs=ctx.size) if ctx.rank == 0 else None
            for phase in ("a", "b"):
                before = online.size_bytes() if online else 0
                with ctx.frame(f"phase_{phase}"):
                    await tr.allreduce(0.0, size=8)
                sigs = IntervalSignatures(callpath=hash(phase) & 0xFF, src=0,
                                          dest=0)
                topk = await cluster_over_tree(tr, sigs, config)
                segment = await merge_lead_traces(tr, topk)
                if segment is not None:
                    grown = fold_into_online(tr, online, segment)
                    assert grown == online.size_bytes() - before
            return online

        online = run_ranks(prog, 4)[0]
        assert online.leaf_count() == 2  # one per phase
        assert online.expanded_count() == 2


class TestOnlineByteCount:
    """Rank 0 keeps ``online_bytes`` beside its online trace instead of
    re-summing the trace at every marker: the count must equal
    ``online.size_bytes()`` wherever it is read, after every fold and when
    the run ends."""

    @staticmethod
    def _watch(monkeypatch) -> dict:
        seen = {"samples": 0, "folds": 0, "refolded": 0, "degraded_folds": 0,
                "finalized": 0}
        append = chameleon.ChameleonTracer._append
        finalize = chameleon.ChameleonTracer.finalize
        fold = chameleon.fold_into_online

        def checked_append(self, *args, **kwargs):
            # the marker log's space sample reads online_bytes
            if self.rank == 0:
                assert self.online_bytes == self.online.size_bytes()
                seen["samples"] += 1
            append(self, *args, **kwargs)

        def checked_fold(tracer, online, segment):
            added = sum(n.size_bytes() for n in segment.nodes)
            grown = fold(tracer, online, segment)
            assert tracer.online_bytes + grown == online.size_bytes()
            seen["folds"] += 1
            seen["refolded"] += grown != added  # fold_tail rewrote the tail
            seen["degraded_folds"] += tracer.degraded
            return grown

        async def checked_finalize(self):
            trace = await finalize(self)
            if self.rank == 0:
                assert self.online_bytes == self.online.size_bytes()
                seen["finalized"] += 1
            return trace

        monkeypatch.setattr(chameleon.ChameleonTracer, "_append",
                            checked_append)
        monkeypatch.setattr(chameleon.ChameleonTracer, "finalize",
                            checked_finalize)
        monkeypatch.setattr(chameleon, "fold_into_online", checked_fold)
        return seen

    def test_recluster_and_flush_path(self, monkeypatch):
        seen = self._watch(monkeypatch)
        workload = make_workload("lu_modified", problem_class="A",
                                 iterations=12, phase_period=5)
        result = run_mode(workload, 9, Mode.CHAMELEON)
        assert result.chameleon_stats[0].reclusterings >= 3
        assert seen["samples"] == 13  # 12 markers + finalize
        assert seen["folds"] >= 4 and not seen["degraded_folds"]
        assert seen["finalized"] == 1
        assert result.trace.size_bytes() > 64

    def test_segments_that_repeat_across_intervals(self, monkeypatch):
        # the run where the online trace's own fold_tail rewrites nodes
        seen = self._watch(monkeypatch)
        run_mode(make_workload("synthetic"), 8, Mode.CHAMELEON)
        assert seen["refolded"] >= 2 and seen["finalized"] == 1

    def test_degraded_finalize_folds_into_the_online_trace(self, monkeypatch):
        # the collapse case of test_tracer_pins: a single-member cluster's
        # lead dies, rank 0 degrades and its finalize folds the survivors'
        # merged trace into the online trace
        seen = self._watch(monkeypatch)
        workload = make_workload("bt", problem_class="A", iterations=24)
        plan = FaultPlan(seed=11, crashes=(CrashFault(rank=12, time=0.019),))
        result = run_mode(workload, 16, Mode.CHAMELEON, faults=plan)
        assert list(result.failed_ranks) == [12]
        assert seen["degraded_folds"] == 1 and seen["folds"] > 1
        assert seen["samples"] == 25 and seen["finalized"] == 1
