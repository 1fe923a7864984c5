"""Inter-node merging and Trace container/serialization."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.scalatrace import (
    EventNode,
    EventRecord,
    IntraCompressor,
    LoopNode,
    Op,
    RankSet,
    Trace,
    WorkMeter,
    expand,
    merge_many,
    merge_traces,
)

from .calls import call


def ev(sig, rank=0, op=Op.SEND, dest_off=1):
    from repro.scalatrace import EndpointStat

    dest = (
        EndpointStat.of(rank + dest_off, rank)
        if op.is_p2p and dest_off is not None
        else None
    )
    r = EventRecord(
        op=op,
        stack_sig=sig,
        comm_id=1,
        dest=dest,
        participants=RankSet.single(rank),
    )
    r.count.add(32)
    r.tag.add(0)
    r.dhist.record(0.0)
    return r


def compress(sigs, rank):
    c = IntraCompressor()
    for s in sigs:
        c.append(*call(ev(s, rank=rank)))
    return c.take_nodes()


class TestMergeTraces:
    def test_identical_traces_merge_to_one(self):
        a = compress([1, 2, 3], rank=0)
        b = compress([1, 2, 3], rank=1)
        merged = merge_traces(a, b)
        assert len(merged) == 3
        for node in merged:
            assert node.record.participants.ranks() == (0, 1)

    def test_empty_sides(self):
        a = compress([1], rank=0)
        assert merge_traces(a, []) == a
        assert merge_traces([], a) == a

    def test_disjoint_traces_concatenate(self):
        a = compress([1, 2], rank=0)
        b = compress([3, 4], rank=1)
        merged = merge_traces(a, b)
        sigs = [n.record.stack_sig for n in merged]
        assert sorted(sigs) == [1, 2, 3, 4]

    def test_partial_overlap_aligns(self):
        a = compress([1, 2, 9, 3], rank=0)
        b = compress([1, 2, 3], rank=1)
        merged = merge_traces(a, b)
        by_sig = {n.record.stack_sig: n.record for n in merged}
        assert by_sig[1].participants.ranks() == (0, 1)
        assert by_sig[9].participants.ranks() == (0,)
        assert by_sig[3].participants.ranks() == (0, 1)

    def test_loops_merge_recursively(self):
        a = compress([1, 2] * 10, rank=0)
        b = compress([1, 2] * 10, rank=2)
        merged = merge_traces(a, b)
        assert len(merged) == 1
        loop = merged[0]
        assert isinstance(loop, LoopNode) and loop.iters == 10
        for leaf in loop.body:
            assert leaf.record.participants.ranks() == (0, 2)
            assert leaf.record.dhist.total == 20

    def test_loops_with_different_iters_do_not_merge(self):
        a = compress([1] * 5, rank=0)
        b = compress([1] * 7, rank=1)
        merged = merge_traces(a, b)
        assert len(merged) == 2

    def test_meter_counts_quadratic_work(self):
        meter_small, meter_large = WorkMeter(), WorkMeter()
        a_small = compress(list(range(5)), 0)
        b_small = compress(list(range(5, 10)), 1)
        merge_traces(a_small, b_small, meter_small)
        a_large = compress(list(range(20)), 0)
        b_large = compress(list(range(20, 40)), 1)
        merge_traces(a_large, b_large, meter_large)
        # disjoint traces: full LCS table, so 16x the comparisons for 4x n
        assert meter_large.comparisons > 8 * meter_small.comparisons

    def test_merge_many_all_ranks(self):
        traces = [compress([1, 2, 3], rank=r) for r in range(8)]
        merged = merge_many(traces)
        assert len(merged) == 3
        for node in merged:
            assert node.record.participants.ranks() == tuple(range(8))

    @given(st.lists(st.integers(1, 3), min_size=1, max_size=20))
    @settings(max_examples=40, deadline=None)
    def test_merged_trace_contains_each_ranks_stream(self, sigs):
        """Merging preserves per-rank event streams for identical SPMD
        traces: expanding the merged trace reproduces the stream."""
        a = compress(sigs, rank=0)
        b = compress(sigs, rank=1)
        merged = merge_traces(a, b)
        assert [r.stack_sig for r in expand(merged)] == sigs


class TestTrace:
    def make_trace(self):
        nodes = compress([1, 2] * 6 + [3], rank=0)
        return Trace(nodes=nodes, origin=RankSet.single(0), nprocs=4)

    def test_counts(self):
        t = self.make_trace()
        assert t.leaf_count() == 3
        assert t.expanded_count() == 13
        assert t.compression_ratio() == pytest.approx(13 / 3)

    def test_distinct_signatures(self):
        assert self.make_trace().distinct_stack_signatures() == {1, 2, 3}

    def test_copy_independent(self):
        t = self.make_trace()
        c = t.copy()
        c.nodes.clear()
        assert t.leaf_count() == 3

    def test_serialize_roundtrip(self):
        t = self.make_trace()
        text = t.serialize()
        t2 = Trace.deserialize(text)
        assert t2.nprocs == 4
        assert t2.leaf_count() == t.leaf_count()
        assert t2.expanded_count() == t.expanded_count()
        assert [r.stack_sig for r in t2.events()] == [
            r.stack_sig for r in t.events()
        ]
        # statistics survive the roundtrip
        leaves, leaves2 = list(t.leaves()), list(t2.leaves())
        for l1, l2 in zip(leaves, leaves2):
            assert l1.record.static_key() == l2.record.static_key()
            assert l1.record.src_offset == l2.record.src_offset
            assert l1.record.dest_offset == l2.record.dest_offset
            assert l1.record.dhist.total == l2.record.dhist.total
            assert l1.record.count.mean == l2.record.count.mean

    def test_save_load(self, tmp_path):
        t = self.make_trace()
        path = tmp_path / "trace.st"
        t.save(str(path))
        assert Trace.load(str(path)).expanded_count() == t.expanded_count()

    def test_deserialize_rejects_garbage(self):
        with pytest.raises(ValueError):
            Trace.deserialize("not a trace")
        with pytest.raises(ValueError):
            Trace.deserialize("#scalatrace v1 nprocs=1 origin=0\nloop 5 {\n")

    @pytest.mark.parametrize("text, names", [
        ("#scalatrace v2 nprocs=4", "trace header has no origin= field"),
        ("#scalatrace v1 origin=0", "trace header has no nprocs= field"),
        ("#scalatrace v1 nprocs origin=0",
         "trace header field nprocs='' is malformed"),
        ("#scalatrace v1 nprocs=4 origin=0,x",
         "trace header field origin='0,x' is malformed"),
        ("#scalatrace v1 nprocs=4 origin=0\n\nloop {\n}",
         "trace line 3: "),
        ("#scalatrace v1 nprocs=4 origin=0\n}", "trace line 2: unbalanced"),
        ("#scalatrace v1 nprocs=4 origin=0\nev zzz", "trace line 2: bad event"),
        ("#scalatrace v9 nprocs=4 origin=0",
         "trace format 'v9' is not supported (this reader reads v1)"),
        ("#scalatrace 1 nprocs=4 origin=0", "trace format '1' is not"),
    ])
    def test_deserialize_names_the_bad_field_or_line(self, text, names):
        with pytest.raises(ValueError) as exc:
            Trace.deserialize(text)
        assert str(exc.value).startswith(names)

    def test_empty_trace(self):
        t = Trace()
        assert t.leaf_count() == 0
        assert t.compression_ratio() == 1.0
        t2 = Trace.deserialize(t.serialize())
        assert t2.leaf_count() == 0

    def test_collective_events_roundtrip(self):
        rec = EventRecord(
            op=Op.ALLREDUCE,
            stack_sig=42,
            comm_id=2,
            root=0,
            participants=RankSet.contiguous(0, 16),
        )
        rec.count.add(8)
        rec.tag.add(0)
        rec.dhist.record(0.5)
        t = Trace(nodes=[EventNode(rec)], nprocs=16)
        t2 = Trace.deserialize(t.serialize())
        leaf = next(t2.leaves())
        assert leaf.record.op is Op.ALLREDUCE
        assert leaf.record.root == 0
        assert leaf.record.participants.count == 16
