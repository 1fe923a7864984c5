"""RSD node primitives: same_shape, merge_nodes, fold_tail."""

import pytest

from repro.scalatrace import (
    EndpointStat,
    EventNode,
    EventRecord,
    LoopNode,
    Op,
    RankSet,
    WorkMeter,
    expand,
    fold_tail,
    iter_leaves,
    merge_nodes,
    same_shape,
)


def leaf(sig=1, rank=0, dest_off=1, op=Op.SEND):
    rec = EventRecord(
        op=op,
        stack_sig=sig,
        comm_id=1,
        dest=EndpointStat.of(rank + dest_off, rank) if op.is_p2p else None,
        participants=RankSet.single(rank),
    )
    rec.count.add(8)
    rec.tag.add(0)
    rec.dhist.record(0.0)
    return EventNode(rec)


class TestSameShape:
    def test_event_nodes(self):
        assert same_shape(leaf(1), leaf(1))
        assert not same_shape(leaf(1), leaf(2))
        assert not same_shape(leaf(1, op=Op.SEND), leaf(1, op=Op.BARRIER))

    def test_loop_nodes_match_iters(self):
        a = LoopNode(3, [leaf(1)])
        b = LoopNode(3, [leaf(1)])
        c = LoopNode(4, [leaf(1)])
        assert same_shape(a, b)
        assert not same_shape(a, c)  # equal bodies, different counts

    def test_mixed_types_never_match(self):
        assert not same_shape(leaf(1), LoopNode(2, [leaf(1)]))

    def test_meter_counts_comparisons(self):
        m = WorkMeter()
        same_shape(LoopNode(2, [leaf(1), leaf(2)]),
                   LoopNode(2, [leaf(1), leaf(2)]), m)
        assert m.comparisons >= 3  # loop + 2 body nodes


class TestMergeNodes:
    def test_merges_stats_recursively(self):
        a = LoopNode(2, [leaf(1, rank=0)])
        b = LoopNode(2, [leaf(1, rank=5)])
        merge_nodes(a, b)
        inner = a.body[0]
        assert inner.record.participants.ranks() == (0, 5)
        assert inner.record.dhist.total == 2

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            merge_nodes(LoopNode(2, [leaf(1)]), leaf(1))
        with pytest.raises(ValueError):
            merge_nodes(leaf(1), LoopNode(2, [leaf(1)]))
        with pytest.raises(ValueError):
            merge_nodes(LoopNode(2, [leaf(1)]), LoopNode(2, [leaf(1), leaf(2)]))

    def test_returns_the_subtree_byte_delta(self):
        a = LoopNode(2, [leaf(1, rank=0), LoopNode(3, [leaf(2, rank=0)])])
        b = LoopNode(2, [leaf(1, rank=5), LoopNode(3, [leaf(2, rank=5)])])
        b.body[0].record.dhist.record(0.25)  # a bin `a` has not filled yet
        before = a.size_bytes()
        delta = merge_nodes(a, b, allow_chain=False)
        # two ranklists grew from <0> to <0, 5>, one histogram by one bin
        assert delta == a.size_bytes() - before == 2 * 16 + 16


class TestShapeSignature:
    def test_stable_and_discriminating(self):
        assert same_shape(leaf(1), leaf(1))
        assert not same_shape(leaf(1), leaf(2))
        l1 = LoopNode(2, [leaf(1)])
        l2 = LoopNode(3, [leaf(1)])
        assert same_shape(l1, LoopNode(2, [leaf(1)]))
        assert not same_shape(l1, l2)
        assert not same_shape(l1, LoopNode(2, [leaf(2)]))


class TestFoldTail:
    def test_create_and_absorb(self):
        m = WorkMeter()
        nodes = [leaf(1), leaf(1)]
        fold_tail(nodes, 8, m)
        assert len(nodes) == 1 and nodes[0].iters == 2
        nodes.append(leaf(1))
        fold_tail(nodes, 8, m)
        assert nodes[0].iters == 3

    def test_match_participants_blocks_cross_cluster_fold(self):
        m = WorkMeter()
        a = leaf(1, rank=0)
        b = leaf(1, rank=1)  # same site, different participant
        nodes = [a, b]
        fold_tail(nodes, 8, m, match_participants=True)
        assert len(nodes) == 2  # refused
        # without the guard the legacy behaviour folds them
        nodes2 = [leaf(1, rank=0), leaf(1, rank=1)]
        fold_tail(nodes2, 8, m, match_participants=False)
        assert len(nodes2) == 1

    def test_match_participants_allows_equal_populations(self):
        m = WorkMeter()
        a = leaf(1, rank=0)
        a.record.participants = RankSet([0, 1, 2])
        b = leaf(1, rank=0)
        b.record.participants = RankSet([0, 1, 2])
        nodes = [a, b]
        fold_tail(nodes, 8, m, match_participants=True)
        assert len(nodes) == 1 and nodes[0].iters == 2

    def test_iter_leaves_and_expand_consistency(self):
        nodes = [LoopNode(3, [leaf(1), LoopNode(2, [leaf(2)])]), leaf(3)]
        leaves = list(iter_leaves(nodes))
        assert [l.record.stack_sig for l in leaves] == [1, 2, 3]
        stream = [r.stack_sig for r in expand(nodes)]
        assert stream == [1, 2, 2, 1, 2, 2, 1, 2, 2, 3]
