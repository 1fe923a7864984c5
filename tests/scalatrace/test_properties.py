"""Cross-module property tests on the compression stack's invariants."""

from hypothesis import given, settings, strategies as st

from repro.scalatrace import (
    EndpointStat,
    EventRecord,
    IntraCompressor,
    Op,
    RankSet,
    Trace,
    expand,
    merge_many,
    merge_traces,
)

from .calls import call

# -- generators --------------------------------------------------------------

#: a small alphabet of call sites with associated ops / endpoint offsets
SITES = {
    1: (Op.SEND, 1),
    2: (Op.RECV, -1),
    3: (Op.BARRIER, None),
    4: (Op.ALLREDUCE, None),
    5: (Op.SEND, 2),
}


def make_event(site: int, rank: int, dt: float = 0.0) -> EventRecord:
    op, off = SITES[site]
    dest = None
    src = None
    if op is Op.SEND and off is not None:
        dest = EndpointStat.of(rank + off, rank)
    if op is Op.RECV and off is not None:
        src = EndpointStat.of(rank + off, rank)
    rec = EventRecord(
        op=op,
        stack_sig=site * 0x9E3779B97F4A7C15 & ((1 << 64) - 1),
        comm_id=1,
        src=src,
        dest=dest,
        participants=RankSet.single(rank),
    )
    rec.count.add(64)
    rec.tag.add(0)
    rec.dhist.record(dt)
    return rec


def compress(stream, rank):
    c = IntraCompressor()
    for site in stream:
        c.append(*call(make_event(site, rank)))
    return c


streams = st.lists(st.sampled_from(sorted(SITES)), min_size=1, max_size=40)


# -- properties --------------------------------------------------------------


class TestCompressionInvariants:
    @given(streams)
    @settings(max_examples=80, deadline=None)
    def test_lossless_event_sequence(self, stream):
        c = compress(stream, rank=0)
        sites = [rec.stack_sig for rec in expand(c.nodes)]
        expected = [make_event(s, 0).stack_sig for s in stream]
        assert sites == expected

    @given(streams)
    @settings(max_examples=80, deadline=None)
    def test_delta_time_mass_preserved(self, stream):
        c = IntraCompressor()
        total = 0.0
        for i, site in enumerate(stream):
            dt = 0.001 * (i + 1)
            total += dt
            c.append(*call(make_event(site, 0, dt=dt)))
        mass = sum(l.record.dhist.sum for l in Trace(nodes=c.nodes).leaves())
        assert abs(mass - total) < 1e-9

    @given(streams, st.integers(2, 8))
    @settings(max_examples=50, deadline=None)
    def test_spmd_merge_covers_all_ranks(self, stream, nprocs):
        traces = [compress(stream, rank=r).take_nodes() for r in range(nprocs)]
        merged = merge_many(traces)
        covered = set()
        for node in Trace(nodes=merged).leaves():
            covered.update(node.record.participants.ranks())
        assert covered == set(range(nprocs))

    @given(streams)
    @settings(max_examples=50, deadline=None)
    def test_merge_with_empty_is_identity(self, stream):
        nodes = compress(stream, 0).take_nodes()
        before = [r.stack_sig for r in expand(nodes)]
        assert [r.stack_sig for r in expand(merge_traces(nodes, []))] == before
        nodes2 = compress(stream, 0).take_nodes()
        assert [r.stack_sig for r in expand(merge_traces([], nodes2))] == before

    @given(streams, st.integers(2, 6))
    @settings(max_examples=40, deadline=None)
    def test_merge_preserves_total_event_mass(self, stream, nprocs):
        """The merged trace accounts for every (rank, event) pair exactly
        once: the sum of dhist totals equals nprocs * len(stream)."""
        traces = [compress(stream, rank=r).take_nodes() for r in range(nprocs)]
        merged = merge_many(traces)
        mass = sum(
            l.record.dhist.total for l in Trace(nodes=merged).leaves()
        )
        assert mass == nprocs * len(stream)

    @given(streams)
    @settings(max_examples=60, deadline=None)
    def test_serialization_roundtrip_preserves_everything(self, stream):
        c = compress(stream, rank=0)
        t = Trace(nodes=c.take_nodes(), nprocs=4)
        t2 = Trace.deserialize(t.serialize())
        assert t2.expanded_count() == t.expanded_count()
        assert t2.leaf_count() == t.leaf_count()
        for a, b in zip(t.leaves(), t2.leaves()):
            assert a.record.static_key() == b.record.static_key()
            assert a.record.dhist.total == b.record.dhist.total
            assert (a.record.dest is None) == (b.record.dest is None)
            if a.record.dest is not None:
                assert a.record.dest.rel == b.record.dest.rel
                assert a.record.dest.abs_ == b.record.dest.abs_

    @given(streams, st.integers(2, 6))
    @settings(max_examples=40, deadline=None)
    def test_merged_trace_size_sublinear_in_ranks(self, stream, nprocs):
        """The point of ScalaTrace: the global trace does not grow with P
        for SPMD streams (identical behaviour merges)."""
        single = Trace(nodes=compress(stream, 0).take_nodes()).size_bytes()
        traces = [compress(stream, rank=r).take_nodes() for r in range(nprocs)]
        merged_size = Trace(nodes=merge_many(traces)).size_bytes()
        # allow slack for histogram bins; must not be ~nprocs * single
        assert merged_size < single * 2 + 512
