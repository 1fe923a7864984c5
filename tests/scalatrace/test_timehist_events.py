"""Delta-time histograms, ParamStat, and EventRecord merging."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.scalatrace import (
    DeltaHistogram,
    EndpointStat,
    EventRecord,
    Op,
    ParamStat,
    RankSet,
)

DT = st.floats(0.0, 1e3, allow_nan=False, allow_infinity=False)


class TestDeltaHistogram:
    def test_empty(self):
        h = DeltaHistogram()
        assert h.total == 0
        assert h.mean == 0.0
        assert h.sample() == 0.0

    def test_record_updates_stats(self):
        h = DeltaHistogram()
        h.record(1.0)
        h.record(3.0)
        assert h.total == 2
        assert h.mean == pytest.approx(2.0)
        assert h.min == 1.0 and h.max == 3.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            DeltaHistogram().record(-0.1)

    @given(st.lists(DT, min_size=1, max_size=100))
    def test_mean_matches_stream(self, dts):
        h = DeltaHistogram()
        for dt in dts:
            h.record(dt)
        assert h.mean == pytest.approx(sum(dts) / len(dts))
        assert h.sample() == h.mean

    @given(st.lists(DT, min_size=1, max_size=50), st.lists(DT, min_size=1, max_size=50))
    def test_merge_equals_combined(self, xs, ys):
        a, b, c = DeltaHistogram(), DeltaHistogram(), DeltaHistogram()
        for x in xs:
            a.record(x)
            c.record(x)
        for y in ys:
            b.record(y)
            c.record(y)
        before = a.size_bytes()
        assert a.merge(b) == a.size_bytes() - before  # 16 per bin it opened
        assert a.total == c.total
        assert a.counts == c.counts
        assert a.mean == pytest.approx(c.mean)

    def test_size_bytes_sparse(self):
        h = DeltaHistogram()
        empty = h.size_bytes()
        h.record(1e-6)
        h.record(1e-6)
        one_bin = h.size_bytes()
        h.record(1.0)
        two_bins = h.size_bytes()
        assert empty < one_bin < two_bins

    @given(st.lists(DT, min_size=0, max_size=30))
    def test_text_roundtrip(self, dts):
        h = DeltaHistogram()
        for dt in dts:
            h.record(dt)
        h2 = DeltaHistogram.from_text(h.to_text())
        assert h2.counts == h.counts
        assert h2.total == h.total
        assert h2.sum == pytest.approx(h.sum)

    def test_copy_independent(self):
        h = DeltaHistogram()
        h.record(1.0)
        c = h.copy()
        c.record(2.0)
        assert h.total == 1 and c.total == 2


class TestParamStat:
    def test_of_and_add(self):
        s = ParamStat.of(10)
        s.add(20)
        assert s.n == 2 and s.mean == 15 and s.min == 10 and s.max == 20

    @given(st.lists(st.integers(0, 10**9), min_size=1, max_size=60))
    def test_stats_match_stream(self, xs):
        s = ParamStat()
        for x in xs:
            s.add(x)
        assert s.min == min(xs) and s.max == max(xs)
        assert s.mean == pytest.approx(sum(xs) / len(xs))

    @given(
        st.lists(st.integers(0, 10**6), min_size=1, max_size=30),
        st.lists(st.integers(0, 10**6), min_size=1, max_size=30),
    )
    def test_merge(self, xs, ys):
        a, b = ParamStat(), ParamStat()
        for x in xs:
            a.add(x)
        for y in ys:
            b.add(y)
        a.merge(b)
        allv = xs + ys
        assert a.n == len(allv)
        assert a.mean == pytest.approx(sum(allv) / len(allv))

    def test_empty_merge_noop(self):
        a = ParamStat.of(5)
        a.merge(ParamStat())
        assert a.n == 1

    def test_text_roundtrip(self):
        s = ParamStat.of(42)
        s.add(7)
        t = ParamStat.from_text(s.to_text())
        assert (t.n, t.mean, t.min, t.max) == (s.n, s.mean, s.min, s.max)

    def test_text_roundtrip_empty(self):
        s = ParamStat()
        t = ParamStat.from_text(s.to_text())
        assert t.n == 0 and math.isinf(t.min)


def _fields(s: ParamStat) -> list:
    """Every field with its type; the mean by its bits."""
    return [(type(v), v.hex() if type(v) is float else v)
            for v in (s.n, s.mean, s.min, s.max)]


def _added(value) -> ParamStat:
    s = ParamStat()
    s.add(value)
    return s


#: call parameters as the tracer sees them, and past a double's mantissa
_PARAMS = st.integers(-(1 << 70), 1 << 70) | st.sampled_from(
    [0, 1, (1 << 53) - 1, 1 << 53, (1 << 53) + 1, (1 << 63) + 5])


class TestBornWithSample:
    """A record's ``ParamStat`` is built holding its first sample; it must
    be ``ParamStat()`` + ``add(v)`` field for field, type for type."""

    @given(_PARAMS)
    def test_of_is_empty_plus_add(self, value):
        assert _fields(ParamStat.of(value)) == _fields(_added(value))

    @given(st.floats(allow_nan=False) | st.sampled_from([0.0, -0.0]))
    def test_of_a_float_keeps_adds_mean(self, value):
        assert _fields(ParamStat.of(value)) == _fields(_added(value))

    def test_a_built_record_holds_its_call_as_one_added_sample(self):
        """Through the tracer's ``_build``: payload size and tag."""
        from repro.scalatrace import ScalaTraceTracer
        from repro.simmpi import SimConfig, ZERO_COST, run_spmd

        sizes = [0, 7, (1 << 53) + 1]

        async def main(ctx):
            tracer = ScalaTraceTracer(ctx)
            for size in sizes:
                with ctx.frame(f"site{size}"):  # one site each: no folding
                    if ctx.rank == 0:
                        await tracer.send(1, None, tag=size % 5, size=size)
                    else:
                        await tracer.recv(0, tag=size % 5)
            return [leaf.record for leaf in tracer.compressor.nodes]

        records = run_spmd(main, 2, config=SimConfig(network=ZERO_COST)).results[0]
        assert len(records) == len(sizes)
        for rec, size in zip(records, sizes):
            assert _fields(rec.count) == _fields(_added(size))
            assert _fields(rec.tag) == _fields(_added(size % 5))


def _record(rank=0, op=Op.SEND, sig=111, dest_off=1):
    r = EventRecord(
        op=op,
        stack_sig=sig,
        comm_id=1,
        dest=EndpointStat.of(rank + dest_off, rank),
        participants=RankSet.single(rank),
    )
    r.count.add(800)
    r.tag.add(5)
    r.dhist.record(0.001)
    return r


class TestEventRecord:
    def test_match_key_fields(self):
        assert _record().static_key() == _record(rank=3).static_key()
        assert _record().static_key() != _record(op=Op.RECV).static_key()
        assert _record().static_key() != _record(sig=222).static_key()
        # the relative offset is not a static field: the endpoints decide
        assert _record().static_key() == _record(dest_off=2).static_key()
        assert _record().dest_offset != _record(dest_off=2).dest_offset

    def test_can_merge_compares_every_static_field(self):
        """``can_merge`` spells the static comparison out field by field;
        it must agree with ``static_key()`` on each of them."""
        base = _record()
        assert base.can_merge(_record(rank=3))
        variants = [_record(op=Op.RECV), _record(sig=222), _record(),
                    _record(), _record(), _record()]
        variants[2].comm_id = 2
        variants[3].root = 0
        variants[4].dest = None
        variants[5].src = EndpointStat.of(1, 0)
        for other in variants:
            assert base.static_key() != other.static_key()
            assert not base.can_merge(other)
            assert not other.can_merge(base)
        # same static fields, different offset: mergeable only in stream
        # order, where the offsets chain into a strided pattern
        assert base.can_merge(_record(dest_off=2))
        assert not base.can_merge(_record(dest_off=2), allow_chain=False)

    def test_merge_unions_participants(self):
        a, b = _record(rank=0), _record(rank=5)
        a.merge(b)
        assert a.participants.ranks() == (0, 5)
        assert a.count.n == 2
        assert a.dhist.total == 2

    def test_merge_mismatched_keys_rejected(self):
        with pytest.raises(ValueError):
            _record().merge(_record(op=Op.RECV))

    def test_failed_merge_mutates_nothing(self):
        """``merge`` validates for itself (no ``can_merge`` first): a pair it
        refuses — on a static field, or on the *second* endpoint after the
        first one's merged encoding was already computed — raises and leaves
        every field of the destination as it was."""

        def state(r):
            return (r.src and r.src.to_text(), r.dest and r.dest.to_text(),
                    r.participants.ranks(), r.count.to_text(), r.tag.to_text(),
                    r.dhist.to_text())

        def pair():
            a, b = _record(rank=0), _record(rank=3, dest_off=2)
            # same absolute source from two ranks: merging drops a.src's
            # relative form and pattern; the destinations share no encoding
            a.src, b.src = EndpointStat.of(4, 0), EndpointStat.of(4, 3)
            b.dhist.record(5.0)
            return a, b

        a, b = pair()
        assert a.src.can_merge(b.src, False) and not a.dest.can_merge(b.dest, False)
        before = state(a)
        with pytest.raises(ValueError):
            a.merge(b, allow_chain=False)
        assert state(a) == before and a.src.rel == 4
        # the same source pair does merge once the destinations agree
        a, b = pair()
        b.dest = EndpointStat.of(4, 3)
        a.merge(b, allow_chain=False)
        assert a.src.rel is None and a.participants.ranks() == (0, 3)
        # and a refusal on a static field never reaches the endpoints
        for other in (_record(op=Op.RECV), _record(sig=222)):
            a = _record()
            before = state(a)
            with pytest.raises(ValueError):
                a.merge(other)
            assert state(a) == before

    def test_merge_returns_its_byte_delta(self):
        """0 for the common intra-node fold; -40 when an endpoint's pattern
        stops being representable, the ranklist difference when the
        population grew, 16 per histogram bin opened."""

        def merged(dst, other, **kw):
            before = dst.size_bytes()
            delta = dst.merge(other, **kw)
            assert delta == dst.size_bytes() - before
            return delta

        def to_hub(offset, dt=0.001):
            r = _record()
            r.dest = EndpointStat.of(13, 13 - offset)  # same target, abs 13
            r.dhist = DeltaHistogram()
            r.dhist.record(dt)
            return r

        assert merged(_record(), _record()) == 0
        hub = to_hub(1)
        assert merged(hub, to_hub(0)) == 0  # offsets 1, 0: a stride of -1
        assert merged(hub, to_hub(5)) == -40  # no stride fits; abs survives
        assert hub.dest.pattern is None
        assert merged(hub, to_hub(5, dt=2.0)) == 16  # nothing left to drop
        wide = _record(rank=0)
        assert merged(wide, _record(rank=5), allow_chain=False) == 16  # <0> -> <0,5>
        assert merged(wide, _record(rank=5), allow_chain=False) == 0

    def test_copy_deep(self):
        a = _record()
        c = a.copy()
        c.merge(_record(rank=9))
        assert a.participants.ranks() == (0,)
        assert c.participants.ranks() == (0, 9)

    def test_size_bytes_grows_with_histogram(self):
        a = _record()
        base = a.size_bytes()
        a.dhist.record(100.0)  # new bin
        assert a.size_bytes() > base

    def test_collective_vs_p2p_flags(self):
        assert Op.BARRIER.is_collective and not Op.BARRIER.is_p2p
        assert Op.SEND.is_p2p and not Op.SEND.is_collective
