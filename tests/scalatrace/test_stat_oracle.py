"""The statistics that merge in place, held to the frozen copy-returning
ones (``stat_oracle``): the same sample and record merges, in the same
order, must give the same ``can_merge`` answers, the same returned byte
deltas and the same text and sizes, bit for bit."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.scalatrace import DeltaHistogram, EndpointStat, EventRecord, Op, RankSet

from . import stat_oracle as old

#: every bin edge, the doubles either side of it, and the awkward values
_EDGES = [10.0 ** (k / 4 - 9.0) for k in range(49)]
_SPECIAL = ([0.0, -0.0, 1e-9, 1e3, 1e3 + 1e-9, 5e3, 1e6, 1e300]
            + _EDGES + [math.nextafter(e, 0.0) for e in _EDGES]
            + [math.nextafter(e, math.inf) for e in _EDGES])
DT = st.sampled_from(_SPECIAL) | st.floats(0.0, 2e3)
PARAM = st.integers(0, 1 << 20) | st.sampled_from([(1 << 53) + 1, 1 << 63])

#: offsets a rank's stream takes: noise, or a cycle that wraps (closes)
OFFSETS = st.lists(st.integers(-2, 2), min_size=1, max_size=12) | st.builds(
    lambda start, stride, length, n: [start + stride * (i % length)
                                      for i in range(n)],
    st.integers(-2, 2), st.integers(-2, 2), st.integers(1, 4),
    st.integers(1, 12))

#: which endpoints the records carry: (src, dest)
SHAPES = st.sampled_from([(True, False), (False, True), (True, True)])


def _state(rec) -> tuple:
    """Everything a merge writes, as text, and the sizes."""
    return (None if rec.src is None else rec.src.to_text(),
            None if rec.dest is None else rec.dest.to_text(),
            rec.participants.to_text(), rec.count.to_text(), rec.tag.to_text(),
            rec.dhist.to_text(), rec.dhist.size_bytes(), rec.size_bytes())


def _calls(rank: int, shape: tuple, offsets: list, params: list, dts: list):
    """One rank's calls at one site: ``(src, dest, nbytes, tag, dt)``, the
    endpoints as ``(offset, absolute)``."""
    for i, off in enumerate(offsets):
        ep = (off, rank + off)
        back = (-off, rank - off)
        yield (ep if shape[0] else None, back if shape[1] else None,
               params[i % len(params)], i % 3, dts[i % len(dts)])


class _Pair:
    """A live record and the frozen one, built from the same call."""

    def __init__(self, rank: int, call: tuple) -> None:
        src, dest, nbytes, tag, dt = call
        ranks = RankSet.single(rank)
        self.live = EventRecord.of(Op.SENDRECV, (7, ()), ranks, 0, src, dest,
                                   None, nbytes, tag, dt)
        self.ref = old.record_of(Op.SENDRECV, 7, ranks, src, dest, nbytes,
                                 tag, dt)
        self.check()

    def check(self) -> None:
        assert _state(self.live) == _state(self.ref)

    def take(self, call: tuple) -> bool:
        """Sample-merge ``call`` when both sides accept it."""
        ok = self.live.can_merge_sample(call[0], call[1])
        assert ok == self.ref.can_merge_sample(call[0], call[1])
        if ok:
            assert self.live.merge_sample(*call) == self.ref.merge_sample(*call)
            self.check()
        return ok

    def merge(self, other: "_Pair", allow_chain: bool) -> None:
        ok = self.live.can_merge(other.live, allow_chain)
        assert ok == self.ref.can_merge(other.ref, allow_chain)
        if ok:
            assert (self.live.merge(other.live, allow_chain)
                    == self.ref.merge(other.ref, allow_chain))
        else:
            for rec, peer in ((self.live, other.live), (self.ref, other.ref)):
                with pytest.raises(ValueError):
                    rec.merge(peer, allow_chain)
        self.check()


def _stream(rank: int, calls: list) -> list[_Pair]:
    """Fold one rank's calls in stream order; a refused call opens a new
    record, as the rules would."""
    pairs = [_Pair(rank, calls[0])]
    for call in calls[1:]:
        if not pairs[-1].take(call):
            pairs.append(_Pair(rank, call))
    return pairs


def _empty(rank: int, shape: tuple, off: int) -> _Pair:
    """A record whose statistics hold no sample (``n == 0``, no bins)."""
    pair = _Pair.__new__(_Pair)
    ranks = RankSet.single(rank)
    ep = (EndpointStat.of(rank + off, rank), old.EndpointStat.of(rank + off, rank))
    pair.live = EventRecord(Op.SENDRECV, 7, 0, ep[0] if shape[0] else None,
                            ep[0].copy() if shape[1] else None, None, ranks)
    pair.ref = old._Record(Op.SENDRECV, 7, 0, ep[1] if shape[0] else None,
                           ep[1].copy() if shape[1] else None, None, ranks)
    pair.check()
    return pair


@given(st.integers(0, 5), SHAPES, OFFSETS,
       st.lists(PARAM, min_size=1, max_size=4),
       st.lists(DT, min_size=1, max_size=12))
@settings(max_examples=300, deadline=None)
def test_sample_merges_in_stream_order(rank, shape, offsets, params, dts):
    _stream(rank, list(_calls(rank, shape, offsets, params, dts)))


@given(SHAPES,
       st.lists(st.tuples(st.integers(0, 5), OFFSETS, st.booleans()),
                min_size=2, max_size=6),
       st.lists(PARAM, min_size=1, max_size=4),
       st.lists(DT, min_size=1, max_size=12),
       st.lists(st.booleans(), min_size=1, max_size=8))
@settings(max_examples=300, deadline=None)
def test_record_merges(shape, streams, params, dts, chains):
    """Records folded from several ranks' streams (and records with empty
    statistics) merged into one accumulator, ``allow_chain`` True and
    False, refused pairs included."""
    pairs = []
    for rank, offsets, empty in streams:
        if empty:
            pairs.append(_empty(rank, shape, offsets[0]))
        else:
            pairs += _stream(rank, list(_calls(rank, shape, offsets, params, dts)))
    acc = pairs[0]
    for i, pair in enumerate(pairs[1:]):
        acc.merge(pair, chains[i % len(chains)])


@given(st.lists(st.lists(DT, max_size=20), min_size=1, max_size=5))
@settings(max_examples=200, deadline=None)
def test_histograms(groups):
    """Born with a sample, recorded, and merged — empty histograms and
    multi-sample ones (the parent's full 49-bin walk) included."""
    live, ref = DeltaHistogram(), old.DeltaHistogram()
    for dts in groups:
        mine, theirs = DeltaHistogram(), old.DeltaHistogram()
        for i, dt in enumerate(dts):
            if i == 0:
                mine = DeltaHistogram.of(dt)
                assert theirs.record(dt) == 16
            else:
                assert mine.record(dt) == theirs.record(dt)
            assert mine.to_text() == theirs.to_text()
        assert live.merge(mine) == ref.merge(theirs)
        assert live.to_text() == ref.to_text()
        assert live.size_bytes() == ref.size_bytes()
        assert DeltaHistogram.from_text(live.to_text()).to_text() == live.to_text()
