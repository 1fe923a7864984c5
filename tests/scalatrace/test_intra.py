"""Intra-node RSD/PRSD loop compression."""

import sys

import pytest
from hypothesis import given, settings, strategies as st

from repro.scalatrace import (
    EndpointStat,
    EventNode,
    EventRecord,
    IntraCompressor,
    LoopNode,
    Op,
    RankSet,
    Trace,
    WorkMeter,
    expand,
    fold_tail,
)

from .calls import call
from .fold_oracle import fold_tail as frozen_fold_tail


def ev(sig: int, op: Op = Op.SEND, dest_off: int | None = 1, rank: int = 0) -> EventRecord:
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
    r.count.add(64)
    r.tag.add(0)
    r.dhist.record(0.0)
    return r


def feed(compressor: IntraCompressor, sigs) -> None:
    for s in sigs:
        compressor.append(*call(ev(s)))


class TestBasicFolding:
    def test_no_repetition_no_folding(self):
        c = IntraCompressor()
        feed(c, [1, 2, 3])
        assert len(c.nodes) == 3
        assert all(isinstance(n, EventNode) for n in c.nodes)

    def test_two_identical_events_fold(self):
        c = IntraCompressor()
        feed(c, [1, 1])
        assert len(c.nodes) == 1
        loop = c.nodes[0]
        assert isinstance(loop, LoopNode)
        assert loop.iters == 2 and len(loop.body) == 1

    def test_repeated_event_absorbs(self):
        c = IntraCompressor()
        feed(c, [1] * 10)
        assert len(c.nodes) == 1
        assert c.nodes[0].iters == 10

    def test_pair_pattern_folds(self):
        # A B A B A B -> Loop(3, [A, B])
        c = IntraCompressor()
        feed(c, [1, 2, 1, 2, 1, 2])
        assert len(c.nodes) == 1
        loop = c.nodes[0]
        assert loop.iters == 3 and len(loop.body) == 2

    def test_paper_example_nested_prsd(self):
        # for 1000: (for 100: send, recv); barrier
        # -> Loop(1000, [Loop(100, [send, recv]), barrier])
        c = IntraCompressor()
        outer, inner = 50, 20  # scaled-down but same structure
        for _ in range(outer):
            for _ in range(inner):
                c.append(*call(ev(101, Op.SEND)))
                c.append(*call(ev(102, Op.RECV, dest_off=None)))
            c.append(*call(ev(103, Op.BARRIER)))
        assert len(c.nodes) == 1
        top = c.nodes[0]
        assert isinstance(top, LoopNode) and top.iters == outer
        assert len(top.body) == 2
        inner_loop, barrier = top.body
        assert isinstance(inner_loop, LoopNode) and inner_loop.iters == inner
        assert len(inner_loop.body) == 2
        assert isinstance(barrier, EventNode)
        assert barrier.record.op is Op.BARRIER

    def test_leaf_count_is_paper_n(self):
        c = IntraCompressor()
        for _ in range(30):
            c.append(*call(ev(1)))
            c.append(*call(ev(2)))
            c.append(*call(ev(3)))
        assert c.leaf_count() == 3

    def test_expanded_count_preserved(self):
        c = IntraCompressor()
        sigs = [1, 2, 1, 2, 3, 1, 2, 1, 2, 3] * 5
        feed(c, sigs)
        assert c.expanded_count() == len(sigs)

    def test_stats_merged_across_iterations(self):
        c = IntraCompressor()
        for i in range(8):
            r = ev(7)
            r.dhist = type(r.dhist)()
            r.dhist.record(float(i))
            c.append(*call(r))
        loop = c.nodes[0]
        leaf = loop.body[0]
        assert leaf.record.dhist.total == 8
        assert leaf.record.dhist.mean == pytest.approx(3.5)


class TestExpansionRoundtrip:
    @given(
        st.lists(st.integers(1, 4), min_size=1, max_size=60),
    )
    @settings(max_examples=60, deadline=None)
    def test_expansion_reproduces_signature_stream(self, sig_stream):
        """Fundamental invariant: compression is lossless on the event
        *sequence* (signatures in order)."""
        c = IntraCompressor()
        feed(c, sig_stream)
        expanded = [r.stack_sig for r in expand(c.nodes)]
        assert expanded == sig_stream

    @given(
        st.lists(st.integers(1, 3), min_size=1, max_size=8),
        st.integers(2, 20),
    )
    @settings(max_examples=40, deadline=None)
    def test_periodic_streams_compress_well(self, period, reps):
        c = IntraCompressor()
        stream = period * reps
        feed(c, stream)
        # compressed size must not exceed ~2 periods' worth of leaves
        assert c.leaf_count() <= 2 * len(set(period)) * len(period)
        expanded = [r.stack_sig for r in expand(c.nodes)]
        assert expanded == stream


class TestWindow:
    def test_pattern_longer_than_window_not_folded(self):
        c = IntraCompressor(window=3)
        pattern = [1, 2, 3, 4, 5]  # body of 5 > window 3
        feed(c, pattern * 2)
        # No loop can form over the full pattern.
        assert all(
            not (isinstance(n, LoopNode) and len(n.body) == 5) for n in c.nodes
        )
        expanded = [r.stack_sig for r in expand(c.nodes)]
        assert expanded == pattern * 2

    def test_window_validation(self):
        with pytest.raises(ValueError):
            IntraCompressor(window=0)


class TestMeterAndState:
    def test_meter_counts_work(self):
        c = IntraCompressor()
        feed(c, [1, 2] * 10)
        assert c.meter.comparisons > 0
        assert c.meter.folds > 0

    def test_take_nodes_resets(self):
        c = IntraCompressor()
        feed(c, [1, 1, 1])
        nodes = c.take_nodes()
        assert len(nodes) == 1
        assert c.nodes == []
        assert c.leaf_count() == 0
        assert c.size_bytes() == 0

    def test_size_bytes_sublinear_for_loops(self):
        c_loop = IntraCompressor()
        feed(c_loop, [1] * 100)
        c_flat = IntraCompressor()
        feed(c_flat, list(range(100)))
        assert c_loop.size_bytes() < c_flat.size_bytes() / 10


# -- size accounting: the running count is the recursive sum -----------------

_SITE_OPS = (Op.SEND, Op.RECV, Op.ALLREDUCE, Op.SEND, Op.BARRIER)
_DELTAS = (0.0, 2e-7, 3e-5, 4e-3, 0.5)


def _recursive_size(compressor: IntraCompressor) -> int:
    return sum(n.size_bytes() for n in compressor.nodes)


def _endpoint(mode: str, base: int, rep: int) -> EndpointStat:
    """The endpoint of a site's ``rep``-th repetition.

    ``const`` and ``strided`` are what one rank's stream produces (relative
    and absolute forms move together).  ``hub`` keeps the absolute target
    while the relative offset jumps irregularly — records stay mergeable
    through the absolute form while the strided pattern stops being
    representable, so a merge *drops* it and the record shrinks.
    ``scramble`` moves both forms: the repetition does not fold.
    """
    jump = (base * 7 + rep * rep * 3) % 5
    if mode == "const":
        return EndpointStat.of(base, 0)
    if mode == "strided":
        return EndpointStat.of(base + rep, 0)
    if mode == "hub":
        return EndpointStat.of(base, base + jump)
    return EndpointStat.of(base + jump, rep % 2)


def _site_event(site: int, mode: str, base: int, dt: int, rep: int) -> EventRecord:
    op = _SITE_OPS[site]
    ep = _endpoint(mode, base, rep) if op.is_p2p else None
    rec = EventRecord(
        op=op,
        stack_sig=100 + site,
        comm_id=1,
        src=ep if op is Op.RECV else None,
        dest=ep if op is Op.SEND else None,
        participants=RankSet.single(0),
    )
    rec.count.add(64)
    rec.tag.add(0)
    rec.dhist.record(_DELTAS[(dt + rep) % len(_DELTAS)])
    return rec


_site = st.tuples(
    st.integers(0, len(_SITE_OPS) - 1),
    st.sampled_from(["const", "strided", "hub", "scramble"]),
    st.integers(0, 3),
    st.integers(0, len(_DELTAS) - 1),
)
#: a stream is a sequence of blocks, each a short body repeated a few times
_blocks = st.lists(
    st.tuples(st.lists(_site, min_size=1, max_size=4), st.integers(1, 6)),
    min_size=1,
    max_size=8,
)


class TestRunningByteCount:
    """``IntraCompressor.size_bytes()`` is a count ``append`` keeps, not a
    re-sum: it must equal the recursive definition after every event."""

    @given(
        _blocks,
        st.sampled_from([1, 2, 3, 8, 64]),
        st.sets(st.integers(0, 120), max_size=3),
    )
    @settings(max_examples=300, deadline=None)
    def test_count_equals_recursive_sum_after_every_append(
        self, blocks, window, take_at
    ):
        c = IntraCompressor(window=window)
        appended = 0
        for body, reps in blocks:
            for rep in range(reps):
                for site, mode, base, dt in body:
                    c.append(*call(_site_event(site, mode, base, dt, rep)))
                    assert c.size_bytes() == _recursive_size(c)
                    appended += 1
                    if appended in take_at:
                        c.take_nodes()
                        assert c.size_bytes() == 0

    def test_merge_that_drops_a_pattern_shrinks_the_count(self):
        c = IntraCompressor()
        sizes = []
        for rel in (1, 0, 5):  # same target, offsets 1, 0, 5: no stride fits
            rec = ev(7)
            rec.dest = EndpointStat.of(3, 3 - rel)
            c.append(*call(rec))
            sizes.append(c.size_bytes())
            assert c.size_bytes() == _recursive_size(c)
        (loop,) = c.nodes
        assert loop.iters == 3
        assert loop.body[0].record.dest.pattern is None
        assert sizes[2] < sizes[1]

    def test_sizing_work_per_event_does_not_grow_with_the_trace(
        self, monkeypatch
    ):
        """Work counter, no timing: the ``EventRecord.size_bytes`` calls
        made while a repetitive phase is appended (with the size read after
        every event, as ``_record`` reads it) do not depend on how many
        unfolded nodes already sit in front of the phase."""
        calls = [0]
        sized = EventRecord.size_bytes

        def counting(record):
            calls[0] += 1
            return sized(record)

        monkeypatch.setattr(EventRecord, "size_bytes", counting)

        def phase_sizings(prefix: int) -> int:
            c = IntraCompressor()
            for i in range(prefix):
                c.append(*call(ev(1000 + i)))
            calls[0] = 0
            for _ in range(20):  # 20 x (4 x 6 + 1) = 500 events
                for _ in range(6):
                    for site in (1, 2, 3, 4):
                        c.append(*call(ev(site)))
                        c.size_bytes()
                c.append(*call(ev(5, Op.BARRIER)))
                c.size_bytes()
            assert len(c.nodes) == prefix + 1
            return calls[0]

        assert phase_sizings(10) == phase_sizings(200)


# -- the frozen reference: PR 24's fold_tail against its parent ---------------


class _Twins:
    """One node stream through the live ``fold_tail`` and the frozen one."""

    def __init__(self, window: int, match_participants: bool = False) -> None:
        self.args = (window, match_participants)
        self.live, self.ref = [], []
        self.live_meter, self.ref_meter = WorkMeter(), WorkMeter()

    def push(self, nodes) -> None:
        """Extend both lists (the reference gets copies) and fold each once:
        everything observable must agree, and the live delta must be the
        change of the recursive definition of size."""
        window, match = self.args
        self.live.extend(nodes)
        self.ref.extend(n.copy() for n in nodes)
        before = sum(n.size_bytes() for n in self.live)
        got = fold_tail(self.live, window, self.live_meter, match)
        want = frozen_fold_tail(self.ref, window, self.ref_meter, match)
        assert Trace(nodes=self.live).serialize() == Trace(nodes=self.ref).serialize()
        assert self.live_meter == self.ref_meter
        assert got == want == sum(n.size_bytes() for n in self.live) - before


#: noise: a one-off event between repetitions (its own call site), or a
#: repeat of site 0's signature with an endpoint nothing merges with
_noise = st.one_of(
    st.none(),
    st.integers(0, 2).map(lambda i: ev(900 + i, Op.BARRIER)),
    st.integers(5, 9).map(lambda off: _site_event(0, "scramble", off, 0, off)),
)
#: an outer period: inner blocks (body x reps) and then a closing collective,
#: repeated — the paper's nested PRSD shape, with noise after some periods
_nested = st.lists(
    st.tuples(_blocks, st.integers(1, 4), _noise), min_size=1, max_size=3
)
_POPULATIONS = (RankSet([0, 1, 2, 3]), RankSet([0, 2, 4, 6]), RankSet([5]))


def _fixed_stream():
    """Deterministic: distinct one-off sites in front, then a nested
    repetitive phase with endpoint noise — many certain misses per append,
    a few real candidates, folds of both rules."""
    out = [ev(1000 + i, Op.BARRIER) for i in range(12)]
    for outer in range(6):
        for rep in range(5):
            for site, mode in ((0, "const"), (1, "hub"), (3, "strided")):
                out.append(_site_event(site, mode, 2, site, rep))
        out.append(ev(800, Op.ALLREDUCE))
        if outer % 2:
            out.append(_site_event(0, "scramble", 7, 0, outer))
    return out


# -- the compressor's cursor against the frozen fold ---------------------------


class _Lockstep:
    """One call stream through an ``IntraCompressor`` (its cursor's pending
    path included) and through the frozen fold on a plain node list,
    compared after every call: the meter, the running byte count against
    a non-flushing view of the nodes, and that view by ``to_text`` (every
    float's bits).  Counts the records the compressor builds."""

    made = 0  # EventRecord.of calls so far, while ``counting_records``

    def __init__(self, window: int = 64) -> None:
        self.c = IntraCompressor(window=window)
        self.window, self.ref, self.meter, self.bytes = window, [], WorkMeter(), 0
        self.calls = self.built = 0

    def append(self, *call_) -> None:
        rec = EventRecord.of(*call_)
        self.ref.append(EventNode(rec))
        self.bytes += rec.size_bytes() + frozen_fold_tail(
            self.ref, self.window, self.meter)
        before = _Lockstep.made
        self.c.append(*call_)
        self.built += _Lockstep.made - before
        self.calls += 1
        self.check()

    def check(self) -> None:
        view = self.c.snapshot()
        assert self.c.meter == self.meter
        assert self.c.size_bytes() == self.bytes == sum(
            n.size_bytes() for n in view)
        assert _text(view) == _text(self.ref)

    def read(self) -> None:
        """A read of ``nodes`` builds the pending records into the list."""
        assert _text(self.c.nodes) == _text(self.ref)
        assert self.c.leaf_count() == sum(n.leaf_count() for n in self.ref)
        self.check()

    def take(self) -> None:
        assert _text(self.c.take_nodes()) == _text(self.ref)
        self.ref, self.bytes = [], 0
        self.check()


def _text(nodes) -> str:
    return Trace(nodes=nodes).serialize()


@pytest.fixture
def counting_records(monkeypatch):
    of = EventRecord.of.__func__

    def counted(cls, *args):
        _Lockstep.made += 1
        return of(cls, *args)

    monkeypatch.setattr(EventRecord, "of", classmethod(counted))


#: traced cells whose compressors' calls (and ``take_nodes``) are replayed:
#: nested loop bodies (sweep3d's octant pairs), NPB BT's flat ADI body,
#: modified LU's phase changes, and the same under Chameleon, whose markers
#: take the nodes every few steps (too soon for a followed iteration to pay)
_LU = {"problem_class": "A", "iterations": 12, "phase_period": 5}
_CELLS = {
    "sweep3d": ("sweep3d", {}, 16, "scalatrace"),
    "bt": ("bt", {"problem_class": "A", "iterations": 6}, 16, "scalatrace"),
    "lu_modified": ("lu_modified", _LU, 9, "scalatrace"),
    "lu_modified-chameleon": ("lu_modified", _LU, 9, "chameleon"),
}


@pytest.fixture(scope="module")
def captured() -> dict[str, list[list]]:
    """Per cell, each compressor's operations: a call's arguments, or
    None for a ``take_nodes``."""
    from repro.harness.runner import Mode, run_mode
    from repro.workloads import make_workload

    out: dict[str, list[list]] = {}
    append, take = IntraCompressor.append, IntraCompressor.take_nodes
    for cell, (name, params, nprocs, mode) in _CELLS.items():
        ops: dict[int, list] = {}
        live = []  # keeps every compressor alive: ids stay unique

        def log(compressor, op) -> None:
            if id(compressor) not in ops:
                live.append(compressor)
            ops.setdefault(id(compressor), []).append(op)

        def tapped_append(self, *call_):
            log(self, call_)
            return append(self, *call_)

        def tapped_take(self):
            log(self, None)
            return take(self)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(IntraCompressor, "append", tapped_append)
            mp.setattr(IntraCompressor, "take_nodes", tapped_take)
            run_mode(make_workload(name, **params), nprocs, Mode(mode))
        out[cell] = list(ops.values())
    return out


def _hub(rank: int, rel: int, abs_: int) -> tuple:
    """A send call whose offset and target move independently."""
    return (Op.SEND, (7, ()), RankSet.single(rank), 1, None, (rel, abs_),
            None, 64, 0, 1e-5)


def _site_call(sig: int, *, dest=(1, 1), op=Op.SEND, dt=1e-5, nbytes=64):
    return (op, (sig, ()), _RANK0, 1, None, dest if op.is_p2p else None,
            None, nbytes, 0, dt)


_RANK0 = RankSet.single(0)




class TestAgainstFrozenFold:
    """``fold_oracle.fold_tail`` is the exhaustive scan, kept verbatim; the
    live one skips candidates and counts bytes differently, and must not be
    told apart — nor the compressor's cursor, whose pending path (a call the
    open loop absorbs builds no record and runs no scan) is held to it after
    every call of captured and generated streams."""

    def test_meter_totals_of_a_fixed_stream(self):
        twins = _Twins(64)
        for rec in _fixed_stream():
            twins.push([EventNode(rec)])
        meter = twins.live_meter
        assert meter == twins.ref_meter
        assert meter.comparisons > meter.merges > meter.folds > 0

    def test_a_certain_miss_never_enters_absorbed(self):
        """Work counter: every ``absorbed`` call ``fold_tail`` makes (both
        rules) is for a candidate whose first pair is not a certain miss —
        different node types, or events from different call sites."""
        entered, misses = [0], [0]

        def profile(frame, event, arg):
            if event != "call" or frame.f_code.co_name != "absorbed":
                return
            loc = frame.f_locals
            a, b = loc["body"][loc["at"]], loc["nodes"][-loc["m"]]
            entered[0] += 1
            if type(a) is not type(b) or (
                type(a) is EventNode and a.record.stack_sig != b.record.stack_sig
            ):
                misses[0] += 1

        c = IntraCompressor()
        sys.setprofile(profile)
        try:
            for rec in _fixed_stream():
                c.append(*call(rec))
        finally:
            sys.setprofile(None)
        assert entered[0] > 0 and misses[0] == 0
        # ... while the scans did meet certain misses, charged as before
        assert c.meter.comparisons > entered[0]

    @given(_nested, st.sampled_from([1, 3, 64]))
    @settings(max_examples=250, deadline=None)
    def test_per_rank_stream_after_every_append(self, periods, window):
        twins = _Twins(window)
        for blocks, outer, noise in periods:
            for _ in range(outer):
                for body, reps in blocks:
                    for rep in range(reps):
                        for site, mode, base, dt in body:
                            rec = _site_event(site, mode, base, dt, rep)
                            twins.push([EventNode(rec)])
                twins.push([EventNode(ev(800, Op.ALLREDUCE))])
            if noise is not None:
                twins.push([EventNode(noise)])

    @given(
        st.lists(
            st.tuples(
                _blocks,
                # the segment arrives once per entry, from that cluster
                st.lists(st.sampled_from(_POPULATIONS), min_size=1, max_size=4),
                st.booleans(),  # heterogeneous cluster: rel + pattern dropped
            ),
            min_size=1,
            max_size=4,
        ),
        st.sampled_from([1, 3, 64]),
        st.booleans(),
    )
    @settings(max_examples=200, deadline=None)
    def test_online_segments_with_cluster_populations(
        self, segments, window, match
    ):
        """Chameleon's use: whole merged segments (loops included) land at
        once, their records cover multi-rank populations, and only equal
        populations may fold (``match_participants=True``; without it a
        fold unions two populations and the ranklist changes size)."""
        twins = _Twins(window, match)
        for blocks, clusters, heterogeneous in segments:
            for members in clusters:
                c = IntraCompressor()
                for body, reps in blocks:
                    for rep in range(reps):
                        for site, mode, base, dt in body:
                            c.append(*call(_site_event(site, mode, base, dt, rep)))
                segment = Trace(nodes=c.take_nodes())
                for leaf in segment.leaves():
                    rec = leaf.record
                    rec.participants = members
                    for ep in (rec.src, rec.dest):
                        if heterogeneous and ep is not None and ep.abs_ is not None:
                            ep.rel = ep.pattern = None
                twins.push(segment.nodes)

    def test_call_round_trip(self):
        rec = _site_event(3, "strided", 2, 1, 4)
        assert _text([EventNode(EventRecord.of(*call(rec)))]) == _text(
            [EventNode(rec)])

    @pytest.mark.parametrize("cell", sorted(_CELLS))
    def test_captured_streams(self, captured, cell, counting_records):
        calls = built = 0
        for stream in captured[cell]:
            twin = _Lockstep()
            for op in stream:
                if op is None:
                    twin.take()
                else:
                    twin.append(*op)
            calls, built = calls + twin.calls, built + twin.built
        # the open loops absorbed calls that built no record
        assert 0 < built < calls or _CELLS[cell][3] == "chameleon"

    def test_nested_body_builds_no_record_per_call(self, counting_records):
        """``Loop(k, [Loop(3, [a, b]), c])``: past the followed iteration,
        only a leaf inside the inner loop builds one record per iteration
        of the open loop (the merged one), never one per call."""
        twin = _Lockstep()
        for _ in range(12):
            for _ in range(3):
                twin.append(*_site_call(1))
                twin.append(*_site_call(2, op=Op.RECV, dest=None))
            twin.append(*_site_call(3, op=Op.BARRIER))
        built = twin.built
        for _ in range(4):
            for _ in range(3):
                twin.append(*_site_call(1))
                twin.append(*_site_call(2, op=Op.RECV, dest=None))
            twin.append(*_site_call(3, op=Op.BARRIER))
        assert twin.built - built == 4 * 2
        assert twin.c.nodes[0].iters == 16

    def test_endpoint_pattern_dropped_mid_loop(self):
        """The open loop's send keeps its absolute target while its offset
        jumps: the record merges through the absolute form and drops its
        pattern, in the pending path, and shrinks by the pattern's words."""
        twin = _Lockstep()
        sizes = []
        for i in range(10):
            rel = 5 if i == 7 else 1
            twin.append(*_hub(0, rel, 3))
            twin.append(*_site_call(2, op=Op.BARRIER))
            sizes.append(twin.c.size_bytes())
        (loop,) = twin.c.nodes
        assert loop.iters == 10 and loop.body[0].record.dest.pattern is None
        assert sizes[7] < sizes[6]

    @pytest.mark.parametrize("last", ("site", "endpoint"))
    def test_mismatch_at_the_last_position(self, last):
        """An iteration whose last call is another site, or an endpoint
        nothing merges with, is not absorbed: the pending records are built
        and the rules go on."""
        twin = _Lockstep()
        for i in range(9):
            twin.append(*_site_call(1))
            twin.append(*_site_call(2, op=Op.RECV, dest=None))
            if i == 6 and last == "site":
                twin.append(*_site_call(4, op=Op.BARRIER))
            elif i == 6:
                twin.append(*_site_call(3, dest=(4, 9)))
            else:
                twin.append(*_site_call(3, dest=(1, 1)))
        assert len(twin.c.nodes) > 1

    @pytest.mark.parametrize("window", (3, 4, 5))
    def test_body_at_the_window_bound(self, window):
        twin = _Lockstep(window)
        for _ in range(8):
            for site in range(4):
                twin.append(*_site_call(10 + site))
        loops = [n for n in twin.c.nodes if isinstance(n, LoopNode)]
        assert bool(loops) == (window >= 4)

    @pytest.mark.parametrize("at", (0, 1, 4, 5))
    def test_take_nodes_and_reads_mid_iteration(self, at):
        twin = _Lockstep()
        for i in range(40):
            twin.append(*_site_call(1 + i % 3))
            if i > 12 and i % 7 == at:
                twin.read()
            if i == 25 + at:
                twin.take()

    @pytest.mark.parametrize("prefix", (2, 5))
    def test_open_loop_compared_by_its_iteration_count(self, prefix):
        """A loop of B's length in front, ``Loop(prefix, [A, B])``, is
        compared with ``Loop(k, [C, D])`` at every call's scan: refused at
        once unless ``k == prefix``, when the comparison goes on into the
        bodies — that iteration must take the scan (and one recorded at
        ``k == prefix`` must not be charged later)."""
        twin = _Lockstep()
        for _ in range(prefix):
            twin.append(*_site_call(1))
            twin.append(*_site_call(2, op=Op.RECV, dest=None))
        twin.append(*_site_call(9, op=Op.BARRIER))
        for _ in range(12):
            twin.append(*_site_call(3))
            twin.append(*_site_call(4, op=Op.RECV, dest=None))
        assert [getattr(n, "iters", None) for n in twin.c.nodes] == [
            prefix, None, 12]

    @pytest.mark.parametrize("prefix", (4, 5))
    def test_a_miss_hands_the_rest_of_its_iteration_to_the_rules(
            self, prefix, counting_records):
        """The cursor changes mode only between iterations.  As above, with
        three-call bodies: at ``k == prefix`` the first call misses on its
        guard, so it and each remaining call of that iteration build their
        record for the rules; the next iteration is pending again."""
        body = (_site_call(3), _site_call(4, op=Op.RECV, dest=None),
                _site_call(5))
        twin = _Lockstep()

        def built(call_) -> int:
            before = twin.built
            twin.append(*call_)
            return twin.built - before

        for _ in range(prefix):
            twin.append(*_site_call(1))
            twin.append(*_site_call(2, op=Op.RECV, dest=None))
            twin.append(*_site_call(6))
        twin.append(*_site_call(9, op=Op.BARRIER))
        for _ in range(prefix):  # the last one pending, at k == prefix - 1
            per_call = [built(c) for c in body]
        assert per_call == [0, 0, 0]
        assert twin.c.snapshot()[-1].iters == prefix
        assert [built(c) for c in body] == [1, 1, 1]
        assert [built(c) for c in body] == [0, 0, 0]
        assert [getattr(n, "iters", None) for n in twin.c.nodes] == [
            prefix, None, prefix + 2]

    @given(_nested, st.sampled_from([1, 3, 4, 64]),
           st.sets(st.integers(0, 150), max_size=3),
           st.sets(st.integers(0, 150), max_size=2))
    @settings(max_examples=120, deadline=None)
    def test_generated_streams(self, periods, window, reads, takes):
        """Nested repetitive phases with noise, as the per-rank fold test
        feeds them, with reads and ``take_nodes`` dropped in."""
        twin = _Lockstep(window)

        def push(rec):
            twin.append(*call(rec))
            if twin.calls in reads:
                twin.read()
            if twin.calls in takes:
                twin.take()

        for blocks, outer, noise in periods:
            for _ in range(outer):
                for body, reps in blocks:
                    for rep in range(reps):
                        for site, mode, base, dt in body:
                            push(_site_event(site, mode, base, dt, rep))
                push(ev(800, Op.ALLREDUCE))
            if noise is not None:
                push(noise)
