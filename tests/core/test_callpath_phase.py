"""Interval signatures and the Algorithm 1 transition graph."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import MarkerState, PhaseTracker, SignatureAccumulator
from repro.scalatrace import callpath_signature
from repro.scalatrace.signatures import _MASK64, hash_u64
from repro.simmpi import SimConfig, ZERO_COST, run_spmd


class TestSignatureAccumulator:
    def test_empty_interval(self):
        acc = SignatureAccumulator()
        sigs = acc.snapshot()
        assert sigs.callpath == 0 and sigs.src == 0 and sigs.dest == 0
        assert acc.prsd_events == 0

    def test_matches_reference_formula(self):
        from repro.scalatrace import callpath_signature

        stack_sigs = [0xDEAD, 0xBEEF, 0xDEAD, 0xCAFE]
        acc = SignatureAccumulator()
        for s in stack_sigs:
            acc.observe(s)
        assert acc.snapshot().callpath == callpath_signature(stack_sigs)

    def test_reset_starts_new_interval(self):
        acc = SignatureAccumulator()
        acc.observe(1, src_offset=1, dest_offset=-1)
        first = acc.snapshot()
        acc.reset()
        assert acc.snapshot().callpath == 0
        acc.observe(1, src_offset=1, dest_offset=-1)
        assert acc.snapshot() == first

    def test_endpoint_signatures_flow_through(self):
        acc = SignatureAccumulator()
        acc.observe(1, src_offset=None, dest_offset=2)
        sigs = acc.snapshot()
        assert sigs.src == 0 and sigs.dest != 0

    def test_prsd_events_counts_distinct_sites(self):
        acc = SignatureAccumulator()
        for s in [1, 2, 1, 2, 1, 2]:
            acc.observe(s)
        assert acc.prsd_events == 2
        assert acc.events == 6

    def test_identical_streams_identical_triples(self):
        a, b = SignatureAccumulator(), SignatureAccumulator()
        for acc in (a, b):
            acc.observe(11, dest_offset=1)
            acc.observe(22, src_offset=-1)
        assert a.snapshot() == b.snapshot()


def per_event_observe(acc, stack_sig, src_offset=None, dest_offset=None):
    """``SignatureAccumulator.observe`` as it read before ``observe_many``
    existed (verbatim): the per-event reference the batched fold must
    reproduce addition by addition."""
    acc._callpath ^= ((acc._seq % 10) + 1) * (stack_sig & _MASK64) & _MASK64
    acc._seq += 1
    acc.events += 1
    if stack_sig not in acc.distinct_sigs:
        seq = len(acc.distinct_sigs)
        acc.distinct_sigs.add(stack_sig)
        acc._dedup_cp ^= ((seq % 10) + 1) * (stack_sig & _MASK64) & _MASK64
    acc._endpoints.observe(src_offset, dest_offset)


def state_of(acc):
    ends = acc._endpoints
    return (acc._callpath, acc._dedup_cp, acc._seq, acc.events,
            sorted(acc.distinct_sigs), ends.src.count, ends.dest.count,
            ends.src.mean.hex(), ends.dest.mean.hex(), acc.snapshot())


# few distinct sites (so the dedup fold both fires and skips), any offsets
_OFFSETS = st.none() | st.integers(-70000, 70000)
_EVENTS = st.lists(
    st.tuples(st.sampled_from([0, 1, 0xDEAD, (1 << 64) - 1, 1 << 63, 77]),
              _OFFSETS, _OFFSETS),
    max_size=40)


class TestObserveMany:
    @pytest.mark.parametrize("mode", ("sequence", "dedup"))
    @settings(max_examples=150, deadline=None)
    @given(prior=_EVENTS, events=_EVENTS, data=st.data())
    def test_any_batching_equals_the_per_event_loop(self, mode, prior,
                                                    events, data):
        """From an arbitrary prior state, under any split of the events
        into batches: every field equal, the float means bit for bit."""
        cuts = sorted(data.draw(st.lists(
            st.integers(0, len(events)), max_size=6)))
        reference = SignatureAccumulator(mode=mode)
        batched = SignatureAccumulator(mode=mode)
        for acc in (reference, batched):
            for event in prior:
                per_event_observe(acc, *event)
        for event in events:
            per_event_observe(reference, *event)
        for lo, hi in zip([0] + cuts, cuts + [len(events)]):
            batched.observe_many(events[lo:hi])
        assert state_of(batched) == state_of(reference)
        if mode == "sequence" and not prior:
            assert batched.snapshot().callpath == callpath_signature(
                [sig for sig, _, _ in events])

    @settings(max_examples=50, deadline=None)
    @given(events=_EVENTS)
    def test_observe_is_a_batch_of_one(self, events):
        single, reference = SignatureAccumulator(), SignatureAccumulator()
        for event in events:
            single.observe(*event)
            per_event_observe(reference, *event)
        assert state_of(single) == state_of(reference)

    def test_a_generator_is_consumed_once(self):
        acc = SignatureAccumulator()
        acc.observe_many((sig, None, 1) for sig in (5, 6, 5))
        assert (acc.events, acc.prsd_events) == (3, 2)


def frozen_observe_many(acc, events):
    """``SignatureAccumulator.observe_many`` as it read while ``observe``
    still routed a 1-tuple through it (verbatim), with the endpoint fold of
    that time inlined: ``hash_u64`` called per offset, no table."""
    callpath, seq, distinct = acc._callpath, acc._seq, acc.distinct_sigs
    ends = acc._endpoints
    for stack_sig, src_offset, dest_offset in events:
        term = stack_sig & _MASK64
        callpath ^= ((seq % 10) + 1) * term & _MASK64
        seq += 1
        if stack_sig not in distinct:
            acc._dedup_cp ^= ((len(distinct) % 10) + 1) * term & _MASK64
            distinct.add(stack_sig)
        if src_offset is not None:
            ends.src.add(hash_u64(src_offset))
        if dest_offset is not None:
            ends.dest.add(hash_u64(dest_offset))
    acc.events += seq - acc._seq
    acc._callpath, acc._seq = callpath, seq


#: a feed: events with a reset (a marker) between some of them
_FEED = st.lists(st.none() | _EVENTS, max_size=5)


class TestThreeFeeds:
    @pytest.mark.parametrize("mode", ("sequence", "dedup"))
    @settings(max_examples=150, deadline=None)
    @given(feed=_FEED, data=st.data())
    def test_per_event_batched_and_frozen_agree_bit_for_bit(self, mode,
                                                           feed, data):
        """Per-event ``observe``, ``observe_many`` under any split and the
        frozen batch fold read the same triple, ``events`` and
        ``prsd_events`` — and the same float means — after every interval;
        ``None`` in the feed is a ``reset()``."""
        single, batched, frozen = (SignatureAccumulator(mode=mode)
                                   for _ in range(3))
        for interval in feed:
            if interval is None:
                for acc in (single, batched, frozen):
                    acc.reset()
                continue
            for event in interval:
                single.observe(*event)
            cuts = sorted(data.draw(st.lists(
                st.integers(0, len(interval)), max_size=4)))
            for lo, hi in zip([0] + cuts, cuts + [len(interval)]):
                batched.observe_many(interval[lo:hi])
            frozen_observe_many(frozen, interval)
            states = [(state_of(acc), acc.prsd_events)
                      for acc in (single, batched, frozen)]
            assert states[0] == states[1] == states[2]


def run_phase_sequence(per_rank_callpaths):
    """Drive PhaseTracker on N ranks; per_rank_callpaths[i] is the callpath
    rank i presents at marker i (all ranks present the same list unless a
    dict {rank: value} is given)."""

    async def main(ctx):
        tracker = PhaseTracker()
        out = []
        for step in per_rank_callpaths:
            cp = step[ctx.rank] if isinstance(step, dict) else step
            decision = await tracker.decide(ctx.comm, cp)
            out.append(decision)
        return out

    return run_spmd(main, 4, config=SimConfig(network=ZERO_COST)).results


class TestPhaseTracker:
    def test_first_marker_always_at(self):
        decisions = run_phase_sequence([100])[0]
        assert decisions[0].state is MarkerState.AT
        assert not decisions[0].do_cluster

    def test_stable_pattern_reaches_c_then_l(self):
        # same callpath forever: AT, C, L, L, L...
        decisions = run_phase_sequence([7, 7, 7, 7, 7])[0]
        states = [d.state for d in decisions]
        assert states == [
            MarkerState.AT,
            MarkerState.C,
            MarkerState.L,
            MarkerState.L,
            MarkerState.L,
        ]
        assert decisions[1].do_cluster and decisions[1].do_merge
        assert not decisions[2].do_merge  # steady lead phase: no work

    def test_phase_change_during_lead_flushes(self):
        decisions = run_phase_sequence([7, 7, 7, 9, 9, 9])[0]
        states = [d.state for d in decisions]
        # AT, C, L(steady), L(flush), then 9 stabilizes: C? -> after flush
        # Algorithm 1 needs one mismatch to re-arm Re-Clustering.
        assert states[:4] == [
            MarkerState.AT,
            MarkerState.C,
            MarkerState.L,
            MarkerState.L,
        ]
        assert decisions[3].do_merge and decisions[3].phase_changed

    def test_mismatch_right_after_c_returns_to_at(self):
        # 7,7 -> C; 9 arrives before the lead flag was ever set, so there is
        # nothing to flush: straight back to AT with Re-Clustering re-armed.
        decisions = run_phase_sequence([7, 7, 9, 11, 11, 11])[0]
        states = [d.state for d in decisions]
        assert states == [
            MarkerState.AT,
            MarkerState.C,
            MarkerState.AT,
            MarkerState.AT,
            MarkerState.C,
            MarkerState.L,
        ]
        assert not decisions[2].do_merge
        assert decisions[4].do_cluster

    def test_flush_rearms_reclustering(self):
        # Figure 2 semantics: after a lead-phase flush the next stable
        # pattern re-clusters.
        decisions = run_phase_sequence([7, 7, 7, 9, 9, 9])[0]
        states = [d.state for d in decisions]
        assert states == [
            MarkerState.AT,
            MarkerState.C,
            MarkerState.L,  # steady lead phase, lead flag set
            MarkerState.L,  # mismatch -> flush
            MarkerState.C,  # 9 stabilized -> re-cluster
            MarkerState.L,
        ]
        assert decisions[3].do_merge and decisions[3].phase_changed
        assert decisions[4].do_cluster

    def test_alternating_callpaths_never_cluster(self):
        decisions = run_phase_sequence([1, 2, 1, 2, 1, 2])[0]
        assert all(d.state is MarkerState.AT for d in decisions)
        assert not any(d.do_cluster for d in decisions)

    def test_single_rank_mismatch_blocks_clustering(self):
        # rank 3 sees a different callpath on marker 2: the collective vote
        # must keep EVERYONE in AT.
        steps = [5, {0: 5, 1: 5, 2: 5, 3: 6}, 5]
        per_rank = run_phase_sequence(steps)
        for decisions in per_rank:
            assert decisions[1].state is MarkerState.AT

    def test_all_ranks_agree_on_every_decision(self):
        steps = [1, 1, 1, 2, 2, 2, 3, 3]
        per_rank = run_phase_sequence(steps)
        for i in range(len(steps)):
            states = {d[i].state for d in per_rank}
            assert len(states) == 1

    def test_force_final(self):
        t = PhaseTracker()
        d = t.force_final()
        assert d.state is MarkerState.F
        assert d.do_cluster and d.do_merge

    def test_vote_count(self):
        async def main(ctx):
            t = PhaseTracker()
            for cp in [1, 1, 1]:
                await t.decide(ctx.comm, cp)
            return t.votes

        res = run_spmd(main, 2, config=SimConfig(network=ZERO_COST))
        # first marker records baseline without voting
        assert res.results == [2, 2]
