"""Property-based tests on the transition graph over random phase streams."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import MarkerDecision, MarkerState, PhaseTracker
from repro.faults.plan import FaultPlan, LinkFault
from repro.simmpi import SimConfig, ZERO_COST, run_spmd

callpath_streams = st.lists(st.integers(1, 4), min_size=1, max_size=30)
#: which vote carries the mismatch flags to the one transition graph
votes = st.sampled_from(("collective", "fault-tolerant"))

#: an active plan that perturbs nothing: it only selects the vote that
#: reduces over the tree of alive ranks
_BENIGN_FAULTS = FaultPlan(links=(LinkFault(src=0, dest=1),))


def drive(stream, vote="collective", nprocs=3):
    """Per-rank decision lists for ``stream``: one entry per marker, either
    a callpath every rank sees or a tuple of per-rank callpaths."""
    async def main(ctx):
        tracker = PhaseTracker()
        return [
            await tracker.decide(
                ctx.comm, cp[ctx.rank] if isinstance(cp, tuple) else cp)
            for cp in stream
        ]

    return run_spmd(
        main, nprocs, config=SimConfig(network=ZERO_COST),
        faults=_BENIGN_FAULTS if vote == "fault-tolerant" else None,
    ).results


class TestTransitionInvariants:
    @given(callpath_streams, votes)
    @settings(max_examples=60, deadline=None)
    def test_first_decision_is_always_at(self, stream, vote):
        decisions = drive(stream, vote)[0]
        assert decisions[0].state is MarkerState.AT
        assert not decisions[0].do_cluster and not decisions[0].do_merge

    @given(callpath_streams, votes)
    @settings(max_examples=60, deadline=None)
    def test_all_ranks_always_agree(self, stream, vote):
        per_rank = drive(stream, vote)
        for step in range(len(stream)):
            states = {d[step].state for d in per_rank}
            merges = {d[step].do_merge for d in per_rank}
            clusters = {d[step].do_cluster for d in per_rank}
            assert len(states) == len(merges) == len(clusters) == 1

    @given(callpath_streams, votes)
    @settings(max_examples=60, deadline=None)
    def test_cluster_implies_merge_and_c_state(self, stream, vote):
        for d in drive(stream, vote)[0]:
            if d.do_cluster:
                assert d.state is MarkerState.C
                assert d.do_merge

    @given(callpath_streams, votes)
    @settings(max_examples=60, deadline=None)
    def test_c_requires_two_consecutive_matches(self, stream, vote):
        """C can only fire when the current callpath equals the previous
        one (the vote saw zero mismatches)."""
        decisions = drive(stream, vote)[0]
        for i, d in enumerate(decisions):
            if d.state is MarkerState.C:
                assert i >= 1
                assert stream[i] == stream[i - 1]

    @given(callpath_streams, votes)
    @settings(max_examples=60, deadline=None)
    def test_flush_only_from_lead_phase(self, stream, vote):
        """A merge outside C (an L flush) only happens after a steady lead
        phase was established."""
        decisions = drive(stream, vote)[0]
        in_lead = False
        for d in decisions:
            if d.state is MarkerState.L and d.do_merge:
                assert in_lead
            if d.state is MarkerState.L and not d.do_merge:
                in_lead = True
            elif d.state is MarkerState.C:
                in_lead = False  # lead flag not set yet at C
            elif d.state is MarkerState.AT:
                in_lead = False

    @given(callpath_streams, votes)
    @settings(max_examples=60, deadline=None)
    def test_constant_stream_reaches_steady_lead(self, stream, vote):
        constant = [stream[0]] * max(len(stream), 5)
        decisions = drive(constant, vote)[0]
        states = [d.state for d in decisions]
        assert states[1] is MarkerState.C
        assert all(s is MarkerState.L for s in states[2:])

    @given(callpath_streams, votes)
    @settings(max_examples=40, deadline=None)
    def test_tracker_deterministic(self, stream, vote):
        a = [d.state for d in drive(stream, vote)[0]]
        b = [d.state for d in drive(stream, vote)[0]]
        assert a == b


AT, C, L = MarkerState.AT, MarkerState.C, MarkerState.L
FLUSH = MarkerDecision(L, do_merge=True, phase_changed=True)
BREAK = MarkerDecision(AT, phase_changed=True)
CLUSTER = MarkerDecision(C, do_cluster=True, do_merge=True)

#: (callpath per marker — a tuple gives each of the 3 ranks its own —
#: and the decisions Algorithm 1's table prescribes)
VOTE_TABLE = (
    # steady: baseline, cluster, lead phase
    ([1, 1, 1, 1],
     [MarkerDecision(AT), CLUSTER, MarkerDecision(L), MarkerDecision(L)]),
    # a break in the lead phase flushes, the way back re-clusters
    ([1, 1, 1, 2, 1, 1, 1],
     [MarkerDecision(AT), CLUSTER, MarkerDecision(L), FLUSH, BREAK, CLUSTER,
      MarkerDecision(L)]),
    # one rank's mismatch is everyone's: rank 2 alone sees a new callpath
    ([1, 1, 1, (1, 1, 7), 1, 1],
     [MarkerDecision(AT), CLUSTER, MarkerDecision(L), FLUSH, BREAK, CLUSTER]),
    # never stable: no clustering at all, Re-Clustering stays armed
    ([1, 2, 3, (4, 4, 5), 5],
     [MarkerDecision(AT), BREAK, BREAK, BREAK, BREAK]),
    # a break right after C (lead flag not yet set) is a plain AT
    ([1, 1, 2, 2, 2, 3],
     [MarkerDecision(AT), CLUSTER, BREAK, CLUSTER, MarkerDecision(L), FLUSH]),
)


@pytest.mark.parametrize("stream, expected", VOTE_TABLE)
def test_both_votes_walk_the_same_graph(stream, expected):
    """The collective vote and the fault-tolerant tree vote feed one
    transition graph: same stream, same decisions, on every rank."""
    collective = drive(stream, "collective")
    tolerant = drive(stream, "fault-tolerant")
    assert collective == tolerant == [expected] * 3
