"""Phase recognition: the AT / C / L / F transition graph (Algorithm 1).

Every effective marker call each process computes its interval Call-Path
signature, votes collectively on whether *any* process saw a change
(an allreduce: ``MPI_Reduce`` of mismatch flags + ``MPI_Bcast`` of the sum —
the ``O(n log P)`` step), and the shared flags ``Re-Clustering`` and ``Lead``
drive the transition graph:

==================  ======================  =============================
vote result          flags                   outcome
==================  ======================  =============================
first marker         —                       AT (baseline recorded)
all matched          Re-Clustering set       **C**: cluster now, merge
all matched          Re-Clustering clear     **L** (steady lead phase): set
                                             Lead flag, nothing else
any mismatch         Lead flag set           **L + flush**: merge lead
                                             traces, drop back to AT
any mismatch         Lead flag clear         AT; re-arm Re-Clustering
==================  ======================  =============================

(The paper's Algorithm 1 *returns* AT for the steady lead phase while the
evaluation's Table II counts those markers as state L; :class:`MarkerDecision`
carries both: ``state`` follows the paper's accounting, the ``do_*`` flags
follow Algorithm 1's actions.)

Because the vote synchronizes all ranks, every process takes the same
branch — the paper's note (7).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from ..faults.injector import LOST
from ..scalatrace.tracer import reduce_over_tree
from ..simmpi.collectives import SUM, Communicator
from ..simmpi.comm import MAX_USER_TAG
from ..simmpi.topology import RadixTree

#: reserved tags for the fault-tolerant vote (reduce up / result down);
#: above MAX_USER_TAG so application wildcard receives never see them
VOTE_TAG = MAX_USER_TAG + 4
VOTE_RESULT_TAG = MAX_USER_TAG + 5


class MarkerState(enum.Enum):
    AT = "all-tracing"
    C = "clustering"
    L = "lead"
    F = "final"


@dataclass(frozen=True)
class MarkerDecision:
    """What this marker call must do (identical on every rank)."""

    state: MarkerState
    do_cluster: bool = False  # run Algorithm 3's clustering section
    do_merge: bool = False  # run Algorithm 3's inter-compression section
    phase_changed: bool = False  # the vote saw at least one mismatch
    votes_missing: int = 0  # votes that never arrived (faults only)


class PhaseTracker:
    """Per-process state of Algorithm 1 (flags are vote-synchronized)."""

    #: fraction of the world whose votes must arrive for the transition
    #: graph to act; below this the tracker re-enters AT (fault tolerance)
    vote_quorum = 0.5

    def __init__(self) -> None:
        self.old_callpath: int | None = None
        self.re_clustering = True
        self.lead_flag = False
        self.votes = 0

    async def decide(
        self,
        comm: Communicator,
        current_callpath: int,
        failed: frozenset[int] = frozenset(),
    ) -> MarkerDecision:
        """One execution of Algorithm 1 at an effective marker call.

        ``failed`` is the caller's per-marker failure snapshot (identical
        on every rank; see ``ChameleonTracer._fault_epoch``); when fault
        injection is active the vote runs over the surviving ranks only.
        """
        if self.old_callpath is None:
            # First time hitting the marker: record the baseline.
            self.old_callpath = current_callpath
            return MarkerDecision(MarkerState.AT)

        mismatch = 1 if self.old_callpath != current_callpath else 0
        if comm.engine.faults.active:
            glob, missing = await self._vote_ft(comm, mismatch, failed)
        else:
            glob = await comm.allreduce(mismatch, op=SUM, size=8)
            missing = 0
        self.votes += 1
        self.old_callpath = current_callpath
        return self._transition(glob, missing)

    def _transition(self, glob: int | None, missing: int) -> MarkerDecision:
        """The transition graph: the vote's global mismatch count (None
        when too few votes arrived to trust it) and the number of missing
        votes to this marker's decision, updating the two flags."""
        if glob is None:
            # Safest is for everyone to trace: leave any lead phase and
            # fall through to AT with Re-Clustering re-armed.
            self.lead_flag = False
        elif glob == 0:
            if self.re_clustering:
                self.re_clustering = False
                return MarkerDecision(
                    MarkerState.C, do_cluster=True, do_merge=True,
                    votes_missing=missing,
                )
            # Steady lead phase: leads keep tracing, nothing to do.
            self.lead_flag = True
            return MarkerDecision(MarkerState.L, votes_missing=missing)
        elif self.lead_flag:
            # Pattern broke during the lead phase: flush lead traces.  The
            # paper's Algorithm 1 listing does not re-arm Re-Clustering
            # here, but its Figure 2 sends all processes back to AT ("all
            # tracing"), from which a stable pattern transitions to C — so
            # re-arming is the behaviour the transition graph specifies and
            # what keeps clusters fresh across phases (Fig. 3 re-clusters
            # after every phase change).  We follow the figure.
            self.lead_flag = False
            self.re_clustering = True
            return MarkerDecision(
                MarkerState.L, do_merge=True, phase_changed=True,
                votes_missing=missing,
            )
        self.re_clustering = True
        return MarkerDecision(
            MarkerState.AT, phase_changed=True, votes_missing=missing
        )

    # -- fault-tolerant vote ------------------------------------------------

    async def _vote_ft(
        self, comm: Communicator, mismatch: int, failed: frozenset[int]
    ) -> tuple[int | None, int]:
        """The vote under fault injection: reduce ``(mismatch, votes)``
        pairs over a radix tree spanning only the *alive* ranks, then pass
        the root's pair back down.  Returns ``(global mismatch, votes
        missing)``.

        ``failed`` is an epoch-consistent snapshot (the same frozenset on
        every rank of this marker round — the simulation's stand-in for a
        ULFM-style agreement), so all alive ranks build the same tree and
        take the same branch.  Votes can still go missing (messages dropped
        past the retry budget, a rank dying mid-vote): the pair's count
        says how many arrived, and when fewer than ``vote_quorum`` of the
        world — or fewer than the alive ranks we expected — voted, or this
        rank was cut off from the result entirely, the mismatch count is
        None: the tracker conservatively drops back to AT and re-arms
        re-clustering.
        """
        alive = [r for r in range(comm.size) if r not in failed]
        tree = RadixTree(alive, arity=2)
        me = comm.rank
        result = await reduce_over_tree(
            comm, tree, (mismatch, 1), VOTE_TAG,
            lambda mine, got: (mine[0] + got[0], mine[1] + got[1]),
            lambda pair: 16,
        )
        if result is None:  # not the root: the result comes back down
            result = await comm.recv(tree.parent(me), tag=VOTE_RESULT_TAG)
        for child in tree.children(me):
            await comm.send(child, result, tag=VOTE_RESULT_TAG, size=16)
        if result is LOST:
            return None, comm.size
        glob, nvotes = result
        if nvotes < len(alive) or nvotes < self.vote_quorum * comm.size:
            glob = None
        return glob, comm.size - nvotes

    def force_final(self) -> MarkerDecision:
        """``MPI_Finalize``: re-clustering is forced (at least the finalize
        event itself is new), inter-compression identical (paper §III)."""
        self.re_clustering = False
        self.lead_flag = False
        return MarkerDecision(MarkerState.F, do_cluster=True, do_merge=True)
