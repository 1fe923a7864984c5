"""The Chameleon tracer: online clustering + incremental global trace.

:class:`ChameleonTracer` extends the ScalaTrace interposition layer with the
paper's marker machinery:

* every recorded event also feeds a :class:`SignatureAccumulator` (O(1));
* at each *effective* marker call (every ``call_frequency``-th invocation)
  Algorithm 1 votes on Call-Path stability and the transition graph decides
  between AT / C / L;
* in state **C** the ranks cluster over the radix tree, the Top-K leads are
  broadcast, non-leads *turn tracing off* (signature tracking stays on so
  they can still vote on phase changes);
* whenever a merge is due (state C, an L flush, or finalize) the K lead
  traces are reduced over a K-member radix tree and folded into the *online
  trace* held by rank 0, after which **all** ranks delete their partial
  intra-node traces;
* ``finalize`` forces one last cluster + merge and returns the completed
  online trace on rank 0 — the incremental equivalent of ScalaTrace's
  ``MPI_Finalize`` output.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Any, NamedTuple

from ..faults.injector import LOST
from ..scalatrace.trace import Trace
from ..scalatrace.tracer import ScalaTraceTracer
from ..simmpi.launcher import RankContext
from .callpath import SignatureAccumulator
from .clustering import ClusterSet
from .config import ChameleonConfig
from .online import cluster_over_tree, fold_into_online, merge_lead_traces
from .phase import MarkerDecision, MarkerState, PhaseTracker


#: the state of the record ``finalize`` appends
FINAL = MarkerState.F.value


class Clustering(NamedTuple):
    """What one clustering chose; ``view`` (rank 0 only) is the
    :meth:`~repro.core.clustering.ClusterSet.view` job progress publishes."""

    k: int  # Top-K size
    num_callpaths: int
    leads: tuple[int, ...]
    view: dict[str, Any] | None


#: a marker's timed sections, in order: ``MarkerRecord.<section>_s``
SECTIONS = ("signature", "vote", "clustering", "intercompression")


class MarkerRecord(NamedTuple):
    """One effective marker call of one rank, or its finalize; a section's
    seconds are None when it did not run at this marker."""

    state: str  # MarkerState value
    phase_changed: bool
    #: intra + online trace bytes allocated when the marker fired (Table IV)
    bytes: int
    signature_s: float | None = None
    vote_s: float | None = None
    clustering_s: float | None = None
    intercompression_s: float | None = None
    cluster: Clustering | None = None  # set when clustering_s is


def _seconds(stats: "ChameleonStats", section: str) -> float:
    """One section's seconds summed over the log in order (bit-identical
    to the running sum the marker used to keep)."""
    total = 0.0
    for record in stats.log:
        seconds = getattr(record, section)
        if seconds is not None:
            total += seconds
    return total


@dataclass
class ChameleonStats:
    """One rank's marker log; the evaluation's counters derive from it."""

    marker_invocations: int = 0  # raw marker() calls (timesteps)
    log: list[MarkerRecord] = field(default_factory=list)

    @property
    def effective_calls(self) -> int:  # calls past the Call_Frequency gate
        return sum(r.state != FINAL for r in self.log)

    @property
    def state_counts(self) -> Counter:  # AT/C/L markers, finalize not counted
        return Counter(r.state for r in self.log if r.state != FINAL)

    @property
    def reclusterings(self) -> int:
        return sum(r.cluster is not None for r in self.log)

    signature_time = property(lambda self: _seconds(self, "signature_s"))
    vote_time = property(lambda self: _seconds(self, "vote_s"))
    clustering_time = property(lambda self: _seconds(self, "clustering_s"))
    intercompression_time = property(
        lambda self: _seconds(self, "intercompression_s"))

    @property
    def space_samples(self) -> list[tuple[str, int]]:  # (state, bytes)
        return [(r.state, r.bytes) for r in self.log]

    @property
    def bytes_by_state(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for r in self.log:
            out[r.state] = out.get(r.state, 0) + r.bytes
        return out

    @property
    def k_used(self) -> int:
        return max((r.cluster.k for r in self.log if r.cluster), default=0)

    @property
    def num_callpaths(self) -> int:
        return max((r.cluster.num_callpaths for r in self.log if r.cluster),
                   default=0)

    @property
    def cluster_view(self) -> dict[str, Any] | None:  # rank 0's latest
        return next((r.cluster.view for r in reversed(self.log)
                     if r.cluster and r.cluster.view is not None), None)


class ChameleonTracer(ScalaTraceTracer):
    """Online signature-clustering tracer (the paper's contribution)."""

    def __init__(
        self, ctx: RankContext, config: ChameleonConfig | None = None
    ) -> None:
        config = config or ChameleonConfig()
        super().__init__(ctx, tree_arity=config.tree_arity)
        self.config = config
        self.phase = PhaseTracker()
        self.sigacc = SignatureAccumulator(mode=config.signature_filter)
        # Signatures accumulated since the last *merge* (not the last
        # marker): finalize clusters on these so the clustering reflects
        # the trace content actually being merged — clustering on a nearly
        # empty final marker interval would collapse all ranks into one
        # cluster and replay a single rank's behaviour everywhere.
        self.mergeacc = SignatureAccumulator(mode=config.signature_filter)
        self._sigaccs = (self.sigacc, self.mergeacc)
        self.topk: ClusterSet | None = None
        self.online: Trace | None = (
            Trace(nprocs=self.nprocs) if self.rank == 0 else None
        )
        #: running ``online.size_bytes()`` (0 off rank 0): advanced by what
        #: ``fold_into_online`` returns, read by every marker's space sample
        self.online_bytes = self.online.size_bytes() if self.online else 0
        self.cstats = ChameleonStats()
        #: fault-degraded mode: clustering collapsed (or rank 0 died), so
        #: every survivor falls back to full ScalaTrace-style tracing
        self.degraded = False

    # -- fault tolerance -----------------------------------------------------

    def _fault_epoch(self, key: Any) -> frozenset[int]:
        """Epoch-consistent failure snapshot for one marker round.

        Ranks reach marker #n at different scheduler moments, so reading
        the engine's failed set directly would let two ranks see different
        failure sets for the *same* round and silently diverge (different
        alive trees, different branches).  Instead the first rank to enter
        the round freezes the set onto the shared communicator context and
        every later rank reads that frozen copy — the simulation's stand-in
        for a ULFM-style agreement protocol.  Ranks dying *after* the
        snapshot surface as missing votes / LOST holes and are absorbed by
        the vote quorum.
        """
        epochs = self.comm.context.__dict__.setdefault("fault_epochs", {})
        snap = epochs.get(key)
        if snap is None:
            snap = frozenset(self.comm.engine.failed_ranks)
            epochs[key] = snap
        return snap

    def _ft_check(self, failed: frozenset[int]) -> None:
        """React to the round's failure snapshot: repair the cluster map
        (lead re-election) and decide whether to drop into degraded mode.

        Re-election is sound because cluster members are
        signature-equivalent — any surviving member's trace stands in for
        the group.  Degraded mode (everyone back to full tracing until
        finalize) is entered when the online protocol can no longer
        represent every rank: rank 0 — the online-trace holder — died, or a
        whole cluster died with no survivor to re-elect.
        """
        if self.degraded or not failed:
            return
        obs = self.obs
        collapsed: list = []
        if self.topk is not None:
            # reelect() is idempotent and deterministic, and the broadcast
            # ClusterSet may be object-shared across ranks in-simulation —
            # so every decision below reads the *repaired map*, never this
            # call's replacements (another rank may have repaired it first).
            replacements, collapsed = self.topk.reelect(failed)
            mine = self.topk.find_cluster_of(self.rank)
            if (mine is not None and mine.lead == self.rank
                    and not self.tracing):
                # Elected as replacement lead: this rank's trace now
                # stands in for the cluster, so start recording.
                self.tracing = True
                if obs.enabled:
                    obs.instant(
                        self.rank, "lead_reelection", "fault",
                        self.ctx.clock,
                        {"is_new_lead": True,
                         "cluster": list(mine.members.ranks()),
                         "failed": sorted(failed)},
                    )
            if replacements and obs.enabled:
                obs.instant(
                    self.rank, "lead_reelection", "fault", self.ctx.clock,
                    {"replacements": {str(k): v
                                      for k, v in replacements.items()},
                     "is_new_lead": False,
                     "failed": sorted(failed)},
                )
        if 0 in failed or collapsed:
            self.degraded = True
            self.tracing = True
            if obs.enabled:
                obs.instant(
                    self.rank, "degraded_mode", "fault", self.ctx.clock,
                    {"reason": ("rank0_failed" if 0 in failed
                                else "cluster_collapsed"),
                     "collapsed": [list(sig) for sig in collapsed],
                     "failed": sorted(failed)},
                )

    # -- the marker (Algorithm 3) ----------------------------------------------

    def _intra_bytes(self) -> int:
        """This rank's partial trace bytes (0 while not tracing)."""
        return self.compressor.size_bytes() if self.tracing else 0

    async def marker(self) -> MarkerDecision | None:
        """Called at every timestep boundary; returns the decision taken at
        effective calls, None when gated off by ``call_frequency``."""
        self.cstats.marker_invocations += 1
        self.ctx.compute(self.costs.per_marker_call)
        if self.cstats.marker_invocations % self.config.call_frequency != 0:
            return None

        # (0) fault tolerance: take this round's failure snapshot, repair
        # the cluster map, and short-circuit when already degraded.
        failed: frozenset[int] = frozenset()
        if self.comm.engine.faults.active:
            failed = self._fault_epoch(len(self.cstats.log) + 1)
            self._ft_check(failed)
            if self.degraded:
                # Degraded mode: no vote, no clustering, no merging — every
                # survivor keeps full-tracing (counted as AT) and finalize
                # merges the complete traces over the alive ranks.
                decision = MarkerDecision(MarkerState.AT)
                self._append(decision, self._intra_bytes(), {})
                self.sigacc.reset()
                return decision

        # (1) interval signatures — O(n) over PRSD events
        t0 = self.ctx.clock
        sigs = self.sigacc.snapshot()
        self.ctx.compute(
            self.costs.per_signature_event * max(self.sigacc.prsd_events, 1)
        )
        spans = {"signature": (t0, self.ctx.clock)}

        # (2) Algorithm 1: collective vote + transition graph
        t0 = self.ctx.clock
        decision = await self.phase.decide(self.comm, sigs.callpath, failed)
        spans["vote"] = (t0, self.ctx.clock)

        # Memory accounting snapshot (Table IV): the space this marker's
        # state required is what was allocated when the marker fired —
        # before any flush deletes the partial traces.
        intra_bytes_pre = self._intra_bytes()

        # (3) clustering (state C)
        cluster = None
        if decision.do_cluster:
            cluster = await self._cluster(sigs, failed, spans)

        # (4) inter-compression of lead traces into the online trace
        if decision.do_merge and self.topk is not None:
            await self._merge(spans)

        # (5) tracing control for the lead phase
        if decision.state is MarkerState.C:
            leads = set(self.topk.leads()) if self.topk else {self.rank}
            self.tracing = self.rank in leads
        elif decision.do_merge or decision.phase_changed:
            # flush or pattern break: everyone traces again
            self.tracing = True

        self._append(decision, intra_bytes_pre, spans, spans["vote"][1],
                     cluster)
        self.sigacc.reset()
        return decision

    async def _cluster(self, sigs, failed: frozenset[int],
                       spans: dict[str, tuple[float, float]]) -> Clustering:
        """Cluster the ranks on ``sigs`` over the tree and adopt the
        broadcast Top-K (a marker in state C, or finalize)."""
        t0 = self.ctx.clock
        topk = self.topk = await cluster_over_tree(
            self, sigs, self.config, failed)
        spans["clustering"] = (t0, self.ctx.clock)
        return Clustering(len(topk), topk.num_callpaths, tuple(topk.leads()),
                          topk.view() if self.rank == 0 else None)

    async def _merge(self, spans: dict[str, tuple[float, float]]) -> None:
        """Inter-compress the K lead traces into rank 0's online trace
        (a merging marker, or finalize); afterwards *all* ranks drop their
        partial intra-node trace — the last event end is kept, so delta
        times stay stitched."""
        t0 = self.ctx.clock
        segment = await merge_lead_traces(self, self.topk)
        if segment is not None:
            self.online_bytes += fold_into_online(
                self, self.online, segment
            )
        spans["intercompression"] = (t0, self.ctx.clock)
        self.compressor.take_nodes()
        self.mergeacc.reset()

    def _append(self, decision: MarkerDecision, intra_bytes: int,
                spans: dict[str, tuple[float, float]], t: float = 0.0,
                cluster: Clustering | None = None) -> None:
        """Append this marker's record to the log — the log's one writer —
        and emit its obs events; ``spans`` holds the (start, end) clock of
        each section that ran, ``t`` the clock the state was decided at."""
        state, degraded = decision.state.value, self.degraded
        record = MarkerRecord(
            state, decision.phase_changed, intra_bytes + self.online_bytes,
            *(spans[s][1] - spans[s][0] if s in spans else None
              for s in SECTIONS),
            cluster,
        )
        log = self.cstats.log
        before = log[-1].state if log else "start"
        log.append(record)
        obs = self.obs
        if not obs.enabled:
            return
        rank = self.rank
        final = {"final": True} if state == FINAL else {}
        for name, (start, end) in spans.items():
            if name == "signature":
                args = {"prsd_events": self.sigacc.prsd_events}
            elif name == "vote":
                args = {"round": self.phase.votes, "state": state,
                        "phase_changed": decision.phase_changed}
            elif name == "clustering":
                args = {"k": cluster.k,
                        **(final or {"callpaths": cluster.num_callpaths})}
            else:
                args = ({"degraded": True, "final": True} if degraded
                        else {"k": len(self.topk), **final})
            obs.span(rank, name, "chameleon", start, end, args)
        if "vote" in spans:
            obs.instant(
                rank, "marker", "chameleon", t,
                {"state": state, "call": len(log),
                 "cluster": decision.do_cluster, "merge": decision.do_merge},
            )
        if state != before and not degraded:
            obs.instant(rank, "state_transition", "state", t,
                        {"from": before, "to": state})
        if decision.state is MarkerState.C:
            obs.instant(
                rank, "lead_election", "chameleon", self.ctx.clock,
                {"leads": sorted(cluster.leads), "is_lead": self.tracing},
            )

    # -- finalize -----------------------------------------------------------

    async def finalize(self) -> Trace | None:
        """Add the last events to the online trace; return it on rank 0.

        Per the paper, Algorithm 1 is skipped (re-clustering is certain) and
        the inter-compression is identical to a marker's.  One correctness
        nuance the pseudocode leaves implicit: when the run ends inside a
        lead phase, the unfetched partial traces live on the *current*
        leads, so re-clustering on the (possibly empty) final interval would
        elect different leads and lose them.  We therefore re-cluster only
        when every rank is still tracing, and otherwise flush with the
        existing Top-K — "the inter-compression part remains the same".
        """
        failed: frozenset[int] = frozenset()
        if self.comm.engine.faults.active:
            failed = self._fault_epoch("final")
            self._ft_check(failed)
            if self.degraded:
                return await self._finalize_degraded(failed)
        decision = self.phase.force_final()
        t = self.ctx.clock
        intra_bytes_pre = self._intra_bytes()
        vote = await self.comm.allreduce(1 if self.tracing else 0, size=8)
        # Under faults the vote can be a LOST hole or missing dead ranks'
        # contributions; either way not everyone is provably tracing.
        all_tracing = vote is not LOST and bool(
            vote == self.nprocs - len(failed)
        )
        spans: dict[str, tuple[float, float]] = {}
        cluster = None
        if self.topk is None or all_tracing:
            cluster = await self._cluster(
                self.mergeacc.snapshot(), failed, spans)
        await self._merge(spans)
        self._append(decision, intra_bytes_pre, spans, t, cluster)
        if self.rank == 0:
            assert self.online is not None
            self.online.nprocs = self.nprocs
            return self.online
        return None

    async def _finalize_degraded(self, failed: frozenset[int]) -> Trace | None:
        """Fault fall-back finalize: the ScalaTrace finalize over the
        surviving ranks.

        Every survivor has been full-tracing since the degraded transition,
        so the complete (not lead-sampled) traces are merged over a radix
        tree of the alive ranks.  When rank 0 survived (degradation came
        from a cluster collapse) the merged trace is folded into the online
        trace so pre-degradation intervals are kept; when rank 0 died, the
        lowest surviving rank returns the merged full trace — the best
        available output.
        """
        decision = self.phase.force_final()
        alive = [r for r in range(self.nprocs) if r not in failed]
        if self.obs.enabled:
            self.obs.instant(self.rank, "degraded_finalize", "fault",
                             self.ctx.clock,
                             {"alive": len(alive), "failed": sorted(failed)})
        intra_bytes_pre = self._intra_bytes()
        t0 = self.ctx.clock
        merged = await super().finalize(members=alive)
        self._append(decision, intra_bytes_pre,
                     {"intercompression": (t0, self.ctx.clock)})
        if self.rank != alive[0]:
            return None
        assert merged is not None
        if self.online is not None and self.online.nodes:
            self.online_bytes += fold_into_online(
                self, self.online, merged
            )
            merged = self.online
        merged.nprocs = self.nprocs
        return merged
