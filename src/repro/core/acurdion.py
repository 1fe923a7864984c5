"""ACURDION-style baseline: signature clustering at ``MPI_Finalize`` only.

The paper's Table III compares Chameleon against ACURDION, the predecessor
framework (Bahmani & Mueller [1-3]) that also clusters by signatures but
does so *once*, inside the finalize wrapper:

* every rank traces for the whole run (no lead phase, no space savings —
  the paper's Table IV discussion: "in ACURDION, all processes need to
  allocate memory for their traces");
* no marker calls, no votes, no online trace — so its *time* overhead is
  lower than Chameleon's (Table III shows roughly half), which is exactly
  the trade-off the experiment demonstrates;
* at finalize the ranks cluster over the radix tree and only the K lead
  traces are merged.
"""

from __future__ import annotations

from ..scalatrace.trace import Trace
from ..scalatrace.tracer import ScalaTraceTracer
from ..simmpi.launcher import RankContext
from .callpath import SignatureAccumulator
from .clustering import ClusterSet
from .config import ChameleonConfig
from .online import cluster_over_tree, fold_into_online, merge_lead_traces


class AcurdionTracer(ScalaTraceTracer):
    """Cluster-at-finalize baseline tracer."""

    def __init__(
        self, ctx: RankContext, config: ChameleonConfig | None = None
    ) -> None:
        config = config or ChameleonConfig()
        super().__init__(ctx, tree_arity=config.tree_arity)
        self.config = config
        self.sigacc = SignatureAccumulator()
        self._sigaccs = (self.sigacc,)
        self.topk: ClusterSet | None = None
        self.clustering_time = 0.0
        self.intercompression_time = 0.0

    async def finalize(self) -> Trace | None:
        """Cluster once, merge the K lead traces, return trace on rank 0."""
        sigs = self.sigacc.snapshot()
        self.ctx.compute(
            self.costs.per_signature_event * max(self.sigacc.prsd_events, 1)
        )
        t0 = self.ctx.clock
        self.topk = await cluster_over_tree(self, sigs, self.config)
        self.clustering_time = self.ctx.clock - t0

        online = Trace(nprocs=self.nprocs) if self.rank == 0 else None
        t0 = self.ctx.clock
        segment = await merge_lead_traces(self, self.topk)
        if segment is not None:
            fold_into_online(self, online, segment)
        self.intercompression_time = self.ctx.clock - t0
        return online
