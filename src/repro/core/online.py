"""Online inter-compression: Algorithm 3's tree procedures.

Two collective phases run at a clustering/flush marker:

* :func:`cluster_over_tree` — every rank contributes its signature triple;
  cluster maps are merged up the radix tree (pruned to at most ``2K + 1``
  entries per node), the root selects the Top-K clusters and broadcasts
  them.
* :func:`merge_lead_traces` — each Top-K lead replaces its events'
  ranklists with its *cluster's* ranklist, the K leads reduce their traces
  over a radix tree restricted to the leads (``O(n^2 log K)``) and the
  Top-K root ships the partial global trace to rank 0, which folds it into
  the incrementally grown *online trace* with :func:`fold_into_online`.

Both functions use the raw communicator (tracer-internal traffic is never
recorded) and charge measured work to virtual time through the tracer's
meter and cost model.
"""

from __future__ import annotations

from ..faults.injector import LOST
from ..scalatrace.intra import DEFAULT_WINDOW, fold_tail
# unused here; benchmarks/pipeline/test_pipeline_bench.py counts this binding
from ..scalatrace.inter import merge_traces  # noqa: F401
from ..scalatrace.ranklist import RankSet
from ..scalatrace.rsd import TraceNode, iter_leaves
from ..scalatrace.trace import Trace
from ..scalatrace.tracer import ScalaTraceTracer, reduce_over_tree
from ..simmpi.comm import MAX_USER_TAG
from ..simmpi.topology import RadixTree
from .callpath import IntervalSignatures
from .clustering import ClusterSet
from .config import ChameleonConfig

#: reserved tag for cluster-map reduction traffic (above MAX_USER_TAG:
#: invisible to application wildcard receives)
CLUSTER_TAG = MAX_USER_TAG + 2
#: reserved tag for shipping the partial global trace to rank 0
ONLINE_TAG = MAX_USER_TAG + 3


async def cluster_over_tree(
    tracer: ScalaTraceTracer,
    sigs: IntervalSignatures,
    config: ChameleonConfig,
    failed: frozenset[int] = frozenset(),
) -> ClusterSet:
    """Algorithm 3 lines 7–24: cluster signatures over the radix tree.

    Returns the broadcast Top-K :class:`ClusterSet` (identical on all ranks).

    ``failed`` (the tracer's per-marker failure snapshot) restricts the
    reduction tree to surviving ranks so a dead interior node cannot bury
    its whole subtree's contributions; contributions lost in transit
    (drops, mid-collective crashes) still arrive as LOST holes and are
    skipped.
    """
    comm = tracer.comm
    rank, size = comm.rank, comm.size
    meter = tracer.meter
    if failed:
        alive = [r for r in range(size) if r not in failed]
        tree = RadixTree(alive, arity=config.tree_arity)
    else:
        tree = RadixTree(size, arity=config.tree_arity)

    def absorb(local: ClusterSet, child_set: ClusterSet) -> ClusterSet:
        work0 = meter.total
        local.merge(child_set, meter)
        # prune only when over the per-node budget (paper: <= 2K + 1 items)
        if len(local) > 2 * config.k + 1:
            local.prune(config.k, config.algorithm, meter)
        tracer.ctx.compute(
            (meter.total - work0) * tracer.costs.per_cluster_op
        )
        return local

    topk: ClusterSet | None = await reduce_over_tree(
        comm, tree, ClusterSet.local(sigs.as_tuple(), rank), CLUSTER_TAG,
        absorb, ClusterSet.size_bytes,
    )
    if topk is not None:  # the tree root selects the Top-K
        work0 = meter.total
        topk.prune(config.k, config.algorithm, meter)
        tracer.ctx.compute((meter.total - work0) * tracer.costs.per_cluster_op)
    topk = await comm.bcast(topk, root=0)
    if topk is None or topk is LOST:
        # Cut off from the broadcast result (only reachable through fault
        # holes): fall back to a self-cluster so this rank keeps tracing
        # its own behaviour rather than trusting a lead it cannot see.
        return ClusterSet.local(sigs.as_tuple(), rank)
    return topk


def replace_participants(
    nodes: list[TraceNode],
    members: RankSet,
    src_homogeneous: bool = True,
    dest_homogeneous: bool = True,
) -> None:
    """A lead substitutes its cluster's ranklist into its collected events
    (Algorithm 3, highlighted step (4)).

    When the cluster absorbed processes with *different* endpoint signatures
    (a heterogeneous cluster, e.g. all workers of a master-worker code), the
    lead's relative offsets do not generalize to the other members; the
    absolute encoding — when one survived — is the meaningful one, so the
    relative candidate is dropped before replay can transpose it.
    """
    for leaf in iter_leaves(nodes):
        rec = leaf.record
        rec.participants = RankSet(members.ranks())
        if not src_homogeneous and rec.src is not None and rec.src.abs_ is not None:
            rec.src.rel = None
            rec.src.pattern = None
        if (
            not dest_homogeneous
            and rec.dest is not None
            and rec.dest.abs_ is not None
        ):
            rec.dest.rel = None
            rec.dest.pattern = None


async def merge_lead_traces(
    tracer: ScalaTraceTracer, topk: ClusterSet
) -> Trace | None:
    """Algorithm 3 lines 25–47: merge the Top-K lead traces and deliver the
    result to rank 0.

    Every rank participates in the call; non-leads simply delete their
    partial traces (done by the caller).  Returns the interval's merged
    segment on rank 0 — for :func:`fold_into_online` — and ``None``
    elsewhere, or when nothing arrived.
    """
    comm = tracer.comm
    rank = comm.rank
    meter = tracer.meter
    leads = topk.leads()

    partial: Trace | None = None
    if rank in leads:
        my_cluster = topk.find_cluster_of(rank)
        assert my_cluster is not None
        nodes = tracer.compressor.take_nodes()
        replace_participants(
            nodes,
            my_cluster.members,
            my_cluster.src_homogeneous,
            my_cluster.dest_homogeneous,
        )
        local = Trace(
            nodes=nodes,
            origin=RankSet(my_cluster.members.ranks()),
            nprocs=comm.size,
        )
        partial = await tracer.merge_over_tree(local, members=leads)

    # The Top-K tree root ships the partial global trace to rank 0.
    topk_root = leads[0]
    if topk_root != 0:
        if rank == topk_root:
            assert partial is not None
            await comm.send(
                0, partial, tag=ONLINE_TAG, size=partial.size_bytes()
            )
            partial = None
        elif rank == 0:
            partial = await comm.recv(topk_root, tag=ONLINE_TAG)
            if partial is LOST:
                partial = None  # fault hole: this interval's merge is gone

    # only rank 0 can still hold a partial here
    return partial if partial is not None and partial.nodes else None


def fold_into_online(
    tracer: ScalaTraceTracer, online: Trace, segment: Trace
) -> int:
    """Rank 0 appends one merged segment (an interval's lead traces, or the
    survivors' full traces of a degraded finalize) to the online trace,
    folds segments that repeat across intervals, and charges the work.
    Returns the change of ``online.size_bytes()`` (owed to a running count)."""
    meter = tracer.meter
    work0 = meter.total
    grown = sum(n.size_bytes() for n in segment.nodes)
    online.nodes.extend(segment.nodes)
    grown += fold_tail(online.nodes, DEFAULT_WINDOW, meter,
                       match_participants=True)
    online.origin = online.origin.union(segment.origin)
    tracer.ctx.compute((meter.total - work0) * tracer.costs.per_merge_cell)
    return grown
