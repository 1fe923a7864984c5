"""repro.scalatrace — ScalaTrace V2: scalable MPI trace compression.

The substrate Chameleon builds on (paper §II): per-rank *intra-node*
loop compression into RSD/PRSD trees, location-independent event encodings
(relative endpoints, stack signatures, ranklists), delta-time histograms,
and the *inter-node* radix-tree trace reduction normally run inside
``MPI_Finalize``.
"""

from .analysis import TraceSummary, collective_volume, summarize
from .costmodel import DEFAULT_COSTS, ZERO_COSTS, InstrumentationCostModel
from .difftool import KeyDiff, TraceDiff, diff_traces
from .endpoint import EndpointStat, Pattern
from .events import EventRecord, Op, ParamStat
from .inter import merge_many, merge_traces
from .intra import DEFAULT_WINDOW, IntraCompressor, fold_tail
from .ranklist import Ranklist, RankSet
from .rsd import (
    EventNode,
    LoopNode,
    TraceNode,
    WorkMeter,
    expand,
    iter_leaves,
    merge_nodes,
    same_shape,
)
from .signatures import (
    EndpointSignatures,
    RunningAverage,
    StackWalker,
    callpath_signature,
    combine_frames,
    fnv1a64,
    frame_signature,
    hash_u64,
)
from .timehist import DeltaHistogram
from .trace import Trace
from .tracer import TRACE_TAG, ScalaTraceTracer, TracerStats

__all__ = [
    "DEFAULT_COSTS",
    "DEFAULT_WINDOW",
    "DeltaHistogram",
    "EndpointSignatures",
    "EndpointStat",
    "EventNode",
    "EventRecord",
    "InstrumentationCostModel",
    "IntraCompressor",
    "LoopNode",
    "Op",
    "ParamStat",
    "Pattern",
    "Ranklist",
    "RankSet",
    "RunningAverage",
    "ScalaTraceTracer",
    "StackWalker",
    "TRACE_TAG",
    "Trace",
    "TraceDiff",
    "TraceNode",
    "TraceSummary",
    "TracerStats",
    "WorkMeter",
    "ZERO_COSTS",
    "callpath_signature",
    "collective_volume",
    "combine_frames",
    "expand",
    "fnv1a64",
    "fold_tail",
    "frame_signature",
    "diff_traces",
    "hash_u64",
    "KeyDiff",
    "iter_leaves",
    "merge_many",
    "merge_nodes",
    "merge_traces",
    "same_shape",
    "summarize",
]
