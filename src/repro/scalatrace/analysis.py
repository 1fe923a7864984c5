"""Trace analysis: summaries from trace files.

Downstream users of a tracing toolset mostly want aggregate views: which
operations dominate, how much data moved, where compute time went.  These
helpers derive them from the (compressed) records, weighted by their
participant counts; who sends whom is the replay schedule's
(:func:`repro.replay.communication_matrix`).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from .trace import Trace


@dataclass
class TraceSummary:
    """Aggregate statistics of one trace."""

    nprocs: int
    prsd_events: int
    total_events: int
    compression_ratio: float
    size_bytes: int
    events_by_op: Counter = field(default_factory=Counter)
    bytes_by_op: Counter = field(default_factory=Counter)
    compute_seconds: float = 0.0
    distinct_callsites: int = 0

    def report(self) -> str:
        lines = [
            f"trace over {self.nprocs} ranks",
            f"  {self.prsd_events} PRSD events representing "
            f"{self.total_events} MPI calls "
            f"({self.compression_ratio:.1f}x compression)",
            f"  {self.distinct_callsites} distinct call sites, "
            f"~{self.size_bytes} bytes",
            f"  recorded compute time: {self.compute_seconds:.6f} s",
            "  events by operation:",
        ]
        for op, count in self.events_by_op.most_common():
            nbytes = self.bytes_by_op.get(op, 0)
            lines.append(f"    {op:10s} {count:8d} calls  {nbytes:12.0f} B")
        return "\n".join(lines)


def summarize(trace: Trace) -> TraceSummary:
    """Aggregate per-operation counts, bytes and compute time."""
    summary = TraceSummary(
        nprocs=trace.nprocs,
        prsd_events=trace.leaf_count(),
        total_events=trace.expanded_count(),
        compression_ratio=trace.compression_ratio(),
        size_bytes=trace.size_bytes(),
        distinct_callsites=len(trace.distinct_stack_signatures()),
    )
    for rec in trace.events():
        participants = rec.participants.count
        summary.events_by_op[rec.op.value] += participants
        if rec.count.n:
            summary.bytes_by_op[rec.op.value] += rec.count.mean * participants
        summary.compute_seconds += rec.dhist.mean * participants
    return summary


def collective_volume(trace: Trace) -> float:
    """Total bytes moved through collective operations (modelled payloads)."""
    total = 0.0
    for rec in trace.events():
        if rec.op.is_collective and rec.count.n:
            total += rec.count.mean * rec.participants.count
    return total

