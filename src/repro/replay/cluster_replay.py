"""Cluster-wide replay checks.

The paper enhances ScalaReplay so that a single lead's trace is replayed by
*all other nodes of its cluster*.  In this reproduction that behaviour is
intrinsic: Chameleon's online compression replaced every lead event's
ranklist with its cluster's ranklist, and the replayer issues an event on
every rank its ranklist covers with endpoints transposed relative to that
rank.  This module provides the validation utilities used by tests and the
accuracy harness to confirm the property actually holds for a given trace.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..scalatrace.trace import Trace
from .replayer import build_schedule


@dataclass(frozen=True)
class CoverageReport:
    """How much of the process space a trace's replay touches."""

    nprocs: int
    ranks_covered: tuple[int, ...]
    ops_per_rank: tuple[int, ...]
    out_of_range_endpoints: int

    @property
    def full_coverage(self) -> bool:
        return len(self.ranks_covered) == self.nprocs


def coverage(trace: Trace, nprocs: int | None = None) -> CoverageReport:
    """Analyse which ranks a trace's replay would exercise."""
    nprocs = trace.nprocs if nprocs is None else nprocs
    schedules = build_schedule(trace, nprocs)
    out_of_range = 0
    occurrences: dict[int, int] = {}
    for rec in trace.events():
        idx = occurrences.get(id(rec), 0)
        occurrences[id(rec)] = idx + 1
        for r in rec.participants.ranks():
            if r >= nprocs:
                continue
            for ep in (rec.dest, rec.src):
                if ep is None:
                    continue
                target = ep.resolve(r, idx)
                if target is None or not (0 <= target < nprocs):
                    out_of_range += 1
    ops = tuple(len(s) for s in schedules)
    covered = tuple(r for r, n in enumerate(ops) if n > 0)
    return CoverageReport(
        nprocs=nprocs,
        ranks_covered=covered,
        ops_per_rank=ops,
        out_of_range_endpoints=out_of_range,
    )


def events_by_rank(trace: Trace, nprocs: int | None = None) -> list[int]:
    """Number of trace events each rank participates in."""
    nprocs = trace.nprocs if nprocs is None else nprocs
    counts = [0] * nprocs
    for rec in trace.events():
        for r in rec.participants.ranks():
            if r < nprocs:
                counts[r] += 1
    return counts
