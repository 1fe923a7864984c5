"""Per-rank timeline reconstruction from a timed replay (mini-Vampir).

Classic trace visualizers (Vampir, Tau's traces — the tools the paper's
introduction contrasts with) show per-rank Gantt charts of compute and
communication intervals.  This module reconstructs those intervals from a
replayed trace on the simulator and renders an ASCII Gantt view —
"lossless" detail recovered from the compressed representation.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..scalatrace.trace import Trace
from ..simmpi.timing import NetworkModel, QDR_CLUSTER
from .replayer import Interval, _replay


@dataclass
class Timeline:
    """Per-rank interval lists plus the makespan."""

    intervals: list[list[Interval]]
    makespan: float

    @property
    def nprocs(self) -> int:
        return len(self.intervals)

    def busy_fraction(self, rank: int) -> float:
        if self.makespan == 0:
            return 0.0
        busy = sum(
            iv.duration for iv in self.intervals[rank] if iv.kind == "compute"
        )
        return busy / self.makespan

    def gantt(self, width: int = 72) -> str:
        """ASCII Gantt chart: '=' compute, '>' send, '<' recv, '#'
        collective, '.' idle."""
        if self.makespan <= 0:
            return "(empty timeline)"
        rows = []
        for rank, ivs in enumerate(self.intervals):
            cells = ["."] * width
            for iv in ivs:
                lo = int(iv.start / self.makespan * (width - 1))
                hi = max(int(iv.end / self.makespan * (width - 1)), lo)
                ch = {"compute": "=", "send": ">", "recv": "<", "coll": "#"}[
                    iv.kind
                ]
                for i in range(lo, hi + 1):
                    cells[i] = ch
            rows.append(f"rank {rank:4d} |{''.join(cells)}|")
        rows.append(
            f"{'':10s} 0{'':{width - 10}s}{self.makespan:.3e}s"
        )
        return "\n".join(rows)


def reconstruct_timeline(
    trace: Trace,
    nprocs: int | None = None,
    network: NetworkModel = QDR_CLUSTER,
) -> Timeline:
    """Replay a trace and capture per-rank activity intervals."""
    nprocs = trace.nprocs if nprocs is None else nprocs
    intervals: list[list[Interval]] = [[] for _ in range(nprocs)]
    result, _stats = _replay(trace, nprocs, network, intervals=intervals)
    return Timeline(intervals=intervals, makespan=result.max_time)
