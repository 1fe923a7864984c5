"""Derived metrics shared by the table/figure generators."""

from __future__ import annotations

from dataclasses import dataclass

from .runner import Mode, RunResult, overhead


@dataclass(frozen=True)
class OverheadBreakdown:
    """Where a traced run's extra virtual time went (summed over ranks)."""

    record: float  # event recording + intra compression
    signature: float  # interval signature computation (Chameleon)
    vote: float  # Algorithm 1 reduce+bcast (Chameleon)
    clustering: float  # tree clustering (Chameleon/ACURDION)
    intercompression: float  # inter-node trace merging + shipping

    @property
    def total(self) -> float:
        return (
            self.record
            + self.signature
            + self.vote
            + self.clustering
            + self.intercompression
        )


def breakdown(result: RunResult) -> OverheadBreakdown:
    # One registry for every lookup (``RunResult.stat`` builds one per call).
    reg = result.registry()

    def stat(name: str) -> float:
        return float(reg.value(name))

    record = stat("tracer/record_time")
    if result.chameleon_stats:
        return OverheadBreakdown(record, *(
            stat(f"chameleon/{name}_time")
            for name in ("signature", "vote", "clustering",
                         "intercompression")))
    if result.mode is Mode.ACURDION and "acurdion" in result.extra:
        return OverheadBreakdown(
            record, 0.0, 0.0, stat("acurdion/clustering_time"),
            stat("acurdion/intercompression_time"))
    return OverheadBreakdown(record, 0.0, 0.0, 0.0,
                             stat("tracer/merge_time"))


def overhead_fraction(traced: RunResult, app: RunResult) -> float:
    """Overhead relative to the application's aggregated runtime."""
    if app.total_time == 0:
        return 0.0
    return overhead(traced, app) / app.total_time


def state_space_summary(result: RunResult) -> dict[int, dict[str, float]]:
    """Per-rank average bytes per state from the marker logs (Table IV)."""
    out: dict[int, dict[str, float]] = {}
    for rank, cs in enumerate(result.chameleon_stats):
        per_state: dict[str, list[int]] = {}
        for record in cs.log:
            per_state.setdefault(record.state, []).append(record.bytes)
        out[rank] = {s: sum(v) / len(v) for s, v in per_state.items()}
        out[rank]["calls"] = float(len(cs.log))
        out[rank]["avg"] = (sum(r.bytes for r in cs.log) / len(cs.log)
                            if cs.log else 0.0)
    return out
