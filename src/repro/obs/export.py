"""Exporters: Chrome ``trace_event`` JSON, metrics JSONL, terminal summary.

The Chrome exporter emits the `trace_event format`_ understood by
``ui.perfetto.dev`` and ``chrome://tracing``: one lane per simulated rank
(``pid`` and ``tid`` are both the rank), complete (``"X"``) events for
spans, instant (``"i"``) events for point events, and metadata naming each
lane ``rank N``.  Timestamps are the run's **virtual time** converted to
microseconds, so opening an exported run shows the simulation's own
timeline.

.. _trace_event format:
   https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, IO

from .instrument import ObsData
from .metrics import MetricsRegistry

#: virtual seconds -> trace_event microseconds
_US = 1e6


def chrome_trace_events(obs: ObsData) -> list[dict[str, Any]]:
    """The ``traceEvents`` array for ``obs``: metadata first, then spans and
    instants sorted by timestamp (ties broken longest-span-first so nested
    spans render correctly)."""
    meta_events: list[dict[str, Any]] = []
    for rank in obs.ranks():
        meta_events.append(
            {
                "ph": "M", "name": "process_name", "pid": rank, "tid": rank,
                "ts": 0, "args": {"name": f"rank {rank}"},
            }
        )
        meta_events.append(
            {
                "ph": "M", "name": "thread_name", "pid": rank, "tid": rank,
                "ts": 0, "args": {"name": f"rank {rank}"},
            }
        )

    timed: list[dict[str, Any]] = []
    for s in obs.spans:
        timed.append(
            {
                "ph": "X",
                "name": s.name,
                "cat": s.cat,
                "pid": s.rank,
                "tid": s.rank,
                "ts": s.start * _US,
                "dur": max(s.end - s.start, 0.0) * _US,
                "args": s.args or {},
            }
        )
    for i in obs.instants:
        timed.append(
            {
                "ph": "i",
                "name": i.name,
                "cat": i.cat,
                "pid": i.rank,
                "tid": i.rank,
                "ts": i.ts * _US,
                "s": "t",  # thread-scoped instant: drawn on the rank's lane
                "args": i.args or {},
            }
        )
    timed.sort(key=lambda e: (e["ts"], -e.get("dur", 0.0), e["pid"], e["name"]))
    return meta_events + timed


def export_chrome_trace(
    obs: ObsData, path: str | IO[str] | None = None
) -> dict[str, Any]:
    """Build (and optionally write) the Chrome ``trace_event`` document.

    ``path`` may be a filename or an open text stream; the document is
    always returned so callers can post-process it.
    """
    doc = {
        "traceEvents": chrome_trace_events(obs),
        "displayTimeUnit": "ms",
        "otherData": {"generator": "repro.obs", **obs.meta},
    }
    if path is not None:
        if hasattr(path, "write"):
            json.dump(doc, path)  # type: ignore[arg-type]
        else:
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
    return doc


def export_metrics_jsonl(
    metrics: MetricsRegistry | ObsData, path: str | IO[str]
) -> int:
    """Write one JSON object per metric sample; returns the row count."""
    registry = metrics.metrics if isinstance(metrics, ObsData) else metrics
    rows = registry.rows()

    def _write(fh: IO[str]) -> None:
        for row in rows:
            fh.write(json.dumps(row, sort_keys=True))
            fh.write("\n")

    if hasattr(path, "write"):
        _write(path)  # type: ignore[arg-type]
    else:
        with open(path, "w", encoding="utf-8") as fh:
            _write(fh)
    return len(rows)


def format_summary(obs: ObsData, width: int = 72) -> str:
    """Human-readable terminal summary of one instrumented run."""
    lines: list[str] = []
    meta = obs.meta
    head = " / ".join(
        str(meta[k]) for k in ("workload", "mode", "nprocs") if k in meta
    )
    lines.append(f"observability summary{': ' + head if head else ''}")

    by_cat: dict[str, tuple[int, float]] = {}
    for s in obs.spans:
        n, t = by_cat.get(s.cat, (0, 0.0))
        by_cat[s.cat] = (n + 1, t + s.duration)
    if by_cat:
        lines.append("  span time by category (virtual s, summed over ranks):")
        for cat in sorted(by_cat):
            n, t = by_cat[cat]
            lines.append(f"    {cat:<12s} {n:7d} spans  {t:12.6f} s")

    states = [i for i in obs.instants if i.cat == "state"]
    if states:
        lines.append(f"  state transitions: {len(states)}")
        first_args = states[0].args or {}
        last_args = states[-1].args or {}
        lines.append(
            f"    first {first_args.get('from')}->{first_args.get('to')}"
            f" @ {states[0].ts:.6f} s,"
            f" last {last_args.get('from')}->{last_args.get('to')}"
            f" @ {states[-1].ts:.6f} s"
        )

    faults = Counter(i.name for i in obs.instants if i.cat == "fault")
    if faults:
        lines.append("  fault instants:")
        for name in sorted(faults):
            lines.append(f"    {name:<32s} {faults[name]:14d}")

    reg = obs.metrics
    names = reg.names()
    if names:
        lines.append("  counters (totals):")
        for name in names:
            total = reg.value(name)
            if total:
                lines.append(f"    {name:<32s} {total:14.6f}")

    ranks = obs.ranks()
    if ranks:
        lines.append(f"  lanes: {len(ranks)} ranks"
                     f" ({ranks[0]}..{ranks[-1]}),"
                     f" {len(obs.spans)} spans,"
                     f" {len(obs.instants)} instants")
    if "dropped_events" in meta:
        lines.append(f"  WARNING: {meta['dropped_events']} events dropped "
                     "(recorder buffer full)")
    return "\n".join(lines)


@dataclass
class Inspection:
    """Queryable observability view of one run (see :func:`repro.api.inspect`).

    ``registry`` always exists — for uninstrumented runs it is derived from
    the run's tracer/Chameleon statistics — while ``obs`` (the event
    timeline) is present only when the run was executed with a live
    :class:`~repro.obs.instrument.Recorder`.
    """

    registry: MetricsRegistry
    obs: ObsData | None = None
    meta: dict[str, Any] = field(default_factory=dict)

    def metric(self, name: str, **labels: Any) -> float:
        """Counter total for ``name`` filtered by rank/phase/op labels."""
        return self.registry.value(name, **labels)

    def spans(self, **filters: Any) -> list[Any]:
        """Spans from the event timeline (empty without a recorder)."""
        return self.obs.spans_for(**filters) if self.obs is not None else []

    def instants(self, **filters: Any) -> list[Any]:
        """Instants from the event timeline (empty without a recorder)."""
        return self.obs.instants_for(**filters) if self.obs is not None else []

    def summary(self) -> str:
        if self.obs is not None:
            return format_summary(self.obs)
        lines = ["observability summary (metrics only; run with a Recorder "
                 "for the event timeline)"]
        for name in self.registry.names():
            total = self.registry.value(name)
            if total:
                lines.append(f"  {name:<32s} {total:14.6f}")
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.summary()
