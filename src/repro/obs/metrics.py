"""MetricsRegistry: typed counters/histograms keyed on (rank, phase, op).

One registry replaces the ad-hoc ``tracer_stats`` / ``chameleon_stats``
dict-summing the harness used to do: every metric is addressed by a *name*
(a ``subsystem/quantity`` path such as ``chameleon/vote_time``) plus three
optional labels —

* ``rank``  — the simulated MPI rank the sample belongs to,
* ``phase`` — the AT/C/L/F marker state (or any workload phase string),
* ``op``    — the operation (an MPI call name, a cell label, ...).

Aggregation is a query-time concern: :meth:`MetricsRegistry.value` sums
every sample matching the labels you *did* specify, so "total vote time",
"vote time on rank 3" and "markers in state L" are all one call.

Time resolution is not kept here: it belongs to the analysis of a
finished run (the recorder's spans and instants carry virtual times).

Everything here is deterministic, pickle-friendly and JSON-serializable;
no third-party dependency is involved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Iterator

#: A fully-qualified metric key: (name, rank, phase, op).
MetricKey = tuple[str, "int | None", "str | None", "str | None"]


def _key(
    name: str, rank: int | None, phase: str | None, op: str | None
) -> MetricKey:
    return (name, rank, phase, op)


def _matches(
    key: MetricKey, name: str, rank: int | None, phase: str | None, op: str | None
) -> bool:
    if key[0] != name:
        return False
    if rank is not None and key[1] != rank:
        return False
    if phase is not None and key[2] != phase:
        return False
    if op is not None and key[3] != op:
        return False
    return True


@dataclass
class Histogram:
    """Power-of-two bucketed distribution of non-negative samples."""

    count: int = 0
    total: float = 0.0
    min: float = math.inf
    max: float = -math.inf
    #: bucket exponent -> sample count; bucket b holds values in
    #: (2**(b-1), 2**b] (b=None collects zeros)
    buckets: dict[int, int] = field(default_factory=dict)

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        self.min = min(self.min, value)
        self.max = max(self.max, value)
        b = 0 if value <= 0 else math.ceil(math.log2(value)) if value > 0 else 0
        self.buckets[b] = self.buckets.get(b, 0) + 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def merged(self, other: "Histogram") -> "Histogram":
        out = Histogram(
            count=self.count + other.count,
            total=self.total + other.total,
            min=min(self.min, other.min),
            max=max(self.max, other.max),
            buckets=dict(self.buckets),
        )
        for b, n in other.buckets.items():
            out.buckets[b] = out.buckets.get(b, 0) + n
        return out

    def as_dict(self) -> dict[str, Any]:
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.min if self.count else None,
            "max": self.max if self.count else None,
            "mean": self.mean,
            "buckets": {str(b): n for b, n in sorted(self.buckets.items())},
        }


class MetricsRegistry:
    """Counters and histograms with (rank, phase, op) labels."""

    def __init__(self) -> None:
        self._counters: dict[MetricKey, float] = {}
        self._hists: dict[MetricKey, Histogram] = {}

    # -- writing -----------------------------------------------------------

    def count(
        self,
        name: str,
        value: float = 1.0,
        *,
        rank: int | None = None,
        phase: str | None = None,
        op: str | None = None,
    ) -> None:
        """Add ``value`` to a counter."""
        key = _key(name, rank, phase, op)
        self._counters[key] = self._counters.get(key, 0.0) + value

    def observe(
        self,
        name: str,
        value: float,
        *,
        rank: int | None = None,
        phase: str | None = None,
        op: str | None = None,
    ) -> None:
        """Record one histogram sample."""
        key = _key(name, rank, phase, op)
        hist = self._hists.get(key)
        if hist is None:
            hist = self._hists[key] = Histogram()
        hist.observe(value)

    # -- querying ----------------------------------------------------------

    def value(
        self,
        name: str,
        *,
        rank: int | None = None,
        phase: str | None = None,
        op: str | None = None,
    ) -> float:
        """Sum of every counter sample matching the given labels.

        Unspecified labels are wildcards, so ``value("p2p/bytes")`` is the
        global total and ``value("p2p/bytes", rank=3)`` rank 3's share.
        """
        return sum(
            v
            for k, v in self._counters.items()
            if _matches(k, name, rank, phase, op)
        )

    def has(self, name: str) -> bool:
        """Whether any counter/histogram sample exists under ``name``."""
        return any(
            k[0] == name for store in (self._counters, self._hists)
            for k in store
        )

    def names(self) -> list[str]:
        """Sorted distinct metric names across all stores."""
        out = {k[0] for k in self._counters}
        out.update(k[0] for k in self._hists)
        return sorted(out)

    def labels(self, name: str) -> list[MetricKey]:
        """Every counter key recorded under ``name`` (sorted)."""
        return sorted(
            (k for k in self._counters if k[0] == name),
            key=lambda k: (k[1] if k[1] is not None else -1, k[2] or "", k[3] or ""),
        )

    def histogram(
        self,
        name: str,
        *,
        rank: int | None = None,
        phase: str | None = None,
        op: str | None = None,
    ) -> Histogram:
        """Merged histogram over every key matching the labels."""
        out = Histogram()
        for k, h in self._hists.items():
            if _matches(k, name, rank, phase, op):
                out = out.merged(h)
        return out

    # -- combination -------------------------------------------------------

    def merge(self, other: "MetricsRegistry") -> "MetricsRegistry":
        """Fold ``other`` into this registry (counters add, histograms
        combine).  Returns ``self``."""
        for k, v in other._counters.items():
            self._counters[k] = self._counters.get(k, 0.0) + v
        for k, h in other._hists.items():
            mine = self._hists.get(k)
            self._hists[k] = h.merged(mine) if mine is not None else h.merged(Histogram())
        return self

    # -- serialization -----------------------------------------------------

    def _iter_rows(self) -> Iterator[dict[str, Any]]:
        def base(kind: str, key: MetricKey) -> dict[str, Any]:
            name, rank, phase, op = key
            row: dict[str, Any] = {"kind": kind, "name": name}
            if rank is not None:
                row["rank"] = rank
            if phase is not None:
                row["phase"] = phase
            if op is not None:
                row["op"] = op
            return row

        for key in sorted(self._counters, key=repr):
            row = base("counter", key)
            row["value"] = self._counters[key]
            yield row
        for key in sorted(self._hists, key=repr):
            row = base("histogram", key)
            row.update(self._hists[key].as_dict())
            yield row

    def rows(self) -> list[dict[str, Any]]:
        """Flat, JSONL-ready dict rows for every metric sample."""
        return list(self._iter_rows())

    def to_dict(self) -> dict[str, Any]:
        return {
            "counters": [
                {"key": list(k), "value": v} for k, v in sorted(
                    self._counters.items(), key=lambda kv: repr(kv[0]))
            ],
            "histograms": [
                {"key": list(k), **h.as_dict()} for k, h in sorted(
                    self._hists.items(), key=lambda kv: repr(kv[0]))
            ],
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "MetricsRegistry":
        reg = cls()
        for row in data.get("counters", []):
            reg._counters[tuple(row["key"])] = row["value"]  # type: ignore[index]
        for row in data.get("histograms", []):
            hist = Histogram(
                count=row["count"],
                total=row["sum"],
                min=row["min"] if row["min"] is not None else math.inf,
                max=row["max"] if row["max"] is not None else -math.inf,
                buckets={int(b): n for b, n in row["buckets"].items()},
            )
            reg._hists[tuple(row["key"])] = hist  # type: ignore[index]
        return reg

    def __len__(self) -> int:
        return len(self._counters) + len(self._hists)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<MetricsRegistry counters={len(self._counters)} "
            f"hists={len(self._hists)}>"
        )


class NullMetrics(MetricsRegistry):
    """Write-discarding registry backing the no-op Instrument."""

    def count(self, *args: Any, **kwargs: Any) -> None:  # noqa: D102
        pass

    def observe(self, *args: Any, **kwargs: Any) -> None:  # noqa: D102
        pass


#: Shared sink for the no-op instrument: accepts writes, stores nothing.
NULL_METRICS = NullMetrics()
