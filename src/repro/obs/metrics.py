"""MetricsRegistry: counters keyed on (rank, phase, op).

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

A counter holds only what no span, instant or result field records:
durations, per-message byte counts and fault occurrences are read off the
recorder's spans and instants (which carry virtual times) when a finished
run is analysed, never stored a second time here.

Everything here is deterministic, pickle-friendly and JSON-serializable;
no third-party dependency is involved.
"""

from __future__ import annotations

from typing import Any

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


class MetricsRegistry:
    """Counters with (rank, phase, op) labels."""

    def __init__(self) -> None:
        self._counters: dict[MetricKey, float] = {}

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
        """Whether any counter sample exists under ``name``."""
        return any(k[0] == name for k in self._counters)

    def names(self) -> list[str]:
        """Sorted distinct metric names."""
        return sorted({k[0] for k in self._counters})

    def labels(self, name: str) -> list[MetricKey]:
        """Every counter key recorded under ``name`` (sorted)."""
        return sorted(
            (k for k in self._counters if k[0] == name),
            key=lambda k: (k[1] if k[1] is not None else -1, k[2] or "", k[3] or ""),
        )

    # -- combination -------------------------------------------------------

    def merge(self, other: "MetricsRegistry") -> "MetricsRegistry":
        """Fold ``other`` into this registry (counters add).  Returns
        ``self``."""
        for k, v in other._counters.items():
            self._counters[k] = self._counters.get(k, 0.0) + v
        return self

    # -- serialization -----------------------------------------------------

    def rows(self) -> list[dict[str, Any]]:
        """Flat, JSONL-ready dict rows, one per counter key."""
        out = []
        for key in sorted(self._counters, key=repr):
            name, rank, phase, op = key
            row: dict[str, Any] = {"kind": "counter", "name": name}
            if rank is not None:
                row["rank"] = rank
            if phase is not None:
                row["phase"] = phase
            if op is not None:
                row["op"] = op
            row["value"] = self._counters[key]
            out.append(row)
        return out

    def to_dict(self) -> dict[str, Any]:
        return {
            "counters": [
                {"key": list(k), "value": v} for k, v in sorted(
                    self._counters.items(), key=lambda kv: repr(kv[0]))
            ],
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "MetricsRegistry":
        reg = cls()
        for row in data.get("counters", []):
            reg._counters[tuple(row["key"])] = row["value"]  # type: ignore[index]
        return reg

    def __len__(self) -> int:
        return len(self._counters)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<MetricsRegistry counters={len(self._counters)}>"


class NullMetrics(MetricsRegistry):
    """Write-discarding registry backing the no-op Instrument."""

    def count(self, *args: Any, **kwargs: Any) -> None:  # noqa: D102
        pass


#: Shared sink for the no-op instrument: accepts writes, stores nothing.
NULL_METRICS = NullMetrics()
