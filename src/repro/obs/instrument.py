"""The Instrument event bus: spans, instants and metrics from a live run.

An :class:`Instrument` is handed to the simulated runtime and observed by
every layer of a run — the ``simmpi`` scheduler (task run/park/wake), the
point-to-point and collective machinery, the ScalaTrace/Chameleon tracers
(marker decisions, votes, clustering, state transitions) and the harness
engine (cell scheduling, cache hits).  All timestamps are **virtual
seconds** of the rank the event belongs to, so exported timelines show the
simulation's own clock, not wall time.

The base class is the **zero-cost no-op**: every hook is a ``pass`` and
``enabled`` is ``False``, so emission sites guard with one attribute check
and skip even the argument construction.  A run without a live instrument
is therefore *bit-identical* — same virtual clocks, same trace — to a run
on a build without instrumentation at all (the test-suite asserts this).

:class:`Recorder` is the collecting implementation; :meth:`Recorder.snapshot`
freezes what it saw into a serializable :class:`ObsData` that the exporters
(:mod:`repro.obs.export`) turn into Chrome traces, metrics JSONL and
terminal summaries.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from .metrics import NULL_METRICS, MetricsRegistry


@dataclass(frozen=True)
class SpanEvent:
    """A closed interval of virtual time on one rank's lane."""

    rank: int
    name: str
    cat: str
    start: float
    end: float
    args: dict[str, Any] | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "rank": self.rank,
            "name": self.name,
            "cat": self.cat,
            "start": self.start,
            "end": self.end,
        }
        if self.args:
            out["args"] = self.args
        return out


@dataclass(frozen=True)
class InstantEvent:
    """A point event (marker decision, state transition, wake, ...)."""

    rank: int
    name: str
    cat: str
    ts: float
    args: dict[str, Any] | None = None

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "rank": self.rank,
            "name": self.name,
            "cat": self.cat,
            "ts": self.ts,
        }
        if self.args:
            out["args"] = self.args
        return out


class Instrument:
    """Event-bus API; this base class is the zero-cost no-op default.

    Emission sites hold a reference to the run's instrument and guard every
    hook call with ``if ins.enabled:`` — with the default instrument that
    is the *entire* cost of instrumentation, and no hook ever advances a
    virtual clock, so enabling a recorder cannot perturb the simulation.
    """

    #: emission sites skip all event construction when this is False
    enabled: bool = False
    #: metric sink; the no-op default discards every write
    metrics: MetricsRegistry = NULL_METRICS

    def span(
        self,
        rank: int,
        name: str,
        cat: str,
        start: float,
        end: float,
        args: dict[str, Any] | None = None,
    ) -> None:
        """Record a closed virtual-time interval on ``rank``'s lane."""

    def instant(
        self,
        rank: int,
        name: str,
        cat: str,
        ts: float,
        args: dict[str, Any] | None = None,
    ) -> None:
        """Record a point event on ``rank``'s lane."""


#: The process-wide no-op instance every run uses unless told otherwise.
NULL_INSTRUMENT = Instrument()


@dataclass
class ObsData:
    """Everything one instrumented run produced, in serializable form."""

    spans: list[SpanEvent] = field(default_factory=list)
    instants: list[InstantEvent] = field(default_factory=list)
    metrics: MetricsRegistry = field(default_factory=MetricsRegistry)
    meta: dict[str, Any] = field(default_factory=dict)

    def ranks(self) -> list[int]:
        """Sorted distinct ranks with at least one event (lanes)."""
        seen = {s.rank for s in self.spans}
        seen.update(i.rank for i in self.instants)
        return sorted(seen)

    def spans_for(
        self, rank: int | None = None, cat: str | None = None,
        name: str | None = None,
    ) -> list[SpanEvent]:
        """Spans filtered by any combination of rank / category / name."""
        return [
            s
            for s in self.spans
            if (rank is None or s.rank == rank)
            and (cat is None or s.cat == cat)
            and (name is None or s.name == name)
        ]

    def instants_for(
        self, rank: int | None = None, cat: str | None = None,
        name: str | None = None,
    ) -> list[InstantEvent]:
        """Instants filtered by any combination of rank / category / name."""
        return [
            i
            for i in self.instants
            if (rank is None or i.rank == rank)
            and (cat is None or i.cat == cat)
            and (name is None or i.name == name)
        ]

    def to_dict(self) -> dict[str, Any]:
        return {
            "version": 1,
            "meta": self.meta,
            "spans": [s.to_dict() for s in self.spans],
            "instants": [i.to_dict() for i in self.instants],
            "metrics": self.metrics.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "ObsData":
        return cls(
            spans=[
                SpanEvent(
                    rank=s["rank"], name=s["name"], cat=s["cat"],
                    start=s["start"], end=s["end"], args=s.get("args"),
                )
                for s in data.get("spans", [])
            ],
            instants=[
                InstantEvent(
                    rank=i["rank"], name=i["name"], cat=i["cat"],
                    ts=i["ts"], args=i.get("args"),
                )
                for i in data.get("instants", [])
            ],
            metrics=MetricsRegistry.from_dict(data.get("metrics", {})),
            meta=dict(data.get("meta", {})),
        )


class Recorder(Instrument):
    """Collecting instrument: buffers spans/instants and owns a registry.

    Args:
        max_events: safety valve — beyond this many buffered events new
            spans/instants are dropped (counted in ``dropped``) so a
            pathological run cannot exhaust memory.

    A recorder records what ran and picks no strategy: a collective the
    closed form resolved is one ``coll`` span per rank, one the
    message-level interpreter drove (``SimConfig(gates="simulated")``)
    has its constituent p2p events inside that span.  Virtual time is
    bit-identical either way.
    """

    enabled = True

    def __init__(self, max_events: int = 2_000_000):
        self.spans: list[SpanEvent] = []
        self.instants: list[InstantEvent] = []
        self.metrics = MetricsRegistry()
        self.max_events = max_events
        self.dropped = 0

    def _room(self) -> bool:
        if len(self.spans) + len(self.instants) >= self.max_events:
            self.dropped += 1
            return False
        return True

    def span(
        self,
        rank: int,
        name: str,
        cat: str,
        start: float,
        end: float,
        args: dict[str, Any] | None = None,
    ) -> None:
        if self._room():
            self.spans.append(SpanEvent(rank, name, cat, start, end, args))

    def instant(
        self,
        rank: int,
        name: str,
        cat: str,
        ts: float,
        args: dict[str, Any] | None = None,
    ) -> None:
        if self._room():
            self.instants.append(InstantEvent(rank, name, cat, ts, args))

    def snapshot(self, meta: dict[str, Any] | None = None) -> ObsData:
        """Freeze everything recorded so far into an :class:`ObsData`."""
        data_meta = dict(meta or {})
        if self.dropped:
            data_meta["dropped_events"] = self.dropped
        return ObsData(
            spans=list(self.spans),
            instants=list(self.instants),
            metrics=MetricsRegistry().merge(self.metrics),
            meta=data_meta,
        )

    def clear(self) -> None:
        """Drop buffered events and metrics (reuse between runs)."""
        self.spans.clear()
        self.instants.clear()
        self.metrics = MetricsRegistry()
        self.dropped = 0
