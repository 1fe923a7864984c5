"""repro.obs — the observability subsystem.

One collection path for everything a run can tell you about itself:

* :mod:`repro.obs.instrument` — the :class:`Instrument` event bus (spans +
  instants in virtual time) with a zero-cost no-op default and the
  collecting :class:`Recorder`;
* :mod:`repro.obs.metrics`    — the :class:`MetricsRegistry` of counters
  keyed on ``(rank, phase, op)``, for the facts no span or instant
  records;
* :mod:`repro.obs.export`     — Chrome ``trace_event`` JSON (opens directly
  in ui.perfetto.dev), flat metrics JSONL and terminal summaries;
* :mod:`repro.obs.schema`     — dependency-free validation of exporter
  output against the checked-in JSON schemas.

Entry points are re-exported from :mod:`repro.api`; prefer
``repro.run(..., instrument=Recorder())`` + ``repro.inspect(result)`` over
deep imports.
"""

from .export import (
    Inspection,
    chrome_trace_events,
    export_chrome_trace,
    export_metrics_jsonl,
    format_summary,
)
from .instrument import (
    NULL_INSTRUMENT,
    Instrument,
    InstantEvent,
    ObsData,
    Recorder,
    SpanEvent,
)
from .metrics import MetricsRegistry

__all__ = [
    "Inspection",
    "InstantEvent",
    "Instrument",
    "MetricsRegistry",
    "NULL_INSTRUMENT",
    "ObsData",
    "Recorder",
    "SpanEvent",
    "chrome_trace_events",
    "export_chrome_trace",
    "export_metrics_jsonl",
    "format_summary",
]
