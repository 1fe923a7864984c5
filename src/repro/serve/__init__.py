"""repro.serve — streaming trace-ingestion service with online clustering.

A long-running HTTP server (stdlib ``http.server``) behind ``repro serve``:
clients create jobs, stream step events as NDJSON chunks (or upload a
whole stream at creation), and the server feeds each tenant job's events
into the Chameleon machinery *incrementally* — clustering state advances
as chunks arrive, not at job close.  Every job, streamed or uploaded,
simulates in its own worker process; the shared
:class:`~repro.harness.engine.ExperimentEngine`'s content-addressed run
cache is the dedup layer (a poisoned job is quarantined and reported
``failed``; its siblings finish).

The core correctness claim is the **streamed-vs-batch bit-identity
oracle**: a job fed chunk-by-chunk produces the exact clustering output
(`ClusterSet`, lead traces, downloadable trace bytes) of the equivalent
batch ``repro run --workload stream``.  See docs/SERVING.md.

This module keeps imports lazy so that dependency-light consumers (the
``stream`` workload, the protocol helpers) never pull in the engine or
the HTTP app.
"""

from __future__ import annotations

from typing import Any

__all__ = [
    "JobError",
    "JobRegistry",
    "ServeApp",
    "ServeClient",
    "ServeConfig",
    "ServerThread",
    "parse_ndjson_events",
]

_LAZY = {
    "JobError": ".jobs",
    "JobRegistry": ".jobs",
    "ServeApp": ".app",
    "ServeConfig": ".jobs",
    "ServerThread": ".app",
    "ServeClient": ".client",
    "parse_ndjson_events": ".protocol",
}


def __getattr__(name: str) -> Any:
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module, __name__), name)
