"""Wire protocol of the ingestion service: NDJSON events over HTTP.

One chunk POSTed to ``/v1/jobs/{id}/events`` is newline-delimited JSON:
each non-empty line one *step event*, validated twice —

1. structurally against the checked-in ``schemas/stream_events.schema.json``
   (the same dependency-free validator CI uses for exporter output), and
2. semantically by :func:`repro.workloads.stream.normalize_step`, which
   fills defaults and rejects unknown fields/out-of-range values.

Chunk framing is irrelevant to the result: a client may split its stream
at any line boundaries, and the normalized steps are byte-identical to
the batch spelling (the bit-identity oracle rests on this).
"""

from __future__ import annotations

import json
from functools import lru_cache
from pathlib import Path
from typing import Any

from ..obs.schema import validate as schema_validate
from ..workloads.stream import (
    StreamSpecError,
    canonical_steps_json,
    normalize_step,
    normalize_steps,
)

__all__ = [
    "ProtocolError",
    "canonical_steps_json",
    "event_schema",
    "normalize_step",
    "normalize_steps",
    "parse_ndjson_events",
]

#: Where the checked-in schemas live relative to this file (repo layout:
#: ``src/repro/serve/protocol.py`` -> ``schemas/``).
_SCHEMA_PATH = (
    Path(__file__).resolve().parents[3] / "schemas"
    / "stream_events.schema.json"
)


class ProtocolError(ValueError):
    """A request body violates the ingestion protocol (HTTP 400)."""


@lru_cache(maxsize=1)
def event_schema() -> dict[str, Any] | None:
    """The stream-event JSON schema, or ``None`` when the checked-out
    tree doesn't carry ``schemas/`` (installed-package case) — code-level
    normalization still validates everything the schema does and more."""
    try:
        with _SCHEMA_PATH.open(encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError):
        return None


def parse_ndjson_events(body: bytes) -> list[dict]:
    """Parse one NDJSON chunk into a list of *normalized* step events.

    Raises :class:`ProtocolError` naming the offending line on any
    decode, schema, or vocabulary violation — a rejected chunk is atomic
    (no partial append).
    """
    try:
        text = body.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ProtocolError(f"chunk is not valid UTF-8: {exc}") from None
    schema = event_schema()
    steps: list[dict] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            event = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ProtocolError(f"line {lineno}: invalid JSON: {exc}") from None
        if schema is not None:
            errors = schema_validate(event, schema)
            if errors:
                raise ProtocolError(
                    f"line {lineno}: schema violation: {errors[0]}"
                )
        try:
            steps.append(normalize_step(event))
        except StreamSpecError as exc:
            raise ProtocolError(f"line {lineno}: {exc}") from None
    return steps


def encode_ndjson(steps: list[dict]) -> bytes:
    """Render step events as an NDJSON chunk (client-side helper)."""
    return b"".join(
        json.dumps(step, sort_keys=True).encode("utf-8") + b"\n"
        for step in steps
    )
