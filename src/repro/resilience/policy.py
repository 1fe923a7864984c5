"""Retry, deadline and quarantine policy for the experiment harness.

The harness survives three kinds of *host* misbehaviour (distinct from the
virtual-time faults of :mod:`repro.faults`, which live inside the
simulation):

* **worker deaths** — the worker process running a cell dies (OOM kill,
  signal, interpreter abort);
* **stuck cells** — a cell exceeds its wall-clock deadline and would
  otherwise occupy a worker forever;
* **poisoned cells** — one cell deterministically kills every worker it
  is handed to, so naive retry never ends.

The engine runs one cell per single-worker lane at a time, so each of the
three is one known cell's.  :class:`RetryPolicy` bounds them: capped
exponential backoff before a cell is queued again, a per-cell wall-clock
deadline, and a per-cell attempt budget after which the cell is
**quarantined** — removed from the batch so its siblings can finish.
Quarantine surfaces as :class:`QuarantineError`, which *carries the
completed results* instead of raising them away; the CLI maps it to exit
code 6.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class RetryPolicy:
    """Bounds on the harness's host-fault recovery.

    Args:
        max_attempts: worker deaths (crashes or deadline kills) a cell may
            cost before it is quarantined.
        cell_deadline: wall-clock seconds one cell may take, measured from
            its submission to an idle lane; ``None`` disables deadlines.
        backoff_base / backoff_cap: exponential backoff before a cell is
            queued again, ``min(cap, base * 2**(attempt-1))`` seconds.
    """

    max_attempts: int = 3
    cell_deadline: float | None = None
    backoff_base: float = 0.1
    backoff_cap: float = 2.0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.cell_deadline is not None and not (
            math.isfinite(self.cell_deadline) and self.cell_deadline > 0
        ):
            raise ValueError(
                "cell_deadline must be positive and finite (or None)"
            )
        if self.backoff_base < 0 or self.backoff_cap < 0:
            raise ValueError("backoff must be non-negative")

    def backoff(self, attempt: int) -> float:
        """Capped exponential backoff for ``attempt`` (1-based)."""
        return min(
            self.backoff_cap,
            self.backoff_base * (2.0 ** max(0, attempt - 1)),
        )


@dataclass(frozen=True)
class QuarantinedCell:
    """One cell the harness gave up on, and why."""

    label: str
    digest: str
    attempts: int
    reason: str  # "pool-crash" or "deadline"


class QuarantineError(RuntimeError):
    """One or more cells were quarantined; the rest of the batch finished.

    ``results`` is the positional result list of the batch with ``None``
    at every quarantined cell's indices — completed work is preserved, not
    raised away.  ``quarantined`` records each abandoned cell's label,
    digest, attempt count and reason.  The CLI maps this to exit code 6.
    """

    def __init__(self, quarantined: list[QuarantinedCell], results: list):
        self.quarantined = list(quarantined)
        self.results = results
        done = sum(1 for r in results if r is not None)
        detail = "; ".join(
            f"{q.label} ({q.reason} x{q.attempts})" for q in self.quarantined
        )
        super().__init__(
            f"{len(self.quarantined)} cell(s) quarantined after repeated "
            f"host faults ({done}/{len(results)} results completed): "
            f"{detail}"
        )
