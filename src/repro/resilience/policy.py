"""Retry, deadline and quarantine policy for the experiment harness.

The harness survives three kinds of *host* misbehaviour (distinct from the
virtual-time faults of :mod:`repro.faults`, which live inside the
simulation):

* **worker-pool crashes** — a ``ProcessPoolExecutor`` worker dies (OOM
  kill, signal, interpreter abort) and takes the whole pool with it;
* **stuck cells** — a cell exceeds its wall-clock deadline and would
  otherwise occupy a worker forever;
* **poisoned cells** — one cell deterministically kills every pool it is
  submitted to, so naive retry loses the whole batch.

:class:`RetryPolicy` bounds all three: capped, seeded, jittered backoff
between pool rebuilds, a per-cell wall-clock deadline, and a per-cell
attempt budget after which the cell is **quarantined** — removed from the
batch so its siblings can finish.  Quarantine surfaces as
:class:`QuarantineError`, which *carries the completed results* instead of
raising them away; the CLI maps it to exit code 6.

Everything here is deterministic: the backoff jitter is drawn from
``(seed, attempt)``, never from wall time, so two identical failure
sequences sleep identically.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass

#: Environment variable supplying the default per-cell wall-clock deadline
#: in seconds (unset or non-positive = no deadline).
ENV_CELL_DEADLINE = "REPRO_CELL_DEADLINE"

#: Default idle timeout for streamed serve jobs (seconds).
DEFAULT_JOB_IDLE_TIMEOUT = 300.0


@dataclass(frozen=True)
class RetryPolicy:
    """Bounds on the harness's host-fault recovery.

    Args:
        max_attempts: attempts (crashes or deadline kills attributed to a
            cell) before the cell is quarantined.
        max_pool_crashes: fan-out pool rebuilds before the engine gives up
            entirely and re-raises ``BrokenProcessPool``.
        isolate_after: fan-out pool crashes before the engine switches to
            *isolation mode* — one cell per single-worker pool — so the
            cell that keeps killing the pool can be identified precisely
            instead of blaming the whole batch.
        cell_deadline: wall-clock seconds one cell may *run* (measured
            from when its future starts executing, not from submission);
            ``None`` disables deadlines.
        backoff_base / backoff_cap: exponential backoff between retries,
            ``min(cap, base * 2**(attempt-1))`` seconds.
        backoff_jitter: extra seeded multiplicative jitter in
            ``[0, jitter]`` on top of the capped backoff (decorrelates a
            thrashing host without breaking determinism).
        seed: drives the jitter draws; same (seed, attempt) = same sleep.
        poll_interval: how often the engine polls outstanding futures for
            deadline enforcement and crash attribution.
        job_idle_timeout: wall-clock seconds a *streamed* serve job may
            wait for its next event chunk before it is failed as
            abandoned (``repro serve``; streamed jobs run in threads, so
            the cell deadline's kill path cannot apply to them).
            ``None`` disables the timeout.
    """

    max_attempts: int = 3
    max_pool_crashes: int = 8
    isolate_after: int = 2
    cell_deadline: float | None = None
    backoff_base: float = 0.1
    backoff_cap: float = 2.0
    backoff_jitter: float = 0.5
    seed: int = 0xB0FF
    poll_interval: float = 0.05
    job_idle_timeout: float | None = DEFAULT_JOB_IDLE_TIMEOUT

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.max_pool_crashes < 0:
            raise ValueError("max_pool_crashes must be >= 0")
        if self.isolate_after < 1:
            raise ValueError("isolate_after must be >= 1")
        if self.cell_deadline is not None and self.cell_deadline <= 0:
            raise ValueError("cell_deadline must be positive (or None)")
        if self.backoff_base < 0 or self.backoff_cap < 0:
            raise ValueError("backoff must be non-negative")
        if self.backoff_jitter < 0:
            raise ValueError("backoff_jitter must be non-negative")
        if self.poll_interval <= 0:
            raise ValueError("poll_interval must be positive")
        if self.job_idle_timeout is not None and self.job_idle_timeout <= 0:
            raise ValueError("job_idle_timeout must be positive (or None)")

    def backoff(self, attempt: int) -> float:
        """Capped exponential backoff with seeded jitter for ``attempt``
        (1-based).  Deterministic: no wall-clock or global-RNG input."""
        base = min(
            self.backoff_cap,
            self.backoff_base * (2.0 ** max(0, attempt - 1)),
        )
        u = random.Random(f"{self.seed}:{attempt}").random()
        return base * (1.0 + self.backoff_jitter * u)

    @classmethod
    def from_env(cls) -> "RetryPolicy":
        """The default policy, with ``$REPRO_CELL_DEADLINE`` applied."""
        raw = os.environ.get(ENV_CELL_DEADLINE, "")
        try:
            deadline: float | None = float(raw)
        except ValueError:
            deadline = None
        if deadline is not None and deadline <= 0:
            deadline = None
        return cls(cell_deadline=deadline)


@dataclass(frozen=True)
class QuarantinedCell:
    """One cell the harness gave up on, and why."""

    label: str
    digest: str
    attempts: int
    reason: str  # "pool-crash", "deadline", or "cell-error: <exception>"


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
