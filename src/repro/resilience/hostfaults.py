"""Deterministic host-fault injection: kill or hang real processes.

Where :mod:`repro.faults` makes things go wrong *inside virtual time*
(crashed ranks, dropped messages), this module attacks the **host-level
machinery itself**: harness pool workers and on-disk cache entries.  A
:class:`HostFaultPlan` says which process dies or hangs — seeded and
reproducible, so the chaos sweep (``repro chaos host``) can assert that
every injected fault ends in a *recorded* retry or quarantine, never a
hang and never a wrong answer.

Delivery: :func:`install` serializes the plan into the
``REPRO_HOST_FAULTS`` environment variable, which forked **and** spawned
workers inherit; :func:`cell_hook` is called from the production code
path and is a single dict lookup when no plan is installed — zero-cost on
the happy path.  The installing process's PID is recorded so a cell fault
can never kill the coordinating process when a cell happens to execute
inline.

Cross-process attempt budgets (``attempts`` limits how many executions of
the target cell are injured — 1 models a transient kill, a large budget
models a poisoned cell) count through marker files in ``state_dir``.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import os
import random
import signal
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterator

#: Environment variable carrying the installed plan (JSON + owner PID).
ENV_HOST_FAULTS = "REPRO_HOST_FAULTS"

_UNBOUNDED = 1 << 30


class HostFaultPlanError(ValueError):
    """A host-fault plan failed validation."""


@dataclass(frozen=True)
class HostFaultPlan:
    """Everything allowed to go wrong at the *host* level in one run.

    Cell faults fire inside whichever pool worker picks the matching cell
    up — ``kill_cell`` SIGKILLs the worker (breaking the pool),
    ``hang_cell`` sleeps ``hang_s`` (tripping the cell deadline).  Cache
    faults are applied to stored entries by :func:`apply_cache_faults`.
    """

    seed: int = 0x0457
    #: digest prefix (or exact label) of the harness cell to injure
    kill_cell: str = ""
    hang_cell: str = ""
    hang_s: float = 0.0
    #: how many executions of the target cell are injured (1 = transient)
    attempts: int = _UNBOUNDED
    #: directory for cross-process attempt markers ("" = no budget)
    state_dir: str = ""
    #: cache-entry corruption mode applied by apply_cache_faults
    cache_mode: str = ""  # "", "flip" or "truncate"

    # -- introspection -----------------------------------------------------

    def is_empty(self) -> bool:
        return (
            not self.kill_cell
            and not self.hang_cell
            and not self.cache_mode
        )

    def validate(self) -> None:
        if self.hang_s < 0:
            raise HostFaultPlanError("hang_s must be non-negative")
        if self.attempts < 1:
            raise HostFaultPlanError(f"attempts={self.attempts} must be >= 1")
        if self.cache_mode not in ("", "flip", "truncate"):
            raise HostFaultPlanError(
                f"cache_mode={self.cache_mode!r} not one of '', 'flip', "
                "'truncate'"
            )
        if self.kill_cell and self.hang_cell:
            raise HostFaultPlanError(
                "kill_cell and hang_cell are mutually exclusive"
            )

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "HostFaultPlan":
        if not isinstance(data, dict):
            raise HostFaultPlanError(
                f"host-fault plan must be an object, got {type(data).__name__}"
            )
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise HostFaultPlanError(
                f"unknown host-fault-plan keys: {', '.join(sorted(unknown))}"
            )
        try:
            plan = cls(**data)
        except (TypeError, ValueError) as exc:
            raise HostFaultPlanError(
                f"malformed host-fault plan: {exc}"
            ) from exc
        plan.validate()
        return plan


# ---------------------------------------------------------------------------
# installation + discovery
# ---------------------------------------------------------------------------


def install(plan: HostFaultPlan) -> None:
    """Arm ``plan`` for this process and every worker it creates."""
    plan.validate()
    payload = plan.to_dict()
    payload["_owner"] = os.getpid()
    os.environ[ENV_HOST_FAULTS] = json.dumps(payload)


def clear() -> None:
    os.environ.pop(ENV_HOST_FAULTS, None)


@contextlib.contextmanager
def installed(plan: HostFaultPlan) -> Iterator[HostFaultPlan]:
    """Context manager: arm ``plan``, disarm on exit."""
    install(plan)
    try:
        yield plan
    finally:
        clear()


def active_plan() -> tuple[HostFaultPlan, int] | None:
    """The installed (plan, owner-pid), or None.  Tolerates garbage in the
    environment variable (treated as no plan)."""
    raw = os.environ.get(ENV_HOST_FAULTS)
    if not raw:
        return None
    try:
        data = json.loads(raw)
        owner = int(data.pop("_owner", -1))
        return HostFaultPlan.from_dict(data), owner
    except (ValueError, HostFaultPlanError):
        return None


# ---------------------------------------------------------------------------
# injection hook (called from production code; a no-op unless armed)
# ---------------------------------------------------------------------------


def _matches(plan_target: str, digest: str, label: str) -> bool:
    return bool(plan_target) and (
        digest.startswith(plan_target) or plan_target == label
    )


def _consume_attempt(plan: HostFaultPlan, digest: str) -> bool:
    """True when this execution is within the plan's injury budget."""
    if plan.attempts >= _UNBOUNDED or not plan.state_dir:
        return True
    marker = Path(plan.state_dir) / f"attempts-{digest[:16]}"
    try:
        used = int(marker.read_text())
    except (OSError, ValueError):
        used = 0
    if used >= plan.attempts:
        return False
    try:
        marker.parent.mkdir(parents=True, exist_ok=True)
        marker.write_text(str(used + 1))
    except OSError:
        pass
    return True


def cell_hook(digest: str, label: str) -> None:
    """Called by pool workers right before executing a harness cell."""
    if ENV_HOST_FAULTS not in os.environ:
        return
    active = active_plan()
    if active is None:
        return
    plan, owner = active
    if os.getpid() == owner:
        return  # inline execution: never injure the coordinating process
    if _matches(plan.kill_cell, digest, label):
        if _consume_attempt(plan, digest):
            os.kill(os.getpid(), signal.SIGKILL)
    elif _matches(plan.hang_cell, digest, label) and plan.hang_s > 0:
        if _consume_attempt(plan, digest):
            time.sleep(plan.hang_s)


# ---------------------------------------------------------------------------
# cache-entry corruption
# ---------------------------------------------------------------------------


def apply_cache_faults(plan: HostFaultPlan, cache,
                       digests: list[str] | None = None) -> list[str]:
    """Corrupt or truncate stored cache entries per ``plan.cache_mode``.

    Targets the entries for ``digests`` (default: every entry of the
    cache's current generation).  ``flip`` inverts one seeded byte of the
    entry file; ``truncate`` cuts it in half — both are caught by the
    cache's checksum verification and read as observable misses.  Returns
    the paths that were damaged.
    """
    if not plan.cache_mode:
        return []
    if digests is not None:
        paths = [cache.path_for(d) for d in digests]
    else:
        paths = cache.entries()
    damaged: list[str] = []
    for path in paths:
        try:
            blob = bytearray(path.read_bytes())
        except OSError:
            continue
        if not blob:
            continue
        if plan.cache_mode == "flip":
            offset = random.Random(
                f"{plan.seed}:{path.name}"
            ).randrange(len(blob))
            blob[offset] ^= 0xFF
            path.write_bytes(bytes(blob))
        else:  # truncate
            path.write_bytes(bytes(blob[: len(blob) // 2]))
        damaged.append(str(path))
    return damaged
