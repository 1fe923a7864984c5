"""Seeded fault injection for the deterministic runtime.

The :class:`FaultInjector` turns a declarative
:class:`~repro.faults.plan.FaultPlan` into concrete decisions the engine and
communication layers consult at well-defined points.  Two properties are
non-negotiable:

* **No-op guarantee** — the null injector (and any injector built from an
  empty plan) reports ``active = False``; every fault hook in the runtime is
  gated behind that flag (the same pattern as the obs Instrument's
  ``enabled``), so fault support costs one attribute check and leaves
  virtual time bit-identical.

* **Determinism** — probabilistic draws never touch global RNG state.  Each
  draw hashes a stable string key (seed, fault kind, endpoints, message
  ordinal) with BLAKE2b and maps the digest to a uniform float.  Draws are
  therefore order-independent and platform-stable: the same (seed, plan)
  yields byte-identical runs, which the tests and the CI chaos job assert.

Faulted operations never raise inside victim ranks.  A payload that cannot
be produced (message permanently lost, sender crashed) is replaced by the
:data:`LOST` sentinel, which flows through collectives as a *hole*:
reductions skip it, broadcasts propagate it, and the tracer treats it as a
missing vote.
"""

from __future__ import annotations

import hashlib
from typing import TYPE_CHECKING

from .plan import FaultPlan

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..obs.instrument import Instrument


class _Lost:
    """Singleton sentinel for a payload destroyed by a fault.

    Collectives treat it as a hole (reduce/gather skip it, bcast forwards
    it); application code that only moves payloads around simply carries it.
    Pickles to the module-level singleton so identity checks survive
    process boundaries.
    """

    _instance: "_Lost | None" = None

    def __new__(cls) -> "_Lost":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "LOST"

    def __bool__(self) -> bool:
        return False

    def __reduce__(self):
        return (_Lost, ())


#: The hole left behind by a fault (lost message, dead sender).
LOST = _Lost()


def is_lost(value: object) -> bool:
    """True when ``value`` is the :data:`LOST` hole sentinel."""
    return value is LOST


_U64 = float(1 << 64)


class FaultInjector:
    """Runtime oracle answering "does a fault hit here?" deterministically.

    One injector is shared by the engine and every communicator of a run.
    It also tracks the set of crashed ranks (``failed``) — the simulation's
    perfect failure detector, standing in for the agreement protocol a real
    fault-tolerant MPI (ULFM shrink) would run.
    """

    def __init__(self, plan: FaultPlan) -> None:
        plan.validate()
        self.plan = plan
        #: fault hooks are dead code while this is False
        self.active = not plan.is_empty()
        #: world ranks parked as FAILED by the engine
        self.failed: set[int] = set()
        self._crash_times = {c.rank: c.time for c in plan.crashes}
        self._links = {
            (ln.src, ln.dest): (ln.latency_factor, ln.bandwidth_factor)
            for ln in plan.links
        }
        self._compute = {c.rank: c for c in plan.compute}
        # Counters surfaced in chaos reports / obs metrics.
        self.injected = {
            "crash": 0, "drop": 0, "lost": 0, "dup": 0, "delay": 0,
            "timeout": 0, "compute": 0,
        }

    # -- seeded draws ------------------------------------------------------

    def _draw(self, key: str) -> float:
        """Uniform float in [0, 1) from a stable string key."""
        h = hashlib.blake2b(
            f"{self.plan.seed}:{key}".encode("ascii"), digest_size=8
        )
        return int.from_bytes(h.digest(), "big") / _U64

    # -- crashes -----------------------------------------------------------

    def crash_due(self, rank: int, clock: float) -> bool:
        """Should ``rank`` crash now?  Checked at scheduling points."""
        t = self._crash_times.get(rank)
        return t is not None and rank not in self.failed and clock >= t

    def crash_time(self, rank: int) -> float | None:
        return self._crash_times.get(rank)

    def mark_failed(self, rank: int) -> None:
        self.failed.add(rank)
        self.injected["crash"] += 1

    # -- messages ----------------------------------------------------------

    def message_delay(self, src: int, dest: int, ordinal: int) -> float | None:
        """Extra in-flight delay for one eager message, or ``None`` when the
        message is permanently lost.

        Drops model retransmission: each dropped attempt (seeded per
        attempt) adds ``retry_delay``; more than ``max_retries`` drops lose
        the message for good.  Duplicates are absorbed by the transport and
        only counted.  All draws key on (src, dest, ordinal) so reordering
        of unrelated traffic cannot change a message's fate.
        """
        m = self.plan.messages
        extra = 0.0
        if m.delay_prob > 0.0 and (
            self._draw(f"delay:{src}:{dest}:{ordinal}") < m.delay_prob
        ):
            extra += m.delay
            self.injected["delay"] += 1
        if m.dup_prob > 0.0 and (
            self._draw(f"dup:{src}:{dest}:{ordinal}") < m.dup_prob
        ):
            self.injected["dup"] += 1
        if m.drop_prob > 0.0:
            attempts = 0
            while attempts <= m.max_retries and (
                self._draw(f"drop:{src}:{dest}:{ordinal}:{attempts}")
                < m.drop_prob
            ):
                attempts += 1
            if attempts:
                self.injected["drop"] += attempts
            if attempts > m.max_retries:
                self.injected["lost"] += 1
                return None
            extra += attempts * m.retry_delay
        return extra

    # -- links -------------------------------------------------------------

    def link_factors(self, src: int, dest: int) -> tuple[float, float]:
        """(latency_factor, bandwidth_factor) for the directed link."""
        return self._links.get((src, dest), (1.0, 1.0))

    # -- collective eligibility --------------------------------------------

    def collective_fallback_reason(self, world_ranks) -> str | None:
        """Why a collective over ``world_ranks`` must take the simulated
        (message-level) path, or ``None`` when the closed-form fast path is
        safe.

        The probe is *static with respect to the plan*: armed crashes,
        message-fault probabilities and degraded links never change during
        a run, so every participant — whenever it reaches the collective —
        computes the same verdict and no rank can strand its peers by
        branching differently.  Compute faults only scale ``compute()``
        durations, which collectives never call, so they stay eligible.
        The one dynamic input, already-``failed`` participants, can only
        have grown before the *first* arrival evaluates it (the verdict is
        cached on the gate for the rest).
        """
        if not self.active:
            return None
        m = self.plan.messages
        if m.drop_prob > 0.0 or m.delay_prob > 0.0 or m.dup_prob > 0.0:
            return "message-faults"
        members = set(world_ranks)
        if members & self._crash_times.keys():
            return "crash-armed"
        if members & self.failed:
            return "failed-participant"
        if self._links and any(
            s in members and d in members for s, d in self._links
        ):
            return "link-fault"
        return None

    # -- compute noise -----------------------------------------------------

    def compute_factor(self, rank: int, ordinal: int) -> float:
        """Multiplier applied to one ``compute()`` call's duration."""
        cf = self._compute.get(rank)
        if cf is None:
            return 1.0
        factor = cf.slowdown
        if cf.jitter > 0.0:
            factor += cf.jitter * self._draw(f"noise:{rank}:{ordinal}")
        if factor != 1.0:
            self.injected["compute"] += 1
        return factor

    # -- reporting ---------------------------------------------------------

    def summary(self) -> dict[str, int]:
        """Counters of every fault actually injected, plus crashed ranks."""
        out = dict(self.injected)
        out["failed_ranks"] = len(self.failed)
        return out


class _NullInjector(FaultInjector):
    """Shared inactive injector: the default for every run."""

    def __init__(self) -> None:
        super().__init__(FaultPlan())


#: Process-wide inactive injector (mirrors obs.NULL_INSTRUMENT).
NULL_INJECTOR = _NullInjector()


def injector_for(
    faults: "FaultPlan | FaultInjector | None",
) -> FaultInjector:
    """Coerce a plan / injector / None into an injector."""
    if faults is None:
        return NULL_INJECTOR
    if isinstance(faults, FaultInjector):
        return faults
    return FaultInjector(faults)
