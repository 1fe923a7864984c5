"""`SimConfig` — the one object that configures a simulated run.

A single frozen, validated dataclass carries every engine option and is
accepted everywhere a run starts — ``run_spmd(config=...)``,
``repro.api.run(sim=...)``, ``repro bench --config KEY=VAL``.

Cache participation: :meth:`SimConfig.digest` (and the tuple behind it,
:meth:`SimConfig.cache_key`) covers only the fields that can change a
run's *virtual-time outcome* — the network model and ``max_steps``.
``gates`` picks a bit-identity-preserving execution strategy (each gate
kind is fuzz-verified against the message-level reference), so both
spellings of the same run hash identically and the run cache can serve a
result computed under either.
"""

from __future__ import annotations

import dataclasses
import hashlib
from dataclasses import dataclass
from typing import Any

from .timing import NetworkModel, QDR_CLUSTER, SLOW_CLUSTER, ZERO_COST

__all__ = ["SimConfig", "DEFAULT_CONFIG", "parse_config"]


@dataclass(frozen=True)
class SimConfig:
    """Validated, hashable engine configuration for one simulated run.

    Attributes:
        network: LogGP cost model charged for every operation.
        gates: ``"fast"`` (default: an eligible collective or declared
            ``NeighborPattern`` exchange resolves in closed form at its
            gate) or ``"simulated"`` (every instance of every gate kind
            runs message-level).  Bit-identical either way; see
            docs/PERF.md, "Macro-collectives" and "Macro p2p".
        max_steps: scheduler-resume budget; ``None`` means unlimited.
    """

    network: NetworkModel = QDR_CLUSTER
    gates: str = "fast"
    max_steps: int | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.network, NetworkModel):
            raise ValueError(
                f"network must be a NetworkModel, got {type(self.network).__name__}"
            )
        if self.gates not in ("fast", "simulated"):
            raise ValueError(
                f"gates must be 'fast' or 'simulated', got {self.gates!r}"
            )
        if self.max_steps is not None and self.max_steps <= 0:
            raise ValueError(f"max_steps must be positive, got {self.max_steps}")

    def replace(self, **changes: Any) -> "SimConfig":
        """A copy with ``changes`` applied (re-validated)."""
        return dataclasses.replace(self, **changes)

    # -- cache identity ----------------------------------------------------

    def cache_key(self) -> tuple:
        """The outcome-determining normal form used by the run cache.

        Deliberately excludes ``gates``: it selects a bit-identical
        execution strategy, so two configs differing only there describe
        the same run.
        """
        n = self.network
        return (
            "simconfig",
            n.latency,
            n.bandwidth,
            n.o_send,
            n.o_recv,
            n.eager_threshold,
            n.min_message_bytes,
            self.max_steps,
        )

    def digest(self) -> str:
        """Stable hex digest of :meth:`cache_key`."""
        return hashlib.sha256(repr(self.cache_key()).encode()).hexdigest()


#: The default configuration (QDR network, fast gates, unlimited steps).
DEFAULT_CONFIG = SimConfig()


#: Named network models accepted by ``--config network=NAME``.
NETWORK_PRESETS: dict[str, NetworkModel] = {
    "qdr": QDR_CLUSTER,
    "slow": SLOW_CLUSTER,
    "zero": ZERO_COST,
}


def parse_config(pairs: "list[str] | tuple[str, ...]") -> SimConfig:
    """Build a :class:`SimConfig` from CLI ``KEY=VAL`` strings.

    This is the parser behind ``repro bench --config`` (and any future
    ``--config`` flag).  Accepted keys: ``network`` (a preset name from
    :data:`NETWORK_PRESETS`), ``gates`` and ``max_steps``
    (int, or ``none`` for unlimited).
    Raises ``ValueError`` with a usable message on anything else; field
    values are validated by ``SimConfig`` itself.
    """
    fields: dict[str, Any] = {}
    for pair in pairs:
        key, sep, value = pair.partition("=")
        if not sep or not key or not value:
            raise ValueError(
                f"--config expects KEY=VAL, got {pair!r}"
            )
        if key == "network":
            try:
                fields[key] = NETWORK_PRESETS[value]
            except KeyError:
                raise ValueError(
                    f"unknown network preset {value!r}; choose from "
                    f"{', '.join(sorted(NETWORK_PRESETS))}"
                ) from None
        elif key == "gates":
            fields[key] = value
        elif key == "max_steps":
            if value.lower() == "none":
                fields[key] = None
                continue
            try:
                fields[key] = int(value)
            except ValueError:
                raise ValueError(
                    f"--config max_steps= expects an integer, got {value!r}"
                ) from None
        else:
            raise ValueError(
                f"unknown --config key {key!r}; choose from "
                "network, gates, max_steps"
            )
    return SimConfig(**fields)
