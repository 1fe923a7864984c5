"""Chameleon configuration."""

from __future__ import annotations

from dataclasses import dataclass

#: Clustering algorithm names accepted by :mod:`repro.core.clustering`.
CLUSTERING_ALGOS = ("kmedoids", "kfarthest", "krandom", "hierarchical")


@dataclass(frozen=True)
class ChameleonConfig:
    """Tunables of the online clustering framework.

    The intra-compression window (``intra.DEFAULT_WINDOW``), the
    ``krandom`` seed (``clustering.KRANDOM_SEED``) and the instrumentation
    cost model (``costmodel.DEFAULT_COSTS``) are constants, not fields.

    Attributes:
        k: target number of lead processes (paper Table I; grows dynamically
            if the number of distinct Call-Path clusters exceeds it).
        call_frequency: run the transition graph every Nth marker call
            (Algorithm 3's ``Call_Frequency`` input).
        algorithm: lead-selection method inside each Call-Path cluster.
        tree_arity: arity of the inter-compression radix tree.
        signature_filter: ``"sequence"`` (paper default) or ``"dedup"`` —
            the automatic parameter filter applied to POP (paper §V).
    """

    k: int = 9
    call_frequency: int = 1
    algorithm: str = "kfarthest"
    tree_arity: int = 2
    signature_filter: str = "sequence"

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.call_frequency < 1:
            raise ValueError("call_frequency must be >= 1")
        if self.algorithm not in CLUSTERING_ALGOS:
            raise ValueError(
                f"unknown clustering algorithm {self.algorithm!r}; "
                f"choose one of {CLUSTERING_ALGOS}"
            )
        if self.tree_arity < 2:
            raise ValueError("tree_arity must be >= 2")
        if self.signature_filter not in ("sequence", "dedup"):
            raise ValueError(
                f"unknown signature_filter {self.signature_filter!r}"
            )
