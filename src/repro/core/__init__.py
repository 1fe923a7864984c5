"""repro.core — Chameleon: online clustering of MPI program traces.

The paper's primary contribution: interval signatures (:mod:`callpath`),
the AT/C/L/F transition graph (:mod:`phase`), signature clustering with
lead election (:mod:`clustering`), the online inter-compression over the
lead radix tree (:mod:`online`), the orchestrating tracer
(:mod:`chameleon`) and the ACURDION cluster-at-finalize baseline
(:mod:`acurdion`).
"""

from .acurdion import AcurdionTracer
from .automarker import AutoMarkerTracer
from .callpath import IntervalSignatures, SignatureAccumulator
from .chameleon import ChameleonStats, ChameleonTracer, MarkerRecord
from .clustering import (
    ClusterInfo,
    ClusterSet,
    distance,
    find_top_k,
    hierarchical,
    k_farthest,
    k_medoids,
    k_random,
)
from .config import CLUSTERING_ALGOS, ChameleonConfig
from .energy import EnergyReport, PowerModel, energy_report, rank_energy, run_energy
from .online import (
    CLUSTER_TAG,
    ONLINE_TAG,
    cluster_over_tree,
    fold_into_online,
    merge_lead_traces,
    replace_participants,
)
from .phase import MarkerDecision, MarkerState, PhaseTracker

__all__ = [
    "AcurdionTracer",
    "AutoMarkerTracer",
    "CLUSTERING_ALGOS",
    "CLUSTER_TAG",
    "ChameleonConfig",
    "ChameleonStats",
    "ChameleonTracer",
    "ClusterInfo",
    "ClusterSet",
    "EnergyReport",
    "IntervalSignatures",
    "MarkerDecision",
    "MarkerRecord",
    "MarkerState",
    "ONLINE_TAG",
    "PhaseTracker",
    "PowerModel",
    "SignatureAccumulator",
    "cluster_over_tree",
    "distance",
    "energy_report",
    "find_top_k",
    "fold_into_online",
    "hierarchical",
    "k_farthest",
    "k_medoids",
    "k_random",
    "merge_lead_traces",
    "rank_energy",
    "replace_participants",
    "run_energy",
]
