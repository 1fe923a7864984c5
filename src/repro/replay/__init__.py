"""repro.replay — ScalaReplay: trace interpretation and timed replay.

Replays compressed traces on the simulated MPI runtime, including the
paper's cluster-wide replay (a lead's trace re-interpreted by every member
of its cluster with endpoint transposition), and computes the replay
accuracy metric used in Figures 5 and 7.  :func:`build_schedule` is the one
per-rank expansion of a trace: the replay, its statistics and the
communication matrix all read it.
"""

from .accuracy import AccuracyReport, accuracy
from .extrapolate import ExtrapolationReport, extrapolate_trace
from .timeline import Interval, Timeline, reconstruct_timeline
from .replayer import (
    REPLAY_TAG,
    ReplayOp,
    ReplayResult,
    ReplayStats,
    build_schedule,
    coalesce_collectives,
    communication_matrix,
    hotspots,
    reconcile,
    replay_trace,
)

__all__ = [
    "AccuracyReport",
    "ExtrapolationReport",
    "Interval",
    "REPLAY_TAG",
    "Timeline",
    "ReplayOp",
    "ReplayResult",
    "ReplayStats",
    "accuracy",
    "build_schedule",
    "coalesce_collectives",
    "communication_matrix",
    "extrapolate_trace",
    "hotspots",
    "reconcile",
    "reconstruct_timeline",
    "replay_trace",
]
