"""Columnar per-rank state: numpy arrays instead of per-rank objects.

The macro fast paths resolve whole phases (a collective instance, a
declared p2p pattern) for every participant at once.  Advancing each
participant's clock/busy/traffic counters in one Python object per rank —
the ``RankState`` a rank registers at its gate, which the scalar replay
core advances — costs pointer-chasing over P objects, which docs/PERF.md
measured as a ~10% GC + LLC working-set drag at P=16384.

:class:`RankStateColumns` is the structure-of-arrays alternative: six
parallel numpy columns indexed by position (local rank), read once from
the gate's states.  The vectorized slot replay mutates the columns and
:meth:`write_back` copies the final values onto the engine ``Task``
objects in one pass.

Bit-exactness contract: every column round-trips through numpy without
changing a single bit.  ``float64`` scalars and arrays perform IEEE-754
arithmetic identical to Python ``float`` for the same expression shapes,
``float(np.float64(x)) == x`` exactly, and ``int(np.int64(n)) == n``
(asserted in ``tests/simmpi/test_p2p_fastpath.py``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .engine import Task


class RankStateColumns:
    """Structure-of-arrays snapshot of ``n`` ranks' task state.

    Columns (all length ``n``, indexed by local rank):

    * ``clock`` / ``busy`` — float64 virtual seconds
    * ``msgs_sent`` / ``bytes_sent`` — int64 send-side traffic
    * ``msgs_received`` / ``bytes_received`` — int64 receive-side traffic
    """

    __slots__ = (
        "clock", "busy", "msgs_sent", "bytes_sent",
        "msgs_received", "bytes_received",
    )

    def __init__(self, n: int) -> None:
        self.clock = np.zeros(n, dtype=np.float64)
        self.busy = np.zeros(n, dtype=np.float64)
        self.msgs_sent = np.zeros(n, dtype=np.int64)
        self.bytes_sent = np.zeros(n, dtype=np.int64)
        self.msgs_received = np.zeros(n, dtype=np.int64)
        self.bytes_received = np.zeros(n, dtype=np.int64)

    @classmethod
    def from_entries(cls, entries: Sequence) -> "RankStateColumns":
        """Build columns from a gate's entries (the ``RankState`` join
        snapshots of :mod:`repro.simmpi.replay`), position ``i`` holding
        ``entries[i]``'s state."""
        cols = cls(len(entries))
        clock, busy = cols.clock, cols.busy
        ms, bs = cols.msgs_sent, cols.bytes_sent
        mr, br = cols.msgs_received, cols.bytes_received
        for i, e in enumerate(entries):
            clock[i] = e.clock
            busy[i] = e.busy
            ms[i] = e.msgs_sent
            bs[i] = e.bytes_sent
            mr[i] = e.msgs_received
            br[i] = e.bytes_received
        return cols

    def write_back(self, tasks: Sequence["Task"]) -> None:
        """Bulk-copy the columns onto engine tasks (``tasks[i]`` receives
        position ``i``).  ``.tolist()`` materializes native scalars so the
        tasks never hold numpy types."""
        clock = self.clock.tolist()
        busy = self.busy.tolist()
        ms = self.msgs_sent.tolist()
        bs = self.bytes_sent.tolist()
        mr = self.msgs_received.tolist()
        br = self.bytes_received.tolist()
        for i, task in enumerate(tasks):
            task.clock = clock[i]
            task.busy = busy[i]
            task.msgs_sent = ms[i]
            task.bytes_sent = bs[i]
            task.msgs_received = mr[i]
            task.bytes_received = br[i]
