"""Intra-node (loop-level) trace compression.

ScalaTrace compresses each rank's event stream *online*: every time an event
is appended, the compressor greedily looks for a repetition at the tail of
the node list and folds it into an RSD/PRSD loop (paper §II).  Two rewrite
rules run to fixpoint after each append:

* **absorb** — the last *m* nodes are congruent to the body of the loop node
  immediately preceding them: increment that loop's iteration count and
  merge the statistics.  (``[Loop(k, B), B] -> Loop(k+1, B)``)
* **create** — the last *m* nodes are congruent to the *m* nodes before
  them: replace both with a 2-iteration loop.
  (``[B, B] -> Loop(2, B)``)

Applied to an iterative kernel this builds nested PRSDs bottom-up, e.g. the
paper's send/recv/barrier example compresses to
``Loop(1000, [Loop(100, [send, recv]), barrier])``.

The compressor is windowed: repetition bodies longer than ``window`` nodes
are not detected (real ScalaTrace has the same bound).  All comparison work
is counted in a :class:`~repro.scalatrace.rsd.WorkMeter` so the tracer can
charge virtual time for it.
"""

from __future__ import annotations

from .events import EventRecord
from .rsd import EventNode, LoopNode, TraceNode, WorkMeter, merge_nodes, same_shape

DEFAULT_WINDOW = 64


def _participants_equal(a: TraceNode, b: TraceNode) -> bool:
    """Whether two congruent subtrees cover the same rank populations."""
    if isinstance(a, EventNode) and isinstance(b, EventNode):
        return a.record.participants == b.record.participants
    return all(
        _participants_equal(x, y)
        for x, y in zip(a.body, b.body)  # type: ignore[union-attr]
    )


def fold_tail(
    nodes: list[TraceNode],
    window: int,
    meter: WorkMeter,
    match_participants: bool = False,
) -> int:
    """Run the absorb/create rewrite rules to fixpoint on the list's tail.

    Shared by the per-rank compressor (folding raw events) and Chameleon's
    online trace (folding whole merged phase segments that repeat across
    marker intervals).  The online trace passes ``match_participants=True``:
    its nodes cover *cluster* populations, and folding two same-call-site
    records from different clusters would union their ranklists and
    misattribute iterations (a per-rank stream never needs the check —
    every node covers exactly the owning rank).

    A candidate run length is tried on its first pair, in place in the rule's
    loop: when node types or call sites differ (equal signatures are
    necessary, not sufficient) it calls nothing and is counted as the one
    comparison ``same_shape`` would have charged to refuse it.  Nodes are
    never subclassed, so ``type(x) is`` decides kinds.
    Returns the change of ``sum(n.size_bytes() for n in nodes)``, which the
    list's owner adds to its running count (nodes cache no size): what the
    merges report (a dropped endpoint pattern *shrinks* a record) less the
    absorbed run, the only thing sized, plus 16 for a new loop's header.
    """

    def absorbed(body: list[TraceNode], at: int, m: int) -> bool:
        """Fold the last ``m`` nodes into ``body[at : at + m]`` if congruent
        (a candidate whose first pair is not a certain miss)."""
        nonlocal delta
        pairs = list(zip(body[at : at + m], nodes[-m:]))
        for a, b in pairs:
            if not same_shape(a, b, meter) or (
                match_participants and not _participants_equal(a, b)
            ):
                return False
        for a, b in pairs:
            delta += merge_nodes(a, b, meter) - b.size_bytes()
        meter.folds += 1
        return True

    delta = misses = 0
    while True:
        n = len(nodes)
        # Rule 1: absorb the tail into an immediately preceding loop.
        for m in range(1, min(window, n - 1) + 1):
            prev = nodes[n - m - 1]
            if type(prev) is not LoopNode or len(prev.body) != m:
                continue
            a, b = prev.body[0], nodes[n - m]
            if type(a) is not type(b) or (
                type(a) is EventNode and a.record.stack_sig != b.record.stack_sig
            ):
                misses += 1
            elif absorbed(prev.body, 0, m):
                prev.iters += 1
                del nodes[n - m :]
                break
        else:
            # Rule 2: fold two adjacent congruent runs into a new loop.
            for m in range(1, min(window, n // 2) + 1):
                a, b = nodes[n - 2 * m], nodes[n - m]
                if type(a) is not type(b) or (
                    type(a) is EventNode and a.record.stack_sig != b.record.stack_sig
                ):
                    misses += 1
                elif absorbed(nodes, n - 2 * m, m):
                    nodes[n - 2 * m :] = [LoopNode(2, nodes[n - 2 * m : n - m])]
                    delta += 16
                    break
            else:  # fixpoint: neither rule applies
                meter.comparisons += misses
                return delta


class IntraCompressor:
    """Online RSD/PRSD compressor for one rank's event stream."""

    def __init__(self, window: int = DEFAULT_WINDOW, meter: WorkMeter | None = None):
        if window < 1:
            raise ValueError("window must be >= 1")
        self.window = window
        self.meter = meter if meter is not None else WorkMeter()
        self.nodes: list[TraceNode] = []
        #: running sum of the nodes' ``size_bytes()``: ``append`` adds the
        #: record and the fold's delta, ``take_nodes`` zeroes it
        self._bytes = 0

    def append(self, record: EventRecord) -> None:
        """Add one event and re-compress the tail."""
        self.nodes.append(EventNode(record))
        self._bytes += record.size_bytes()
        self._bytes += fold_tail(self.nodes, self.window, self.meter)

    # -- introspection ---------------------------------------------------

    def leaf_count(self) -> int:
        """`n` of the paper: events in PRSD-compressed notation."""
        return sum(n.leaf_count() for n in self.nodes)

    def expanded_count(self) -> int:
        """Number of original (uncompressed) events represented."""
        return sum(n.expanded_count() for n in self.nodes)

    def size_bytes(self) -> int:
        """O(1): the count ``append`` keeps (== the sum over ``nodes``)."""
        return self._bytes

    def take_nodes(self) -> list[TraceNode]:
        """Detach and return the compressed nodes (compressor resets)."""
        nodes, self.nodes = self.nodes, []
        self._bytes = 0
        return nodes
