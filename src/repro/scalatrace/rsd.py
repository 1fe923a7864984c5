"""RSD / PRSD trace tree: loop-compressed event sequences.

A compressed trace is a list of nodes where each node is either

* an :class:`EventNode` — one MPI event with merged statistics (an RSD leaf),
* a :class:`LoopNode` — ``iters`` repetitions of a body sequence (an RSD for
  the innermost level, a power-RSD when loops nest).

``<100, Send1, Recv1>`` from the paper's example becomes
``LoopNode(100, [EventNode(send), EventNode(recv)])`` and the enclosing
``<1000, RSD1, Barrier1>`` a LoopNode around that.

Two predicates drive compression:

* :func:`same_shape` — structural congruence (same match keys / loop shapes,
  ignoring statistics); used to *detect* repetitions.
* :func:`merge_nodes` — folds one congruent subtree's statistics into
  another; used when a repetition is found or when traces from different
  ranks are combined.

Both count their comparisons in an optional :class:`WorkMeter`, which the
cost model converts to virtual time — this is how the paper's
``O(n^2 log P)`` inter-compression cost arises mechanically in the
simulation rather than being assumed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Union

from .events import EventRecord


@dataclass
class WorkMeter:
    """Counts the primitive operations compression performs."""

    comparisons: int = 0
    merges: int = 0
    folds: int = 0

    @property
    def total(self) -> int:
        return self.comparisons + self.merges + self.folds


@dataclass(slots=True)
class EventNode:
    """A leaf: one compressed MPI event."""

    record: EventRecord

    def size_bytes(self) -> int:
        return self.record.size_bytes()

    def leaf_count(self) -> int:
        return 1

    def expanded_count(self) -> int:
        return 1

    def copy(self) -> "EventNode":
        return EventNode(self.record.copy())

    def __str__(self) -> str:
        return str(self.record)


@dataclass(slots=True)
class LoopNode:
    """``iters`` repetitions of a node sequence (RSD / PRSD)."""

    iters: int
    body: list["TraceNode"] = field(default_factory=list)

    def size_bytes(self) -> int:
        return 16 + sum(n.size_bytes() for n in self.body)

    def leaf_count(self) -> int:
        return sum(n.leaf_count() for n in self.body)

    def expanded_count(self) -> int:
        return self.iters * sum(n.expanded_count() for n in self.body)

    def copy(self) -> "LoopNode":
        return LoopNode(self.iters, [n.copy() for n in self.body])

    def __str__(self) -> str:
        inner = "; ".join(str(n) for n in self.body)
        return f"loop x{self.iters} [{inner}]"


TraceNode = Union[EventNode, LoopNode]


def same_shape(
    a: TraceNode,
    b: TraceNode,
    meter: WorkMeter | None = None,
    allow_chain: bool = True,
) -> bool:
    """Structural congruence of two subtrees.

    EventNodes are congruent when their records are mergeable; LoopNodes
    when their iteration counts agree (so that merged statistics keep a
    consistent meaning) and their bodies are pairwise congruent.
    ``allow_chain`` is False for cross-rank merges (see EventRecord).
    """
    if meter is not None:
        meter.comparisons += 1
    if isinstance(a, EventNode) and isinstance(b, EventNode):
        return a.record.can_merge(b.record, allow_chain)
    if isinstance(a, LoopNode) and isinstance(b, LoopNode):
        if a.iters != b.iters or len(a.body) != len(b.body):
            return False
        return all(
            same_shape(x, y, meter, allow_chain) for x, y in zip(a.body, b.body)
        )
    return False


def merge_nodes(
    dst: TraceNode,
    src: TraceNode,
    meter: WorkMeter | None = None,
    allow_chain: bool = True,
) -> int:
    """Fold ``src``'s statistics into congruent ``dst``; returns its byte delta."""
    if meter is not None:
        meter.merges += 1
    if isinstance(dst, EventNode) and isinstance(src, EventNode):
        return dst.record.merge(src.record, allow_chain)
    if isinstance(dst, LoopNode) and isinstance(src, LoopNode):
        if len(dst.body) != len(src.body):
            raise ValueError("merge of loops with different body lengths")
        return sum(
            merge_nodes(d, s, meter, allow_chain)
            for d, s in zip(dst.body, src.body)
        )
    raise ValueError(f"cannot merge {type(dst).__name__} with {type(src).__name__}")


def iter_leaves(nodes: list[TraceNode]) -> Iterator[EventNode]:
    """All EventNode leaves in trace order (loop bodies visited once)."""
    for node in nodes:
        if isinstance(node, EventNode):
            yield node
        else:
            yield from iter_leaves(node.body)


def expand(nodes: list[TraceNode]) -> Iterator[EventRecord]:
    """Full event stream: loop bodies repeated ``iters`` times."""
    for node in nodes:
        if isinstance(node, EventNode):
            yield node.record
        else:
            for _ in range(node.iters):
                yield from expand(node.body)
