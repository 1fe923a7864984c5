"""The parent of PR 24's ``intra.fold_tail``, kept verbatim as a reference.

Slices, an ``all(...)`` generator and a full ``same_shape`` for every
candidate run length; every rewritten run sized recursively before and
after.  ``test_intra.TestAgainstFrozenFold`` feeds it and the live
``fold_tail`` the same streams and compares nodes, ``WorkMeter`` and the
returned byte delta after every append.  (One edit: ``same_shape`` lost its
``match_iters`` parameter, which this code passed as ``True``.)
"""

from __future__ import annotations

from repro.scalatrace.rsd import (
    EventNode,
    LoopNode,
    TraceNode,
    WorkMeter,
    merge_nodes,
    same_shape,
)


def _participants_equal(a: TraceNode, b: TraceNode) -> bool:
    """Whether two congruent subtrees cover the same rank populations."""
    if isinstance(a, EventNode) and isinstance(b, EventNode):
        return a.record.participants == b.record.participants
    return all(
        _participants_equal(x, y)
        for x, y in zip(a.body, b.body)  # type: ignore[union-attr]
    )


def _size(nodes: list[TraceNode]) -> int:
    return sum(n.size_bytes() for n in nodes)


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

    Returns the change of ``sum(n.size_bytes() for n in nodes)``, which the
    list's owner adds to its running count (nodes cache no size).  Only what
    a rewrite touches is sized: the subtrees it merges into, before and
    after (a merge can also *shrink* a record, when an endpoint pattern
    stops being representable), the run it deletes and a new loop's header.
    """

    def congruent(a: TraceNode, b: TraceNode) -> bool:
        if not same_shape(a, b, meter):
            return False
        return not match_participants or _participants_equal(a, b)

    delta = 0
    changed = True
    while changed:
        changed = False
        # Rule 1: absorb the tail into an immediately preceding loop.
        for m in range(1, min(window, len(nodes) - 1) + 1):
            prev = nodes[-m - 1]
            if not isinstance(prev, LoopNode) or len(prev.body) != m:
                continue
            tail = nodes[-m:]
            if all(congruent(b, t) for b, t in zip(prev.body, tail)):
                delta -= _size(prev.body) + _size(tail)
                for b, t in zip(prev.body, tail):
                    merge_nodes(b, t, meter)
                delta += _size(prev.body)
                prev.iters += 1
                del nodes[-m:]
                meter.folds += 1
                changed = True
                break
        if changed:
            continue
        # Rule 2: fold two adjacent congruent runs into a new loop.
        for m in range(1, window + 1):
            if len(nodes) < 2 * m:
                break
            first = nodes[-2 * m : -m]
            second = nodes[-m:]
            if all(congruent(a, b) for a, b in zip(first, second)):
                delta -= _size(first) + _size(second)
                for a, b in zip(first, second):
                    merge_nodes(a, b, meter)
                loop = LoopNode(2, first)
                delta += loop.size_bytes()
                del nodes[-2 * m :]
                nodes.append(loop)
                meter.folds += 1
                changed = True
                break
    return delta
