"""Inter-node trace compression: merging per-rank compressed traces.

ScalaTrace consolidates task-level traces in a reduction over a radix tree:
each interior node merges its children's traces into its own and forwards
the result (paper §II).  The merge of two PRSD node sequences is a sequence
*alignment*: congruent subtrees combine (participant ranklists union,
statistics merge), non-matching regions are spliced in order.

The alignment is a longest-common-subsequence DP over structural congruence,
which is ``O(len_a * len_b)`` comparisons per merge — with ``n`` PRSD events
per trace this is the ``O(n^2)`` factor of the paper's ``O(n^2 log P)``
inter-compression bound; the ``log P`` is the radix-tree depth.  Every
comparison is counted in the :class:`WorkMeter` so virtual time can be
charged mechanically.
"""

from __future__ import annotations

from .rsd import (
    EventNode,
    LoopNode,
    TraceNode,
    WorkMeter,
    merge_nodes,
    same_shape,
)


def _static_shape_key(node: TraceNode) -> int:
    """Hash of a node's call-site structure (endpoints/statistics excluded).

    Used to run the alignment DP over cheap integer comparisons; a key match
    is necessary but not sufficient for merging — endpoint compatibility is
    verified with the full :func:`same_shape` only on aligned pairs.
    """
    if isinstance(node, EventNode):
        rec = node.record
        return hash(("E",) + rec.static_key())
    return hash(
        ("L", node.iters, tuple(_static_shape_key(n) for n in node.body))
    )


def merge_traces(
    a: list[TraceNode],
    b: list[TraceNode],
    meter: WorkMeter | None = None,
) -> list[TraceNode]:
    """Merge two compressed node sequences into one (consuming both).

    Congruent nodes merge in place (into ``a``'s node); unmatched nodes are
    spliced in an order consistent with both inputs.  Congruent LoopNodes
    with equal iteration counts merge their bodies recursively.

    The alignment is an LCS DP over per-node structural keys — the
    ``O(len_a * len_b)`` work the paper's inter-compression bound describes;
    the meter is charged one comparison per DP cell.
    """
    if not a:
        return list(b)
    if not b:
        return list(a)
    la, lb = len(a), len(b)
    ka = [_static_shape_key(n) for n in a]
    kb = [_static_shape_key(n) for n in b]
    if meter is not None:
        meter.comparisons += la * lb
    # LCS DP over structural keys.
    dp = [[0] * (lb + 1) for _ in range(la + 1)]
    for i in range(la - 1, -1, -1):
        row = dp[i]
        nxt = dp[i + 1]
        kai = ka[i]
        for j in range(lb - 1, -1, -1):
            if kai == kb[j]:
                row[j] = nxt[j + 1] + 1
            else:
                row[j] = max(nxt[j], row[j + 1])
    # Backtrack, merging matches and splicing the rest.  allow_chain=False:
    # traces from different ranks must not invent strided endpoint patterns.
    out: list[TraceNode] = []
    i = j = 0
    while i < la and j < lb:
        if ka[i] == kb[j] and dp[i][j] == dp[i + 1][j + 1] + 1:
            if same_shape(a[i], b[j], meter, allow_chain=False):
                merged = a[i]
                if isinstance(merged, LoopNode):
                    other = b[j]
                    assert isinstance(other, LoopNode)
                    merged.body = merge_traces(merged.body, other.body, meter)
                    # bodies are congruent, so merge_traces reduces to pure
                    # pairwise merging; iteration count is unchanged
                else:
                    merge_nodes(merged, b[j], meter, allow_chain=False)
                out.append(merged)
                i += 1
                j += 1
            else:
                # Same call site but incompatible endpoint encodings
                # (ScalaTrace splits such events, e.g. ring wraparound
                # ranks).  Advance only one side: b[j] may still merge
                # with a later a-node carrying the compatible encoding.
                out.append(a[i])
                i += 1
        elif dp[i + 1][j] >= dp[i][j + 1]:
            out.append(a[i])
            i += 1
        else:
            out.append(b[j])
            j += 1
    out.extend(a[i:])
    out.extend(b[j:])
    return out


def merge_many(
    traces: list[list[TraceNode]], meter: WorkMeter | None = None
) -> list[TraceNode]:
    """Left fold of :func:`merge_traces` over several traces."""
    if not traces:
        return []
    acc = traces[0]
    for other in traces[1:]:
        acc = merge_traces(acc, other, meter)
    return acc
