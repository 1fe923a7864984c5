"""Binomial-tree structure shared by both collective execution paths.

The message-level collectives and the macro fast path's schedule generators
(:mod:`repro.simmpi.collectives`) walk the same trees for
bcast/reduce/gather/scatter; the helpers here are pure functions of
``(rank, size, root)`` and touch neither the engine, clocks nor payloads.
"""

from __future__ import annotations

from .topology import binomial_children, binomial_parent

__all__ = [
    "binomial_children",
    "binomial_parent",
    "binomial_subtree",
]


def binomial_subtree(rank: int, size: int, root: int = 0) -> list[int]:
    """All ranks in the binomial subtree rooted at ``rank``."""
    out = [rank]
    stack = [rank]
    while stack:
        node = stack.pop()
        for child in binomial_children(node, size, root):
            out.append(child)
            stack.append(child)
    return out
