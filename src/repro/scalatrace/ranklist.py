"""Ranklists: ScalaTrace's compressed encoding of communication groups.

A ranklist ``<dimension, start_rank, (iteration_length, stride)+>`` (paper
§II, EBNF from ScalaExtrap) denotes the set::

    { start + sum_d k_d * stride_d : 0 <= k_d < iters_d }

e.g. ``start=0, dims=((4, 16), (4, 1))`` is the 4x4 corner block of a 16-wide
grid.  Participant sets of merged events are stored as a :class:`RankSet` —
a list of ranklists — which stays near-constant-size for the regular
SPMD groups this encoding was designed for (all ranks of a P-rank job
compress to the single ranklist ``<start=0, (P, 1)>``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from typing import Iterable, Iterator, Sequence


@dataclass(frozen=True)
class Ranklist:
    """One strided multi-dimensional rank group."""

    start: int
    dims: tuple[tuple[int, int], ...] = ()  # (iters, stride), outermost first

    def __post_init__(self) -> None:
        if self.start < 0:
            raise ValueError("start rank must be >= 0")
        for iters, _stride in self.dims:
            if iters < 2:
                raise ValueError("each dimension needs >= 2 iterations")

    @property
    def dimension(self) -> int:
        return len(self.dims)

    @property
    def count(self) -> int:
        return reduce(lambda a, b: a * b[0], self.dims, 1)

    def members(self) -> Iterator[int]:
        """Enumerate members in ascending order of the nested iteration."""

        def rec(base: int, dims: tuple[tuple[int, int], ...]) -> Iterator[int]:
            if not dims:
                yield base
                return
            (iters, stride), rest = dims[0], dims[1:]
            for k in range(iters):
                yield from rec(base + k * stride, rest)

        return rec(self.start, self.dims)

    def __contains__(self, rank: int) -> bool:
        return rank in set(self.members())

    def size_bytes(self) -> int:
        """Modelled allocation: start + ndims + (iters, stride) pairs."""
        return 8 * (2 + 2 * len(self.dims))

    def __str__(self) -> str:
        dims = " ".join(f"{i}:{s}" for i, s in self.dims)
        return f"<{self.dimension} {self.start} {dims}>".replace("  ", " ")


def _factor(ranks: Sequence[int]) -> Ranklist | None:
    """Try to express a sorted, duplicate-free rank sequence as ONE ranklist.

    Greedy recursive factorization: peel the innermost dimension as the
    maximal leading arithmetic run, verify the whole sequence is that run
    repeated at fixed offsets, and recurse on the run starts.
    """
    n = len(ranks)
    if n == 0:
        return None
    if n == 1:
        return Ranklist(ranks[0], ())
    diffs = [b - a for a, b in zip(ranks, ranks[1:])]
    if all(d == diffs[0] for d in diffs):
        return Ranklist(ranks[0], ((n, diffs[0]),))
    # innermost run: maximal prefix with uniform stride
    inner_stride = diffs[0]
    run = 1
    while run < n and diffs[run - 1] == inner_stride:
        run += 1
    if run < 2 or n % run != 0:
        return None
    starts = []
    for block_at in range(0, n, run):
        block = ranks[block_at : block_at + run]
        bdiffs = [b - a for a, b in zip(block, block[1:])]
        if any(d != inner_stride for d in bdiffs):
            return None
        starts.append(block[0])
    outer = _factor(starts)
    if outer is None:
        return None
    return Ranklist(outer.start, outer.dims + ((run, inner_stride),))


def _arithmetic_runs(ranks: Sequence[int]) -> list[Ranklist]:
    """Fallback: cover the sequence with maximal 1-D arithmetic runs."""
    out: list[Ranklist] = []
    i = 0
    n = len(ranks)
    while i < n:
        if i + 1 >= n:
            out.append(Ranklist(ranks[i], ()))
            break
        stride = ranks[i + 1] - ranks[i]
        j = i + 1
        while j + 1 < n and ranks[j + 1] - ranks[j] == stride:
            j += 1
        length = j - i + 1
        if length >= 2:
            out.append(Ranklist(ranks[i], ((length, stride),)))
            i = j + 1
        else:  # pragma: no cover - length>=2 always holds here
            out.append(Ranklist(ranks[i], ()))
            i += 1
    return out


class RankSet:
    """A participant set stored as a small list of ranklists.

    Canonicalization always starts from the sorted member set, so two
    RankSets over the same ranks compare equal regardless of construction
    order — the property event merging relies on.
    """

    __slots__ = ("_lists", "_members", "_size")

    def __init__(self, ranks: Iterable[int]) -> None:
        members = sorted(set(ranks))
        if any(r < 0 for r in members):
            raise ValueError("ranks must be >= 0")
        self._members: tuple[int, ...] = tuple(members)
        single = _factor(members)
        self._lists: list[Ranklist] = (
            [single] if single is not None else _arithmetic_runs(members)
        )
        #: :meth:`size_bytes`, fixed here: a RankSet has no mutator
        self._size = sum(rl.size_bytes() for rl in self._lists)

    @classmethod
    def single(cls, rank: int) -> "RankSet":
        return cls([rank])

    @classmethod
    def contiguous(cls, start: int, count: int) -> "RankSet":
        return cls(range(start, start + count))

    @property
    def ranklists(self) -> list[Ranklist]:
        return list(self._lists)

    def ranks(self) -> tuple[int, ...]:
        return self._members

    @property
    def count(self) -> int:
        return len(self._members)

    def __contains__(self, rank: int) -> bool:
        return rank in set(self._members)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RankSet):
            return NotImplemented
        return self._members == other._members

    def __hash__(self) -> int:
        return hash(self._members)

    def union(self, other: "RankSet") -> "RankSet":
        # immutable, and nothing to add: the same set on every intra fold
        if other is self or set(self._members).issuperset(other._members):
            return self
        return RankSet(self._members + other._members)

    def size_bytes(self) -> int:
        return self._size

    def __str__(self) -> str:
        return "+".join(str(rl) for rl in self._lists)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RankSet({list(self._members)!r})"

    # -- serialization ---------------------------------------------------

    def to_text(self) -> str:
        return ",".join(str(r) for r in self._members)

    @classmethod
    def from_text(cls, text: str) -> "RankSet":
        if not text:
            raise ValueError("empty RankSet text")
        return cls(int(p) for p in text.split(","))
