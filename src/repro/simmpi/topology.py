"""Process topologies: radix trees for reductions, Cartesian grids for
workloads.

ScalaTrace performs its inter-node trace compression as a reduction over a
*radix tree rooted at rank 0*; Chameleon reuses the same tree restricted to
the elected lead ranks.  The helpers here define that tree shape once so the
tracer, the clustering layer and the tests all agree on it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence


class RadixTree:
    """A k-ary tree over ``0..size-1`` rooted at 0 (heap numbering).

    ``parent(r) = (r - 1) // k`` and ``children(r) = k*r+1 .. k*r+k``; with
    ``k == 2`` this is the classic binary radix tree used by ScalaTrace's
    reduction.  The tree can also be built over an arbitrary *ordered member
    list* (Chameleon's Top-K leads): positions in the list follow heap
    numbering and are mapped back to real ranks.
    """

    def __init__(self, members: Sequence[int] | int, arity: int = 2) -> None:
        if arity < 2:
            raise ValueError("arity must be >= 2")
        if isinstance(members, int):
            if members <= 0:
                raise ValueError("tree must have at least one member")
            members = range(members)
        self._members = list(members)
        if len(self._members) == 0:
            raise ValueError("tree must have at least one member")
        if len(set(self._members)) != len(self._members):
            raise ValueError("duplicate ranks in tree member list")
        self.arity = arity
        self._pos = {rank: i for i, rank in enumerate(self._members)}

    @property
    def size(self) -> int:
        return len(self._members)

    @property
    def root(self) -> int:
        """The real rank acting as the tree root."""
        return self._members[0]

    def __contains__(self, rank: int) -> bool:
        return rank in self._pos

    def members(self) -> list[int]:
        return list(self._members)

    def parent(self, rank: int) -> int | None:
        """Real rank of the parent, or ``None`` for the root."""
        pos = self._pos[rank]
        if pos == 0:
            return None
        return self._members[(pos - 1) // self.arity]

    def children(self, rank: int) -> list[int]:
        """Real ranks of the children (possibly empty)."""
        pos = self._pos[rank]
        first = self.arity * pos + 1
        return [
            self._members[i]
            for i in range(first, min(first + self.arity, len(self._members)))
        ]

    def depth(self, rank: int) -> int:
        """Number of edges between ``rank`` and the root."""
        d = 0
        pos = self._pos[rank]
        while pos > 0:
            pos = (pos - 1) // self.arity
            d += 1
        return d

    def height(self) -> int:
        """Maximum depth over all members (0 for a singleton tree)."""
        return self.depth(self._members[-1])

    def levels(self) -> Iterator[list[int]]:
        """Yield members level by level from the leaves up to the root.

        This is the order a tree reduction consumes nodes in: every node in
        level *d* has all of its children in levels > *d* already merged.
        """
        by_depth: dict[int, list[int]] = {}
        for r in self._members:
            by_depth.setdefault(self.depth(r), []).append(r)
        for d in sorted(by_depth, reverse=True):
            yield by_depth[d]


@dataclass(frozen=True)
class Grid2D:
    """A 2-D Cartesian process grid (row-major rank ordering)."""

    rows: int
    cols: int

    def __post_init__(self) -> None:
        if self.rows <= 0 or self.cols <= 0:
            raise ValueError("grid dimensions must be positive")

    @property
    def size(self) -> int:
        return self.rows * self.cols

    def coords(self, rank: int) -> tuple[int, int]:
        if not (0 <= rank < self.size):
            raise ValueError(f"rank {rank} outside grid of size {self.size}")
        return divmod(rank, self.cols)

    def rank(self, row: int, col: int) -> int:
        if not (0 <= row < self.rows and 0 <= col < self.cols):
            raise ValueError(f"coords ({row},{col}) outside {self.rows}x{self.cols}")
        return row * self.cols + col

    def neighbor(self, rank: int, drow: int, dcol: int) -> int | None:
        """Rank of the neighbor at the given offset, or None off the edge."""
        row, col = self.coords(rank)
        nrow, ncol = row + drow, col + dcol
        if 0 <= nrow < self.rows and 0 <= ncol < self.cols:
            return self.rank(nrow, ncol)
        return None

    def north(self, rank: int) -> int | None:
        return self.neighbor(rank, -1, 0)

    def south(self, rank: int) -> int | None:
        return self.neighbor(rank, 1, 0)

    def west(self, rank: int) -> int | None:
        return self.neighbor(rank, 0, -1)

    def east(self, rank: int) -> int | None:
        return self.neighbor(rank, 0, 1)


@dataclass(frozen=True)
class Grid3D:
    """A 3-D Cartesian process grid (x fastest, then y, then z)."""

    nx: int
    ny: int
    nz: int

    def __post_init__(self) -> None:
        if self.nx <= 0 or self.ny <= 0 or self.nz <= 0:
            raise ValueError("grid dimensions must be positive")

    @property
    def size(self) -> int:
        return self.nx * self.ny * self.nz

    def coords(self, rank: int) -> tuple[int, int, int]:
        if not (0 <= rank < self.size):
            raise ValueError(f"rank {rank} outside grid of size {self.size}")
        z, rem = divmod(rank, self.nx * self.ny)
        y, x = divmod(rem, self.nx)
        return (x, y, z)

    def rank(self, x: int, y: int, z: int) -> int:
        if not (0 <= x < self.nx and 0 <= y < self.ny and 0 <= z < self.nz):
            raise ValueError(
                f"coords ({x},{y},{z}) outside {self.nx}x{self.ny}x{self.nz}"
            )
        return (z * self.ny + y) * self.nx + x

    def neighbor(self, rank: int, dx: int, dy: int, dz: int) -> int | None:
        """Rank at the given offset, or None past the boundary."""
        x, y, z = self.coords(rank)
        nx, ny, nz = x + dx, y + dy, z + dz
        if 0 <= nx < self.nx and 0 <= ny < self.ny and 0 <= nz < self.nz:
            return self.rank(nx, ny, nz)
        return None

    def face_neighbors(self, rank: int) -> list[int]:
        """The up-to-6 face-adjacent ranks."""
        out = []
        for d in ((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1),
                  (0, 0, -1)):
            n = self.neighbor(rank, *d)
            if n is not None:
                out.append(n)
        return out


def cube_grid(size: int) -> Grid3D:
    """The k x k x k grid for a perfect-cube ``size`` (LULESH requires it)."""
    k = round(size ** (1 / 3))
    for candidate in (k - 1, k, k + 1):
        if candidate > 0 and candidate**3 == size:
            return Grid3D(candidate, candidate, candidate)
    raise ValueError(f"size {size} is not a perfect cube")


def square_grid(size: int) -> Grid2D:
    """The nearest-to-square 2-D factorization of ``size`` ranks.

    NPB LU/SP/BT and POP all decompose onto (close to) square grids; this
    picks ``rows = the largest factor <= sqrt(size)``.
    """
    if size <= 0:
        raise ValueError("size must be positive")
    rows = int(math.isqrt(size))
    while rows > 1 and size % rows != 0:
        rows -= 1
    return Grid2D(rows, size // rows)


def hypercube_neighbors(rank: int, size: int) -> list[int]:
    """Neighbors of ``rank`` in the hypercube over the next power of two.

    Only neighbors < ``size`` are returned, which is the peer set used by
    dissemination-style algorithms on non-power-of-two communicators.
    """
    if not (0 <= rank < size):
        raise ValueError("rank outside communicator")
    out = []
    bit = 1
    while bit < size:
        peer = rank ^ bit
        if peer < size:
            out.append(peer)
        bit <<= 1
    return out


def binomial_children(rank: int, size: int, root: int = 0) -> list[int]:
    """Children of ``rank`` in a binomial broadcast tree rooted at ``root``.

    Standard construction on the rotated rank ``v = (rank - root) mod size``:
    node ``v`` owns children ``v | bit`` for each bit above ``v``'s lowest
    set bit (or all bits if ``v == 0``).
    """
    if not (0 <= rank < size):
        raise ValueError("rank outside communicator")
    v = (rank - root) % size
    children = []
    bit = 1
    while bit < size:
        if v & (bit - 1) == v and v | bit != v:
            child = v | bit
            if child < size:
                children.append((child + root) % size)
        bit <<= 1
    return children


def binomial_parent(rank: int, size: int, root: int = 0) -> int | None:
    """Parent of ``rank`` in the binomial tree, or None for the root."""
    if not (0 <= rank < size):
        raise ValueError("rank outside communicator")
    v = (rank - root) % size
    if v == 0:
        return None
    # clear the highest set bit: node v joined the tree in the round that
    # set that bit, receiving from v without it
    parent = v - (1 << (v.bit_length() - 1))
    return (parent + root) % size


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
