"""Endpoint encodings: relative, absolute, and strided-pattern forms.

ScalaTrace's location-independent encoding stores communication endpoints in
whichever representation stays constant under compression (paper §II and
ScalaExtrap [28]):

* **relative-constant** — ``dest = rank + c`` (stencil neighbours);
* **absolute-constant** — ``dest = a`` (hub patterns: every worker talks to
  the master at rank 0);
* **strided pattern** — across loop iterations the relative offset walks an
  arithmetic sequence (a master sending to ``rank+1, rank+2, ...``); the
  pattern is ``(start, stride, length)`` and *closes* when it wraps back to
  its start, after which further occurrences must keep cycling through it.

An :class:`EndpointStat` tracks all three candidates simultaneously and
invalidates the ones observations contradict.  Two event records may merge
only while at least one representation survives in both — this is what lets
a master-worker pipeline compress to a handful of PRSD events while a ring
with wraparound correctly stays split into interior/edge variants.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(slots=True)
class Pattern:
    """Arithmetic offset cycle: ``start + stride * (i mod length)``."""

    start: int
    stride: int | None  # None until a second distinct value fixes it
    length: int
    closed: bool  # True once the cycle wrapped; length is then frozen
    n: int  # total observations consumed by this pattern

    def copy(self) -> "Pattern":
        return Pattern(self.start, self.stride, self.length, self.closed, self.n)

    def offset_at(self, index: int) -> int:
        if self.stride in (None, 0) or self.length == 1:
            return self.start
        return self.start + self.stride * (index % self.length)


class EndpointStat:
    """All candidate encodings of one event's endpoint parameter."""

    __slots__ = ("rel", "abs_", "pattern")

    def __init__(
        self,
        rel: int | None,
        abs_: int | None,
        pattern: Pattern | None,
    ) -> None:
        self.rel = rel
        self.abs_ = abs_
        self.pattern = pattern

    @classmethod
    def of(cls, absolute: int, rank: int) -> "EndpointStat":
        rel = absolute - rank
        return cls(
            rel=rel,
            abs_=absolute,
            pattern=Pattern(start=rel, stride=None, length=1, closed=False, n=1),
        )

    # -- single-observation extension (intra-rank, in stream order) --------

    @staticmethod
    def _pattern_extended(p: Pattern, rel_value: int) -> Pattern | None:
        """The pattern after appending one relative offset, or None."""
        q = p.copy()
        q.n += 1
        if rel_value == p.start and p.stride in (None, 0) and p.length == 1:
            # repeated constant: normalize to a closed length-1 cycle
            q.stride = 0
            q.closed = True
            return q
        if not p.closed:
            if p.stride is None:
                # second distinct value fixes the stride
                q.stride = rel_value - p.start
                q.length = 2
                return q
            expected = p.start + p.stride * p.length
            if rel_value == expected:
                q.length += 1
                return q
            if rel_value == p.start and p.length >= 2:
                q.closed = True
                return q
            return None
        # closed cycle: the new observation (index p.n) must keep cycling
        if rel_value == p.offset_at(p.n % p.length):
            return q
        return None

    # -- merging two stats ---------------------------------------------------

    @staticmethod
    def _patterns_mergeable(
        a: Pattern | None, b: Pattern | None, allow_chain: bool
    ) -> Pattern | None:
        """Merged pattern of two congruent stats, or None.

        Two cases: (1) ``b`` is a single observation continuing ``a``'s
        sequence — only valid when the two stats come from the *same rank's
        stream* in order (``allow_chain``, i.e. intra-node folding; chaining
        observations from different ranks would invent bogus strides);
        (2) ``a`` and ``b`` are *identical* complete cycles (the loop-fold
        and cross-rank merge path).
        """
        if a is None or b is None:
            return None
        if b.n == 1 and allow_chain:
            return EndpointStat._pattern_extended(a, b.start)
        if b.n == 1 and a.length == 1 and a.start == b.start:
            # cross-rank: same constant offset, still a trivial cycle
            merged = a.copy()
            merged.n += 1
            return merged
        # identical cycles covering complete periods
        if (
            a.start == b.start
            and a.length == b.length
            and (a.stride == b.stride or a.length == 1)
        ):
            a_complete = a.closed or a.n == a.length
            b_complete = b.closed or b.n == b.length
            if a_complete and b_complete:
                merged = a.copy()
                merged.n = a.n + b.n
                merged.closed = a.closed or b.closed or a.length > 1
                if a.length == 1:
                    merged.closed = True
                return merged
        return None

    def can_merge(self, other: "EndpointStat", allow_chain: bool = True) -> bool:
        if self.rel is not None and self.rel == other.rel:
            return True
        if self.abs_ is not None and self.abs_ == other.abs_:
            return True
        return (
            self._patterns_mergeable(self.pattern, other.pattern, allow_chain)
            is not None
        )

    def merged(self, other: "EndpointStat", allow_chain: bool = True) -> tuple | None:
        """``(rel, abs_, pattern)`` with ``other`` folded in, or None when no
        encoding survives (``can_merge`` is False).  Mutates nothing."""
        return self._surviving(
            other.rel, other.abs_,
            self._patterns_mergeable(self.pattern, other.pattern, allow_chain))

    def extended(self, rel: int, abs_: int) -> tuple | None:
        """``merged`` with the one-observation stat ``of(abs_, abs_ - rel)``,
        in stream order, without building it."""
        p = self.pattern
        return self._surviving(
            rel, abs_, None if p is None else self._pattern_extended(p, rel))

    def _surviving(self, rel: int | None, abs_: int | None,
                   pattern: Pattern | None) -> tuple | None:
        rel = self.rel if self.rel == rel else None
        abs_ = self.abs_ if self.abs_ == abs_ else None
        if rel is None and abs_ is None and pattern is None:
            return None
        return rel, abs_, pattern

    def merge(self, other: "EndpointStat", allow_chain: bool = True) -> None:
        """Fold ``other`` into this stat (``can_merge`` must hold)."""
        encoding = self.merged(other, allow_chain)
        if encoding is None:
            raise ValueError("endpoint stats are not mergeable")
        self.rel, self.abs_, self.pattern = encoding

    # -- interpretation ------------------------------------------------------

    def resolve(self, rank: int, occurrence: int) -> int | None:
        """Absolute endpoint for ``rank``'s ``occurrence``-th replay of the
        event (ScalaReplay's transposition).  None if nothing survived."""
        if self.rel is not None:
            return rank + self.rel
        if self.pattern is not None and self.pattern.stride is not None:
            return rank + self.pattern.offset_at(occurrence)
        if self.abs_ is not None:
            return self.abs_
        if self.pattern is not None:
            return rank + self.pattern.start
        return None

    def copy(self) -> "EndpointStat":
        return EndpointStat(
            self.rel,
            self.abs_,
            self.pattern.copy() if self.pattern else None,
        )

    def size_bytes(self) -> int:
        return 8 * (2 + (5 if self.pattern else 0))

    def __repr__(self) -> str:
        parts = []
        if self.rel is not None:
            parts.append(f"rel{self.rel:+d}")
        if self.abs_ is not None:
            parts.append(f"abs={self.abs_}")
        if self.pattern is not None and self.pattern.length > 1:
            p = self.pattern
            parts.append(f"pat({p.start},{p.stride},{p.length})")
        return "<" + (" ".join(parts) or "invalid") + ">"

    # -- serialization ------------------------------------------------------

    def to_text(self) -> str:
        def opt(v):
            return "." if v is None else str(v)

        p = self.pattern
        pat = (
            f"{p.start}/{opt(p.stride)}/{p.length}/{int(p.closed)}/{p.n}"
            if p
            else "."
        )
        return f"{opt(self.rel)}:{opt(self.abs_)}:{pat}"

    @classmethod
    def from_text(cls, text: str) -> "EndpointStat":
        rel_s, abs_s, pat_s = text.split(":")

        def opt(v):
            return None if v == "." else int(v)

        pattern = None
        if pat_s != ".":
            start, stride, length, closed, n = pat_s.split("/")
            pattern = Pattern(
                start=int(start),
                stride=opt(stride),
                length=int(length),
                closed=bool(int(closed)),
                n=int(n),
            )
        return cls(rel=opt(rel_s), abs_=opt(abs_s), pattern=pattern)
