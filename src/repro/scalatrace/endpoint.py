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
        return cls(rel, absolute, Pattern(rel, None, 1, False, 1))

    # -- folding observations and stats in place ---------------------------

    def can_merge(self, other: "EndpointStat", allow_chain: bool = True) -> bool:
        if self.rel is not None and self.rel == other.rel:
            return True
        if self.abs_ is not None and self.abs_ == other.abs_:
            return True
        p, q = self.pattern, other.pattern
        return p is not None and q is not None and _join(p, q, allow_chain, False)

    def merge(self, other: "EndpointStat", allow_chain: bool = True) -> int:
        """Fold ``other`` into this stat in place; returns the change of
        :meth:`size_bytes`.  Raises ``ValueError``, nothing moved, when
        ``can_merge`` does not hold."""
        p, q = self.pattern, other.pattern
        return self._keep(other.rel, other.abs_, p is not None and q is not None
                          and _join(p, q, allow_chain, True))

    def can_add(self, rel: int, abs_: int) -> bool:
        """``can_merge`` of the one-observation stat ``of(abs_, abs_ - rel)``,
        in stream order, without building it."""
        p = self.pattern
        return (self.rel == rel or self.abs_ == abs_
                or (p is not None and _extend(p, rel, False)))

    def add(self, rel: int, abs_: int) -> int:
        """``merge`` of that one-observation stat, without building it."""
        p = self.pattern
        return self._keep(rel, abs_, p is not None and _extend(p, rel, True))

    def _keep(self, rel: int | None, abs_: int | None, joined: bool) -> int:
        """Keep the constants the folded observations share and the pattern
        if it ``joined`` them (already in place); the change of
        :meth:`size_bytes`: a pattern is never gained, a dropped one frees
        its 5 words."""
        rel = self.rel if self.rel == rel else None
        abs_ = self.abs_ if self.abs_ == abs_ else None
        if not joined and rel is None and abs_ is None:
            raise ValueError("endpoint stats are not mergeable")
        self.rel, self.abs_ = rel, abs_
        if joined or self.pattern is None:
            return 0
        self.pattern = None
        return -40

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


# -- pattern steps: decide without building, apply in place ------------------
#
# Each returns whether the step holds and, when ``apply``, takes it in ``p``
# (``a``); a step that does not hold changes nothing.


def _extend(p: Pattern, rel: int, apply: bool) -> bool:
    """Append one relative offset to ``p`` (the same rank's stream, in
    order)."""
    if rel == p.start and p.stride in (None, 0) and p.length == 1:
        if apply:  # repeated constant: normalize to a closed length-1 cycle
            p.stride, p.closed = 0, True
    elif not p.closed:
        if p.stride is None:
            if apply:  # second distinct value fixes the stride
                p.stride, p.length = rel - p.start, 2
        elif rel == p.start + p.stride * p.length:
            if apply:
                p.length += 1
        elif rel == p.start and p.length >= 2:
            if apply:
                p.closed = True
        else:
            return False
    elif rel != p.offset_at(p.n % p.length):
        # closed cycle: the new observation (index p.n) must keep cycling
        return False
    if apply:
        p.n += 1
    return True


def _join(a: Pattern, b: Pattern, allow_chain: bool, apply: bool) -> bool:
    """Fold pattern ``b`` into ``a``.

    Two cases: (1) ``b`` is a single observation continuing ``a``'s
    sequence — only valid when the two stats come from the *same rank's
    stream* in order (``allow_chain``, i.e. intra-node folding; chaining
    observations from different ranks would invent bogus strides);
    (2) ``a`` and ``b`` are *identical* complete cycles (the loop-fold
    and cross-rank merge path).
    """
    if b.n == 1 and allow_chain:
        return _extend(a, b.start, apply)
    if b.n == 1 and a.length == 1 and a.start == b.start:
        if apply:  # cross-rank: same constant offset, still a trivial cycle
            a.n += 1
        return True
    if not (a.start == b.start and a.length == b.length
            and (a.stride == b.stride or a.length == 1)
            and (a.closed or a.n == a.length) and (b.closed or b.n == b.length)):
        return False
    if apply:  # identical cycles covering complete periods
        a.n += b.n
        a.closed = a.closed or b.closed or a.length >= 1
    return True
