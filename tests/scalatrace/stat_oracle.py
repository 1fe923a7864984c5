"""The statistics before they merged in place, kept verbatim as a reference.

``DeltaHistogram`` walks a 49-slot list; ``EndpointStat`` decides a merge
by building the merged encoding (``merged``/``extended`` and their
helpers) and then assigns it; ``ParamStat`` and the ``EventRecord`` merges
are the code that called them.  ``test_stat_oracle`` drives these and the
live statistics with the same sequences and compares them bit for bit.
(Edits: ``_Record`` holds only the fields the merges read; ``record_of``
is that code's ``EventRecord.of``, which ``record``-ed the one sample into
an empty histogram; ``draw``, ``resolve`` and the parsers are left out.)
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.scalatrace.events import Endpoint, Op
from repro.scalatrace.ranklist import RankSet

_MIN_DT = 1e-9
_DECADES = 12  # 1e-9 .. 1e3 seconds
_BINS_PER_DECADE = 4
_NBINS = _DECADES * _BINS_PER_DECADE + 1


def _bin_index(dt: float) -> int:
    if dt <= _MIN_DT:
        return 0
    idx = int((math.log10(dt) + 9.0) * _BINS_PER_DECADE) + 1
    return min(max(idx, 0), _NBINS - 1)


def _bin_bounds(idx: int) -> tuple[float, float]:
    """(low, high) duration bounds of one logarithmic bin."""
    if idx == 0:
        return (0.0, _MIN_DT)
    lo = 10.0 ** ((idx - 1) / _BINS_PER_DECADE - 9.0)
    hi = 10.0 ** (idx / _BINS_PER_DECADE - 9.0)
    return (lo, hi)


@dataclass(slots=True)
class DeltaHistogram:
    """Mergeable log-binned histogram of non-negative durations."""

    counts: list[int] = field(default_factory=lambda: [0] * _NBINS)
    total: int = 0
    sum: float = 0.0
    min: float = math.inf
    max: float = 0.0

    def record(self, dt: float) -> int:
        """Add one duration; returns the change of :meth:`size_bytes` (16
        when it opens a bin), bit-equal to :meth:`merge` of a one-sample
        histogram."""
        if dt < 0:
            raise ValueError("delta times are non-negative")
        i = _bin_index(dt)
        opened = not self.counts[i]
        self.counts[i] += 1
        self.total += 1
        self.sum += dt
        self.min = dt if dt < self.min else self.min
        self.max = dt if dt > self.max else self.max
        return 16 * opened

    def merge(self, other: "DeltaHistogram") -> int:
        """Returns the change of :meth:`size_bytes`: 16 per bin it opens."""
        counts, theirs, opened = self.counts, other.counts, 0
        # one sample (every intra-node fold) fills one bin
        for i in (theirs.index(1),) if other.total == 1 else range(_NBINS):
            if theirs[i]:
                opened += not counts[i]
                counts[i] += theirs[i]
        self.total += other.total
        self.sum += other.sum
        self.min = min(self.min, other.min)
        self.max = max(self.max, other.max)
        return 16 * opened

    @property
    def mean(self) -> float:
        return self.sum / self.total if self.total else 0.0

    def size_bytes(self) -> int:
        """Modelled allocation: only non-empty bins are stored (sparse)."""
        nonzero = len(self.counts) - self.counts.count(0)
        return 8 * (4 + 2 * nonzero)  # total/sum/min/max + (bin, count) pairs

    def copy(self) -> "DeltaHistogram":
        h = DeltaHistogram()
        h.counts = list(self.counts)
        h.total = self.total
        h.sum = self.sum
        h.min = self.min
        h.max = self.max
        return h

    def to_text(self) -> str:
        bins = ";".join(f"{i}:{c}" for i, c in enumerate(self.counts) if c)
        lo = "inf" if math.isinf(self.min) else repr(self.min)
        return f"{self.total}|{self.sum!r}|{lo}|{self.max!r}|{bins}"


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

    def copy(self) -> "EndpointStat":
        return EndpointStat(
            self.rel,
            self.abs_,
            self.pattern.copy() if self.pattern else None,
        )

    def size_bytes(self) -> int:
        return 8 * (2 + (5 if self.pattern else 0))

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


@dataclass(slots=True)
class ParamStat:
    """Mergeable min/max/mean statistic of an integer call parameter."""

    n: int = 0
    mean: float = 0.0
    min: float = math.inf
    max: float = -math.inf

    @classmethod
    def of(cls, value: float) -> "ParamStat":
        """Born with its first sample: bit-equal to ``ParamStat()`` +
        ``add(value)`` (``0.0 + value`` is the mean ``add`` computes, sign
        of zero included), ``min``/``max`` keep the value's type."""
        return cls(1, 0.0 + value, value, value)

    def add(self, value: float) -> None:
        self.n += 1
        self.mean += (value - self.mean) / self.n
        self.min = min(self.min, value)
        self.max = max(self.max, value)

    def merge(self, other: "ParamStat") -> None:
        if other.n == 0:
            return
        total = self.n + other.n
        self.mean += (other.mean - self.mean) * other.n / total
        self.n = total
        self.min = min(self.min, other.min)
        self.max = max(self.max, other.max)

    def to_text(self) -> str:
        lo = "inf" if math.isinf(self.min) else repr(self.min)
        hi = "-inf" if math.isinf(self.max) and self.max < 0 else repr(self.max)
        return f"{self.n}~{self.mean!r}~{lo}~{hi}"


@dataclass
class _Record:
    """The fields of an ``EventRecord`` its merges read."""

    op: Op
    stack_sig: int
    comm_id: int = 0
    src: EndpointStat | None = None
    dest: EndpointStat | None = None
    root: int | None = None
    participants: RankSet = field(default_factory=lambda: RankSet.single(0))
    count: ParamStat = field(default_factory=ParamStat)
    tag: ParamStat = field(default_factory=ParamStat)
    dhist: DeltaHistogram = field(default_factory=DeltaHistogram)

    def can_merge(self, other: "EventRecord", allow_chain: bool = True) -> bool:
        """Whether ``other`` may fold into this record.

        ``allow_chain`` distinguishes intra-node folding (stream order —
        strided endpoint patterns may extend) from inter-node merging
        (different ranks — only matching constant/cycle encodings merge).
        :meth:`static_key`'s fields are compared in place: this is hot.
        """
        return (
            self.op is other.op
            and self.stack_sig == other.stack_sig
            and self.comm_id == other.comm_id
            and self.root == other.root
            and (self.src is None) == (other.src is None)
            and (self.dest is None) == (other.dest is None)
            and (self.src is None or self.src.can_merge(other.src, allow_chain))
            and (self.dest is None or self.dest.can_merge(other.dest, allow_chain))
        )

    def merge(self, other: "EventRecord", allow_chain: bool = True) -> int:
        """Fold ``other`` in; returns the change of :meth:`size_bytes`.  Decides
        what :meth:`can_merge` decides, but keeps both endpoints' merged encodings
        and only then assigns: a refused pair raises ``ValueError``, nothing moved."""
        src, dest = self.src, self.dest
        src_to = dest_to = None
        if not (
            self.op is other.op
            and self.stack_sig == other.stack_sig
            and self.comm_id == other.comm_id
            and self.root == other.root
            and (src is None) == (other.src is None)
            and (dest is None) == (other.dest is None)
            and (src is None or (src_to := src.merged(other.src, allow_chain)))
            and (dest is None or (dest_to := dest.merged(other.dest, allow_chain)))
        ):
            raise ValueError(f"cannot merge events: {self} vs {other}")
        delta = self.dhist.merge(other.dhist)
        for ep, to in ((src, src_to), (dest, dest_to)):
            if to:  # a pattern is never gained; dropped, its 5 words go
                delta -= 40 * (ep.pattern is not None and to[2] is None)
                ep.rel, ep.abs_, ep.pattern = to
        union = self.participants.union(other.participants)
        if union is not self.participants:  # never on an intra-node fold
            delta += union.size_bytes() - self.participants.size_bytes()
            self.participants = union
        self.count.merge(other.count)
        self.tag.merge(other.tag)
        return delta

    def can_merge_sample(self, src: Endpoint | None, dest: Endpoint | None) -> bool:
        """``can_merge`` of the record :meth:`of` would build for a call of
        this record's own site, operation and participants (the caller
        checked those), from its endpoints alone."""
        return (src is None or self.src.extended(*src) is not None) and (
            dest is None or self.dest.extended(*dest) is not None)

    def merge_sample(self, src: Endpoint | None, dest: Endpoint | None,
                     nbytes: int, tag: int, dt: float) -> int:
        """``merge`` of that record, without building it; returns the change
        of :meth:`size_bytes`.  ``can_merge_sample`` must hold.  Every
        statistic takes the one sample's ``add``/``record``, which is
        bit-equal to merging a one-sample statistic."""
        delta = self.dhist.record(dt)
        for ep, seen in ((self.src, src), (self.dest, dest)):
            if seen is not None:
                to = ep.extended(*seen)
                delta -= 40 * (ep.pattern is not None and to[2] is None)
                ep.rel, ep.abs_, ep.pattern = to
        self.count.add(nbytes)
        self.tag.add(tag)
        return delta

    def size_bytes(self) -> int:
        """Modelled allocation of this record (paper Table IV accounting):
        fixed header + endpoint encodings + ranklist + sparse histogram."""
        size = 96 + self.participants.size_bytes() + self.dhist.size_bytes()
        if self.src is not None:
            size += self.src.size_bytes()
        if self.dest is not None:
            size += self.dest.size_bytes()
        return size


def record_of(op: Op, sig: int, participants: RankSet, src: Endpoint | None,
              dest: Endpoint | None, nbytes: int, tag: int,
              dt: float) -> _Record:
    rec = _Record(
        op=op,
        stack_sig=sig,
        src=None if src is None else EndpointStat.of(src[1], src[1] - src[0]),
        dest=None if dest is None else EndpointStat.of(dest[1], dest[1] - dest[0]),
        participants=participants,
        count=ParamStat(1, 0.0 + nbytes, nbytes, nbytes),
        tag=ParamStat(1, 0.0 + tag, tag, tag),
    )
    rec.dhist.record(dt)
    return rec
