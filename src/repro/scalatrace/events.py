"""MPI event records: the leaves of ScalaTrace's compressed trace.

Each record captures one MPI call site's parameters with ScalaTrace's
location-independent encodings (paper §II):

* endpoints are :class:`~repro.scalatrace.endpoint.EndpointStat` values
  tracking relative-constant, absolute-constant and strided-pattern
  representations simultaneously (``None`` = wildcard/no endpoint);
* the calling context is a 64-bit stack signature;
* per-occurrence values (payload bytes, tags, compute gaps) are kept as
  mergeable statistics, not per-occurrence lists.

Two records are *mergeable* — into one compressed event covering more loop
iterations or more ranks — when their static keys match and their endpoint
encodings are still jointly representable.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

from .endpoint import EndpointStat
from .ranklist import RankSet
from .timehist import DeltaHistogram


class Op(enum.Enum):
    """MPI operation kinds the tracer records."""

    SEND = "send"
    RECV = "recv"
    ISEND = "isend"
    IRECV = "irecv"
    SENDRECV = "sendrecv"
    BARRIER = "barrier"
    BCAST = "bcast"
    REDUCE = "reduce"
    ALLREDUCE = "allreduce"
    GATHER = "gather"
    SCATTER = "scatter"
    ALLGATHER = "allgather"
    ALLTOALL = "alltoall"
    SCAN = "scan"

    @property
    def is_collective(self) -> bool:
        return self in _COLLECTIVES

    @property
    def is_p2p(self) -> bool:
        return self in _P2P


_COLLECTIVES = {
    Op.BARRIER,
    Op.BCAST,
    Op.REDUCE,
    Op.ALLREDUCE,
    Op.GATHER,
    Op.SCATTER,
    Op.ALLGATHER,
    Op.ALLTOALL,
    Op.SCAN,
}
_P2P = {Op.SEND, Op.RECV, Op.ISEND, Op.IRECV, Op.SENDRECV}


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
        self.min = value if value < self.min else self.min
        self.max = value if value > self.max else self.max

    def merge(self, other: "ParamStat") -> None:
        if other.n == 0:
            return
        total = self.n + other.n
        self.mean += (other.mean - self.mean) * other.n / total
        self.n = total
        self.min = other.min if other.min < self.min else self.min
        self.max = other.max if other.max > self.max else self.max

    def copy(self) -> "ParamStat":
        s = ParamStat()
        s.n, s.mean, s.min, s.max = self.n, self.mean, self.min, self.max
        return s

    def to_text(self) -> str:
        lo = "inf" if math.isinf(self.min) else repr(self.min)
        hi = "-inf" if math.isinf(self.max) and self.max < 0 else repr(self.max)
        return f"{self.n}~{self.mean!r}~{lo}~{hi}"

    @classmethod
    def from_text(cls, text: str) -> "ParamStat":
        n, mean, lo, hi = text.split("~")
        s = cls()
        s.n = int(n)
        s.mean = float(mean)
        s.min = math.inf if lo == "inf" else float(lo)
        s.max = -math.inf if hi == "-inf" else float(hi)
        return s


#: Fields that must agree exactly for two records to describe one event.
StaticKey = tuple[str, int, int, int | None, bool, bool]
#: A call's endpoint as its encodings see it: (offset from the calling rank,
#: absolute rank).  One rank's stream keeps ``abs - offset`` fixed.
Endpoint = tuple[int, int]


@dataclass(slots=True, weakref_slot=True)
class EventRecord:
    """One compressed MPI event (possibly covering many ranks/iterations)."""

    op: Op
    stack_sig: int
    comm_id: int = 0
    src: EndpointStat | None = None  # None = wildcard / no source param
    dest: EndpointStat | None = None
    root: int | None = None  # collectives: absolute root rank
    participants: RankSet = field(default_factory=lambda: RankSet.single(0))
    count: ParamStat = field(default_factory=ParamStat)  # payload bytes
    tag: ParamStat = field(default_factory=ParamStat)
    dhist: DeltaHistogram = field(default_factory=DeltaHistogram)
    frames: tuple[str, ...] = ()  # human-readable call path (debug only)

    @classmethod
    def of(
        cls,
        op: Op,
        site: tuple[int, tuple[str, ...]],
        participants: RankSet,
        comm_id: int = 0,
        src: Endpoint | None = None,
        dest: Endpoint | None = None,
        root: int | None = None,
        nbytes: int = 0,
        tag: int = 0,
        dt: float = 0.0,
    ) -> "EventRecord":
        """The record of one call at ``site`` (stack signature, frames),
        born with its one sample: ``dt`` is the compute gap before it."""
        return cls(  # positional, in field order: this is hot
            op, site[0], comm_id,
            None if src is None else EndpointStat.of(src[1], src[1] - src[0]),
            None if dest is None else EndpointStat.of(dest[1], dest[1] - dest[0]),
            root, participants,
            ParamStat.of(nbytes), ParamStat.of(tag),
            DeltaHistogram.of(dt), site[1])

    def static_key(self) -> StaticKey:
        return (
            self.op.value,
            self.stack_sig,
            self.comm_id,
            self.root,
            self.src is None,
            self.dest is None,
        )

    @property
    def src_offset(self) -> int | None:
        """Constant relative source offset if that encoding survived."""
        return None if self.src is None else self.src.rel

    @property
    def dest_offset(self) -> int | None:
        return None if self.dest is None else self.dest.rel

    def can_merge(self, other: "EventRecord", allow_chain: bool = True) -> bool:
        """Whether ``other`` may fold into this record.

        ``allow_chain`` distinguishes intra-node folding (stream order —
        strided endpoint patterns may extend) from inter-node merging
        (different ranks — only matching constant/cycle encodings merge).
        """
        return _mergeable(self, other, allow_chain)

    def merge(self, other: "EventRecord", allow_chain: bool = True) -> int:
        """Fold ``other`` in place; returns the change of :meth:`size_bytes`.
        Checks :meth:`can_merge` first: a refused pair raises ``ValueError``,
        nothing moved."""
        if not _mergeable(self, other, allow_chain):
            raise ValueError(f"cannot merge events: {self} vs {other}")
        delta = self.dhist.merge(other.dhist)
        if self.src is not None:
            delta += self.src.merge(other.src, allow_chain)
        if self.dest is not None:
            delta += self.dest.merge(other.dest, allow_chain)
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
        return (src is None or self.src.can_add(*src)) and (
            dest is None or self.dest.can_add(*dest))

    def merge_sample(self, src: Endpoint | None, dest: Endpoint | None,
                     nbytes: int, tag: int, dt: float) -> int:
        """``merge`` of that record, without building it; returns the change
        of :meth:`size_bytes`.  ``can_merge_sample`` must hold.  Every
        statistic takes the one sample's ``add``/``record``, which is
        bit-equal to merging a one-sample statistic."""
        delta = self.dhist.record(dt)
        if src is not None:
            delta += self.src.add(*src)
        if dest is not None:
            delta += self.dest.add(*dest)
        self.count.add(nbytes)
        self.tag.add(tag)
        return delta

    def copy(self) -> "EventRecord":
        return EventRecord(
            op=self.op,
            stack_sig=self.stack_sig,
            comm_id=self.comm_id,
            src=self.src.copy() if self.src else None,
            dest=self.dest.copy() if self.dest else None,
            root=self.root,
            participants=RankSet(self.participants.ranks()),
            count=self.count.copy(),
            tag=self.tag.copy(),
            dhist=self.dhist.copy(),
            frames=self.frames,
        )

    def size_bytes(self) -> int:
        """Modelled allocation of this record (paper Table IV accounting):
        fixed header + endpoint encodings + ranklist + sparse histogram."""
        size = 96 + self.participants.size_bytes() + self.dhist.size_bytes()
        if self.src is not None:
            size += self.src.size_bytes()
        if self.dest is not None:
            size += self.dest.size_bytes()
        return size

    def __str__(self) -> str:
        ep = ""
        if self.dest is not None:
            ep += f" dest{self.dest!r}"
        if self.src is not None:
            ep += f" src{self.src!r}"
        if self.root is not None:
            ep += f" root={self.root}"
        return (
            f"{self.op.value}{ep} sig={self.stack_sig & 0xFFFF:04x} "
            f"ranks={self.participants}"
        )


def _mergeable(a: EventRecord, b: EventRecord, allow_chain: bool) -> bool:
    """``a.can_merge(b)``; :meth:`EventRecord.merge` checks with it too.
    :meth:`~EventRecord.static_key`'s fields are compared in place: this is
    hot."""
    return (
        a.op is b.op
        and a.stack_sig == b.stack_sig
        and a.comm_id == b.comm_id
        and a.root == b.root
        and (a.src is None) == (b.src is None)
        and (a.dest is None) == (b.dest is None)
        and (a.src is None or a.src.can_merge(b.src, allow_chain))
        and (a.dest is None or a.dest.can_merge(b.dest, allow_chain))
    )
