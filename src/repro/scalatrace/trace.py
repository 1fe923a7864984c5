"""Trace container and on-disk text format.

A :class:`Trace` owns a compressed node list plus provenance metadata and
provides the size/statistics accounting the paper's Table IV relies on, and
a line-oriented text serialization (one node per line, loops bracketed) so
traces can be written, diffed and replayed from disk like ScalaTrace's
trace files.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterator

from .endpoint import EndpointStat
from .events import EventRecord, Op, ParamStat
from .ranklist import RankSet
from .rsd import EventNode, LoopNode, TraceNode, expand, iter_leaves
from .timehist import DeltaHistogram

_FORMAT_VERSION = 1


@dataclass
class Trace:
    """A compressed (possibly global) communication trace."""

    nodes: list[TraceNode] = field(default_factory=list)
    origin: RankSet = field(default_factory=lambda: RankSet.single(0))
    nprocs: int = 1

    # -- statistics --------------------------------------------------------

    def leaf_count(self) -> int:
        """PRSD-compressed event count (the paper's ``n``)."""
        return sum(n.leaf_count() for n in self.nodes)

    def expanded_count(self) -> int:
        """Original event count represented by the compression."""
        return sum(n.expanded_count() for n in self.nodes)

    def size_bytes(self) -> int:
        """Modelled allocation of the trace structure."""
        return 64 + sum(n.size_bytes() for n in self.nodes)

    def nbytes_hint(self) -> int:
        """Lets the simulator size messages carrying traces."""
        return self.size_bytes()

    def compression_ratio(self) -> float:
        leaf = self.leaf_count()
        return self.expanded_count() / leaf if leaf else 1.0

    def leaves(self) -> Iterator[EventNode]:
        return iter_leaves(self.nodes)

    def events(self) -> Iterator[EventRecord]:
        """The full expanded event stream."""
        return expand(self.nodes)

    def distinct_stack_signatures(self) -> set[int]:
        return {leaf.record.stack_sig for leaf in self.leaves()}

    def copy(self) -> "Trace":
        return Trace(
            nodes=[n.copy() for n in self.nodes],
            origin=RankSet(self.origin.ranks()),
            nprocs=self.nprocs,
        )

    # -- serialization -------------------------------------------------------

    def serialize(self) -> str:
        """Text form: header + one line per node (loops bracketed)."""
        lines = [
            f"#scalatrace v{_FORMAT_VERSION} nprocs={self.nprocs} "
            f"origin={self.origin.to_text()}"
        ]

        def emit(node: TraceNode, depth: int) -> None:
            pad = "  " * depth
            if isinstance(node, EventNode):
                lines.append(pad + _event_to_text(node.record))
            else:
                lines.append(f"{pad}loop {node.iters} {{")
                for child in node.body:
                    emit(child, depth + 1)
                lines.append(pad + "}")

        for node in self.nodes:
            emit(node, 0)
        return "\n".join(lines) + "\n"

    @classmethod
    def deserialize(cls, text: str) -> "Trace":
        """Parse :meth:`serialize` output.  Anything else raises
        ``ValueError`` naming the bad header field, the unsupported format
        version or the bad line."""
        lines = [(n, ln.strip()) for n, ln in enumerate(text.splitlines(), 1)
                 if ln.strip()]
        if not lines or not lines[0][1].startswith("#scalatrace"):
            raise ValueError("not a scalatrace trace file")
        header = lines[0][1].split()
        meta = dict(part.partition("=")[::2] for part in header[2:])
        fields: dict[str, Any] = {}
        for key, parse in (("nprocs", int), ("origin", RankSet.from_text)):
            if key not in meta:
                raise ValueError(f"trace header has no {key}= field")
            try:
                fields[key] = parse(meta[key])
            except ValueError:
                raise ValueError(f"trace header field {key}={meta[key]!r} "
                                 "is malformed") from None
        version = header[1] if len(header) > 1 else ""
        if version != f"v{_FORMAT_VERSION}":
            raise ValueError(f"trace format {version!r} is not supported "
                             f"(this reader reads v{_FORMAT_VERSION})")
        trace = cls(nodes=[], **fields)
        stack: list[list[TraceNode]] = [trace.nodes]
        for n, line in lines[1:]:
            try:
                if line.startswith("loop "):
                    loop = LoopNode(int(line.split()[1]), [])
                    stack[-1].append(loop)
                    stack.append(loop.body)
                elif line == "}":
                    if len(stack) == 1:
                        raise ValueError("unbalanced loop brackets")
                    stack.pop()
                else:
                    stack[-1].append(EventNode(_event_from_text(line)))
            except ValueError as exc:
                raise ValueError(f"trace line {n}: {exc}") from None
        if len(stack) != 1:
            raise ValueError("unterminated loop in trace file")
        return trace

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.serialize())

    @classmethod
    def load(cls, path: str) -> "Trace":
        with open(path, encoding="utf-8") as fh:
            return cls.deserialize(fh.read())


def _opt(v: int | None) -> str:
    return "." if v is None else str(v)


def _opt_parse(s: str) -> int | None:
    return None if s == "." else int(s)


def _event_to_text(rec: EventRecord) -> str:
    fields = [
        "ev",
        rec.op.value,
        f"{rec.stack_sig:016x}",
        str(rec.comm_id),
        "." if rec.src is None else rec.src.to_text(),
        "." if rec.dest is None else rec.dest.to_text(),
        _opt(rec.root),
        rec.participants.to_text(),
        rec.count.to_text(),
        rec.tag.to_text(),
        rec.dhist.to_text(),
    ]
    return " ".join(fields)


def _event_from_text(line: str) -> EventRecord:
    parts = line.split(" ")
    if parts[0] != "ev" or len(parts) != 11:
        raise ValueError(f"bad event line: {line!r}")
    return EventRecord(
        op=Op(parts[1]),
        stack_sig=int(parts[2], 16),
        comm_id=int(parts[3]),
        src=None if parts[4] == "." else EndpointStat.from_text(parts[4]),
        dest=None if parts[5] == "." else EndpointStat.from_text(parts[5]),
        root=_opt_parse(parts[6]),
        participants=RankSet.from_text(parts[7]),
        count=ParamStat.from_text(parts[8]),
        tag=ParamStat.from_text(parts[9]),
        dhist=DeltaHistogram.from_text(parts[10]),
    )
