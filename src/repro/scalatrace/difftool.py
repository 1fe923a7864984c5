"""Semantic trace comparison.

Replay-time accuracy (the paper's ACC metric) is an end-to-end check; this
module compares two traces *structurally*: do they describe the same MPI
events, covering the same ranks, with the same per-event volume?  Used to
validate that Chameleon's online trace is equivalent to ScalaTrace's
finalize output (the paper's claim that the online trace "incrementally
expands to an equivalent output of MPI_Finalize").

Events are bucketed by their static key (operation, call-site signature,
communicator, root, endpoint arity); per bucket we compare expanded
occurrence counts, covered ranks, and mean payloads.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .events import StaticKey
from .trace import Trace


@dataclass
class KeyDiff:
    """Differences for one event bucket."""

    key: StaticKey
    occurrences_a: int = 0
    occurrences_b: int = 0
    ranks_a: set = field(default_factory=set)
    ranks_b: set = field(default_factory=set)
    bytes_a: float = 0.0
    bytes_b: float = 0.0

    @property
    def only_in_a(self) -> bool:
        return self.occurrences_b == 0

    @property
    def only_in_b(self) -> bool:
        return self.occurrences_a == 0

    @property
    def rank_coverage_equal(self) -> bool:
        return self.ranks_a == self.ranks_b


@dataclass
class TraceDiff:
    """Full comparison of two traces."""

    buckets: dict[StaticKey, KeyDiff]
    nprocs_a: int
    nprocs_b: int

    @property
    def common_keys(self) -> list[StaticKey]:
        return [
            k
            for k, d in self.buckets.items()
            if not d.only_in_a and not d.only_in_b
        ]

    @property
    def missing_in_b(self) -> list[StaticKey]:
        return [k for k, d in self.buckets.items() if d.only_in_a]

    @property
    def missing_in_a(self) -> list[StaticKey]:
        return [k for k, d in self.buckets.items() if d.only_in_b]

    def similarity(self) -> float:
        """[0, 1]: fraction of event occurrences in agreement.

        For every bucket the agreement is ``min(occ_a, occ_b)``; the score
        is total agreement over total occurrences of the larger trace.
        """
        agree = 0
        total = 0
        for d in self.buckets.values():
            agree += min(d.occurrences_a, d.occurrences_b)
            total += max(d.occurrences_a, d.occurrences_b)
        return agree / total if total else 1.0

    def rank_coverage_ok(self) -> bool:
        return all(d.rank_coverage_equal for d in self.buckets.values())

    def report(self, max_rows: int = 10) -> str:
        lines = [
            f"trace diff: similarity {self.similarity():.4f}, "
            f"{len(self.common_keys)} shared event kinds, "
            f"{len(self.missing_in_b)} only in A, "
            f"{len(self.missing_in_a)} only in B",
        ]
        shown = 0
        for key, d in self.buckets.items():
            if d.occurrences_a == d.occurrences_b and d.rank_coverage_equal:
                continue
            if shown >= max_rows:
                lines.append("  ...")
                break
            op, sig = key[0], key[1]
            lines.append(
                f"  {op} sig={sig & 0xFFFF:04x}: "
                f"occurrences {d.occurrences_a} vs {d.occurrences_b}, "
                f"ranks {len(d.ranks_a)} vs {len(d.ranks_b)}"
            )
            shown += 1
        return "\n".join(lines)


def _accumulate(trace: Trace, buckets: dict, side: str) -> None:
    for rec in trace.events():
        key = rec.static_key()
        diff = buckets.get(key)
        if diff is None:
            diff = buckets[key] = KeyDiff(key=key)
        members = rec.participants.ranks()
        occurrences = len(members)
        nbytes = (rec.count.mean if rec.count.n else 0.0) * occurrences
        if side == "a":
            diff.occurrences_a += occurrences
            diff.ranks_a.update(members)
            diff.bytes_a += nbytes
        else:
            diff.occurrences_b += occurrences
            diff.ranks_b.update(members)
            diff.bytes_b += nbytes


def diff_traces(a: Trace, b: Trace) -> TraceDiff:
    """Compare two traces bucket-by-bucket."""
    buckets: dict[StaticKey, KeyDiff] = {}
    _accumulate(a, buckets, "a")
    _accumulate(b, buckets, "b")
    return TraceDiff(buckets=buckets, nprocs_a=a.nprocs, nprocs_b=b.nprocs)
