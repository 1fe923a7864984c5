"""Per-marker-interval signatures: Call-Path, SRC, DEST.

Chameleon summarizes the MPI events a process executed between two marker
calls in three 64-bit signatures (paper §III):

* **Call-Path** — the XOR fold of the events' stack signatures, each scaled
  by ``(seq mod 10) + 1`` so permutations and recursion cannot cancel.
* **SRC/DEST** — overflow-safe averages of the hashed endpoint parameters.

The accumulator below is updated incrementally at event-record time (O(1)
per event), so the marker-time work is only the fold over PRSD-compressed
events the paper's O(n) bound describes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from ..scalatrace.signatures import EndpointSignatures

_MASK64 = (1 << 64) - 1


@dataclass(frozen=True)
class IntervalSignatures:
    """The (Call-Path, SRC, DEST) triple for one marker interval."""

    callpath: int
    src: int
    dest: int

    def as_tuple(self) -> tuple[int, int, int]:
        return (self.callpath, self.src, self.dest)


@dataclass
class SignatureAccumulator:
    """Incremental builder of :class:`IntervalSignatures`.

    ``observe`` folds one intercepted MPI call in, ``observe_many`` a batch
    of them; ``snapshot`` reads the triple, ``reset`` starts the next interval.

    ``mode`` selects the Call-Path formula:

    * ``"sequence"`` — the paper's default: XOR over the full event sequence
      with the ``(seq mod 10) + 1`` multiplier.
    * ``"dedup"`` — the *automatic parameter filter* of Bahmani & Mueller
      [2] that the paper applies to POP: the Call-Path is computed over the
      ordered set of **distinct** call sites, making it invariant to
      data-dependent loop trip counts (POP's convergence iterations) while
      still detecting genuinely new phases.
    """

    mode: str = "sequence"
    _callpath: int = 0
    _seq: int = 0
    _endpoints: EndpointSignatures = field(default_factory=EndpointSignatures)
    events: int = 0
    distinct_sigs: set = field(default_factory=set)
    # Dedup-mode Call-Path, folded incrementally as each *new* distinct
    # call site arrives (its multiplier is fixed by arrival order, so the
    # fold never needs to be recomputed).
    _dedup_cp: int = 0

    def __post_init__(self) -> None:
        if self.mode not in ("sequence", "dedup"):
            raise ValueError(f"unknown signature mode {self.mode!r}")

    def observe(
        self,
        stack_sig: int,
        src_offset: int | None = None,
        dest_offset: int | None = None,
    ) -> None:
        """Fold one event in: one step of :meth:`observe_many`'s loop."""
        term = stack_sig & _MASK64
        self._callpath ^= ((self._seq % 10) + 1) * term & _MASK64
        self._seq += 1
        self.events += 1
        distinct = self.distinct_sigs
        if stack_sig not in distinct:
            self._dedup_cp ^= ((len(distinct) % 10) + 1) * term & _MASK64
            distinct.add(stack_sig)
        self._endpoints.observe(src_offset, dest_offset)

    def observe_many(
        self, events: Iterable[tuple[int, int | None, int | None]]
    ) -> None:
        """Fold ``(stack_sig, src_offset, dest_offset)`` events in, in
        order.  The SRC/DEST means are a float recurrence, so a batch is
        replayed addition by addition: any split of an event sequence into
        batches leaves the same state, bit for bit."""
        callpath, seq, distinct = self._callpath, self._seq, self.distinct_sigs
        endpoints = self._endpoints.observe
        for stack_sig, src_offset, dest_offset in events:
            term = stack_sig & _MASK64
            callpath ^= ((seq % 10) + 1) * term & _MASK64
            seq += 1
            if stack_sig not in distinct:
                self._dedup_cp ^= ((len(distinct) % 10) + 1) * term & _MASK64
                distinct.add(stack_sig)
            endpoints(src_offset, dest_offset)
        self.events += seq - self._seq
        self._callpath, self._seq = callpath, seq

    def snapshot(self) -> IntervalSignatures:
        src, dest = self._endpoints.values()
        if self.mode == "dedup":
            return IntervalSignatures(callpath=self._dedup_cp, src=src, dest=dest)
        return IntervalSignatures(callpath=self._callpath, src=src, dest=dest)

    @property
    def prsd_events(self) -> int:
        """`n` for the marker-time cost charge: distinct call sites seen."""
        return len(self.distinct_sigs)

    def reset(self) -> None:
        self._callpath = 0
        self._seq = 0
        self.events = 0
        self.distinct_sigs.clear()
        self._dedup_cp = 0
        self._endpoints.reset()
