"""The linear-scan mailbox: test oracle for the indexed ``Mailbox``.

Moved here verbatim from ``repro.simmpi.comm`` when the ``matching`` engine
option was removed: the runtime only ever needs the indexed mailbox, and the
linear scan exists to prove the index changes nothing.  Tests select it with
the :func:`linear_matching` fixture, which swaps the factory
``CommContext`` builds its mailboxes from.
"""

from __future__ import annotations

import contextlib
from collections import deque

import pytest

from repro.simmpi.comm import (
    ANY_SOURCE,
    ANY_TAG,
    CommContext,
    Message,
    PendingRecv,
    _src_matches,
    _tag_matches,
)


class LinearMailbox:
    """The pre-index reference implementation: one FIFO arrival queue and
    one FIFO pending queue, matched by linear scan.

    Kept (a) as executable documentation of the matching semantics and
    (b) as the oracle for the randomized equivalence test in
    ``tests/simmpi/test_mailbox_matching.py``.  Select it with the
    :func:`linear_matching` fixture below.
    """

    __slots__ = ("queued", "pending", "_seq")

    def __init__(self) -> None:
        self.queued: deque[Message] = deque()
        self.pending: deque[PendingRecv] = deque()
        self._seq = 0

    # -- queued messages ---------------------------------------------------

    def push_msg(self, msg: Message) -> None:
        msg.seq = self._seq
        self._seq += 1
        self.queued.append(msg)

    def match_msg(self, source: int, tag: int) -> Message | None:
        for i, msg in enumerate(self.queued):
            if _src_matches(source, msg.src) and _tag_matches(tag, msg.tag):
                del self.queued[i]
                return msg
        return None

    def peek_msg(self, source: int, tag: int) -> Message | None:
        for msg in self.queued:
            if _src_matches(source, msg.src) and _tag_matches(tag, msg.tag):
                return msg
        return None

    def drain_messages(self) -> list[Message]:
        out = list(self.queued)
        self.queued.clear()
        return out

    # -- posted receives ---------------------------------------------------

    def push_pending(self, p: PendingRecv) -> None:
        p.seq = self._seq
        self._seq += 1
        self.pending.append(p)

    def match_pending(
        self, msg: Message, faults_active: bool = False
    ) -> PendingRecv | None:
        if faults_active and any(p.future.done for p in self.pending):
            # Prune receives already released by a fault timeout so they
            # cannot steal messages from live receives.
            self.pending = deque(p for p in self.pending if not p.future.done)
        for i, p in enumerate(self.pending):
            if _src_matches(p.src, msg.src) and _tag_matches(p.tag, msg.tag):
                del self.pending[i]
                return p
        return None

    def has_pending(self) -> bool:
        return bool(self.pending)

    def has_queued(self) -> bool:
        return bool(self.queued)

    def has_wild_pending(self) -> bool:
        return any(
            not p.future.done and (p.src == ANY_SOURCE or p.tag == ANY_TAG)
            for p in self.pending
        )

    def has_tag_window(self, lo: int, hi: int) -> bool:
        return any(lo <= m.tag < hi for m in self.queued) or any(
            not p.future.done and lo <= p.tag < hi for p in self.pending
        )

    def clear_pending(self) -> None:
        self.pending.clear()

    def release_pending_from(self, src: int) -> list[PendingRecv]:
        out: list[PendingRecv] = []
        keep: deque[PendingRecv] = deque()
        for p in self.pending:
            if p.src == src and not p.future.done:
                out.append(p)
            elif p.src == src:
                continue
            else:
                keep.append(p)
        self.pending = keep
        return out


@pytest.fixture
def linear_matching(monkeypatch):
    """``with linear_matching(): run_spmd(...)`` runs every communicator
    built inside the block on :class:`LinearMailbox`."""

    @contextlib.contextmanager
    def swap():
        with monkeypatch.context() as patch:
            patch.setattr(CommContext, "mailbox_factory", LinearMailbox)
            yield

    return swap
