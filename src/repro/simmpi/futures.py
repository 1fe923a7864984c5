"""Awaitable primitives for the deterministic virtual-time scheduler.

A :class:`SimFuture` is the only thing a rank coroutine ever yields to the
engine.  It carries both a value and a *virtual completion time*; when the
engine resumes the waiting task it advances the task's clock to
``max(task.clock, future.time)``, which is how causality (e.g. a receive
finishing no earlier than the matching send's arrival) propagates through
the simulation.

Point-to-point futures additionally carry *structured metadata* —
``kind`` (``"isend"``/``"irecv"``), world-rank ``src``/``dest``, ``tag``,
communicator id and virtual ``post_time``.  Diagnostics (deadlock reports,
orphan attribution, op-timeout victim selection) read these fields directly
instead of parsing a label string, and the human-readable label is built
lazily from them so the hot path never formats a string.
"""

from __future__ import annotations

from typing import Any, Callable, Generator


class SimFuture:
    """A one-shot future resolved by the engine or by another task.

    Attributes:
        done: whether :meth:`resolve` has been called.
        value: payload delivered to the awaiter.
        time: virtual time at which the awaited operation completed.  ``None``
            means "no time constraint" (the awaiter keeps its own clock).
        kind: ``"isend"`` / ``"irecv"`` for point-to-point futures, else None.
        src: world rank of the sender (``None`` for an ANY_SOURCE receive).
        dest: world rank of the destination / receiver.
        tag: message tag (``-1`` for an ANY_TAG receive).
        comm: communicator context id.
        post_time: virtual time at which the operation was posted.
        label: human-readable description used in deadlock reports; derived
            from the structured metadata unless set explicitly.
    """

    __slots__ = (
        "done",
        "value",
        "time",
        "kind",
        "src",
        "dest",
        "tag",
        "comm",
        "post_time",
        "busy_charge",
        "_label",
        "_callbacks",
    )

    def __init__(
        self,
        label: str = "",
        *,
        kind: str | None = None,
        src: int | None = None,
        dest: int | None = None,
        tag: int | None = None,
        comm: int | None = None,
        post_time: float | None = None,
    ) -> None:
        self.done = False
        self.value: Any = None
        self.time: float | None = None
        self.kind = kind
        self.src = src
        self.dest = dest
        self.tag = tag
        self.comm = comm
        self.post_time = post_time
        # Busy time the owning task must absorb when it waits on this
        # future (a rendezvous sender's payload-streaming cost).  Charged
        # at the wait so every rank accumulates busy in program order —
        # which is what lets the collective fast path replay it bitwise.
        self.busy_charge = 0.0
        self._label = label
        # Lazily allocated: most futures get exactly one callback (the
        # parked task's wake) or none, so the empty list per future was
        # pure allocation overhead at large P.
        self._callbacks: list[Callable[[SimFuture], None]] | None = None

    @property
    def label(self) -> str:
        if self._label:
            return self._label
        if self.kind == "isend":
            return (
                f"isend {self.src}->{self.dest} tag={self.tag} "
                f"comm={self.comm}"
            )
        if self.kind == "irecv":
            src = -1 if self.src is None else self.src
            return (
                f"irecv src={src} rank={self.dest} tag={self.tag} "
                f"comm={self.comm}"
            )
        if self.kind == "coll":
            # A macro-collective gate future; ``tag`` carries the
            # communicator-local collective sequence number.
            return f"coll rank={self.dest} seq={self.tag} comm={self.comm}"
        if self.kind == "p2p":
            # A declared-pattern gate future; ``tag`` carries the
            # communicator-local exchange sequence number.
            return f"p2p-gate rank={self.dest} seq={self.tag} comm={self.comm}"
        return self._label

    @label.setter
    def label(self, value: str) -> None:
        self._label = value

    def resolve(self, value: Any = None, time: float | None = None) -> None:
        """Mark the future complete, waking any awaiting task."""
        if self.done:
            raise RuntimeError(f"future {self.label!r} resolved twice")
        self.done = True
        self.value = value
        self.time = time
        callbacks, self._callbacks = self._callbacks, None
        if callbacks:
            for cb in callbacks:
                cb(self)

    def try_resolve(self, value: Any = None, time: float | None = None) -> bool:
        """Resolve unless already done; returns whether this call won.

        Fault injection creates benign races on a single future — a
        virtual-time timeout can release an operation that a late message
        later tries to complete for real — so racing resolvers use this
        instead of :meth:`resolve` (which treats double resolution as a
        programming error).
        """
        if self.done:
            return False
        self.resolve(value, time)
        return True

    def add_done_callback(self, cb: Callable[[SimFuture], None]) -> None:
        if self.done:
            cb(self)
        elif self._callbacks is None:
            self._callbacks = [cb]
        else:
            self._callbacks.append(cb)

    def __await__(self) -> Generator["SimFuture", None, Any]:
        if not self.done:
            yield self
        if not self.done:  # pragma: no cover - engine invariant
            raise RuntimeError(f"future {self.label!r} resumed before resolution")
        return self.value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "done" if self.done else "pending"
        return f"<SimFuture {self.label!r} {state}>"
