"""The per-call ``exchange`` interpreter: test oracle for the batched one.

Moved here verbatim from ``ScalaTraceTracer.exchange`` when that method
started walking the stack once per call: every op goes through the tracer's
own ``isend``/``send``/``recv``/``wait``/``sendrecv`` — one stack walk, one
signature-hook call and one ``_record`` per op — with the position's label
pushed as a logical frame by ``ctx.frame``.  The runtime only needs the
batched loop; this one exists to prove the batching changes nothing
(``test_exchange_oracle.py``).

:func:`per_call` derives the oracle twin of a tracer class.  Its walker
skips this file's frames, so both interpreters capture the same stack —
which is also why :class:`CallCounts`, whose wrappers sit inside the event
path, lives here.
"""

from __future__ import annotations

from repro.scalatrace import StackWalker

#: every frame of this file is plumbing, like the tracer's own
SKIP = ("/scalatrace/exchange_oracle.py",)


class PerCallExchange:
    """Mixin: the pre-batching ``exchange``, in front of a tracer class."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.walker = StackWalker(extra_skip=SKIP)

    async def exchange(self, pattern, *, compute=None) -> None:
        ops, sites = pattern.ops[self.rank], pattern.sites
        if sites is None or len(sites) < len(ops):
            raise ValueError(
                f"pattern {pattern.name!r}: no call-site table covering "
                f"the {len(ops)} positions of rank {self.rank}'s script"
            )
        frame = self.ctx.frame
        compute = compute or self.ctx.compute
        requests = []
        script = zip(ops, sites)
        for op, site in script:
            if op is None:
                continue
            kind = op[0]
            if kind == "wait":
                await self.wait(requests[op[1]])
            elif kind == "compute":
                compute(op[1])
            elif site is None:
                raise ValueError(
                    f"pattern {pattern.name!r}: {op!r} has no call-site label"
                )
            elif type(site) is tuple:  # ("sendrecv", label)
                (recv, _), _ = next(script), next(script)
                requests.append(None)  # keeps ("wait", k) numbering aligned
                with frame(site[1]):
                    await self.sendrecv(op[1], None, source=recv[1],
                                        sendtag=op[2], recvtag=recv[2],
                                        size=op[3])
            else:
                with frame(site):
                    if kind == "isend":
                        requests.append(
                            self.isend(op[1], None, tag=op[2], size=op[3]))
                    elif kind == "send":
                        await self.send(op[1], None, tag=op[2], size=op[3])
                    else:
                        await self.recv(op[1], tag=op[2])


def per_call(tracer_cls: type) -> type:
    """``tracer_cls`` with the per-call interpreter as its ``exchange``."""
    return type(f"PerCall{tracer_cls.__name__}", (PerCallExchange, tracer_cls), {})


class CallCounts:
    """Counts the calls one tracer makes on its event path — ``_record``,
    ``StackWalker.capture``, the signature hook's
    ``SignatureAccumulator.observe`` — and its ``exchange`` calls, per
    marker interval: ``intervals`` holds ``(tracing during it, counts)``.

    The counting wrappers are frames inside the event path, so the tracer
    gets a walker that skips this file (as the oracle's does).
    """

    NAMES = ("record", "walk", "observe", "exchange")

    def __init__(self, tracer) -> None:
        self.counts = dict.fromkeys(self.NAMES, 0)
        self.intervals: list[tuple[bool, dict[str, int]]] = []
        tracer.walker = StackWalker(extra_skip=SKIP)
        self._wrap(tracer, "_record", "record")
        self._wrap(tracer, "exchange", "exchange")
        self._wrap(tracer.walker, "capture", "walk")
        for acc in tracer._sigaccs:
            self._wrap(acc, "observe", "observe")
        marker = tracer.marker

        async def cut():
            self.intervals.append((tracer.tracing, self.counts))
            self.counts = dict.fromkeys(self.NAMES, 0)
            return await marker()

        tracer.marker = cut

    def _wrap(self, owner, attr: str, name: str) -> None:
        fn = getattr(owner, attr)

        def counted(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        setattr(owner, attr, counted)
