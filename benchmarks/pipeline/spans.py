"""In-memory spans around the layers' public callables (traced run only).

The benchmark measures every layer *from outside*: :class:`SpanLog`
replaces a synchronous callable (a method on its class, or a module
function in every ``repro.*`` namespace that binds it) with a wrapper
that records ``(name, start, end, parent)``; :meth:`SpanLog.restore`
puts the originals back.  Spans are kept in memory and written once, at
the end, by :meth:`SpanLog.dump`.

Only synchronous callables may be wrapped.  A rank's coroutine suspends
while other ranks run, so the wall between its start and end is not its
own; a synchronous call returns before anything else is scheduled, so
spans of one thread strictly nest and a span's *self time* is its
duration minus the durations of its direct children.

The log is single-threaded by design: wrappers must be installed only
while one thread drives the wrapped layers (the serve workload wraps its
batch twin, never the server's job threads).
"""

from __future__ import annotations

import json
import sys
import time
from typing import Any, Callable, Sequence


def self_times(start: Sequence[float], end: Sequence[float],
               parent: Sequence[int]) -> list[float]:
    """Per-span self time: duration minus what direct child spans cover.

    ``parent[i]`` is the index of the span that was open when span ``i``
    started, or ``-1``.  Children of one parent never overlap each other
    (strict nesting), so the covered part is the sum of their durations —
    which is also what makes a recursive callable safe: the inner call is
    a child of the outer one and its time is counted once, on the inner.
    """
    out = [e - s for s, e in zip(start, end)]
    for i, p in enumerate(parent):
        if p >= 0:
            out[p] -= end[i] - start[i]
    return out


class SpanLog:
    """Recorder plus the patches that feed it."""

    def __init__(self) -> None:
        self.names: list[str] = []  # distinct span names, indexed by name_id
        self.name_id: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        #: one run id per cell: ``(label, index of the run's first span)``
        self.runs: list[tuple[str, int]] = []
        #: last return value of callables wrapped with ``keep_result``
        self.returned: dict[str, Any] = {}
        self._stack: list[int] = []
        self._patches: list[tuple[Any, str, Any]] = []

    # -- recording -------------------------------------------------------

    def begin_run(self, label: str) -> int:
        """Start a new run (one cell); later spans belong to it."""
        self.runs.append((label, len(self.start)))
        return len(self.runs) - 1

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def wrap(self, fn: Callable, name: str,
             keep_result: bool = False) -> Callable:
        """``fn`` with a span named ``name`` around every call."""
        nid = self._name_id(name)
        name_id, start, end = self.name_id, self.start, self.end
        parent, stack, returned = self.parent, self._stack, self.returned
        clock = time.perf_counter

        def span_wrapper(*args: Any, **kwargs: Any) -> Any:
            i = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if keep_result:
                returned[name] = result
            return result

        span_wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
        return span_wrapper

    # -- patching --------------------------------------------------------

    def wrap_method(self, cls: type, attr: str, name: str) -> None:
        """Replace ``cls.attr`` (a plain method) with a recording wrapper."""
        original = cls.__dict__[attr]
        self._patches.append((cls, attr, original))
        setattr(cls, attr, self.wrap(original, name))

    def wrap_function(self, fn: Callable, name: str,
                      keep_result: bool = False) -> None:
        """Replace module function ``fn`` in *every* loaded ``repro``
        module namespace that binds it (``from x import fn`` makes a second
        binding the defining module's patch would miss)."""
        wrapper = self.wrap(fn, name, keep_result)
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (
                mod_name == "repro" or mod_name.startswith("repro.")
            ):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._patches.append((module, attr, fn))
                    setattr(module, attr, wrapper)

    def set_attr(self, owner: Any, attr: str, value: Any) -> None:
        """Set a plain attribute and remember the original for restore."""
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def restore(self) -> None:
        """Put every original back (in reverse patch order)."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- reading ---------------------------------------------------------

    def run_bounds(self, run: int) -> tuple[int, int]:
        """Span index range ``[lo, hi)`` of one run."""
        lo = self.runs[run][1]
        hi = (self.runs[run + 1][1] if run + 1 < len(self.runs)
              else len(self.start))
        return lo, hi

    def totals(self) -> list[dict[str, dict[str, float]]]:
        """Per run, per span name: calls, summed duration and summed self
        time.  Read cost from ``self_s``: ``dur_s`` double-counts recursion."""
        own = self_times(self.start, self.end, self.parent)
        out: list[dict[str, dict[str, float]]] = []
        for run in range(len(self.runs)):
            per_name: dict[str, dict[str, float]] = {}
            for i in range(*self.run_bounds(run)):
                entry = per_name.setdefault(
                    self.names[self.name_id[i]],
                    {"calls": 0, "dur_s": 0.0, "self_s": 0.0},
                )
                entry["calls"] += 1
                entry["dur_s"] += self.end[i] - self.start[i]
                entry["self_s"] += own[i]
            out.append(per_name)
        return out

    def dump(self, path: str, totals: list[dict],
             meta: dict[str, Any]) -> None:
        """Write the whole log as columnar JSON (see README, spans.json)."""
        doc = {
            "meta": meta,
            "names": self.names,
            "runs": [{"id": i, "label": label, "first_span": first}
                     for i, (label, first) in enumerate(self.runs)],
            "spans": {
                "name_id": self.name_id,
                "start": self.start,
                "end": self.end,
                "parent": self.parent,
            },
            "totals": {f"{i}:{label}": totals[i]
                       for i, (label, _first) in enumerate(self.runs)},
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
