"""Intra-node (loop-level) trace compression.

ScalaTrace compresses each rank's event stream *online*: every time an event
is appended, the compressor greedily looks for a repetition at the tail of
the node list and folds it into an RSD/PRSD loop (paper §II).  Two rewrite
rules run to fixpoint after each append:

* **absorb** — the last *m* nodes are congruent to the body of the loop node
  immediately preceding them: increment that loop's iteration count and
  merge the statistics.  (``[Loop(k, B), B] -> Loop(k+1, B)``)
* **create** — the last *m* nodes are congruent to the *m* nodes before
  them: replace both with a 2-iteration loop.
  (``[B, B] -> Loop(2, B)``)

Applied to an iterative kernel this builds nested PRSDs bottom-up, e.g. the
paper's send/recv/barrier example compresses to
``Loop(1000, [Loop(100, [send, recv]), barrier])``.

The compressor is windowed: repetition bodies longer than ``window`` nodes
are not detected (real ScalaTrace has the same bound).  All comparison work
is counted in a :class:`~repro.scalatrace.rsd.WorkMeter` so the tracer can
charge virtual time for it.

**The steady state.**  Once the tail is ``[…, Loop(k, B)]``, the next calls
usually rebuild B and the iteration they form is absorbed whole.  The
compressor keeps a *cursor* into B for that loop.  One iteration runs the
rules as above while the cursor follows it, checks that every rewrite is
the one B's shape predicts and records what each position charged the
meter.  After that, a call whose site, operation and endpoint kinds match
B's next leaf (inner loops followed by their ``iters``) builds no record
and runs no scan: its sample waits in a pending iteration shaped like B,
the meter is charged the recorded count, and when an inner or the whole
iteration completes it is merged in the order ``merge_nodes`` and the rules
use, so every statistic keeps its bits.  Per-position state is bounded by
B's node count: per leaf, one recorded count per *phase* (an inner loop in
its first, second, middle or last iteration).

A position whose recorded scan compared ``Loop(k, B)``'s own records is
not trusted: the scan runs there.  One that compared the open loop by its
``iters`` with a loop of its length holds while ``k`` differs from that
loop's count; the scan runs at the equal count.  So it does for a call
that does not match, a merge that would not hold, and after any read of
``nodes``, ``take_nodes()``, ``leaf_count()`` or ``expanded_count()``: the
pending records are built exactly as the tail would hold them and the
rules carry the rest of that iteration: the cursor changes mode only
between iterations.  When the recorded scans compared sample values
(endpoint encodings of this iteration's calls or of the nodes in front
of the loop), a call must also carry the endpoints its position had when
recorded.
"""

from __future__ import annotations

from typing import Any

from .events import Endpoint, EventRecord, Op
from .ranklist import RankSet
from .rsd import EventNode, LoopNode, TraceNode, WorkMeter, merge_nodes, same_shape

DEFAULT_WINDOW = 64


def _participants_equal(a: TraceNode, b: TraceNode) -> bool:
    """Whether two congruent subtrees cover the same rank populations."""
    if isinstance(a, EventNode) and isinstance(b, EventNode):
        return a.record.participants == b.record.participants
    return all(
        _participants_equal(x, y)
        for x, y in zip(a.body, b.body)  # type: ignore[union-attr]
    )


def fold_tail(
    nodes: list[TraceNode],
    window: int,
    meter: WorkMeter,
    match_participants: bool = False,
    log: list | None = None,
) -> int:
    """Run the absorb/create rewrite rules to fixpoint on the list's tail.

    Shared by the per-rank compressor (folding raw events) and Chameleon's
    online trace (folding whole merged phase segments that repeat across
    marker intervals).  The online trace passes ``match_participants=True``:
    its nodes cover *cluster* populations, and folding two same-call-site
    records from different clusters would union their ranklists and
    misattribute iterations (a per-rank stream never needs the check —
    every node covers exactly the owning rank).

    A candidate run length is tried on its first pair, in place in the rule's
    loop: when node types or call sites differ (equal signatures are
    necessary, not sufficient) it calls nothing and is counted as the one
    comparison ``same_shape`` would have charged to refuse it.  Nodes are
    never subclassed, so ``type(x) is`` decides kinds.
    Returns the change of ``sum(n.size_bytes() for n in nodes)``, which the
    list's owner adds to its running count (nodes cache no size): what the
    merges report (a dropped endpoint pattern *shrinks* a record) less the
    absorbed run, the only thing sized, plus 16 for a new loop's header.

    With ``log``, each candidate that got past its first pair and was
    refused appends ``("refused", pairs, comparisons)`` (the pairs compared,
    the refusing one last, and what comparing them cost) and each rewrite ``("absorb" | "create", m, work)``, ``work``
    being the meter's ``(comparisons, merges, folds)`` so far, misses
    included: the compressor's cursor learns a position from it.
    """

    def absorbed(body: list[TraceNode], at: int, m: int) -> bool:
        """Fold the last ``m`` nodes into ``body[at : at + m]`` if congruent
        (a candidate whose first pair is not a certain miss)."""
        nonlocal delta
        pairs = list(zip(body[at : at + m], nodes[-m:]))
        spent = meter.comparisons
        for i, (a, b) in enumerate(pairs):
            if not same_shape(a, b, meter) or (
                match_participants and not _participants_equal(a, b)
            ):
                if log is not None:
                    log.append(("refused", pairs[: i + 1],
                                meter.comparisons - spent))
                return False
        for a, b in pairs:
            delta += merge_nodes(a, b, meter) - b.size_bytes()
        meter.folds += 1
        return True

    delta = misses = 0
    while True:
        n = len(nodes)
        # Rule 1: absorb the tail into an immediately preceding loop.
        for m in range(1, min(window, n - 1) + 1):
            prev = nodes[n - m - 1]
            if type(prev) is not LoopNode or len(prev.body) != m:
                continue
            a, b = prev.body[0], nodes[n - m]
            if type(a) is not type(b) or (
                type(a) is EventNode and a.record.stack_sig != b.record.stack_sig
            ):
                misses += 1
            elif absorbed(prev.body, 0, m):
                prev.iters += 1
                del nodes[n - m :]
                rewrite = "absorb"
                break
        else:
            # Rule 2: fold two adjacent congruent runs into a new loop.
            for m in range(1, min(window, n // 2) + 1):
                a, b = nodes[n - 2 * m], nodes[n - m]
                if type(a) is not type(b) or (
                    type(a) is EventNode and a.record.stack_sig != b.record.stack_sig
                ):
                    misses += 1
                elif absorbed(nodes, n - 2 * m, m):
                    nodes[n - 2 * m :] = [LoopNode(2, nodes[n - 2 * m : n - m])]
                    delta += 16
                    rewrite = "create"
                    break
            else:  # fixpoint: neither rule applies
                meter.comparisons += misses
                return delta
        if log is not None:
            log.append((rewrite, m, (meter.comparisons + misses, meter.merges,
                                     meter.folds)))


# -- the cursor into the open loop's body ------------------------------------
#
# B is compiled into a *plan*: a list of ``_Leaf`` (an EventNode of B) and
# ``_Inner`` (an inner LoopNode, with the plan of its body).  The pending
# iteration is an ``_Iter`` per body instance being filled; its slots hold,
# per plan entry, a call's sample ``(src, dest, nbytes, tag, dt, frames)``,
# an EventRecord (a leaf inside an inner loop once that loop's iterations
# were merged into it) or a ``_Run`` (an inner loop: ``done`` iterations
# merged so far, the one being filled).  The tail the rules would hold is
# their *view*: an inner loop's first iteration lies inline, its second
# inline too until it completes, then ``Loop(c, merged)`` and the next one
# inline.


class _Leaf:
    """An EventNode of B; ``fresh`` is the size of a one-call record at it,
    ``memo`` what a call here charged, per phase of the enclosing loops:
    ``(work, endpoints, guard)`` — the meter's ``(comparisons, merges,
    folds)`` after each rewrite and at the end (None: the scan must run),
    the call's endpoints, the open loop's ``iters`` the work does not
    hold at."""

    __slots__ = ("record", "fresh", "memo")

    def __init__(self, node: EventNode) -> None:
        self.record = node.record
        self.fresh = 0
        self.memo: dict[tuple, Any] = {}


class _Inner:
    __slots__ = ("iters", "plan")

    def __init__(self, node: LoopNode) -> None:
        self.iters = node.iters
        self.plan = _compile(node.body)


def _compile(body: list[TraceNode]) -> list:
    return [_Inner(n) if type(n) is LoopNode else _Leaf(n) for n in body]


class _Iter:
    """One iteration of a body (B's, or an inner loop's) being filled."""

    __slots__ = ("plan", "slots", "i")

    def __init__(self, plan: list) -> None:
        self.plan = plan
        self.slots: list = [None] * len(plan)
        self.i = 0  # the entry the next call fills


class _Run:
    """An inner loop inside one iteration of its parent body."""

    __slots__ = ("inner", "c", "done", "cur")

    def __init__(self, inner: _Inner) -> None:
        self.inner = inner
        self.c = 0  # completed iterations
        self.done: _Iter | None = None  # the first one, then all merged
        self.cur: _Iter | None = _Iter(inner.plan)


def _record(leaf: _Leaf, sample: tuple) -> EventRecord:
    rec = leaf.record
    src, dest, nbytes, tag, dt, frames = sample
    return EventRecord.of(rec.op, (rec.stack_sig, frames), rec.participants,
                          rec.comm_id, src, dest, rec.root, nbytes, tag, dt)


def _view(plan: list, it: _Iter, copy: bool) -> list[TraceNode]:
    """The nodes the rules would hold for ``it`` (records copied if asked)."""
    out: list[TraceNode] = []
    for entry, slot in zip(plan, it.slots):
        if slot is None:
            break
        if type(entry) is _Leaf:
            rec = _record(entry, slot) if type(slot) is tuple else slot
            out.append(EventNode(rec.copy() if copy and rec is slot else rec))
            continue
        if slot.c == 1:
            out += _view(entry.plan, slot.done, copy)
        elif slot.c:
            out.append(LoopNode(slot.c, _view(entry.plan, slot.done, copy)))
        if slot.cur is not None:
            out += _view(entry.plan, slot.cur, copy)
    return out


def _fits(plan: list, dst: _Iter | None, src: _Iter) -> bool:
    """Would ``same_shape`` hold between the complete iteration ``src`` and
    ``dst`` (None: B itself)?  Shapes agree by construction; two samples of
    one leaf always merge (a second offset opens a stride)."""
    for i, entry in enumerate(plan):
        s = src.slots[i]
        if type(entry) is _Inner:
            if not _fits(entry.plan, None if dst is None else dst.slots[i].done,
                         s.done):
                return False
            continue
        d = entry.record if dst is None else dst.slots[i]
        if type(s) is tuple:
            if type(d) is not tuple and not d.can_merge_sample(s[0], s[1]):
                return False
        elif not d.can_merge(s):
            return False
    return True


def _merge(plan: list, dst: _Iter | None, src: _Iter) -> int:
    """Merge ``src`` into ``dst`` (None: B) pairwise, as ``merge_nodes``
    would; returns the merges' byte change less ``src``'s view."""
    delta = 0
    for i, entry in enumerate(plan):
        s = src.slots[i]
        if type(entry) is _Inner:
            delta += _merge(entry.plan, None if dst is None else dst.slots[i].done,
                            s.done) - 16
            continue
        if dst is None:
            d = entry.record
        else:
            d = dst.slots[i]
            if type(d) is tuple:  # a first iteration's call becomes the record
                d = dst.slots[i] = _record(entry, d)
        if type(s) is tuple:
            delta += d.merge_sample(*s[:5]) - entry.fresh
        else:
            delta += d.merge(s) - s.size_bytes()
    return delta


def _refusal(pairs: list, spent: int, loop: LoopNode) -> tuple[int, set, int]:
    """How a refused candidate (the pairs it compared, the refusing one
    last, costing ``spent`` comparisons) repeats at its position in a later
    iteration: ``(kind, guard, correction)``.  It costs ``spent +
    correction`` again whenever the open loop's ``iters`` is not in
    ``guard`` — for kind 0 always, kind 1 as long as the calls carry the
    endpoints they carried; kind 2 is not predictable (it compared the open
    loop's own records, whose encodings move as iterations merge in).  The
    open loop compared with a loop of its length is refused at once unless
    the iteration counts are equal: the guard, and — when it was the first
    pair and the counts were equal — the correction."""
    a, b = pairs[0]
    if type(a) is LoopNode and (a is loop or b is loop) \
            and len(a.body) == len(b.body):
        return 0, {b.iters if a is loop else a.iters}, 1 - spent
    into_b = a is loop.body[0]  # rule 1 against the open loop
    kind, guard = 0, set()
    for a, b in pairs:
        if type(a) is not type(b):
            continue
        if type(a) is EventNode:
            x, y = a.record, b.record
            if x.static_key() != y.static_key() or (
                    x.src is None and x.dest is None):
                continue  # decided without reading an encoding
        elif len(a.body) != len(b.body):
            continue
        elif a is loop or b is loop:  # after pairs that held: the refusal
            if a.iters == b.iters:
                return 2, guard, 0
            guard.add(b.iters if a is loop else a.iters)
            continue
        elif a.iters != b.iters:
            continue
        if into_b:
            return 2, guard, 0
        kind = 1
    return kind, guard, 0


def _learn(log: list, k: int, loop: LoopNode, work0: tuple,
           end: tuple | None) -> tuple:
    """What the log of one followed call says about its position: the work
    after each of the ``k`` rewrites the cursor predicts and, unless the
    k-th is the absorb into the open loop (``end`` None), at ``end`` — each
    relative to ``work0`` — and the guard and worst kind of the refusals
    met before (:func:`_refusal`)."""
    work, guard, worst, fix = [], set(), 0, 0
    for e in log:
        if e[0] == "refused":
            kind, seen, more = _refusal(e[1], e[2], loop)
            worst, fix = max(worst, kind), fix + more
            guard |= seen
            continue
        work.append((e[2][0] - work0[0] + fix, e[2][1] - work0[1],
                     e[2][2] - work0[2]))
        if end is None and len(work) == k:
            break
    if end is not None:
        work.append((end[0] - work0[0] + fix, end[1] - work0[1],
                     end[2] - work0[2]))
    return tuple(work), frozenset(guard) if guard else _NO_GUARD, worst


_SAME_BODY = (False, ())  # the next leaf is in the same body: no rewrite
_NO_GUARD: frozenset = frozenset()


class _Cursor:
    """The open loop's body, where the pending iteration stands, and how."""

    def __init__(self, loop: LoopNode) -> None:
        self.loop = loop
        self.plan = _compile(loop.body)
        #: the first iteration runs the rules and fills the memo
        self.recording = True
        #: calls go to the pending iteration (else: to the rules, followed)
        self.fast = False
        #: a recorded scan compared call values: positions need equal ones
        self.equal = False
        self.restart()

    def restart(self) -> None:
        self.base = _Iter(self.plan)
        #: the iterations being filled, B's first, and the inner loops
        #: they belong to (no back references: nothing here is a cycle)
        self.path = [self.base]
        self.runs: list[_Run] = []
        self.descend()

    def descend(self) -> None:
        """Open inner loops down to the next leaf; key the position: each
        enclosing inner loop's iteration (first, second, middle) and
        whether it is its last."""
        it = self.path[-1]
        while type(entry := it.plan[it.i]) is _Inner:
            run = it.slots[it.i] = _Run(entry)
            self.runs.append(run)
            it = run.cur
            self.path.append(it)
        self.top = it
        self.phases = tuple((min(r.c, 2), r.c + 1 == r.inner.iters)
                            for r in self.runs)


class IntraCompressor:
    """Online RSD/PRSD compressor for one rank's event stream."""

    def __init__(self, window: int = DEFAULT_WINDOW, meter: WorkMeter | None = None):
        if window < 1:
            raise ValueError("window must be >= 1")
        self.window = window
        self.meter = meter if meter is not None else WorkMeter()
        self._nodes: list[TraceNode] = []
        #: running sum of the view's ``size_bytes()``: the nodes and the
        #: pending iteration; ``take_nodes`` zeroes it
        self._bytes = 0
        self._cursor: _Cursor | None = None

    def append(
        self,
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
    ) -> None:
        """Add one call (the fields of ``EventRecord.of``) and re-compress."""
        cur = self._cursor
        if cur is not None:
            it = cur.top
            leaf = it.plan[it.i]
            rec = leaf.record
            if (op is rec.op and site[0] == rec.stack_sig
                    and (participants is rec.participants
                         or participants == rec.participants)
                    and comm_id == rec.comm_id and root == rec.root
                    and (src is None) is (rec.src is None)
                    and (dest is None) is (rec.dest is None)):
                if cur.fast:
                    entry = leaf.memo.get(cur.phases)
                    if entry is not None and entry[0] is not None \
                            and cur.loop.iters not in entry[2] \
                            and not (cur.equal and entry[1] != (src, dest)):
                        it.slots[it.i] = (src, dest, nbytes, tag, dt, site[1])
                        self._bytes += leaf.fresh
                        self._step(cur, entry[0])
                        return
                    self._flush()
                self._follow(cur, leaf, (src, dest), EventRecord.of(
                    op, site, participants, comm_id, src, dest, root, nbytes,
                    tag, dt))
                return
            self._flush()
            self._cursor = None
        self._fold(EventRecord.of(op, site, participants, comm_id, src, dest,
                                  root, nbytes, tag, dt))
        self._settle()

    # -- the rules' path -------------------------------------------------

    def _fold(self, rec: EventRecord, log: list | None = None) -> int:
        """Append ``rec`` and run the rules; returns its size as appended."""
        size = rec.size_bytes()
        self._nodes.append(EventNode(rec))
        self._bytes += size + fold_tail(self._nodes, self.window, self.meter,
                                        log=log)
        return size

    def _settle(self) -> None:
        """After the rules ran with no cursor left: follow the loop the tail
        now ends in."""
        last = self._nodes[-1] if self._nodes else None
        self._cursor = _Cursor(last) if type(last) is LoopNode else None

    def _follow(self, cur: _Cursor, leaf: _Leaf, ends: tuple,
                rec: EventRecord) -> None:
        """The rules take a call that matches the cursor's next leaf; the
        cursor checks they rewrite as B's shape predicts and, on the first
        iteration, records what the position charged."""
        meter, phases, it = self.meter, cur.phases, cur.top
        work0 = (meter.comparisons, meter.merges, meter.folds)
        log: list = []
        fresh = self._fold(rec, log)
        it.slots[it.i] = True  # a placeholder: the rules hold the record
        done, predicted = self._move(cur, None)
        rewrites = [e for e in log if e[0] != "refused"]
        k = len(predicted)
        if [e[:2] for e in rewrites[:k]] != list(predicted) or (
                not done and len(rewrites) != k):
            self._settle()
            return
        if cur.recording:
            leaf.fresh = fresh
            work, guard, worst = _learn(
                log, k, cur.loop, work0, None if done else
                (meter.comparisons, meter.merges, meter.folds))
            cur.equal |= worst == 1
            if worst == 2:
                work = None
            known = leaf.memo.get(phases)
            if known is None:
                leaf.memo[phases] = (work, ends, guard)
            elif known != (work, ends, guard):
                # a position met again in the iteration (a middle phase)
                leaf.memo[phases] = (
                    work if known[0] == work else None,
                    known[1] if known[1] == ends else None,
                    known[2] | guard)
        if done:
            if self._nodes[-1] is cur.loop:
                cur.recording = False
                cur.fast = True
                cur.restart()
            else:
                self._settle()

    def _move(self, cur: _Cursor, work: tuple | None) -> tuple | None:
        """Move past the leaf just filled.  With the position's recorded
        ``work`` (pending), merge each iteration that completes; without
        (followed), the rules did.  Returns whether B's iteration completed
        and the rewrites the rules make for it, or None when a merge would
        not hold (the rules took over)."""
        it = cur.top
        it.i += 1
        if it.i < len(it.plan) and type(it.plan[it.i]) is _Leaf:
            return _SAME_BODY
        runs, path, rewrites = cur.runs, cur.path, []
        while it.i == len(it.plan):
            if not runs:  # B's iteration: absorbed into the open loop
                rewrites.append(("absorb", len(it.plan)))
                if work is not None:
                    if not _fits(cur.plan, None, it):
                        return self._fall_back(work, len(rewrites) - 1)
                    self._bytes += _merge(cur.plan, None, it)
                    cur.loop.iters += 1
                return True, rewrites
            run = runs[-1]
            if run.c:  # the second iteration creates the loop, others absorb
                rewrites.append(("create" if run.c == 1 else "absorb",
                                 len(it.plan)))
                if work is not None:
                    if not _fits(run.inner.plan, run.done, it):
                        return self._fall_back(work, len(rewrites) - 1)
                    self._bytes += (_merge(run.inner.plan, run.done, it)
                                    + 16 * (run.c == 1))
            else:
                run.done = it
            run.c += 1
            if run.c < run.inner.iters:
                it = path[-1] = run.cur = _Iter(run.inner.plan)
                break
            run.cur = None
            runs.pop()
            path.pop()
            it = path[-1]
            it.i += 1
        cur.descend()
        return False, rewrites

    def _step(self, cur: _Cursor, work: tuple) -> None:
        """The pending path past the sample just stored: move, charge the
        recorded work; after B's iteration, the rules' scan that follows
        the absorb into the open loop (what it compares moves with k)."""
        moved = self._move(cur, work)
        if moved is None:
            return
        self._charge(work[-1])
        if moved[0]:
            cur.restart()
            self._bytes += fold_tail(self._nodes, self.window, self.meter)
            if self._nodes[-1] is not cur.loop:
                self._settle()

    def _charge(self, work: tuple) -> None:
        meter = self.meter
        meter.comparisons += work[0]
        meter.merges += work[1]
        meter.folds += work[2]

    def _fall_back(self, work: tuple, applied: int) -> None:
        """A merge the rules would refuse: charge the rewrites made, hand the
        pending records to the rules and let them finish the call."""
        if applied:
            self._charge(work[applied - 1])
        self._flush()
        self._bytes += fold_tail(self._nodes, self.window, self.meter)
        self._settle()
        return None

    def _flush(self) -> None:
        """Build the pending records into the node list; the rules go on,
        followed, until the next iteration starts."""
        cur = self._cursor
        if cur is not None and cur.fast:
            self._nodes += _view(cur.plan, cur.base, False)
            cur.fast = False

    # -- introspection ---------------------------------------------------

    @property
    def nodes(self) -> list[TraceNode]:
        """The compressed node list (pending records built first)."""
        self._flush()
        return self._nodes

    def snapshot(self) -> list[TraceNode]:
        """What ``nodes`` would return, without building the pending
        records into the list (they are copies)."""
        cur = self._cursor
        if cur is None or not cur.fast:
            return list(self._nodes)
        return self._nodes + _view(cur.plan, cur.base, True)

    def leaf_count(self) -> int:
        """`n` of the paper: events in PRSD-compressed notation."""
        return sum(n.leaf_count() for n in self.nodes)

    def expanded_count(self) -> int:
        """Number of original (uncompressed) events represented."""
        return sum(n.expanded_count() for n in self.nodes)

    def size_bytes(self) -> int:
        """O(1): the count ``append`` keeps (== the sum over ``nodes``)."""
        return self._bytes

    def take_nodes(self) -> list[TraceNode]:
        """Detach and return the compressed nodes (compressor resets)."""
        nodes = self.nodes
        self._nodes, self._bytes = [], 0
        self._cursor = None
        return nodes
