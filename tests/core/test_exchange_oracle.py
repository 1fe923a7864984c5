"""``tracer.exchange`` against its per-call oracle, bit for bit.

The batched interpreter (one stack walk and one signature batch per
``exchange``, ops issued straight on the communicator) and the per-call
oracle (``tests/scalatrace/exchange_oracle.py``: every op through the
tracer's own wrappers under ``ctx.frame(label)``) run the same seeded
programs; everything a run produces must be equal — ``repr`` of every
rank's ``TracerStats`` and ``ChameleonStats``, the final clocks, who is
still tracing, and the serialized trace with its raw signature values.

Also here: the counter tests of the event path for declared phases — how
many stack walks a run makes, and that a Chameleon non-lead in the lead
phase does no per-event tracer work.
"""

from __future__ import annotations

import random

import pytest

from repro.core import (AcurdionTracer, AutoMarkerTracer, ChameleonConfig,
                        ChameleonTracer)
from repro.faults.plan import CrashFault, FaultPlan, MessageFaults
from repro.scalatrace import ScalaTraceTracer
from repro.simmpi import NeighborPattern, run_spmd

from ..scalatrace.exchange_oracle import CallCounts, per_call
from .test_callpath_phase import state_of
from .test_chameleon import CountingWalker

LABELS = ("put", "get", "halo", "edge")


def random_pattern(rng: random.Random, size: int, name: str) -> NeighborPattern:
    """A deadlock-free declared phase of 2-5 rounds over the vocabulary the
    interpreters must agree on: isend/recv/wait chains with ``None`` slots
    on the edge ranks, blocking-send wavefronts, a fused ``sendrecv`` ring,
    per-rank computes; labels repeat across rounds."""
    ops: list[list] = [[] for _ in range(size)]
    sites: list = []
    isends = [0] * size
    for tag in range(rng.randint(2, 5)):
        kind = rng.choice(("chain", "wavefront", "sendrecv", "compute"))
        nbytes = rng.choice((8, 512, 1 << 17))  # eager and rendezvous
        if kind == "compute":
            for r in range(size):
                ops[r].append(("compute", 1e-6 * (1 + (r + tag) % 3)))
            sites.append(None)
        elif kind == "wavefront":  # recv from the left, then send right
            for r in range(size):
                ops[r].append(("recv", r - 1, tag) if r else None)
                ops[r].append(("send", r + 1, tag, nbytes)
                              if r + 1 < size else None)
            sites += [rng.choice(LABELS), rng.choice(LABELS)]
        elif kind == "sendrecv":  # periodic: every rank has all three
            for r in range(size):
                ops[r] += [("isend", (r + 1) % size, tag, nbytes),
                           ("recv", (r - 1) % size, tag),
                           ("wait", isends[r])]
                isends[r] += 1
            sites += [("sendrecv", rng.choice(LABELS)), None, None]
        else:  # open chain: the edge ranks keep placeholders
            for r in range(size):
                sends, recvs = r + 1 < size, r > 0
                ops[r] += [
                    ("isend", r + 1, tag, nbytes) if sends else None,
                    ("recv", r - 1, tag) if recvs else None,
                    ("wait", isends[r]) if sends else None,
                ]
                isends[r] += sends
            sites += [rng.choice(LABELS), rng.choice(LABELS), None]
    return NeighborPattern(name, size, ops, tuple(sites))


STEPS = 10


def program(patterns):
    """Two declared phases per step, the second under an outer logical
    frame and switching pattern half way (AT, C, L, L, L, then a flush and
    the same again), an allreduce (the auto-marker's anchor) and the
    marker."""

    async def prog(ctx, tracer):
        for step in range(STEPS):
            await tracer.exchange(patterns[0], compute=ctx.compute)
            with ctx.frame("outer"):
                await tracer.exchange(patterns[1 + (step >= STEPS // 2)])
            await tracer.allreduce(1.0, size=8)
            await tracer.marker()

    return prog


def run(tracer_cls, make_args, prog, nprocs, faults=None, tap=None):
    async def main(ctx):
        tracer = tracer_cls(ctx, *make_args)
        if tap is not None:
            tap(tracer)
        await prog(ctx, tracer)
        trace = await tracer.finalize()
        return {
            "stats": repr(tracer.stats),
            "cstats": repr(getattr(tracer, "cstats", None)),
            "tracing": tracer.tracing,
            "trace": None if trace is None else trace.serialize(),
        }

    res = run_spmd(main, nprocs, faults=faults)
    return res.results, res.clocks, res.failed_ranks


TRACERS = {
    "scalatrace": (ScalaTraceTracer, ()),
    "chameleon": (ChameleonTracer, (ChameleonConfig(k=2),)),
    "acurdion": (AcurdionTracer, (ChameleonConfig(k=2),)),
    "automarker": (AutoMarkerTracer, (ChameleonConfig(k=2),)),
}


@pytest.mark.parametrize("nprocs", (4, 9))
@pytest.mark.parametrize("tracer", sorted(TRACERS))
def test_batched_exchange_equals_the_per_call_oracle(tracer, nprocs):
    cls, args = TRACERS[tracer]
    skipped = 0
    for seed in range(4):
        rng = random.Random(1000 * nprocs + seed)
        patterns = [random_pattern(rng, nprocs, f"p{seed}-{i}")
                    for i in range(3)]
        prog = program(patterns)
        clean = run(cls, args, prog, nprocs)
        assert clean == run(per_call(cls), args, prog, nprocs)
        skipped += sum("events_skipped=0," not in out["stats"]
                       for out in clean[0])
        victim = nprocs - 1  # dies half way through its own run
        plans = (
            FaultPlan(seed=seed, crashes=(
                CrashFault(rank=victim, time=0.5 * clean[1][victim]),)),
            FaultPlan(seed=seed, messages=MessageFaults(
                drop_prob=0.1, max_retries=1)),
        )
        for plan in plans:
            got = run(cls, args, prog, nprocs, faults=plan)
            assert got == run(per_call(cls), args, prog, nprocs, faults=plan)
            assert all(crash.rank in got[2] for crash in plan.crashes)
    # the signature-only branch ran exactly where there are non-leads
    assert (skipped > 0) == (tracer in ("chameleon", "automarker"))


def test_non_lead_in_the_lead_phase_does_no_per_event_work():
    """Between two markers of a declared phase a Chameleon non-lead walks
    the stack once per ``exchange`` and per collective, and makes no
    ``_record``, ``_track_signature`` or ``observe`` call for a declared
    op — while its skipped-event count, interval signatures and clock are
    the per-call oracle's."""
    nprocs = 9
    rng = random.Random(7)
    prog = program([random_pattern(rng, nprocs, f"c{i}") for i in range(3)])
    counters: dict[int, CallCounts] = {}
    snapshots: dict[bool, list] = {True: [], False: []}

    def tap_for(oracle: bool):
        def tap(tracer):
            if not oracle:
                counters[tracer.rank] = CallCounts(tracer)
            snapshot = tracer.sigacc.snapshot

            def keep():
                sigs = snapshot()
                snapshots[oracle].append(
                    (tracer.rank, sigs, tracer.stats.events_skipped,
                     tracer.ctx.clock))
                return sigs

            tracer.sigacc.snapshot = keep
        return tap

    args = (ChameleonConfig(k=2),)
    new = run(ChameleonTracer, args, prog, nprocs, tap=tap_for(False))
    old = run(per_call(ChameleonTracer), args, prog, nprocs,
              tap=tap_for(True))
    assert new == old
    assert snapshots[False] == snapshots[True] and snapshots[True]
    lead_phase = [counts for c in counters.values()
                  for tracing, counts in c.intervals if not tracing]
    assert len(lead_phase) >= (nprocs - 2) * 4
    for counts in lead_phase:
        # per step: two exchanges, and the allreduce — a collective is the
        # one intercepted call here that takes the per-event path
        assert counts == {"exchange": 2, "walk": 3, "record": 1, "hook": 1,
                          "observe": 2}


@pytest.mark.parametrize("mode", ("sequence", "dedup"))
def test_sigacc_state_after_a_declared_interval(mode):
    """The batch the tracer feeds is the per-call sequence: same Call-Path,
    dedup Call-Path, counts and means as the oracle run's accumulator."""
    nprocs = 4
    rng = random.Random(3)
    patterns = [random_pattern(rng, nprocs, f"s{i}") for i in range(2)]
    cfg = ChameleonConfig(k=2, signature_filter=mode)
    states: dict[bool, list] = {True: [], False: []}

    def run_one(cls, oracle):
        async def main(ctx):
            tracer = cls(ctx, cfg)
            await tracer.exchange(patterns[0])
            with ctx.frame("outer"):
                await tracer.exchange(patterns[1], compute=ctx.compute)
            states[oracle].append((ctx.rank, state_of(tracer.sigacc),
                                   state_of(tracer.mergeacc)))

        run_spmd(main, nprocs)

    run_one(ChameleonTracer, False)
    run_one(per_call(ChameleonTracer), True)
    assert states[False] == states[True]
    assert all(sigacc[3] > 0 for _, sigacc, _ in states[True])  # .events


def test_disabled_layer_walks_nothing_and_feeds_no_hook():
    nprocs = 4
    pattern = random_pattern(random.Random(5), nprocs, "off")

    async def main(ctx):
        tracer = ChameleonTracer(ctx, ChameleonConfig(k=2))
        tracer.walker = CountingWalker()
        tracer.enabled = False
        await tracer.exchange(pattern)
        return (tracer.sigacc.events, tracer.stats.events_recorded,
                tracer.stats.events_skipped, ctx.clock, tracer.walker.calls)

    async def app(ctx):
        await ctx.comm.exchange(pattern)
        return ctx.clock

    res = run_spmd(main, nprocs)
    events = [sum(op is not None and op[0] in ("isend", "send", "recv")
                  for op in ops) for ops in pattern.ops]
    fused = sum(type(s) is tuple for s in pattern.sites)
    for (seen, recorded, skipped, _, walks), n in zip(res.results, events):
        assert (seen, recorded, walks) == (0, 0, 0)
        assert skipped == n - fused  # a fused sendrecv is one call
    # no instrumentation charge either: the uninstrumented clocks
    assert [r[3] for r in res.results] == run_spmd(app, nprocs).results
