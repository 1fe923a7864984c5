"""``tracer.exchange`` against its per-call oracle, bit for bit.

A traced declared phase is a schedule (one stack walk and one signature
batch at the call, then the tracer's pre/post steps around each op) with
two interpreters: the exchange gate's replay and the message-level
``_drive``.  Both, and the per-call oracle
(``tests/scalatrace/exchange_oracle.py``: every op through the tracer's own
wrappers under ``ctx.frame(label)``), run the same seeded programs;
everything a run produces must be equal — ``repr`` of every rank's
``TracerStats`` and ``ChameleonStats``, the final clocks and busy times,
who is still tracing, and the serialized trace with its raw signature
values.

Also here: the counter tests of the event path for declared phases — how
many stack walks a run makes, and that a Chameleon non-lead in the lead
phase does no per-event tracer work.
"""

from __future__ import annotations

import random
from operator import itemgetter

import pytest

from repro.core import (AcurdionTracer, AutoMarkerTracer, ChameleonConfig,
                        ChameleonTracer)
from repro.faults.plan import (ComputeFault, CrashFault, FaultPlan,
                               MessageFaults)
from repro.obs.instrument import Recorder
from repro.scalatrace import ScalaTraceTracer
from repro.simmpi import DeadlockError, NeighborPattern, run_spmd
from repro.simmpi.errors import TaskFailedError

from ..gates import FAST, SIMULATED
from ..scalatrace.exchange_oracle import CallCounts, per_call
from ..simmpi.test_p2p_fastpath import _reasons
from .test_callpath_phase import state_of

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




def run(tracer_cls, make_args, prog, nprocs, faults=None, tap=None, **kwargs):
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

    return run_spmd(main, nprocs, faults=faults, **kwargs)


def observed(res):
    """Everything of a run the interpreters must agree on."""
    return res.results, res.clocks, res.busy_times, res.failed_ranks


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
        clean = run(cls, args, prog, nprocs, config=FAST)
        driven = run(cls, args, prog, nprocs, config=SIMULATED)
        assert observed(clean) == observed(driven) \
            == observed(run(per_call(cls), args, prog, nprocs))
        # every declared instance is consulted once per rank; nearly all are
        # replayed (a marker's merge may leave a receive posted: pending-recv)
        assert clean.p2p_fast + clean.p2p_simulated \
            == driven.p2p_simulated == 2 * STEPS * nprocs
        assert clean.p2p_fast > clean.p2p_simulated and driven.p2p_fast == 0
        skipped += sum("events_skipped=0," not in out["stats"]
                       for out in clean.results)
        victim = nprocs - 1  # dies half way through its own run
        plans = (
            FaultPlan(seed=seed, crashes=(
                CrashFault(rank=victim, time=0.5 * clean.clocks[victim]),)),
            FaultPlan(seed=seed, messages=MessageFaults(
                drop_prob=0.1, max_retries=1)),
            # the charges go through ``compute``: same draws, same order
            FaultPlan(seed=seed, compute=(
                ComputeFault(rank=0, slowdown=1.5, jitter=0.25),
                ComputeFault(rank=victim, jitter=0.5))),
        )
        for plan in plans:
            rec = Recorder()
            got = run(cls, args, prog, nprocs, faults=plan, config=FAST,
                      instrument=rec)
            assert observed(got) \
                == observed(run(cls, args, prog, nprocs, faults=plan,
                                config=SIMULATED)) \
                == observed(run(per_call(cls), args, prog, nprocs,
                                faults=plan))
            assert all(crash.rank in got.failed_ranks
                       for crash in plan.crashes)
            assert got.p2p_fast == 0 < got.p2p_simulated
            assert _reasons(rec) == {"faults"}
    # the signature-only branch ran exactly where there are non-leads
    assert (skipped > 0) == (tracer in ("chameleon", "automarker"))


@pytest.mark.parametrize("tracer", sorted(TRACERS))
def test_aborted_gate_reruns_the_schedule_from_the_join_clocks(tracer):
    """Rank 1 posts a receive between rank 0's arrival at a clean gate and
    its own (``mid-phase-traffic``): the parked rank reruns the instance
    under ``_drive`` from its join clock.  That equals the oracle's run only
    because a schedule is built when an interpreter starts it — at the call
    no record is appended and no counter touched, so nothing happens twice."""
    cls, args = TRACERS[tracer]
    nprocs, stray_at = 4, 7  # the lead phase of the clustering tracers
    rng = random.Random(11)
    patterns = [random_pattern(rng, nprocs, f"a{i}") for i in range(2)]

    async def prog(ctx, tracer):
        for step in range(STEPS):
            stray = step == stray_at
            req = tracer.irecv(2, tag=99) if stray and ctx.rank == 1 else None
            await tracer.exchange(patterns[0], compute=ctx.compute)
            if stray and ctx.rank == 2:
                await tracer.send(1, None, tag=99, size=8)
            if req is not None:
                await tracer.wait(req)
            with ctx.frame("outer"):
                await tracer.exchange(patterns[1])
            await tracer.allreduce(1.0, size=8)
            await tracer.marker()

    rec = Recorder()
    got = run(cls, args, prog, nprocs, instrument=rec)
    assert observed(got) == observed(run(per_call(cls), args, prog, nprocs)) \
        == observed(run(cls, args, prog, nprocs, config=SIMULATED))
    aborted = [(rank, op) for _, rank, _, op
               in rec.metrics.labels("p2p/fallbacks")
               if op.endswith(":mid-phase-traffic")]
    # all four ranks of that one instance, rank 0 after parking on it
    assert sorted(rank for rank, _ in aborted) == list(range(nprocs))
    assert got.p2p_fast + got.p2p_simulated == 2 * STEPS * nprocs
    assert got.p2p_fast > got.p2p_simulated


@pytest.mark.parametrize("config", (FAST, SIMULATED), ids=("gate", "drive"))
def test_deadlocking_script_ends_in_a_deadlock_error_not_a_hang(config):
    """Two blocking rendezvous sends facing each other, tracer attached:
    the same verdict from both interpreters of the traced schedule."""
    knot = NeighborPattern("knot", 3, [
        [("send", 1, 0, 1 << 17), ("recv", 1, 0)],
        [("send", 0, 0, 1 << 17), ("recv", 0, 0)],
        [],
    ], ("put", "get"))

    async def prog(ctx, tracer):
        await tracer.exchange(knot)

    with pytest.raises((DeadlockError, TaskFailedError)) as ei:
        run(ScalaTraceTracer, (), prog, 3, config=config)
    assert isinstance(getattr(ei.value, "original", ei.value), DeadlockError)


def test_non_lead_in_the_lead_phase_does_no_per_event_work():
    """Between two markers of a declared phase a Chameleon non-lead walks
    the stack once per ``exchange`` and per collective, and makes no
    ``_record`` or ``observe`` call for a declared op — while its
    skipped-event count, interval signatures and clock are the per-call
    oracle's."""
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
    assert observed(new) == observed(old)
    # appended in host completion order (a gate wakes its ranks in rank
    # order, the oracle in message order): not an observable of a run
    by_rank_clock = itemgetter(0, 3)
    assert sorted(snapshots[False], key=by_rank_clock) \
        == sorted(snapshots[True], key=by_rank_clock) and snapshots[True]
    lead_phase = [counts for c in counters.values()
                  for tracing, counts in c.intervals if not tracing]
    assert len(lead_phase) >= (nprocs - 2) * 4
    for counts in lead_phase:
        # per step: two exchanges, and the allreduce — a collective is the
        # one intercepted call here that takes the per-event path
        assert counts == {"exchange": 2, "walk": 3, "record": 1,
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
    # appended in host completion order: compare by rank
    assert sorted(states[False], key=itemgetter(0)) \
        == sorted(states[True], key=itemgetter(0))
    assert all(sigacc[3] > 0 for _, sigacc, _ in states[True])  # .events
