"""Seeded fuzz: the macro p2p fast path is bit-identical to the
message-level reference.

Mirror of ``test_collective_fastpath.py`` for declared
:class:`~repro.simmpi.NeighborPattern` exchanges.  Every bit-identity test
runs the same program under ``gates="fast"`` and ``gates="simulated"`` and
asserts *exact* equality (``==`` on floats, no tolerances) of results,
per-rank virtual clocks, per-rank busy times and traffic totals.  The
workload tests add the traced legs: a cost-free tracer whose ``exchange``
hands the gate its own schedule of the same script (what every traced mode
executes) must agree with both, gated and driven.

Coverage:

* POP halo (slot replay), Sweep3D wavefront (script replay: recv-before-
  send chains), AMG smoothing (partial participation) and CG's transpose
  (one ``sendrecv`` site) over P ∈ {4, 16, 64, 256}, LULESH ghost
  exchanges over the cubes P ∈ {8, 27, 64}, eager and rendezvous payloads;
* every documented fallback reason, each surfaced as a labelled
  ``p2p/fallbacks`` metric and each bit-identical to the always-simulated
  run;
* observability parity: a recorder sees the same events either way;
* one seeded program interleaving collectives and exchanges on the world
  and on a ``split`` half, with stray traffic aborting one gate mid-way;
* pattern validation errors and gate key mismatches;
* the columnar rank-state store writes back every column.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.faults.plan import CrashFault, FaultPlan
from repro.obs.instrument import Recorder
from repro.scalatrace import ZERO_COSTS, ScalaTraceTracer
from repro.simmpi import (
    ANY_SOURCE,
    NeighborPattern,
    PatternMismatchError,
    RankStateColumns,
    run_spmd,
)
from repro.simmpi.errors import TaskFailedError
from repro.workloads.amg import AMG
from repro.workloads.base import NullTracer
from repro.workloads.lulesh import LULESH
from repro.workloads.npb import CG
from repro.workloads.pop import POP
from repro.workloads.sweep3d import Sweep3D

from ..gates import FAST, SIMULATED, assert_identical, run_pair
from .linear_mailbox import linear_matching  # noqa: F401 - pytest fixture

FUZZ_PS = (4, 16, 64, 256)

#: workload factories per payload regime; sizes chosen so every message is
#: eager (< 64 KiB) resp. rendezvous (> 64 KiB) at every fuzz P
_WORKLOADS = {
    "pop": {
        "eager": lambda: POP(grid_points=896, iterations=2),
        "rendezvous": lambda: POP(grid_points=1 << 20, iterations=2),
    },
    "sweep3d": {
        "eager": lambda: Sweep3D(nx=16, ny=16, nz=16, iterations=2),
        "rendezvous": lambda: Sweep3D(nx=64, ny=64, nz=512, iterations=2,
                                      weak_scaling=True),
    },
    "amg": {
        "eager": lambda: AMG(fine_points=1 << 12, levels=3, iterations=2),
        "rendezvous": lambda: AMG(fine_points=1 << 26, levels=2,
                                  iterations=2),
    },
    "cg": {
        "eager": lambda: CG(problem_class="A", iterations=2),
        "rendezvous": lambda: CG(problem_class="D", iterations=2),
    },
}
#: LULESH runs on perfect cubes only, so it gets its own P ladder
_LULESH = {
    "eager": lambda: LULESH(edge_elems=8, iterations=2),
    "rendezvous": lambda: LULESH(edge_elems=96, iterations=2),
}


def _workload_prog(factory, traced: bool = False):
    """``traced`` swaps the NullTracer for a zero-charge tracer: it records
    at no virtual cost, and hands the gate its own schedule of every
    declared script (pre-step, op, post-step per call) in place of the
    plain one."""

    async def prog(ctx):
        workload = factory()
        tracer = (ScalaTraceTracer(ctx, costs=ZERO_COSTS) if traced
                  else NullTracer(ctx))
        await workload.run(ctx, tracer)
        return ctx.rank

    return prog


def _ring_pattern(size: int, nbytes: int = 8, rounds: int = 2,
                  name: str = "test-ring") -> NeighborPattern:
    """Slot-aligned periodic ring: vectorized slot-replay tier."""
    ops = []
    for rank in range(size):
        right = (rank + 1) % size
        left = (rank - 1) % size
        row = []
        for r in range(rounds):
            row += [("isend", right, r, nbytes), ("recv", left, r),
                    ("wait", r)]
        ops.append(row)
    return NeighborPattern(name, size, ops)


def _chain_pattern(size: int, nbytes: int = 8) -> NeighborPattern:
    """Open chain with recv-before-send dependencies: the slot compiler
    rejects it (a recv precedes its matching send slot), so the scalar
    script-replay tier runs."""
    ops = []
    for rank in range(size):
        row = []
        if rank > 0:
            row.append(("recv", rank - 1, 5))
        row.append(("compute", 1e-7 * (rank + 1)))
        if rank < size - 1:
            row.append(("send", rank + 1, 5, nbytes))
        ops.append(row)
    return NeighborPattern("test-chain", size, ops)


def _assert_three_legs_agree(factory, nprocs):
    """Four legs by now: the gate and ``_drive``, each under the NullTracer
    (the plain script) and under the tracer (its schedule of the script)."""
    fast, sim = run_pair(_workload_prog(factory), nprocs)
    assert_identical(fast, sim)
    traced_fast, traced_sim = run_pair(_workload_prog(factory, traced=True),
                                    nprocs)
    assert_identical(fast, traced_fast)
    assert_identical(fast, traced_sim)
    for gated, driven in ((fast, sim), (traced_fast, traced_sim)):
        assert gated.p2p_fast > 0
        assert gated.p2p_simulated == 0
        assert driven.p2p_fast == 0
        assert driven.p2p_simulated > 0
        # the fast path must also collapse scheduler work
        assert gated.engine_steps < driven.engine_steps
    # every declared instance is consulted once per rank, traced or not
    assert traced_fast.p2p_fast == fast.p2p_fast
    assert traced_sim.p2p_simulated == sim.p2p_simulated


class TestWorkloadBitIdentity:
    """The tentpole contract: one script, two interpreters — the macro gate
    and the message-level driver — whether the schedule is the plain script
    or a tracer's."""

    @pytest.mark.parametrize("nprocs", FUZZ_PS)
    @pytest.mark.parametrize("regime", ("eager", "rendezvous"))
    @pytest.mark.parametrize("workload", sorted(_WORKLOADS))
    def test_fast_simulated_and_original_agree(self, workload, regime,
                                               nprocs):
        _assert_three_legs_agree(_WORKLOADS[workload][regime], nprocs)

    @pytest.mark.parametrize("nprocs", (8, 27, 64))
    @pytest.mark.parametrize("regime", ("eager", "rendezvous"))
    def test_lulesh_three_legs_agree(self, regime, nprocs):
        _assert_three_legs_agree(_LULESH[regime], nprocs)


class TestReplayTiers:
    @pytest.mark.parametrize("nprocs", (3, 4, 16, 64))
    @pytest.mark.parametrize("nbytes", (8, 80 * 1024))
    def test_slot_replay_ring(self, nprocs, nbytes):
        pattern = _ring_pattern(nprocs, nbytes=nbytes,
                                name=f"ring-{nprocs}-{nbytes}")
        assert pattern.slot_plan() is not None

        async def prog(ctx):
            for _ in range(3):
                await ctx.comm.exchange(pattern)
            return ctx.rank

        fast, sim = run_pair(prog, nprocs)
        assert_identical(fast, sim)
        assert fast.p2p_fast == 3 * nprocs
        assert fast.total_messages == 3 * pattern.total_messages
        assert fast.total_bytes == 3 * pattern.total_bytes

    @pytest.mark.parametrize("nprocs", (2, 5, 16))
    @pytest.mark.parametrize("nbytes", (8, 80 * 1024))
    def test_script_replay_chain(self, nprocs, nbytes):
        pattern = _chain_pattern(nprocs, nbytes=nbytes)
        assert pattern.slot_plan() is None  # forces the script tier

        async def prog(ctx):
            await ctx.comm.exchange(pattern)
            return ctx.rank

        fast, sim = run_pair(prog, nprocs)
        assert_identical(fast, sim)
        assert fast.p2p_fast == nprocs

    def test_compute_callback_matches_inline_charge(self):
        # exchange(compute=...) must charge exactly like the fallback's
        # compute hook does
        pattern = _chain_pattern(4)

        async def prog(ctx):
            await ctx.comm.exchange(pattern, compute=ctx.compute)
            return ctx.rank

        fast, sim = run_pair(prog, 4)
        assert_identical(fast, sim)


class TestStepCollapse:
    def test_one_step_per_rank_for_pure_patterns(self):
        pattern = _ring_pattern(64, name="collapse-ring")

        async def prog(ctx):
            for _ in range(5):
                await ctx.comm.exchange(pattern)

        res = run_spmd(prog, 64)
        # each rank is dispatched once; every instance completes via bulk
        # gate resolution, never re-entering the scheduler loop
        assert res.engine_steps == 64
        assert res.p2p_fast == 5 * 64


def _reasons(rec: Recorder) -> set:
    return {
        op.rsplit(":", 1)[1]
        for (_, _rank, _phase, op) in rec.metrics.labels("p2p/fallbacks")
    }


def _assert_fell_back(res, rec: Recorder, *reasons: str) -> None:
    """The run's one exchange per rank went message-level on every rank,
    for exactly ``reasons``."""
    assert res.p2p_fast == 0
    assert res.p2p_simulated == res.nprocs
    assert rec.metrics.value("p2p/fallbacks") == res.nprocs
    assert _reasons(rec) == set(reasons)


class TestFallbackReasons:
    """Every exchange reason of the fallback ledger (docs/INTERNALS.md),
    each bit-identical and each surfaced as a labelled ``p2p/fallbacks``
    metric next to the ``p2p_simulated`` counter."""

    def _pattern_prog(self, pattern):
        async def prog(ctx):
            await ctx.comm.exchange(pattern)
            return ctx.rank

        return prog

    def test_disabled(self):
        pattern = _ring_pattern(4, name="fb-disabled")
        rec = Recorder()
        res = run_spmd(self._pattern_prog(pattern), 4,
                       config=SIMULATED, instrument=rec)
        _assert_fell_back(res, rec, "disabled")

    def test_linear_matching(self, linear_matching):  # noqa: F811
        """Not a fallback reason any more (the gate never touches a
        mailbox): the linear-scan oracle is bit-identical driving the
        declared ops message-level, and irrelevant under defaults."""
        pattern = _ring_pattern(4, name="fb-linear")
        fast = run_spmd(self._pattern_prog(pattern), 4)
        with linear_matching():
            sim = run_spmd(self._pattern_prog(pattern), 4,
                           config=SIMULATED)
            defaults = run_spmd(self._pattern_prog(pattern), 4)
        assert sim.p2p_fast == 0 and sim.messages_matched > 0
        assert defaults.p2p_fast == 4
        assert_identical(fast, sim)
        assert_identical(fast, defaults)

    def test_faults(self):
        # an armed crash is a standing fallback condition even when it
        # never fires inside the run
        pattern = _ring_pattern(4, name="fb-faults")
        plan = FaultPlan(crashes=(CrashFault(rank=2, time=10.0),))
        rec = Recorder()
        res = run_spmd(self._pattern_prog(pattern), 4, faults=plan,
                       instrument=rec)
        _assert_fell_back(res, rec, "faults")
        fast, sim = run_pair(self._pattern_prog(pattern), 4, faults=plan)
        assert_identical(fast, sim)

    def test_crash_mid_run_falls_back_identically(self):
        pattern = _ring_pattern(6, name="fb-crash")

        async def prog(ctx):
            for _ in range(12):
                await ctx.comm.exchange(pattern)
            return ctx.rank

        plan = FaultPlan(crashes=(CrashFault(rank=2, time=1e-5),))
        fast, sim = run_pair(prog, 6, faults=plan)
        assert_identical(fast, sim)
        assert 2 in fast.failed_ranks
        assert fast.p2p_fast == 0

    def test_pending_wildcard(self):
        pattern = _ring_pattern(4, name="fb-wild")

        async def prog(ctx):
            comm, rank = ctx.comm, ctx.rank
            req = comm.irecv(source=ANY_SOURCE, tag=99) if rank == 0 else None
            await comm.exchange(pattern)
            if rank == 3:
                await comm.send(0, None, tag=99, size=8)
            if req is not None:
                await req.wait()
            return rank

        rec = Recorder()
        res = run_spmd(prog, 4, instrument=rec)
        _assert_fell_back(res, rec, "pending-wildcard")
        assert_identical(*run_pair(prog, 4))

    def test_pending_recv(self):
        pattern = _ring_pattern(4, name="fb-pending")

        async def prog(ctx):
            comm, rank = ctx.comm, ctx.rank
            req = comm.irecv(source=3, tag=99) if rank == 0 else None
            await comm.exchange(pattern)
            if rank == 3:
                await comm.send(0, None, tag=99, size=8)
            if req is not None:
                await req.wait()
            return rank

        rec = Recorder()
        res = run_spmd(prog, 4, instrument=rec)
        _assert_fell_back(res, rec, "pending-recv")
        assert_identical(*run_pair(prog, 4))

    def test_queued_traffic(self):
        pattern = _ring_pattern(4, name="fb-queued")

        async def prog(ctx):
            comm, rank = ctx.comm, ctx.rank
            req = comm.isend(1, None, tag=99, size=8) if rank == 0 else None
            await comm.exchange(pattern)
            if req is not None:
                await req.wait()
            if rank == 1:
                await comm.recv(0, tag=99)
            return rank

        rec = Recorder()
        res = run_spmd(prog, 4, instrument=rec)
        _assert_fell_back(res, rec, "queued-traffic")
        assert_identical(*run_pair(prog, 4))

    def test_mid_phase_traffic(self):
        # rank 0 consults a clean gate and parks; rank 1 then injects
        # traffic before its own consult, which must abort the gate and
        # resolve rank 0's parked entry with the rerun token
        pattern = _ring_pattern(4, name="fb-midphase")

        async def prog(ctx):
            comm, rank = ctx.comm, ctx.rank
            req = comm.isend(2, None, tag=99, size=8) if rank == 1 else None
            await comm.exchange(pattern)
            if req is not None:
                await req.wait()
            if rank == 2:
                await comm.recv(1, tag=99)
            return rank

        rec = Recorder()
        res = run_spmd(prog, 4, instrument=rec)
        # rank 0 reran after the abort; ranks 1-3 consulted an aborted gate
        _assert_fell_back(res, rec, "mid-phase-traffic")
        assert_identical(*run_pair(prog, 4))

    def test_clean_faultplan_without_crashes_keeps_fast_path(self):
        pattern = _ring_pattern(4, name="fb-cleanplan")
        plan = FaultPlan(compute=())
        fast, sim = run_pair(self._pattern_prog(pattern), 4, faults=plan)
        assert_identical(fast, sim)
        assert fast.p2p_fast == 4


class TestObservabilityParity:
    def _p2p_spans(self, rec):
        return sorted(
            (s.rank, s.name, s.start, s.end, tuple(sorted(s.args.items())))
            for s in rec.spans if s.cat == "p2p"
        )

    @pytest.mark.parametrize("nbytes", (8, 80 * 1024))
    def test_span_granularity_spans_and_metrics_identical(self, nbytes):
        pattern = _ring_pattern(6, nbytes=nbytes, name=f"obs-ring-{nbytes}")

        async def prog(ctx):
            await ctx.comm.exchange(pattern)
            return ctx.rank

        rec_fast = Recorder()
        rec_sim = Recorder()
        fast = run_spmd(prog, 6, config=FAST,
                        instrument=rec_fast)
        sim = run_spmd(prog, 6, config=SIMULATED,
                       instrument=rec_sim)
        assert_identical(fast, sim)
        assert fast.p2p_fast == 6
        # the synthesized p2p spans must be indistinguishable from the
        # simulated path's observed ones
        assert self._p2p_spans(rec_fast) == self._p2p_spans(rec_sim)
        # per-label exact equality of every p2p metric (a receive's bytes
        # and latency are its span, compared above)
        for name in ("p2p/bytes_sent", "p2p/messages"):
            labels = rec_sim.metrics.labels(name)
            assert rec_fast.metrics.labels(name) == labels
            for _, rank, phase, op in labels:
                assert rec_fast.metrics.value(
                    name, rank=rank, phase=phase, op=op
                ) == rec_sim.metrics.value(name, rank=rank, phase=phase,
                                           op=op)
        # coverage counters: every instance was a fast hit in one run and
        # absent in the other
        assert rec_fast.metrics.value("p2p/fast_hits") == 6
        assert rec_sim.metrics.value("p2p/fast_hits") == 0
        assert rec_sim.metrics.value("p2p/fallbacks") == 6


class TestInterleaving:
    """Collectives and exchanges share one gate table per communicator:
    interleave them, on the world and on a ``split`` half, and let a late
    rank's stray message abort one exchange gate after rank 0 has parked
    on it."""

    def test_seeded_interleaving_with_mid_gate_abort(self):
        nprocs = 8
        rng = random.Random(0x16A7E)
        kinds = ("allreduce", "barrier", "bcast", "scan", "exchange",
                 "sub-allreduce", "sub-allgather", "sub-exchange")
        script = [rng.choice(kinds) for _ in range(48)]
        stray_at = [i for i, k in enumerate(script) if k == "exchange"][2]
        world_ring = _ring_pattern(nprocs, name="mix-world")
        chain = _chain_pattern(nprocs)
        half_ring = _ring_pattern(nprocs // 2, nbytes=80 * 1024,
                                  name="mix-half")

        async def prog(ctx):
            comm, rank = ctx.comm, ctx.rank
            sub = await comm.split(color=rank % 2, key=rank)
            acc = 0.0
            for i, kind in enumerate(script):
                ctx.compute(1e-7 * ((rank * 7 + i) % 5))
                if kind == "allreduce":
                    acc += await comm.allreduce(rank + i * 0.25)
                elif kind == "barrier":
                    await comm.barrier()
                elif kind == "bcast":
                    acc += await comm.bcast(i if rank == i % nprocs else None,
                                            root=i % nprocs)
                elif kind == "scan":
                    acc += await comm.scan(rank + 1)
                elif kind == "exchange":
                    stray = i == stray_at
                    req = comm.isend(5, None, tag=99, size=8) \
                        if stray and rank == 3 else None
                    await comm.exchange(chain if i % 2 else world_ring,
                                        compute=ctx.compute)
                    if req is not None:
                        await req.wait()
                    if stray and rank == 5:
                        await comm.recv(3, tag=99)
                elif kind == "sub-allreduce":
                    acc += await sub.allreduce(rank * 0.5)
                elif kind == "sub-allgather":
                    acc += sum(await sub.allgather(rank))
                else:
                    await sub.exchange(half_ring)
            return acc

        def spans(rec):
            return sorted(
                (s.cat, s.rank, s.name, s.start, s.end,
                 tuple(sorted(s.args.items())))
                for s in rec.spans if s.cat in ("coll", "p2p"))

        rec_fast = Recorder()
        rec_sim = Recorder()
        fast = run_spmd(prog, nprocs, instrument=rec_fast)
        sim = run_spmd(prog, nprocs, instrument=rec_sim,
                       config=SIMULATED)
        assert_identical(fast, sim)
        assert spans(rec_fast) == spans(rec_sim)
        # exactly one world exchange instance left the fast path, mid-gate:
        # three ranks were parked on it when rank 3's message showed up
        assert _reasons(rec_fast) == {"mid-phase-traffic"}
        assert fast.p2p_simulated == nprocs
        assert fast.p2p_fast == \
            (script.count("exchange") - 1 + script.count("sub-exchange")) \
            * nprocs
        assert fast.collectives_simulated == 0
        assert sim.p2p_fast == sim.collectives_fast == 0


class TestPatternValidation:
    def test_rejects_out_of_range_peer(self):
        with pytest.raises(ValueError, match="out of range"):
            NeighborPattern("bad", 2,
                            [(("isend", 5, 0, 8),), (("recv", 0, 0),)])

    def test_rejects_bad_tag(self):
        with pytest.raises(ValueError, match="tag"):
            NeighborPattern("bad", 2,
                            [(("isend", 1, -3, 8),), (("recv", 0, -3),)])

    def test_rejects_unbalanced_channel(self):
        with pytest.raises(ValueError, match="more send"):
            NeighborPattern("bad", 2, [(("isend", 1, 0, 8), ("wait", 0)),
                                       ()])
        with pytest.raises(ValueError, match="more recv"):
            NeighborPattern("bad", 2, [(), (("recv", 0, 0),)])

    def test_rejects_wait_before_isend(self):
        with pytest.raises(ValueError, match="does not follow"):
            NeighborPattern("bad", 1, [(("wait", 0),)])

    def test_rejects_double_wait(self):
        with pytest.raises(ValueError, match="waited twice"):
            NeighborPattern(
                "bad", 2,
                [(("isend", 1, 0, 8), ("wait", 0), ("wait", 0)),
                 (("recv", 0, 0),)])

    def test_rejects_unknown_op(self):
        with pytest.raises(ValueError, match="unknown op"):
            NeighborPattern("bad", 1, [(("frobnicate", 1),)])

    def test_rejects_wrong_rank_count(self):
        with pytest.raises(ValueError, match="one script per rank"):
            NeighborPattern("bad", 3, [(), ()])

    def test_rejects_negative_compute(self):
        # a numpy scalar is rejected too: it would leak into task clocks
        for seconds in (-1.0, np.float64(1.0)):
            with pytest.raises(ValueError, match="compute"):
                NeighborPattern("bad", 1, [(("compute", seconds),)])

    def test_size_mismatch_with_communicator(self):
        pattern = _ring_pattern(3, name="mismatch-size")

        async def prog(ctx):
            await ctx.comm.exchange(pattern)

        with pytest.raises(TaskFailedError) as ei:
            run_spmd(prog, 4)
        assert isinstance(ei.value.original, PatternMismatchError)

    def test_gate_key_mismatch_between_ranks(self):
        a = _ring_pattern(4, rounds=1, name="key-a")
        b = _ring_pattern(4, rounds=1, name="key-b")

        async def prog(ctx):
            await ctx.comm.exchange(a if ctx.rank == 0 else b)

        with pytest.raises(TaskFailedError) as ei:
            run_spmd(prog, 4)
        assert isinstance(ei.value.original, PatternMismatchError)

    @pytest.mark.parametrize("case", ("too-big", "too-small",
                                      "patterns-differ"))
    def test_traced_mismatches_raise_what_the_untraced_ones_do(self, case):
        """A tracer's ``exchange`` goes through the same gate: a pattern of
        the wrong size and ranks presenting different patterns are a
        ``PatternMismatchError`` with the NullTracer's message (a traced
        run used to die inside the script, resp. run to completion)."""
        sites = ("put", "get", None)
        a = NeighborPattern("key-a", 4, _ring_pattern(4, rounds=1).ops, sites)
        b = NeighborPattern("key-b", 4, _ring_pattern(4, rounds=1).ops, sites)
        wrong = {n: NeighborPattern(f"ring-{n}", n,
                                    _ring_pattern(n, rounds=1).ops, sites)
                 for n in (3, 6)}

        def failure(tracer_cls):
            async def prog(ctx):
                tracer = tracer_cls(ctx)
                for _ in range(2):
                    await tracer.exchange(
                        wrong[6] if case == "too-big"
                        else wrong[3] if case == "too-small"
                        else a if ctx.rank % 2 else b)

            with pytest.raises(TaskFailedError) as ei:
                run_spmd(prog, 4)
            assert isinstance(ei.value.original, PatternMismatchError)
            return ei.value.rank, str(ei.value.original)

        assert failure(ScalaTraceTracer) == failure(NullTracer)


class TestColumnarState:
    def test_write_back_copies_every_column(self):
        class _Stub:
            clock = busy = 0.0
            msgs_sent = bytes_sent = msgs_received = bytes_received = 0

        class _Entry:
            def __init__(self, i):
                self.clock = 0.1 + 0.2 * i  # not exactly representable
                self.busy = 1e-9 * (i + 1)
                self.msgs_sent = i
                self.bytes_sent = 8 * i
                self.msgs_received = 2 * i
                self.bytes_received = 16 * i

        entries = [_Entry(i) for i in range(5)]
        cols = RankStateColumns.from_entries(entries)
        tasks = [_Stub() for _ in range(5)]
        cols.write_back(tasks)
        for e, t in zip(entries, tasks):
            assert t.clock == e.clock and type(t.clock) is float
            assert t.busy == e.busy
            assert t.msgs_sent == e.msgs_sent and type(t.msgs_sent) is int
            assert t.bytes_sent == e.bytes_sent
            assert t.msgs_received == e.msgs_received
            assert t.bytes_received == e.bytes_received
