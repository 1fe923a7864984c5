"""Seeded fuzz: the macro-collective fast path is bit-identical to the
message-level reference.

Every test here runs the same program twice — ``gates="fast"`` and
``gates="simulated"`` (``tests/gates.py``) — and asserts *exact* equality
(``==`` on floats, no tolerances) of results, per-rank virtual clocks,
per-rank busy times and traffic totals.  That is the fast path's
contract: it is a pure wall-clock optimisation, invisible in virtual time.

Coverage:

* every leaf collective and both composites, every reduction op;
* non-power-of-two and prime P, split/dup sub-communicators;
* eager and rendezvous payload sizes;
* fault-triggered fallback (a crash on a participant routes the instance
  to the simulated path and matches today's degraded behaviour exactly);
* every fallback reason of the ledger (docs/INTERNALS.md) a collective's
  verdict can return, by its ``coll/fallbacks`` label;
* observability parity: a recorder sees the same ``coll`` spans either way.
"""

from __future__ import annotations

import ast
import random
import re
from collections import Counter
from pathlib import Path

import pytest

from repro.faults.plan import (
    ComputeFault,
    CrashFault,
    FaultPlan,
    LinkFault,
    MessageFaults,
)
from repro.obs.instrument import Recorder
from repro.simmpi import SimConfig, run_spmd
from repro.simmpi.collectives import BOR, LAND, LOR, MAX, MIN, PROD, SUM

from ..gates import FAST, SIMULATED, assert_identical, run_pair

FUZZ_PS = (3, 5, 16, 31, 64)
ALL_OPS = {
    "sum": SUM, "prod": PROD, "max": MAX, "min": MIN,
    "lor": LOR, "land": LAND, "bor": BOR,
}


class TestEveryCollective:
    @pytest.mark.parametrize("nprocs", FUZZ_PS)
    def test_all_leaves_and_composites(self, nprocs):
        async def prog(ctx):
            comm, rank = ctx.comm, ctx.rank
            out = []
            await comm.barrier()
            out.append(await comm.bcast(rank * 1.5 if rank == 0 else None,
                                        root=0))
            out.append(await comm.reduce(rank + 0.5, op=SUM,
                                         root=nprocs - 1))
            out.append(await comm.gather(rank * 2, root=nprocs // 2))
            out.append(await comm.scatter(
                [i * 3 for i in range(nprocs)]
                if rank == nprocs // 2 else None,
                root=nprocs // 2))
            out.append(await comm.allgather(rank))
            out.append(await comm.alltoall([rank * 100 + i
                                            for i in range(nprocs)]))
            out.append(await comm.scan(rank + 1, op=SUM))
            out.append(await comm.allreduce(float(rank), op=MAX))
            return out

        fast, sim = run_pair(prog, nprocs)
        assert_identical(fast, sim)
        assert fast.collectives_fast > 0
        assert fast.collectives_simulated == 0
        assert sim.collectives_fast == 0
        # The fast path must also collapse scheduler work:
        assert fast.engine_steps < sim.engine_steps

    @pytest.mark.parametrize("opname", sorted(ALL_OPS))
    def test_every_reduction_op(self, opname):
        op = ALL_OPS[opname]

        async def prog(ctx):
            base = (ctx.rank % 3) + 1  # small ints: safe for PROD/bitwise
            a = await ctx.comm.allreduce(base, op=op)
            b = await ctx.comm.reduce(base, op=op, root=2)
            c = await ctx.comm.scan(base, op=op)
            return (a, b, c)

        fast, sim = run_pair(prog, 13)
        assert_identical(fast, sim)

    def test_rendezvous_payloads(self):
        # Payloads past eager_threshold exercise the rendezvous arithmetic
        # (deferred sender busy charge) inside the replay.
        big = 80 * 1024

        async def prog(ctx):
            comm, rank = ctx.comm, ctx.rank
            v = await comm.bcast(bytes(big) if rank == 0 else None, root=0)
            g = await comm.gather(bytes(big), root=0)
            a = await comm.allgather(bytes(big // 8))
            return (len(v), len(g) if g else 0, len(a))

        fast, sim = run_pair(prog, 9)
        assert_identical(fast, sim)
        assert fast.total_bytes == sim.total_bytes > 0

    def test_seeded_random_program(self):
        rng = random.Random(0xC0FFEE)
        script = [rng.choice(["barrier", "allreduce", "bcast", "allgather",
                              "scan", "gather", "scatter", "alltoall"])
                  for _ in range(40)]

        async def prog(ctx):
            comm, rank, size = ctx.comm, ctx.rank, ctx.size
            acc = 0.0
            for i, kind in enumerate(script):
                root = i % size
                if kind == "barrier":
                    await comm.barrier()
                elif kind == "allreduce":
                    acc += await comm.allreduce(rank + i * 0.25)
                elif kind == "bcast":
                    acc += await comm.bcast(i if rank == root else None,
                                            root=root)
                elif kind == "allgather":
                    acc += sum(await comm.allgather(rank))
                elif kind == "scan":
                    acc += await comm.scan(1, op=SUM)
                elif kind == "gather":
                    got = await comm.gather(rank, root=root)
                    acc += sum(got) if got else 0
                elif kind == "scatter":
                    vals = [j + i for j in range(size)] \
                        if rank == root else None
                    acc += await comm.scatter(vals, root=root)
                elif kind == "alltoall":
                    acc += sum(await comm.alltoall(list(range(size))))
            return acc

        for nprocs in (5, 16, 31):
            fast, sim = run_pair(prog, nprocs)
            assert_identical(fast, sim)


class TestSubCommunicators:
    @pytest.mark.parametrize("nprocs", (5, 16, 31))
    def test_split_and_dup(self, nprocs):
        async def prog(ctx):
            comm, rank = ctx.comm, ctx.rank
            sub = await comm.split(color=rank % 3, key=-rank)
            a = await sub.allreduce(rank, op=SUM)
            b = await sub.allgather(rank)
            dup = await comm.dup()
            c = await dup.allreduce(rank, op=MIN)
            await comm.barrier()
            return (sub.rank, sub.size, a, b, c)

        fast, sim = run_pair(prog, nprocs)
        assert_identical(fast, sim)
        # split/dup are themselves built from leaf collectives, so the
        # fast path must have fired on the sub-communicators too.
        assert fast.collectives_fast > 0

    def test_interleaved_subcomm_and_world(self):
        async def prog(ctx):
            comm, rank = ctx.comm, ctx.rank
            sub = await comm.split(color=rank % 2, key=rank)
            out = []
            for i in range(4):
                out.append(await sub.allreduce(rank + i))
                out.append(await comm.allreduce(rank - i))
            return out

        fast, sim = run_pair(prog, 11)
        assert_identical(fast, sim)


class TestFallbacks:
    def test_crash_on_participant_falls_back_identically(self):
        # Rank 2 crashes mid-run: every collective the crash could touch
        # must take the simulated path, and the whole degraded run (LOST
        # releases, op-timeout waits, survivor results) must match the
        # always-simulated reference exactly.
        plan = FaultPlan(crashes=(CrashFault(rank=2, time=1e-5),))

        async def prog(ctx):
            acc = 0.0
            for i in range(3):
                acc += await ctx.comm.allreduce(ctx.rank + i)
                await ctx.comm.barrier()
            return acc

        fast, sim = run_pair(prog, 8, faults=plan)
        assert_identical(fast, sim)
        assert 2 in fast.failed_ranks
        # A crash armed on a participant is a standing fallback condition.
        assert fast.collectives_fast == 0
        assert fast.collectives_simulated > 0

    def test_clean_faultplan_without_crashes_keeps_fast_path(self):
        # An armed plan whose perturbations cannot touch collectives
        # (empty message faults, no crashes, no links) stays eligible.
        plan = FaultPlan(compute=())

        async def prog(ctx):
            return await ctx.comm.allreduce(ctx.rank)

        fast, sim = run_pair(prog, 6, faults=plan)
        assert_identical(fast, sim)
        assert fast.collectives_fast > 0

    def test_knob_forces_simulated(self):
        async def prog(ctx):
            await ctx.comm.barrier()
            return await ctx.comm.allreduce(ctx.rank)

        sim = run_spmd(prog, 7, config=SIMULATED)
        assert sim.collectives_fast == 0
        assert sim.collectives_simulated == 3 * 7  # barrier+reduce+bcast

    @staticmethod
    async def _two_allreduces(ctx):
        a = await ctx.comm.allreduce(ctx.rank)
        return a, await ctx.comm.allreduce(ctx.rank + 1)

    def _assert_reason(self, prog, nprocs, reason, *, config=None, **kwargs):
        """Every collective of ``prog`` falls back for ``reason`` alone,
        and the run matches the always-simulated one exactly."""
        rec = Recorder()
        res = run_spmd(prog, nprocs, config=config, instrument=rec, **kwargs)
        assert res.collectives_fast == 0
        assert res.collectives_simulated > 0
        assert {op.rsplit(":", 1)[1] for (_, _rank, _phase, op)
                in rec.metrics.labels("coll/fallbacks")} == {reason}
        assert rec.metrics.value("coll/fallbacks") == res.collectives_simulated
        assert_identical(*run_pair(prog, nprocs, **kwargs))

    def test_reason_disabled(self):
        self._assert_reason(self._two_allreduces, 5, "disabled",
                            config=SIMULATED)

    def test_reason_message_faults(self):
        plan = FaultPlan(messages=MessageFaults(delay_prob=0.5))
        self._assert_reason(self._two_allreduces, 5, "message-faults",
                            faults=plan)

    def test_reason_crash_armed(self):
        # armed on a participant, never fires inside the run
        plan = FaultPlan(crashes=(CrashFault(rank=2, time=10.0),))
        self._assert_reason(self._two_allreduces, 5, "crash-armed",
                            faults=plan)

    def test_reason_link_fault(self):
        plan = FaultPlan(links=(LinkFault(src=0, dest=1, latency_factor=3.0),))
        self._assert_reason(self._two_allreduces, 5, "link-fault", faults=plan)

    def test_reason_tag_window(self):
        # A receive posted on an exact tag inside the first collective's
        # private window (one the barrier's two rounds do not use); the
        # message that completes it is sent once the barrier is over.
        from repro.simmpi.collectives import _tag_base

        async def prog(ctx):
            comm, rank = ctx.comm, ctx.rank
            tag = _tag_base(0) + 100
            req = comm.irecv(source=1, tag=tag) if rank == 0 else None
            await comm.barrier()
            if rank == 1:
                await comm.send(0, None, tag=tag, size=8)
            if req is not None:
                await req.wait()
            return rank

        self._assert_reason(prog, 4, "tag-window")

    @pytest.mark.parametrize("joined_first", (False, True))
    def test_reason_failed_participant(self, joined_first):
        """A rank that raises under an active plan is a failed participant
        of every later collective.  With ``joined_first`` ranks 0, 1 and 3
        are already parked on the first instance's fast gate when rank 2
        dies: the gate aborts for the same reason and they rerun
        message-level from their join clocks instead of waiting out the
        op-timeout for a join that never comes."""
        plan = FaultPlan(compute=(ComputeFault(rank=0, slowdown=1.5),))

        async def prog(ctx):
            comm, rank = ctx.comm, ctx.rank
            if rank == 2:
                if joined_first:
                    await comm.recv(3, tag=7)  # parks until rank 3 has run
                raise RuntimeError("boom")
            if joined_first and rank == 3:
                await comm.send(2, None, tag=7, size=8)
            return await TestFallbacks._two_allreduces(ctx)

        self._assert_reason(prog, 6, "failed-participant", faults=plan)
        res = run_spmd(prog, 6, faults=plan)
        assert res.failed_ranks == (2,)
        assert res.fault_summary["timeout"] == 0
        assert res.results[0] == (13, 18)  # the survivors' sums

    def test_invalid_knob_rejected(self):
        async def prog(ctx):
            return None

        with pytest.raises(ValueError, match="gates"):
            run_spmd(prog, 2, config=SimConfig(gates="warp"))


class TestObservabilityParity:
    def _coll_spans(self, rec):
        return sorted(
            (s.rank, s.name, s.start, s.end, tuple(sorted(s.args.items())))
            for s in rec.spans if s.cat == "coll"
        )

    @staticmethod
    async def _prog(ctx):
        await ctx.comm.barrier()
        v = await ctx.comm.allreduce(ctx.rank)
        g = await ctx.comm.gather(ctx.rank, root=0)
        return (v, len(g) if g else 0)

    def test_span_granularity_spans_and_metrics_identical(self):
        prog = self._prog
        rec_fast = Recorder()
        rec_sim = Recorder()
        fast = run_spmd(prog, 9, config=FAST, instrument=rec_fast)
        sim = run_spmd(prog, 9, config=SIMULATED, instrument=rec_sim)
        assert_identical(fast, sim)
        assert fast.collectives_fast == 4 * 9
        # The synthesized coll spans must be indistinguishable from the
        # simulated path's observed ones: a call's count and virtual time
        # are its span, exactly.
        assert self._coll_spans(rec_fast) == self._coll_spans(rec_sim)
        # Coverage counters: every instance was a fast hit in one run and
        # absent in the other.
        assert rec_fast.metrics.value("coll/fast_hits") == 4 * 9
        assert rec_sim.metrics.value("coll/fast_hits") == 0

    def test_a_recorder_records_whichever_interpreter_ran(self):
        """``SimConfig`` alone picks the strategy; a recorder sees one
        ``coll`` span per collective per rank from the closed form, and
        the constituent messages inside those spans when the message-level
        interpreter is asked for."""
        by_default, driven = Recorder(), Recorder()
        fast = run_spmd(self._prog, 9, instrument=by_default)
        sim = run_spmd(
            self._prog, 9, instrument=driven,
            config=SIMULATED,
        )
        assert_identical(fast, sim)
        assert fast.collectives_fast == 4 * 9 \
            == by_default.metrics.value("coll/fast_hits")
        assert by_default.metrics.value("p2p/messages") == 0
        # allreduce is a reduce and a bcast under its own span
        names = ("barrier", "reduce", "bcast", "allreduce", "gather")
        assert Counter((s.rank, s.name) for s in by_default.spans
                       if s.cat == "coll") \
            == {(rank, name): 1 for rank in range(9) for name in names}
        assert self._coll_spans(by_default) == self._coll_spans(driven)
        assert sim.collectives_fast == 0 \
            == driven.metrics.value("coll/fast_hits")
        messages = [s for s in driven.spans if s.cat.startswith("p2p")]
        assert messages and driven.metrics.value("p2p/messages") > 0
        colls = [s for s in driven.spans if s.cat == "coll"]
        for m in messages:
            assert any(c.rank == m.rank and c.start <= m.start
                       and m.end <= c.end for c in colls)


class TestStepCollapse:
    def test_one_step_per_rank_for_pure_collectives(self):
        async def prog(ctx):
            for _ in range(5):
                await ctx.comm.barrier()
            return await ctx.comm.allreduce(ctx.rank)

        res = run_spmd(prog, 64)
        # Each rank is dispatched once; every collective completes via
        # bulk gate resolution, never re-entering the scheduler loop.
        assert res.engine_steps == 64
        assert res.collectives_fast == 7 * 64


def test_fallback_ledger_matches_source():
    """The fallback ledger in docs/INTERNALS.md and the source agree: the
    reasons are exactly the strings a ``*_reason`` function returns or a
    gate is aborted with, and every test the ledger names exists."""
    root = Path(__file__).resolve().parents[2]
    doc = (root / "docs" / "INTERNALS.md").read_text()
    table = doc.split("#### Fallback ledger", 1)[1].split("\n## ", 1)[0]
    ledger: dict[str, list[str]] = {}
    for line in table.splitlines():
        cells = [c.strip() for c in line.strip("|").split("|")]
        if line.startswith("| `") and len(cells) == 4:
            ledger[cells[0].strip("`")] = re.findall(r"`(tests/[^`]+)`",
                                                     cells[3])
    in_source = set()
    files = sorted((root / "src/repro/simmpi").glob("*.py"))
    files.append(root / "src/repro/faults/injector.py")
    for path in files:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.FunctionDef) \
                    and node.name.endswith("_reason"):
                in_source.update(
                    r.value.value for r in ast.walk(node)
                    if isinstance(r, ast.Return)
                    and isinstance(r.value, ast.Constant)
                    and isinstance(r.value.value, str))
            elif isinstance(node, ast.Call) \
                    and isinstance(node.func, ast.Attribute) \
                    and node.func.attr == "abort":
                in_source.add(node.args[1].value)
    assert set(ledger) == in_source
    for reason, test_ids in ledger.items():
        assert test_ids, f"no test reaches {reason!r}"
        for test_id in test_ids:
            path, *_cls, name = test_id.split("::")
            assert f"def {name}(" in (root / path).read_text(), test_id
