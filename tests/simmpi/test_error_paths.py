"""Error-path hygiene: diagnostics say what went wrong, and abnormal
teardown leaves no half-dead coroutines behind."""

import gc
import warnings

import pytest

from repro.faults import LOST
from repro.faults.injector import injector_for
from repro.faults.plan import CrashFault, FaultPlan
from repro.simmpi import (
    ANY_SOURCE,
    DeadlockError,
    Engine,
    MatchingError,
    SimFuture,
    Task,
    TaskFailedError,
    TaskState,
    run_spmd,
)
from repro.simmpi.comm import MAX_USER_TAG


class TestDeadlockDiagnostics:
    def test_send_recv_tag_mismatch_reports_both_sides(self):
        # A rendezvous send (payload above the eager threshold; the default
        # network's, since ZERO_COST makes everything eager) blocks until
        # matched; a receiver waiting on the wrong tag never matches it.
        # The report must show each side's operation so the mismatch is
        # readable straight from the message.
        async def main(ctx):
            if ctx.rank == 0:
                await ctx.comm.send(1, b"x", size=1 << 20, tag=5)
            else:
                await ctx.comm.recv(source=0, tag=6)

        with pytest.raises(DeadlockError) as ei:
            run_spmd(main, 2)
        msg = str(ei.value)
        assert "rank 0" in msg and "rank 1" in msg
        assert "send" in msg and "recv" in msg
        assert "tag=5" in msg and "tag=6" in msg

    def test_blocked_ranks_listed_on_exception(self):
        async def main(ctx):
            await ctx.comm.recv(source=(ctx.rank + 1) % ctx.size, tag=3)

        with pytest.raises(DeadlockError) as ei:
            run_spmd(main, 3)
        assert len(ei.value.blocked) == 3


class TestDeadlockAttribution:
    """Orphan attribution reads structured SimFuture metadata, not labels.

    A deadlock with an *active* injector is unreachable end-to-end (the
    op-timeout backstop always makes progress), so the annotation path is
    exercised directly on a hand-built engine — exactly the state
    ``Engine.run`` would pass it.
    """

    @staticmethod
    def _engine_with_failed(failed_ranks):
        inj = injector_for(
            FaultPlan(crashes=(CrashFault(rank=0, time=1e9),))
        )
        inj.failed.update(failed_ranks)
        return Engine(faults=inj)

    @staticmethod
    def _blocked(rank, fut):
        task = Task(rank, None)
        task.state = TaskState.BLOCKED
        task.blocked_on = fut
        return task

    def test_double_digit_ranks_do_not_collide(self):
        # failed = {1}; a receive from rank 12 must NOT be blamed on rank 1
        # (the old substring match over "src=1 " was one format drift away
        # from exactly this misattribution), while a receive from rank 1
        # and a send to rank 1 must be.
        engine = self._engine_with_failed({1})
        from_1 = self._blocked(
            10, SimFuture(kind="irecv", src=1, dest=10, tag=0, comm=1)
        )
        from_12 = self._blocked(
            11, SimFuture(kind="irecv", src=12, dest=11, tag=1, comm=1)
        )
        to_1 = self._blocked(
            12, SimFuture(kind="isend", src=12, dest=1, tag=1, comm=1)
        )
        lines = engine._deadlock_detail([from_1, from_12, to_1])
        assert "orphaned by crash of rank 1]" in lines[0]
        assert "orphaned" not in lines[1]
        assert "orphaned by crash of rank 1]" in lines[2]

    def test_wildcard_receive_is_unattributable(self):
        # ANY_SOURCE carries src=None: no peer to blame, even with crashes.
        engine = self._engine_with_failed({3})
        wild = self._blocked(
            14, SimFuture(kind="irecv", src=None, dest=14, tag=-1, comm=1)
        )
        (line,) = engine._deadlock_detail([wild])
        assert "orphaned" not in line
        assert "rank 14" in line

    def test_no_attribution_without_active_faults(self):
        engine = Engine()
        stuck = self._blocked(
            10, SimFuture(kind="irecv", src=1, dest=10, tag=0, comm=1)
        )
        (line,) = engine._deadlock_detail([stuck])
        assert "orphaned" not in line


class TestPurgedSenderSeesLost:
    """A rendezvous offer purged with its dead receiver resolves the
    surviving sender with LOST — distinguishable from the None a
    completed (fire-and-forget) send to an already-dead rank returns."""

    def test_purged_rendezvous_lost_vs_dead_dest_none(self):
        plan = FaultPlan(crashes=(CrashFault(rank=1, time=5e-3),))

        async def main(ctx):
            if ctx.rank == 0:
                # Rendezvous offer parked in rank 1's mailbox before the
                # crash: the purge sweep must resolve it with LOST.
                first = await ctx.comm.isend(1, b"x", tag=0,
                                             size=1 << 20).wait()
                # Post-crash send to a known-dead rank: completes locally,
                # payload into the void — None, i.e. "sent, undetectable".
                second = await ctx.comm.isend(1, b"y", tag=0,
                                              size=1 << 20).wait()
                return (first, second)
            if ctx.rank == 1:
                # Advance past the crash time, then block so the scheduler
                # sees clock >= 5e-3 at the next dispatch and crashes us
                # with rank 0's offer still queued.
                ctx.compute(6e-3)
                await ctx.comm.recv(source=2, tag=9)
                await ctx.comm.recv(source=0, tag=0)  # never reached
                return "survived"
            ctx.compute(1e-2)
            await ctx.comm.send(1, b"wake", tag=9)
            return "done"

        result = run_spmd(main, 3, faults=plan)
        assert result.failed_ranks == (1,)
        first, second = result.results[0]
        assert first is LOST
        assert second is None
        assert result.results[1] is None  # crashed rank has no result


class TestTaskFailurePropagation:
    def test_original_exception_preserved_through_launcher(self):
        class CustomError(RuntimeError):
            pass

        async def main(ctx):
            if ctx.rank == 1:
                raise CustomError("specific detail")
            await ctx.comm.barrier()

        with pytest.raises(TaskFailedError) as ei:
            run_spmd(main, 4)
        assert ei.value.rank == 1
        assert isinstance(ei.value.original, CustomError)
        assert ei.value.__cause__ is ei.value.original
        assert "specific detail" in str(ei.value)

    def test_failure_mid_collective_still_attributed(self):
        async def main(ctx):
            await ctx.comm.barrier()
            if ctx.rank == 2:
                raise ValueError("after barrier")
            await ctx.comm.barrier()

        with pytest.raises(TaskFailedError) as ei:
            run_spmd(main, 4)
        assert ei.value.rank == 2


class TestReservedTagWildcard:
    """Tags above ``MAX_USER_TAG`` are the runtime's own and match exactly:
    an ``ANY_SOURCE`` receive or probe naming one is a program error."""

    @pytest.mark.parametrize("call", ["irecv", "recv", "probe"])
    def test_any_source_on_reserved_tag_rejected(self, call):
        async def main(ctx):
            if ctx.rank == 1:
                posted = getattr(ctx.comm, call)(ANY_SOURCE, MAX_USER_TAG + 1)
                if call == "recv":
                    await posted

        with pytest.raises(TaskFailedError) as ei:
            run_spmd(main, 2)
        assert ei.value.rank == 1
        assert isinstance(ei.value.original, MatchingError)
        assert "reserved tag" in str(ei.value.original)

    def test_named_source_on_reserved_tag_still_matches(self):
        async def main(ctx):
            if ctx.rank == 0:
                await ctx.comm.send(1, "x", tag=MAX_USER_TAG + 1)
                return None
            return await ctx.comm.recv(0, tag=MAX_USER_TAG + 1)

        assert run_spmd(main, 2).results == [None, "x"]


class TestCleanTeardown:
    """Abnormal exits close every parked coroutine: collecting garbage
    afterwards must not surface 'coroutine ... was never awaited'."""

    @staticmethod
    def _assert_no_unawaited_warnings(trigger, exc_type):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(exc_type):
                trigger()
            gc.collect()
        unawaited = [
            w for w in caught
            if "never awaited" in str(w.message)
        ]
        assert not unawaited, [str(w.message) for w in unawaited]

    def test_deadlock_closes_blocked_coroutines(self):
        async def main(ctx):
            await ctx.comm.recv(source=(ctx.rank + 1) % ctx.size)

        self._assert_no_unawaited_warnings(
            lambda: run_spmd(main, 3), DeadlockError
        )

    def test_task_failure_closes_sibling_coroutines(self):
        async def main(ctx):
            if ctx.rank == 0:
                raise RuntimeError("boom")
            await ctx.comm.recv(source=0)

        self._assert_no_unawaited_warnings(
            lambda: run_spmd(main, 4), TaskFailedError
        )
