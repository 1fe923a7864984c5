"""Engine scheduling, virtual clocks, and failure propagation."""

import gc

import pytest

from repro.simmpi import (
    SimConfig,
    EngineLimitError,
    DeadlockError,
    Engine,
    SimFuture,
    TaskFailedError,
    TaskState,
    ZERO_COST,
    launcher,
    run_spmd,
)


def test_single_task_runs_to_completion():
    engine = Engine()

    async def main():
        return 42

    task = engine.spawn(0, main())
    engine.run()
    assert task.state is TaskState.DONE
    assert task.result == 42
    assert engine.results() == [42]


def test_tasks_interleave_through_futures():
    engine = Engine()
    fut = SimFuture(label="handoff")
    order = []

    async def waiter():
        order.append("waiter-start")
        value = await fut
        order.append(f"waiter-got-{value}")
        return value

    async def resolver():
        order.append("resolver")
        fut.resolve("ping", time=3.5)
        return None

    t_wait = engine.spawn(0, waiter())
    engine.spawn(1, resolver())
    engine.run()
    assert order == ["waiter-start", "resolver", "waiter-got-ping"]
    assert t_wait.result == "ping"


def test_future_time_advances_clock_via_request_semantics():
    async def main(ctx):
        ctx.compute(1.0)
        return ctx.clock

    res = run_spmd(main, 1, config=SimConfig(network=ZERO_COST))
    assert res.clocks == [1.0]


def test_compute_rejects_negative():
    async def main(ctx):
        ctx.compute(-1.0)

    with pytest.raises(TaskFailedError) as ei:
        run_spmd(main, 1)
    assert isinstance(ei.value.original, ValueError)


def test_task_exception_wrapped_with_rank():
    async def main(ctx):
        if ctx.rank == 2:
            raise RuntimeError("boom")
        await ctx.comm.barrier()

    with pytest.raises(TaskFailedError) as ei:
        run_spmd(main, 4)
    assert ei.value.rank == 2
    assert "boom" in str(ei.value)


def test_deadlock_detected_and_reported():
    async def main(ctx):
        # Everyone receives, nobody sends.
        await ctx.comm.recv(source=(ctx.rank + 1) % ctx.size, tag=7)

    with pytest.raises(DeadlockError) as ei:
        run_spmd(main, 3)
    msg = str(ei.value)
    assert "rank 0" in msg and "rank 2" in msg
    assert "tag=7" in msg


def test_max_steps_guard():
    async def pingpong(ctx):
        peer = 1 - ctx.rank
        for i in range(1000):
            if ctx.rank == 0:
                await ctx.comm.send(peer, i)
                await ctx.comm.recv(peer)
            else:
                await ctx.comm.recv(peer)
                await ctx.comm.send(peer, i)

    # The budget tripping is a property of the run, not of whichever rank
    # happened to be scheduled: it must NOT be wrapped in TaskFailedError
    # (which would blame an innocent rank).
    with pytest.raises(EngineLimitError) as ei:
        run_spmd(pingpong, 2, config=SimConfig(max_steps=50))
    assert "max_steps=50" in str(ei.value)
    assert ei.value.limit == 50
    assert not isinstance(ei.value, TaskFailedError)
    assert not hasattr(ei.value, "rank")


def test_results_and_clocks_sorted_by_rank():
    async def main(ctx):
        ctx.compute(float(ctx.rank))
        return ctx.rank * 10

    res = run_spmd(main, 5, config=SimConfig(network=ZERO_COST))
    assert res.results == [0, 10, 20, 30, 40]
    assert res.clocks == [0.0, 1.0, 2.0, 3.0, 4.0]
    assert res.max_time == 4.0
    assert res.total_time == 10.0


def test_future_double_resolution_rejected():
    fut = SimFuture()
    fut.resolve(1)
    with pytest.raises(RuntimeError):
        fut.resolve(2)


def test_engine_rejects_non_future_yield():
    engine = Engine()

    class FakeAwaitable:
        def __await__(self):
            yield "not-a-future"

    async def main():
        await FakeAwaitable()

    engine.spawn(0, main())
    with pytest.raises(TaskFailedError):
        engine.run()


class TestCollectorPause:
    """From ``GC_PAUSE_NPROCS`` ranks up ``run_spmd`` pauses the cyclic
    collector for the run and leaves it the way it found it."""

    @pytest.fixture
    def threshold(self, monkeypatch):
        monkeypatch.setattr(launcher, "GC_PAUSE_NPROCS", 4)

    @staticmethod
    async def _sees(ctx):
        await ctx.comm.barrier()
        return gc.isenabled()

    def test_paused_at_the_threshold_not_below(self, threshold):
        assert gc.isenabled()
        assert run_spmd(self._sees, 4).results == [False] * 4
        assert gc.isenabled()
        assert run_spmd(self._sees, 3).results == [True] * 3
        assert gc.isenabled()

    @pytest.mark.parametrize("error", [DeadlockError, TaskFailedError])
    def test_restored_when_the_run_raises(self, threshold, error):
        seen = []

        async def main(ctx):
            seen.append(gc.isenabled())
            if error is TaskFailedError and ctx.rank == 3:
                raise RuntimeError("boom")
            await ctx.comm.recv(source=(ctx.rank + 1) % ctx.size, tag=7)

        with pytest.raises(error):
            run_spmd(main, 4)
        assert seen == [False] * 4
        assert gc.isenabled()

    def test_left_disabled_when_found_disabled(self, threshold):
        gc.disable()
        try:
            assert run_spmd(self._sees, 4).results == [False] * 4
            assert not gc.isenabled()
        finally:
            gc.enable()

    def test_pause_changes_no_result(self, monkeypatch):
        async def main(ctx):
            right, left = (ctx.rank + 1) % ctx.size, (ctx.rank - 1) % ctx.size
            ctx.compute(1e-6 * ctx.rank)
            send = ctx.comm.isend(right, [ctx.rank] * 600, tag=1)
            got = await ctx.comm.recv(source=left, tag=1)
            await send.wait()
            return got[0] + await ctx.comm.allreduce(ctx.rank)

        runs = []
        for threshold in (8, 9):  # paused, not paused
            monkeypatch.setattr(launcher, "GC_PAUSE_NPROCS", threshold)
            r = run_spmd(main, 8)
            runs.append((r.results, r.clocks, r.busy_times, r.total_messages,
                         r.total_bytes, r.engine_steps, r.messages_matched))
        assert runs[0] == runs[1]
