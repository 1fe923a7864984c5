"""Collective correctness across communicator sizes (incl. non-powers of 2).

Every test runs its program under both interpreters of the collective
schedules — the closed-form gate replay (``gates="fast"``) and the
message-level driver (``"simulated"``) — and asserts on each result, so an
error in the one statement of an algorithm fails here whichever
interpreter would have hidden it.
"""

import pytest

from repro.simmpi import MAX, MIN, SUM, SimConfig, TaskFailedError, run_spmd

SIZES = [1, 2, 3, 4, 5, 7, 8, 13, 16]
INTERPRETERS = ("fast", "simulated")


def run_both(main, size):
    """One run per interpreter; each took the path its config names."""
    for mode in INTERPRETERS:
        res = run_spmd(main, size, config=SimConfig(gates=mode))
        assert (res.collectives_simulated if mode == "fast"
                else res.collectives_fast) == 0
        yield res


@pytest.mark.parametrize("size", SIZES)
def test_barrier_completes(size):
    async def main(ctx):
        await ctx.comm.barrier()
        return "ok"

    for res in run_both(main, size):
        assert res.results == ["ok"] * size


def test_barrier_synchronizes_clocks():
    async def main(ctx):
        if ctx.rank == 0:
            ctx.compute(100.0)
        await ctx.comm.barrier()
        return ctx.clock

    for res in run_both(main, 4):
        # Nobody exits the barrier before the slow rank reached it.
        assert all(t >= 100.0 for t in res.results)


@pytest.mark.parametrize("size", SIZES)
@pytest.mark.parametrize("root", [0, "last"])
def test_bcast_from_any_root(size, root):
    root_rank = size - 1 if root == "last" else 0

    async def main(ctx):
        value = {"data": 123} if ctx.rank == root_rank else None
        return await ctx.comm.bcast(value, root=root_rank)

    for res in run_both(main, size):
        assert res.results == [{"data": 123}] * size


@pytest.mark.parametrize("size", SIZES)
def test_reduce_sum_on_root_none_elsewhere(size):
    async def main(ctx):
        return await ctx.comm.reduce(ctx.rank, op=SUM, root=0)

    for res in run_both(main, size):
        assert res.results[0] == size * (size - 1) // 2
        assert all(v is None for v in res.results[1:])


@pytest.mark.parametrize("size", SIZES)
def test_reduce_nonzero_root(size):
    root = size // 2

    async def main(ctx):
        return await ctx.comm.reduce(ctx.rank + 1, op=SUM, root=root)

    for res in run_both(main, size):
        assert res.results[root] == size * (size + 1) // 2


@pytest.mark.parametrize("size", SIZES)
def test_allreduce_max_and_min(size):
    async def main(ctx):
        hi = await ctx.comm.allreduce(ctx.rank, op=MAX)
        lo = await ctx.comm.allreduce(ctx.rank, op=MIN)
        return (hi, lo)

    for res in run_both(main, size):
        assert res.results == [(size - 1, 0)] * size


@pytest.mark.parametrize("size", SIZES)
def test_gather_rank_ordered(size):
    async def main(ctx):
        return await ctx.comm.gather(ctx.rank * ctx.rank, root=0)

    for res in run_both(main, size):
        assert res.results[0] == [r * r for r in range(size)]
        assert all(v is None for v in res.results[1:])


@pytest.mark.parametrize("size", SIZES)
def test_scatter_delivers_per_rank_values(size):
    async def main(ctx):
        values = [f"item-{r}" for r in range(ctx.size)] if ctx.rank == 0 else None
        return await ctx.comm.scatter(values, root=0)

    for res in run_both(main, size):
        assert res.results == [f"item-{r}" for r in range(size)]


@pytest.mark.parametrize("size", SIZES)
def test_scatter_nonzero_root(size):
    root = size - 1

    async def main(ctx):
        values = list(range(ctx.size)) if ctx.rank == root else None
        return await ctx.comm.scatter(values, root=root)

    for res in run_both(main, size):
        assert res.results == list(range(size))


@pytest.mark.parametrize("size", SIZES)
def test_allgather(size):
    async def main(ctx):
        return await ctx.comm.allgather(chr(ord("a") + ctx.rank))

    expected = [chr(ord("a") + r) for r in range(size)]
    for res in run_both(main, size):
        assert res.results == [expected] * size


@pytest.mark.parametrize("size", SIZES)
def test_alltoall_transpose(size):
    async def main(ctx):
        values = [(ctx.rank, dest) for dest in range(ctx.size)]
        return await ctx.comm.alltoall(values)

    for res in run_both(main, size):
        for r, row in enumerate(res.results):
            assert row == [(src, r) for src in range(size)]


@pytest.mark.parametrize("size", SIZES)
def test_scan_inclusive_prefix(size):
    async def main(ctx):
        return await ctx.comm.scan(ctx.rank + 1, op=SUM)

    for res in run_both(main, size):
        assert res.results == [(r + 1) * (r + 2) // 2 for r in range(size)]


def test_scatter_wrong_count_raises():
    async def main(ctx):
        values = [1, 2, 3] if ctx.rank == 0 else None
        await ctx.comm.scatter(values, root=0)

    for mode in INTERPRETERS:
        with pytest.raises(TaskFailedError):
            run_spmd(main, 4, config=SimConfig(gates=mode))


def test_mixed_collectives_sequence_stay_aligned():
    async def main(ctx):
        total = await ctx.comm.allreduce(1, op=SUM)
        await ctx.comm.barrier()
        values = await ctx.comm.allgather(ctx.rank)
        top = await ctx.comm.bcast(max(values), root=0)
        return (total, top)

    for res in run_both(main, 7):
        assert res.results == [(7, 6)] * 7
        # two 6-edge trees, 3 rounds x 7, a 6-step ring x 7, one more tree
        assert res.total_messages == 12 + 21 + 42 + 6


def test_collective_cost_grows_with_size():
    """Barrier virtual time should grow roughly like log2(P)."""

    async def main(ctx):
        await ctx.comm.barrier()
        return ctx.clock

    for small, large in zip(run_both(main, 4), run_both(main, 64)):
        t4 = max(small.results)
        t64 = max(large.results)
        assert t64 > t4
        # Dissemination is log2: 3 rounds vs 6 rounds, so about 2x, never 16x.
        assert t64 < 6 * t4


def test_split_groups_by_color():
    async def main(ctx):
        color = ctx.rank % 2
        sub = await ctx.comm.split(color)
        total = await sub.allreduce(ctx.rank, op=SUM)
        return (color, sub.size, total)

    evens = sum(r for r in range(8) if r % 2 == 0)
    odds = sum(r for r in range(8) if r % 2 == 1)
    for res in run_both(main, 8):
        for rank, (color, size, total) in enumerate(res.results):
            assert size == 4
            assert total == (evens if color == 0 else odds)


def test_split_negative_color_opts_out():
    async def main(ctx):
        sub = await ctx.comm.split(-1 if ctx.rank == 0 else 0)
        if ctx.rank == 0:
            assert sub is None
            return None
        return await sub.allreduce(1, op=SUM)

    for res in run_both(main, 5):
        assert res.results == [None, 4, 4, 4, 4]


def test_split_key_controls_rank_order():
    async def main(ctx):
        # Reverse ordering within the new communicator.
        sub = await ctx.comm.split(0, key=-ctx.rank)
        return sub.rank

    for res in run_both(main, 4):
        assert res.results == [3, 2, 1, 0]


def test_dup_is_independent_context():
    async def main(ctx):
        dup = await ctx.comm.dup()
        assert dup.context.id != ctx.comm.context.id
        # Messages on the dup do not match receives on the world comm.
        if ctx.rank == 0:
            await dup.send(1, "via-dup", tag=4)
        elif ctx.rank == 1:
            return await dup.recv(0, tag=4)
        return None

    for res in run_both(main, 2):
        assert res.results[1] == "via-dup"
