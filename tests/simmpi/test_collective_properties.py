"""Property-based collective semantics over random payloads, sizes and
schedule interpreters (closed-form gate replay vs message-level driver)."""

from hypothesis import given, settings, strategies as st

from repro.simmpi import SimConfig, MAX, MIN, SUM, ZERO_COST, run_spmd

sizes = st.sampled_from([1, 2, 3, 5, 8])
values = st.lists(st.integers(-1000, 1000), min_size=8, max_size=8)
interpreters = st.sampled_from(["fast", "simulated"])


def zero_cost(mode: str) -> SimConfig:
    return SimConfig(network=ZERO_COST, gates=mode)


class TestCollectiveSemantics:
    @given(interpreters, sizes, values)
    @settings(max_examples=40, deadline=None)
    def test_allreduce_equals_python_sum(self, mode, nprocs, vals):
        async def main(ctx):
            return await ctx.comm.allreduce(vals[ctx.rank], op=SUM)

        res = run_spmd(main, nprocs, config=zero_cost(mode))
        assert res.results == [sum(vals[:nprocs])] * nprocs

    @given(interpreters, sizes, values)
    @settings(max_examples=40, deadline=None)
    def test_reduce_min_max_agree_with_builtins(self, mode, nprocs, vals):
        async def main(ctx):
            hi = await ctx.comm.allreduce(vals[ctx.rank], op=MAX)
            lo = await ctx.comm.allreduce(vals[ctx.rank], op=MIN)
            return (hi, lo)

        res = run_spmd(main, nprocs, config=zero_cost(mode))
        expected = (max(vals[:nprocs]), min(vals[:nprocs]))
        assert res.results == [expected] * nprocs

    @given(interpreters, sizes, values)
    @settings(max_examples=40, deadline=None)
    def test_gather_scatter_roundtrip(self, mode, nprocs, vals):
        async def main(ctx):
            gathered = await ctx.comm.gather(vals[ctx.rank], root=0)
            mine = await ctx.comm.scatter(gathered, root=0)
            return mine

        res = run_spmd(main, nprocs, config=zero_cost(mode))
        assert res.results == vals[:nprocs]

    @given(interpreters, sizes, values)
    @settings(max_examples=40, deadline=None)
    def test_allgather_equals_gather_plus_bcast(self, mode, nprocs, vals):
        async def main(ctx):
            ag = await ctx.comm.allgather(vals[ctx.rank])
            g = await ctx.comm.gather(vals[ctx.rank], root=0)
            gb = await ctx.comm.bcast(g, root=0)
            return (ag, gb)

        res = run_spmd(main, nprocs, config=zero_cost(mode))
        for ag, gb in res.results:
            assert ag == gb == vals[:nprocs]

    @given(interpreters, sizes, values)
    @settings(max_examples=40, deadline=None)
    def test_scan_prefix_property(self, mode, nprocs, vals):
        async def main(ctx):
            return await ctx.comm.scan(vals[ctx.rank], op=SUM)

        res = run_spmd(main, nprocs, config=zero_cost(mode))
        assert res.results == [sum(vals[: r + 1]) for r in range(nprocs)]

    @given(interpreters, sizes)
    @settings(max_examples=20, deadline=None)
    def test_alltoall_is_transpose(self, mode, nprocs):
        async def main(ctx):
            row = [(ctx.rank, j) for j in range(ctx.size)]
            return await ctx.comm.alltoall(row)

        res = run_spmd(main, nprocs, config=zero_cost(mode))
        for j, out in enumerate(res.results):
            assert out == [(i, j) for i in range(nprocs)]

    @given(interpreters, sizes, st.integers(0, 7), values)
    @settings(max_examples=40, deadline=None)
    def test_bcast_any_root_any_payload(self, mode, nprocs, root, vals):
        root = root % nprocs

        async def main(ctx):
            payload = vals if ctx.rank == root else None
            return await ctx.comm.bcast(payload, root=root)

        res = run_spmd(main, nprocs, config=zero_cost(mode))
        assert res.results == [vals] * nprocs


class TestDeterminism:
    @given(interpreters, sizes, values)
    @settings(max_examples=20, deadline=None)
    def test_full_run_bitwise_repeatable(self, mode, nprocs, vals):
        async def main(ctx):
            out = []
            out.append(await ctx.comm.allreduce(vals[ctx.rank], op=SUM))
            peer = (ctx.rank + 1) % ctx.size
            src = (ctx.rank - 1) % ctx.size
            out.append(await ctx.comm.sendrecv(peer, vals[ctx.rank], source=src))
            ctx.compute(abs(vals[ctx.rank]) * 1e-6)
            await ctx.comm.barrier()
            return (out, ctx.clock)

        a = run_spmd(main, nprocs, config=SimConfig(gates=mode))
        b = run_spmd(main, nprocs, config=SimConfig(gates=mode))
        assert a.results == b.results
        assert a.clocks == b.clocks
        assert a.busy_times == b.busy_times
        assert a.total_messages == b.total_messages
