"""Micro-benchmarks of the library's hot primitives.

Unlike the experiment benches (which regenerate paper tables/figures once),
these measure the primitives themselves with pytest-benchmark's repetition:
intra-node fold throughput (a flat and a nested loop body), the record
merges a pending iteration makes, the inter-node alignment merge, signature
computation, clustering selection, a small end-to-end simulated run and
the allreduce gate at P=36 and P=1024.
Useful as a performance-regression canary for the simulator.  CI runs each
case once, untimed (``--benchmark-disable``), so none of them rots.
"""

import pytest

from repro.core import ClusterSet, SignatureAccumulator, find_top_k
from repro.core.clustering import ClusterInfo
from repro.scalatrace import (
    EventRecord,
    IntraCompressor,
    LoopNode,
    Op,
    RankSet,
    callpath_signature,
    hash_u64,
    merge_traces,
)
from repro.simmpi import SimConfig, ZERO_COST, run_spmd


#: one rank's participants, shared by its calls as the tracer shares them
_RANKS = [RankSet.single(rank) for rank in range(2)]


def _call(site: int, rank: int = 0) -> tuple:
    """``IntraCompressor.append``'s arguments for a send to ``rank + 1``."""
    return (Op.SEND, (hash_u64(site), ()), _RANKS[rank], 1, None,
            (1, rank + 1), None, 64, 0, 1e-4)


def test_intra_fold_throughput(benchmark):
    """Appending a periodic stream of 600 calls (pattern of 6 sites): past
    the iteration the compressor's cursor follows, the open loop absorbs
    each call without a record or a scan."""
    stream = [_call(s % 6) for s in range(600)]

    def run():
        c = IntraCompressor()
        for call in stream:
            c.append(*call)
        return c.leaf_count()

    leaves = benchmark(run)
    assert leaves <= 12


def _sweep_timestep(step: int, rank: int = 9) -> list[tuple]:
    """One sweep3d-shaped timestep of ``append`` calls (34): two passes of
    two octant directions, each direction twice — two receives from
    upstream, two sends downstream, the offsets flipped per direction —
    then two allreduces, the first with a compute gap that varies."""
    ranks = RankSet.single(rank)
    calls = []
    for _ in range(2):
        for d in (1, -1):
            for _ in range(2):
                for site, op, off in ((1, Op.RECV, -d), (2, Op.RECV, -3 * d),
                                      (3, Op.SEND, d), (4, Op.SEND, 3 * d)):
                    ep = (off, rank + off)
                    calls.append((op, (hash_u64(site), ()), ranks, 1,
                                  ep if op is Op.RECV else None,
                                  ep if op is Op.SEND else None, None,
                                  64 * (op is Op.SEND), 30 + site % 2, 1e-4))
    for site, dt in ((5, 2e-4 * (1 + step % 3)), (6, 0.0)):
        calls.append((Op.ALLREDUCE, (hash_u64(site), ()), ranks, 1, None,
                      None, None, 8, 0, dt))
    return calls


def test_intra_nested_body(benchmark):
    """40 sweep3d-shaped timesteps: the open loop's body is
    ``[Loop(2, [Loop(2, 4 leaves), Loop(2, 4 leaves)]), allreduce,
    allreduce]``, so each pending iteration builds accumulator records for
    the inner leaves and merges samples and records into them."""
    stream = [call for step in range(40) for call in _sweep_timestep(step)]

    def run():
        c = IntraCompressor()
        for call in stream:
            c.append(*call)
        return c.nodes

    nodes = benchmark(run)
    assert len(nodes) == 1 and nodes[0].iters == 40
    outer = nodes[0].body[0]
    assert type(outer) is LoopNode and outer.iters == 2
    assert [type(n) for n in outer.body] == [LoopNode, LoopNode]
    assert nodes[0].expanded_count() == len(stream)


def _record(dt: float = 1e-4) -> EventRecord:
    return EventRecord.of(Op.SEND, (hash_u64(1), ()), _RANKS[0], 1, None,
                          (1, 1), None, 64, 0, dt)


def test_record_merge_sample(benchmark):
    """A call's sample merged into an accumulator record in place."""
    rec = _record()

    def run():
        for i in range(500):
            rec.merge_sample(None, (1, 1), 64, 0, 1e-4 * (1 + i % 3))
        return rec.count.n

    benchmark(run)
    assert rec.dhist.total == rec.count.n > 500


def test_record_merge_multi_sample(benchmark):
    """An inner loop's accumulator (four samples, three bins) merged into
    the record of the enclosing body, as a pending iteration does."""
    src = _record()
    for i in range(3):
        src.merge_sample(None, (1, 1), 64, 0, 1e-2 * (1 + i))
    dst = _record()

    def run():
        for _ in range(500):
            dst.merge(src)
        return dst.count.n

    benchmark(run)
    assert dst.dhist.total == dst.count.n > 500 * src.count.n
    assert dst.dest.rel == 1 and dst.dhist.size_bytes() == src.dhist.size_bytes()


def test_inter_merge_alignment(benchmark):
    """LCS-merging two 120-leaf traces (the O(n^2) kernel)."""

    def make(rank):
        c = IntraCompressor()
        for s in range(120):
            c.append(*_call(s, rank))
        return c.take_nodes()

    def run():
        return len(merge_traces(make(0), make(1)))

    merged = benchmark(run)
    assert merged == 120


def test_callpath_signature_speed(benchmark):
    sigs = [hash_u64(i % 9) for i in range(2000)]
    out = benchmark(callpath_signature, sigs)
    assert 0 <= out < (1 << 64)


def test_signature_accumulator_speed(benchmark):
    def run():
        acc = SignatureAccumulator()
        for i in range(2000):
            acc.observe(hash_u64(i % 9), src_offset=-1, dest_offset=1)
        return acc.snapshot().callpath

    benchmark(run)


def test_find_top_k_speed(benchmark):
    clusters = [
        ClusterInfo((1, hash_u64(i), hash_u64(i * 3)), RankSet.single(i), i)
        for i in range(19)  # the 2K+1 bound for K=9
    ]

    def run():
        fresh = [c.copy() for c in clusters]
        return len(find_top_k(fresh, 9, "kmedoids"))

    assert benchmark(run) == 9


def test_cluster_tree_reduction_speed(benchmark):
    def run():
        sets = [
            ClusterSet.local((r % 4, hash_u64(r), hash_u64(r * 7)), r)
            for r in range(64)
        ]
        while len(sets) > 1:
            nxt = []
            for i in range(0, len(sets) - 1, 2):
                sets[i].merge(sets[i + 1])
                if len(sets[i]) > 19:
                    sets[i].prune(9)
                nxt.append(sets[i])
            if len(sets) % 2:
                nxt.append(sets[-1])
            sets = nxt
        sets[0].prune(9)
        return len(sets[0].covered_ranks())

    assert benchmark(run) == 64


def test_simulator_event_rate(benchmark):
    """End-to-end: 16 ranks x 50 barriers through the full engine."""

    async def main(ctx):
        for _ in range(50):
            await ctx.comm.barrier()
        return None

    def run():
        return run_spmd(main, 16, config=SimConfig(network=ZERO_COST)).nprocs

    assert benchmark(run) == 16


@pytest.mark.parametrize("nprocs", (36, 1024))
def test_allreduce_gate(benchmark, nprocs):
    """100 allreduces per rank, each one gate instance whose completion
    runs the reduce tree and then the bcast tree."""

    async def main(ctx):
        total = 0.0
        for i in range(100):
            total += await ctx.comm.allreduce(float(ctx.rank + i), size=8)
        return total

    def run():
        return run_spmd(main, nprocs)

    res = benchmark(run)
    assert res.results[0] == sum(r + i for r in range(nprocs)
                                 for i in range(100))
    assert res.collectives_fast == 2 * 100 * nprocs
