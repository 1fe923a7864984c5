"""Micro-benchmarks of the library's hot primitives.

Unlike the experiment benches (which regenerate paper tables/figures once),
these measure the primitives themselves with pytest-benchmark's repetition:
intra-node fold throughput, the inter-node alignment merge, signature
computation, clustering selection, and a small end-to-end simulated run.
Useful as a performance-regression canary for the simulator.
"""

import pytest

from repro.core import ClusterSet, SignatureAccumulator, find_top_k
from repro.core.clustering import ClusterInfo
from repro.scalatrace import (
    IntraCompressor,
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
