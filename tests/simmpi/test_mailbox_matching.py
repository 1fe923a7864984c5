"""Indexed-vs-linear mailbox equivalence on randomized traffic.

The indexed :class:`~repro.simmpi.comm.Mailbox` (per-``(src, tag)`` lanes +
wildcard overflow lane) must be *observationally identical* to the
pre-index :class:`~tests.simmpi.linear_mailbox.LinearMailbox` FIFO scan:
same match order, same payload/status per receive, same virtual
timestamps, same counters.  These tests drive the same seeded traffic
through both implementations (the ``linear_matching`` fixture swaps the
oracle in) and assert byte-identical outcomes.

Traffic generation is deliberately adversarial for an index:

* eager and rendezvous messages interleaved (sizes straddle the 64 KiB
  threshold);
* per-destination receive schemes mixing exact ``(src, tag)``, full
  ``(ANY_SOURCE, ANY_TAG)``, per-source ``(src, ANY_TAG)`` and per-tag
  ``(ANY_SOURCE, tag)`` wildcards, in shuffled post order;
* seeded compute jitter so post times differ across ranks.

Each destination uses a *single* scheme and the receive multiset mirrors
the incoming message multiset, so the run is deadlock-free by construction
(wildcard stealing across schemes cannot strand a message).
"""

from __future__ import annotations

import random

import pytest

from repro.simmpi import SimConfig, ANY_SOURCE, ANY_TAG, run_spmd

from ..gates import SIMULATED
from .linear_mailbox import linear_matching  # noqa: F401 - pytest fixture

EAGER_SIZES = (64, 4096, 1 << 15)
RENDEZVOUS_SIZES = (1 << 17, 1 << 18)


def make_traffic(seed: int, nprocs: int, msgs_per_rank: int):
    """Deterministic traffic + receive plan, shared by both runs."""
    rng = random.Random(seed)
    sends: dict[int, list[tuple[int, int, int, float]]] = {
        r: [] for r in range(nprocs)
    }
    incoming: dict[int, list[tuple[int, int]]] = {r: [] for r in range(nprocs)}
    for src in range(nprocs):
        for _ in range(msgs_per_rank):
            dest = rng.randrange(nprocs)
            tag = rng.randrange(4)
            size = rng.choice(
                EAGER_SIZES if rng.random() < 0.7 else RENDEZVOUS_SIZES
            )
            jitter = rng.random() * 1e-5
            sends[src].append((dest, tag, size, jitter))
            incoming[dest].append((src, tag))
    recv_plan: dict[int, list[tuple[int, int]]] = {}
    for dest in range(nprocs):
        msgs = incoming[dest]
        scheme = rng.choice(["exact", "any_any", "src_anytag", "anysrc_tag"])
        if scheme == "exact":
            recvs = [(src, tag) for src, tag in msgs]
        elif scheme == "any_any":
            recvs = [(ANY_SOURCE, ANY_TAG)] * len(msgs)
        elif scheme == "src_anytag":
            recvs = [(src, ANY_TAG) for src, _tag in msgs]
        else:
            recvs = [(ANY_SOURCE, tag) for _src, tag in msgs]
        rng.shuffle(recvs)
        recv_plan[dest] = recvs
    return sends, recv_plan


async def _traffic_prog(ctx, sends, recv_plan):
    comm = ctx.comm
    sreqs = []
    for dest, tag, size, jitter in sends[ctx.rank]:
        ctx.compute(jitter)
        sreqs.append(comm.isend(dest, (ctx.rank, tag), tag=tag, size=size))
    rreqs = [comm.irecv(source=s, tag=t) for s, t in recv_plan[ctx.rank]]
    # The observable transcript: per receive, in completion order — payload,
    # who actually matched (status), and the virtual time it completed at.
    log = []
    for req in rreqs:
        payload, status = await req.wait_with_status()
        log.append((payload, status["source"], status["tag"],
                    status["nbytes"], ctx.clock))
    for req in sreqs:
        await req.wait()
    return log


def _transcript(seed: int, nprocs: int, msgs_per_rank: int):
    sends, recv_plan = make_traffic(seed, nprocs, msgs_per_rank)
    return run_spmd(_traffic_prog, nprocs, sends, recv_plan,
                    config=SIMULATED)


@pytest.mark.parametrize("seed", [0, 1, 7, 42, 1337])
def test_indexed_matches_linear_p16(seed, linear_matching):  # noqa: F811
    with linear_matching():
        linear = _transcript(seed, 16, 12)
    indexed = _transcript(seed, 16, 12)
    assert indexed.results == linear.results  # match order + status + times
    assert indexed.clocks == linear.clocks
    assert indexed.busy_times == linear.busy_times
    assert indexed.total_messages == linear.total_messages
    assert indexed.total_bytes == linear.total_bytes
    assert indexed.messages_matched == linear.messages_matched


@pytest.mark.parametrize("seed", [3, 2024])
def test_indexed_matches_linear_p64(seed, linear_matching):  # noqa: F811
    """The ISSUE's P=64 bar: heavier fan-in, all four receive schemes."""
    with linear_matching():
        linear = _transcript(seed, 64, 8)
    indexed = _transcript(seed, 64, 8)
    assert indexed.results == linear.results
    assert indexed.clocks == linear.clocks
    assert indexed.busy_times == linear.busy_times
    assert indexed.messages_matched == linear.messages_matched


def test_traffic_actually_mixes_protocols_and_wildcards():
    """Guard the generator: the equivalence above is only meaningful if the
    traffic really exercises eager + rendezvous and every receive scheme."""
    schemes = set()
    protocols = set()
    for seed in (0, 1, 7, 42, 1337):
        sends, recv_plan = make_traffic(seed, 16, 12)
        for per_rank in sends.values():
            for _dest, _tag, size, _j in per_rank:
                protocols.add("eager" if size <= 64 * 1024 else "rendezvous")
        for recvs in recv_plan.values():
            for src, tag in recvs:
                if src == ANY_SOURCE and tag == ANY_TAG:
                    schemes.add("any_any")
                elif src == ANY_SOURCE:
                    schemes.add("anysrc_tag")
                elif tag == ANY_TAG:
                    schemes.add("src_anytag")
                else:
                    schemes.add("exact")
    assert protocols == {"eager", "rendezvous"}
    assert schemes == {"exact", "any_any", "src_anytag", "anysrc_tag"}


def test_collectives_identical_across_matching_impls(
        linear_matching):  # noqa: F811
    """Collective plumbing (high tags, exact matching) through both paths
    (under defaults the fast path never touches a mailbox)."""

    async def prog(ctx):
        total = await ctx.comm.allreduce(ctx.rank)
        gathered = await ctx.comm.gather(ctx.rank, root=0)
        await ctx.comm.barrier()
        return (total, gathered)

    for config in (SIMULATED, SimConfig()):
        with linear_matching():
            linear = run_spmd(prog, 32, config=config)
        indexed = run_spmd(prog, 32, config=config)
        assert indexed.results == linear.results
        assert indexed.clocks == linear.clocks
        assert indexed.busy_times == linear.busy_times
