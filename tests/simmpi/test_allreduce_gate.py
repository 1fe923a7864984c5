"""One gate per allreduce.

``Communicator.allreduce`` is one gated instance standing for a reduce to
rank 0 and a bcast of its result.  Its closed form (a reduce pass and a
bcast pass on the same states, each an array recurrence from
``_VEC_MIN_SIZE`` up or the scalar core) must reproduce the message-level
reduce-then-bcast bit for bit, report the same ``coll`` spans, raise a
failing op on the same rank, and match only another allreduce.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.harness.runner import Mode, run_mode
from repro.obs.instrument import Recorder
from repro.simmpi import MAX, MIN, SUM, run_spmd
from repro.simmpi import collectives
from repro.simmpi.errors import CollectiveMismatchError, TaskFailedError
from repro.workloads import make_workload

from ..gates import FAST, SIMULATED, assert_identical, run_pair

PS = (1, 2, 3, 15, 16, 17, 36, 64)
SKEW = 3e-7  # per-rank start skew, so arrival orders differ from rank order


def _skew(ctx) -> None:
    ctx.compute(SKEW * ((ctx.rank * 7) % 5))


def _concat(a, b):
    """Non-commutative, and its result outgrows its operands."""
    return a + b


def _coll(rec: Recorder) -> list:
    return sorted((s.rank, s.name, s.start, s.end,
                   tuple(sorted(s.args.items())))
                  for s in rec.spans if s.cat == "coll")


@pytest.mark.parametrize("nprocs", PS)
class TestBitIdentity:
    def test_payload_sizes(self, nprocs):
        """Eager, rendezvous and measured (``size=None``) payloads; the
        last grows past the eager limit between the reduce and the bcast
        at P=36 and 64, so an array reduce hands its result to a scalar
        bcast."""

        async def prog(ctx):
            comm, rank = ctx.comm, ctx.rank
            _skew(ctx)
            out = [await comm.allreduce(rank + 0.5, size=512),
                   await comm.allreduce(rank, op=MAX, size=1 << 17),
                   await comm.allreduce(float(rank))]
            grown = await comm.allreduce(bytes([rank % 256]) * 2000,
                                         op=_concat)
            out.append((len(grown), grown[::2000]))
            return out

        fast, sim = run_pair(prog, nprocs)
        assert_identical(fast, sim)
        assert fast.results[0][0] == sum(r + 0.5 for r in range(nprocs))
        assert fast.collectives_fast == 8 * nprocs
        assert fast.collectives_simulated == 0
        assert sim.collectives_simulated == 8 * nprocs

    def test_numpy_max_min_and_a_non_commutative_op(self, nprocs):
        async def prog(ctx):
            comm, rank = ctx.comm, ctx.rank
            _skew(ctx)
            vec = np.arange(6, dtype=np.float64) * (rank % 4) - rank
            hi = await comm.allreduce(vec, op=MAX)
            lo = await comm.allreduce(vec, op=MIN, size=48)
            order = await comm.allreduce((rank,), op=_concat)
            return hi.tolist(), lo.tolist(), order

        fast, sim = run_pair(prog, nprocs)
        assert_identical(fast, sim)
        # the fold order is the reduce tree's, not rank order
        assert sorted(fast.results[0][2]) == list(range(nprocs))

    def test_split_communicator_and_mixed_collectives(self, nprocs):
        async def prog(ctx):
            comm, rank = ctx.comm, ctx.rank
            _skew(ctx)
            sub = await comm.split(color=rank % 3, key=-rank)
            out = []
            for i in range(3):
                await comm.barrier()
                out.append(await sub.allreduce(rank + i, op=SUM))
                out.append(await comm.bcast(i if rank == i % ctx.size
                                            else None, root=i % ctx.size))
                out.append(await comm.allreduce(rank - i, size=8))
            return out

        fast, sim = run_pair(prog, nprocs)
        assert_identical(fast, sim)

    def test_recorder_sees_the_leaves(self, nprocs):
        """The closed form reports what the message-level path does: a
        ``reduce``, a ``bcast`` and an ``allreduce`` span per rank."""

        async def prog(ctx):
            _skew(ctx)
            return await ctx.comm.allreduce(ctx.rank, size=64)

        rec_fast, rec_sim = Recorder(), Recorder()
        fast = run_spmd(prog, nprocs, config=FAST, instrument=rec_fast)
        sim = run_spmd(prog, nprocs, config=SIMULATED, instrument=rec_sim)
        assert_identical(fast, sim)
        assert _coll(rec_fast) == _coll(rec_sim)
        assert sorted(s.name for s in rec_fast.spans if s.cat == "coll") \
            == sorted(["allreduce", "bcast", "reduce"] * nprocs)
        assert rec_fast.metrics.value("coll/fast_hits") == 2 * nprocs
        assert {op for *_, op in rec_sim.metrics.labels("coll/fallbacks")} \
            == {"reduce:disabled", "bcast:disabled"}


@pytest.mark.parametrize("nprocs", [p for p in PS if p > 1])
def test_a_raising_op_raises_on_the_same_rank(nprocs):
    """The op raises where it folds on one rank (rank 2, an inner node of
    the reduce tree from P=4 up, else the root); both paths fail that
    rank with the same exception."""
    target = 2 if nprocs >= 4 else 0

    async def prog(ctx):
        rank = ctx.rank
        _skew(ctx)

        def picky(a, b):
            if rank == target:
                raise ValueError(f"rank {rank} refuses")
            return a + b

        return await ctx.comm.allreduce(rank, op=picky)

    for config in (FAST, SIMULATED):
        with pytest.raises(TaskFailedError) as err:
            run_spmd(prog, nprocs, config=config)
        assert err.value.rank == target
        assert repr(err.value.original) \
            == repr(ValueError(f"rank {target} refuses"))


@pytest.mark.parametrize("config", [FAST, SIMULATED], ids=["fast", "sim"])
def test_an_allreduce_does_not_match_a_reduce_and_a_bcast(config):
    """Both spell the same messages, but they are different collectives:
    a rank in one while its peers are in the other is a mismatch."""

    async def prog(ctx):
        comm = ctx.comm
        if ctx.rank % 2:
            return await comm.allreduce(ctx.rank)
        total = await comm.reduce(ctx.rank, root=0)
        return await comm.bcast(total, root=0)

    with pytest.raises(TaskFailedError) as err:
        run_spmd(prog, 4, config=config)
    assert isinstance(err.value.original, CollectiveMismatchError)


def test_an_allreduce_claims_two_tag_windows():
    """A receive posted in the window of an allreduce's bcast (its second)
    sends the whole instance to the message-level path."""

    async def prog(ctx):
        comm, rank = ctx.comm, ctx.rank
        tag = collectives._tag_base(1) + 100
        req = comm.irecv(source=1, tag=tag) if rank == 0 else None
        total = await comm.allreduce(rank)
        if rank == 1:
            await comm.send(0, None, tag=tag, size=8)
        if req is not None:
            await req.wait()
        return total, await comm.allreduce(rank)

    rec = Recorder()
    res = run_spmd(prog, 4, instrument=rec)
    assert res.results == [(6, 6)] * 4
    assert res.collectives_simulated == 2 * 4
    assert res.collectives_fast == 2 * 4
    assert {op for *_, op in rec.metrics.labels("coll/fallbacks")} \
        == {"reduce:tag-window", "bcast:tag-window"}
    assert_identical(*run_pair(prog, 4))


def test_pop_gate_completions(monkeypatch):
    """Each allreduce is one gate completion, not two: pop P=36 completes
    325 fewer gates in its ``app`` twin (975 -> 650) and 345 fewer in its
    Chameleon cell (1,014 -> 669), whose 20 marker votes are allreduces
    too."""
    complete = collectives._Gate.complete
    calls = []

    def counting(gate, ctx):
        calls.append(gate.kind)
        complete(gate, ctx)

    monkeypatch.setattr(collectives._Gate, "complete", counting)
    counts = {}
    for mode in ("app", "chameleon"):
        calls.clear()
        run_mode(make_workload("pop"), 36, Mode(mode))
        counts[mode] = len(calls)
    assert counts == {"app": 650, "chameleon": 669}
