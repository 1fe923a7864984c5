"""Literal pins of the message-level collectives.

Every collective algorithm is stated once, as a schedule generator in
:mod:`repro.simmpi.collectives`, and interpreted twice — so no second copy
of the algorithm text is left to disagree with it.  What holds that single
statement to the behaviour of the hand-written message-level bodies it
replaced is this file: ``collective_pins.PINS`` was recorded with those
bodies still in place (commit e848b0e, ``python
tests/simmpi/test_collective_pins.py > tests/simmpi/collective_pins.py``)
and must not be re-recorded unless a change means to alter virtual time.

Two families, both under ``SIMULATED``:

* every leaf collective plus ``allreduce`` and ``split`` at P in {5, 16},
  eager and rendezvous payloads, skewed start clocks, a non-zero root —
  per-rank results, final clocks, busy times, message and byte totals;
* ``reduce``/``gather``/``scatter``/``allgather``/``scan`` with one rank
  crashed before the call — the ``LOST``-hole results, ``failed_ranks``
  and the survivors' clocks.  No other simmpi-level test reaches the
  schedules' hole-handling branches.
"""

from __future__ import annotations

import pytest

from repro.faults import LOST  # noqa: F401 - named by the pinned literals
from repro.faults.plan import CrashFault, FaultPlan
from repro.simmpi import SUM, run_spmd

from ..gates import SIMULATED

SIZES = {"eager": 512, "rendezvous": 1 << 17}
SKEW = 3e-7  # per-rank start skew, so arrival times differ across ranks
KINDS = ("barrier", "bcast", "reduce", "gather", "scatter", "allgather",
         "alltoall", "scan", "allreduce", "split")
HOLE_KINDS = ("reduce", "gather", "scatter", "allgather", "scan")


async def _call(ctx, kind: str, nbytes: int):
    comm, rank, size = ctx.comm, ctx.rank, ctx.size
    root = size // 3
    if kind == "barrier":
        return await comm.barrier()
    if kind == "bcast":
        return await comm.bcast("v" if rank == root else None, root=root,
                                size=nbytes)
    if kind == "reduce":
        return await comm.reduce(rank + 1, op=SUM, root=root, size=nbytes)
    if kind == "gather":
        return await comm.gather(rank * rank, root=root, size=nbytes)
    if kind == "scatter":
        values = [f"item-{r}" for r in range(size)] if rank == root else None
        return await comm.scatter(values, root=root, size=nbytes)
    if kind == "allgather":
        return await comm.allgather(rank, size=nbytes)
    if kind == "alltoall":
        return await comm.alltoall([100 * rank + d for d in range(size)],
                                   size=nbytes)
    if kind == "scan":
        return await comm.scan(rank + 1, op=SUM, size=nbytes)
    if kind == "allreduce":
        return await comm.allreduce(rank + 1, op=SUM, size=nbytes)
    sub = await comm.split(rank % 2, key=-rank)
    return (sub.rank, sub.size, await sub.allreduce(rank, size=nbytes))


def observe(kind: str, nprocs: int, nbytes: int, crash: int | None = None):
    async def prog(ctx):
        ctx.compute(ctx.rank * SKEW)
        return await _call(ctx, kind, nbytes)

    faults = None if crash is None else FaultPlan(
        crashes=(CrashFault(rank=crash, time=0.0),))
    res = run_spmd(prog, nprocs, config=SIMULATED, faults=faults)
    assert res.collectives_fast == 0
    seen = {"results": res.results, "clocks": res.clocks,
            "busy": res.busy_times, "total_messages": res.total_messages,
            "total_bytes": res.total_bytes}
    if crash is not None:
        seen["failed_ranks"] = res.failed_ranks
    return seen


def _cases():
    for kind in KINDS:
        for nprocs in (5, 16):
            for label in SIZES:
                if kind != "barrier" or label == "eager":  # it has no payload
                    yield (kind, nprocs, label, None)
    for kind in HOLE_KINDS:
        for nprocs in (5, 16):
            for label in SIZES:
                # root + 1 has a subtree below it in the binomial trees and
                # is a middle link of the ring and the scan chain
                yield (kind, nprocs, label, nprocs // 3 + 1)


def _case_id(case) -> str:
    kind, nprocs, label, crash = case
    return f"{kind}-P{nprocs}-{label}" + ("" if crash is None else "-crash")


@pytest.mark.parametrize("case", list(_cases()), ids=_case_id)
def test_message_level_collective_matches_recorded_pin(case):
    from .collective_pins import PINS  # not at import: __main__ writes it

    kind, nprocs, label, crash = case
    assert observe(kind, nprocs, SIZES[label], crash) == PINS[case]


if __name__ == "__main__":
    print('"""Recorded by test_collective_pins.py (see its docstring); '
          'do not edit."""')
    print()
    print("from repro.faults import LOST")
    print()
    print("PINS = {")
    for case in _cases():
        print(f"    {case!r}: {{")
        for key, value in observe(case[0], case[1], SIZES[case[2]],
                                  case[3]).items():
            print(f"        {key!r}: {value!r},")
        print("    },")
    print("}")
