"""Moderate-scale smoke: the full pipeline at P=100 within a time budget.

Guards against accidental complexity regressions in the engine or the
compression stack (e.g. a fold-window scan going quadratic) that the small
unit tests would not notice.
"""

import time

import pytest

from repro.harness import Mode, get_engine, overhead
from repro.replay import replay_trace


@pytest.mark.slow
def test_p100_end_to_end_under_budget():
    t0 = time.monotonic()
    suite = get_engine().run_suite(
        "lu",
        100,
        modes=(Mode.APP, Mode.CHAMELEON, Mode.SCALATRACE),
        workload_params={"problem_class": "A", "iterations": 8, "detail": 2},
        call_frequency=2,
    )
    app = suite[Mode.APP]
    ch, st = suite[Mode.CHAMELEON], suite[Mode.SCALATRACE]

    # reproduction shape at P=100
    assert overhead(ch, app) < overhead(st, app)

    replay = replay_trace(ch.trace, nprocs=100)
    assert replay.time > 0

    wall = time.monotonic() - t0
    assert wall < 240, f"P=100 pipeline took {wall:.0f}s (budget 240s)"


@pytest.mark.slow
def test_simulator_handles_512_ranks():
    from repro.simmpi import run_spmd

    async def main(ctx):
        total = await ctx.comm.allreduce(1)
        await ctx.comm.barrier()
        return total

    t0 = time.monotonic()
    res = run_spmd(main, 512)
    assert res.results == [512] * 512
    assert time.monotonic() - t0 < 60
