"""Probabilistic replay timing (histogram draws, Wu et al. [27])."""

import random

import pytest

from repro.replay import accuracy, replay_trace
from repro.scalatrace import DeltaHistogram, ScalaTraceTracer
from repro.simmpi import SimConfig, ZERO_COST, run_spmd


class TestHistogramDraw:
    def test_empty_draws_zero(self):
        assert DeltaHistogram().draw(random.Random(1)) == 0.0

    def test_single_value_draw_near_value(self):
        h = DeltaHistogram()
        for _ in range(5):
            h.record(0.01)
        rng = random.Random(7)
        for _ in range(20):
            v = h.draw(rng)
            # within the 0.01 bin (log bins: factor ~1.8 wide)
            assert 0.002 < v < 0.02

    def test_all_zero_samples_draw_zero(self):
        """Zero gaps (POP's back-to-back isends) leave ``max`` at 0.0: a
        draw clamps to it, not to the top of the [0, 1 ns) bin."""
        h = DeltaHistogram()
        for _ in range(3):
            h.record(0.0)
        rng = random.Random(1)
        assert [h.draw(rng) for _ in range(20)] == [0.0] * 20

    def test_draw_respects_distribution(self):
        h = DeltaHistogram()
        for _ in range(90):
            h.record(1e-3)
        for _ in range(10):
            h.record(1.0)
        rng = random.Random(3)
        draws = [h.draw(rng) for _ in range(500)]
        big = sum(1 for d in draws if d > 0.1)
        assert 20 < big < 200  # ~10% +- tolerance

    def test_deterministic_per_seed(self):
        h = DeltaHistogram()
        for i in range(10):
            h.record(0.001 * (i + 1))
        a = [h.draw(random.Random(42)) for _ in range(1)]
        b = [h.draw(random.Random(42)) for _ in range(1)]
        assert a == b


def make_trace():
    async def main(ctx):
        tracer = ScalaTraceTracer(ctx)
        for i in range(8):
            with ctx.frame("step"):
                ctx.compute(0.005 if i % 2 else 0.015)  # bimodal gaps
                await tracer.allreduce(0.0, size=8)
        return await tracer.finalize()

    return run_spmd(main, 4, config=SimConfig(network=ZERO_COST)).results[0]


class TestSampledReplay:
    def test_modes_validated(self):
        trace = make_trace()
        with pytest.raises(ValueError):
            replay_trace(trace, timing="exact")

    def test_sampled_replay_reproducible(self):
        trace = make_trace()
        a = replay_trace(trace, timing="sampled", seed=11).time
        b = replay_trace(trace, timing="sampled", seed=11).time
        assert a == b

    def test_different_seeds_differ(self):
        trace = make_trace()
        a = replay_trace(trace, timing="sampled", seed=11).time
        b = replay_trace(trace, timing="sampled", seed=12).time
        assert a != b

    def test_zero_gaps_replay_as_zero(self):
        """A trace whose every gap was 0.0 replays sampled exactly as it
        replays with means."""

        async def main(ctx):
            tracer = ScalaTraceTracer(ctx)
            for _ in range(8):
                with ctx.frame("step"):
                    await tracer.allreduce(0.0, size=8)
            return await tracer.finalize()

        trace = run_spmd(main, 4, config=SimConfig(network=ZERO_COST)).results[0]
        assert all(leaf.record.dhist.max == 0.0 for leaf in trace.leaves())
        mean_time = replay_trace(trace, timing="mean").time
        assert replay_trace(trace, timing="sampled", seed=5).time == mean_time

    def test_sampled_accuracy_close_to_mean(self):
        trace = make_trace()
        mean_time = replay_trace(trace, timing="mean").time
        sampled = replay_trace(trace, timing="sampled", seed=5).time
        assert accuracy(mean_time, sampled) > 0.5
