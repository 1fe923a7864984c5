"""The communication matrix and hotspots: the send ops of the replay
schedule, each counted at the bytes the replay sends."""

import numpy as np
import pytest

from repro.core import ChameleonConfig, ChameleonTracer
from repro.replay import build_schedule, communication_matrix, hotspots
from repro.scalatrace import ScalaTraceTracer
from repro.simmpi import SimConfig, ZERO_COST, run_spmd

from ..scalatrace.test_analysis import chain_trace  # noqa: F401 - fixture
from .test_replayer import trace_of


class TestCommunicationMatrix:
    def test_chain_pattern(self, chain_trace):
        m = communication_matrix(chain_trace)
        assert m.shape == (6, 6)
        for r in range(5):
            assert m[r, r + 1] == pytest.approx(400.0)  # 4 steps x 100 B
        # nothing else
        expected = np.zeros((6, 6))
        for r in range(5):
            expected[r, r + 1] = 400.0
        assert np.allclose(m, expected)

    def test_hotspots(self, chain_trace):
        hs = hotspots(communication_matrix(chain_trace), top=3)
        assert len(hs) == 3
        ranks = {r for r, _b in hs}
        assert ranks <= set(range(5))  # rank 5 sends nothing
        assert all(b == pytest.approx(400.0) for _r, b in hs)

    def test_hub_pattern_resolved_via_abs(self):
        """Workers sending to the absolute master show up as column 0."""

        async def main(ctx):
            tracer = ScalaTraceTracer(ctx)
            for _ in range(3):
                with ctx.frame("round"):
                    if ctx.rank == 0:
                        for _w in range(ctx.size - 1):
                            await tracer.recv()
                    else:
                        await tracer.send(0, None, size=64)
            return await tracer.finalize()

        trace = run_spmd(main, 5, config=SimConfig(network=ZERO_COST)).results[0]
        m = communication_matrix(trace)
        for w in range(1, 5):
            assert m[w, 0] == pytest.approx(3 * 64)
        assert m[:, 1:].sum() == 0

    def test_chameleon_total_is_the_scheduled_send_bytes(self):
        """A clustered trace's matrix sums exactly what its replay sends:
        the rounded ``size`` of each scheduled send, not the recorded
        mean."""

        async def prog(ctx, tr):
            for step in range(6):
                with ctx.frame("sweep"):
                    ctx.compute(0.01)
                    if ctx.rank + 1 < ctx.size:
                        # per-step sizes: the recorded mean is fractional
                        await tr.send(ctx.rank + 1, None, size=64 + step % 2)
                    if ctx.rank > 0:
                        await tr.recv(ctx.rank - 1)
                    await tr.allreduce(1.0)
                await tr.marker()

        trace = trace_of(prog, 8, tracer_cls=ChameleonTracer,
                         config=ChameleonConfig(k=3))
        sends = [(r, op.peer, op.size)
                 for r, sched in enumerate(build_schedule(trace, 8))
                 for op in sched if op.kind == "send"]
        assert sends
        m = communication_matrix(trace)
        assert m.sum() == sum(size for _, _, size in sends)
        assert m.sum() == 7 * 6 * 64  # round(64.5) B per send, not 64.5
        expected = np.zeros((8, 8))
        for r, peer, size in sends:
            expected[r, peer] += size
        assert (m == expected).all()
