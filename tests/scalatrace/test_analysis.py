"""Trace analysis: summaries and collective volume."""

import pytest

from repro.scalatrace import ScalaTraceTracer
from repro.scalatrace.analysis import collective_volume, summarize
from repro.simmpi import SimConfig, ZERO_COST, run_spmd


@pytest.fixture(scope="module")
def chain_trace():
    """Each rank sends 100 B to rank+1 and allreduces, 4 times."""

    async def main(ctx):
        tracer = ScalaTraceTracer(ctx)
        for _ in range(4):
            with ctx.frame("step"):
                if ctx.rank + 1 < ctx.size:
                    await tracer.send(ctx.rank + 1, None, size=100)
                if ctx.rank > 0:
                    await tracer.recv(ctx.rank - 1)
                await tracer.allreduce(0.0, size=8)
        return await tracer.finalize()

    return run_spmd(main, 6, config=SimConfig(network=ZERO_COST)).results[0]


class TestSummarize:
    def test_counts(self, chain_trace):
        s = summarize(chain_trace)
        assert s.nprocs == 6
        assert s.events_by_op["send"] == 5 * 4  # 5 senders x 4 steps
        assert s.events_by_op["recv"] == 5 * 4
        assert s.events_by_op["allreduce"] == 6 * 4

    def test_bytes(self, chain_trace):
        s = summarize(chain_trace)
        assert s.bytes_by_op["send"] == pytest.approx(100 * 20)
        assert s.bytes_by_op["allreduce"] == pytest.approx(8 * 24)

    def test_report_renders(self, chain_trace):
        text = summarize(chain_trace).report()
        assert "PRSD events" in text
        assert "send" in text and "allreduce" in text

    def test_compression_fields(self, chain_trace):
        s = summarize(chain_trace)
        assert s.total_events > s.prsd_events
        assert s.compression_ratio > 1
        assert s.size_bytes > 0


class TestCommunicationMatrix:
    """The collective side of the traffic; the p2p matrix is the replay
    schedule's (``tests/replay/test_matrix.py``)."""

    def test_collective_volume(self, chain_trace):
        assert collective_volume(chain_trace) == pytest.approx(8 * 24)
