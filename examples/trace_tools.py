#!/usr/bin/env python3
"""Trace tooling tour: analysis, timelines, and semantic diffing.

Traces are only useful if you can look inside them.  This example traces
the LULESH skeleton, then:

1. prints the aggregate summary and communication matrix,
2. reconstructs a per-rank Gantt timeline (mini-Vampir),
3. semantically diffs the ScalaTrace and Chameleon traces of the same run —
   verifying the paper's claim that the online trace is equivalent to the
   ``MPI_Finalize`` output.

Run:  python examples/trace_tools.py
"""

import numpy as np

from repro.core import ChameleonConfig, ChameleonTracer
from repro.replay import communication_matrix, reconstruct_timeline
from repro.scalatrace import ScalaTraceTracer, diff_traces, summarize
from repro.simmpi import run_spmd
from repro.workloads import LULESH

NPROCS = 8  # LULESH needs a perfect cube
STEPS = 6


def trace_with(factory):
    async def main(ctx):
        tracer = factory(ctx)
        await LULESH(edge_elems=8, iterations=STEPS).run(ctx, tracer)
        return await tracer.finalize()

    return run_spmd(main, NPROCS).results[0]


def main() -> None:
    print(f"== trace tooling on LULESH ({NPROCS} ranks, {STEPS} steps) ==\n")
    st_trace = trace_with(ScalaTraceTracer)
    ch_trace = trace_with(lambda ctx: ChameleonTracer(ctx, ChameleonConfig(k=9)))

    print("1) summary")
    print(summarize(st_trace).report())

    print("\n2) communication matrix (KB sent, row -> column)")
    matrix = communication_matrix(st_trace) / 1024.0
    for row in matrix:
        print("   " + " ".join(f"{v:7.1f}" for v in row))
    total = matrix.sum()
    heaviest = np.unravel_index(np.argmax(matrix), matrix.shape)
    print(f"   total {total:.1f} KB; heaviest pair {heaviest}")

    print("\n3) per-rank timeline (mini-Vampir)")
    timeline = reconstruct_timeline(st_trace)
    print(timeline.gantt(width=60))

    print("\n4) online-trace equivalence (Chameleon vs ScalaTrace)")
    diff = diff_traces(st_trace, ch_trace)
    print(diff.report())
    assert diff.similarity() > 0.95


if __name__ == "__main__":
    main()
