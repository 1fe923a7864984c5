#!/usr/bin/env python3
"""EMF: tracing a master-worker medical pipeline (the paper's EMF rows).

Shows the two properties the paper highlights for EMF:

* intra-node compression collapses the whole master-worker run into a
  handful of PRSD events (strided fan-out + hub encodings), and
* Chameleon finds exactly two behaviour clusters (master vs workers,
  Table I: K=2), with one lead per cluster carrying the trace.

Run:  python examples/emf_pipeline.py
"""

from repro.core import ChameleonConfig, ChameleonTracer
from repro.harness import Mode, get_engine, overhead
from repro.replay import accuracy, replay_trace
from repro.simmpi import run_spmd
from repro.workloads import EMF

NPROCS = 16


async def main(ctx):
    tracer = ChameleonTracer(ctx, ChameleonConfig(k=2, call_frequency=4))
    workload = EMF(total_tasks=360, task_seconds=0.002)
    await workload.run(ctx, tracer)
    trace = await tracer.finalize()
    return {"trace": trace, "cstats": tracer.cstats}


def run() -> None:
    print(f"== EMF master-worker pipeline ({NPROCS} ranks: 1 master, "
          f"{NPROCS - 1} workers) ==\n")

    result = run_spmd(main, NPROCS)
    r0 = result.results[0]
    trace, cs = r0["trace"], r0["cstats"]

    print(f"clusters: {cs.num_callpaths} Call-Path groups (paper: K=2 — "
          "master vs workers)")
    print(f"states:   {dict(cs.state_counts)}\n")

    print(f"trace: {trace.leaf_count()} PRSD events representing "
          f"{trace.expanded_count()} MPI calls")
    print("(paper: 'intra-compression reduces all MPI events to just 6 PRSD "
          "events')\n")
    for i, leaf in enumerate(trace.leaves()):
        print(f"  [{i}] {leaf.record}")

    # overhead comparison: the paper notes ScalaTrace wins for EMF at small
    # P because the traces are tiny — reproduce that crossover observation
    print("\noverhead comparison at P=16 (paper: ScalaTrace wins below the "
          "crossover at ~P=501):")
    suite = get_engine().run_suite(
        "emf",
        NPROCS,
        modes=(Mode.APP, Mode.CHAMELEON, Mode.SCALATRACE),
        workload_params={"total_tasks": 360, "task_seconds": 0.002},
        call_frequency=4,
    )
    app = suite[Mode.APP]
    for mode in (Mode.CHAMELEON, Mode.SCALATRACE):
        print(f"  {mode.value:10s}: {overhead(suite[mode], app) * 1e3:.3f} ms")

    rep = replay_trace(trace)
    print(f"\nreplay accuracy vs application: "
          f"{100 * accuracy(result.max_time, rep.time):.2f}%")


if __name__ == "__main__":
    run()
