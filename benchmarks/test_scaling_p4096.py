"""Paper-scale acceptance: the simulated runtime at P=4096 and P=16384.

The indexed mailbox and the de-quadratic'd scheduler made the paper's
P=4096 data points *reachable*; the macro-collective fast path makes
P=16384 routine — these benches drive ``run_spmd`` at both scales, assert
the wall-clock budgets, and regenerate the ``BENCH_scaling.json`` document
that CI gates against the committed baseline
(``benchmarks/BENCH_scaling.json``, refresh with ``repro bench -o
benchmarks/BENCH_scaling.json``).

All tests here are ``slow``-marked: tier-1 stays fast, and CI's dedicated
``bench`` job (plus ``REPRO_FULL_SCALE`` locally) runs them.
"""

from __future__ import annotations

import gc
import json
import pathlib
import time

import pytest

from repro.harness.bench import (
    EXTRA_POINTS,
    compare,
    load_bench,
    run_scaling_bench,
    save_bench,
)
from repro.obs.schema import validate
from repro.simmpi import SimConfig, run_spmd
from tests.simmpi.linear_mailbox import linear_matching  # noqa: F401 - fixture

pytestmark = pytest.mark.slow

_HERE = pathlib.Path(__file__).parent
BASELINE_PATH = _HERE / "BENCH_scaling.json"
SCHEMA_PATH = _HERE.parent / "schemas" / "bench_scaling.schema.json"


async def _allreduce_barrier(ctx):
    total = await ctx.comm.allreduce(ctx.rank)
    await ctx.comm.barrier()
    return total


def test_p4096_allreduce_barrier_under_budget():
    """The original acceptance bar: allreduce+barrier at P=4096 in < 60 s."""
    t0 = time.perf_counter()
    result = run_spmd(_allreduce_barrier, 4096)
    wall = time.perf_counter() - t0
    assert wall < 60.0, f"P=4096 allreduce+barrier took {wall:.1f}s"
    assert result.results == [4096 * 4095 // 2] * 4096
    # Pure-collective kernel: every instance takes the macro fast path, so
    # nothing goes through the mailbox.
    assert result.collectives_fast == 3 * 4096
    assert result.messages_matched == 0


def test_p16384_allreduce_barrier_fast_path():
    """The macro-collective tier: P=16384 completes in interactive time and
    is bit-identical in virtual time to a (much slower) simulated run —
    spot-checked here via makespan against a small-P extrapolation-free
    direct comparison in tests/simmpi/test_collective_fastpath.py."""
    t0 = time.perf_counter()
    result = run_spmd(_allreduce_barrier, 16384)
    wall = time.perf_counter() - t0
    assert wall < 60.0, f"P=16384 allreduce+barrier took {wall:.1f}s"
    assert result.results == [16384 * 16383 // 2] * 16384
    assert result.collectives_fast == 3 * 16384
    assert result.collectives_simulated == 0
    assert result.engine_steps == 16384  # one resume per rank


def test_p4096_fast_vs_simulated_bit_identical():
    """At full scale the macro path must still reproduce the message-level
    reference bit-for-bit (the exhaustive fuzz lives in
    tests/simmpi/test_collective_fastpath.py at smaller P)."""
    fast = run_spmd(_allreduce_barrier, 4096,
                    config=SimConfig(gates="fast"))
    sim = run_spmd(_allreduce_barrier, 4096,
                   config=SimConfig(gates="simulated"))
    assert fast.results == sim.results
    assert fast.clocks == sim.clocks
    assert fast.busy_times == sim.busy_times
    assert fast.total_messages == sim.total_messages
    assert fast.total_bytes == sim.total_bytes


def test_p4096_linear_indexed_equivalence_spot_check(
        linear_matching):  # noqa: F811
    """At full scale the indexed mailbox must still reproduce the linear
    reference bit-for-bit (the exhaustive randomized check lives in
    tests/simmpi/test_mailbox_matching.py at smaller P).  The simulated
    leg is the one that exercises the mailbox; under defaults the fast
    paths never touch it."""
    for config in (SimConfig(gates="simulated"), SimConfig()):
        indexed = run_spmd(_allreduce_barrier, 1024, config=config)
        with linear_matching():
            linear = run_spmd(_allreduce_barrier, 1024, config=config)
        assert indexed.clocks == linear.clocks
        assert indexed.busy_times == linear.busy_times
        assert indexed.messages_matched == linear.messages_matched


def test_p16384_runs_with_the_collector_paused():
    """From ``GC_PAUSE_NPROCS`` ranks up ``run_spmd`` pauses the cyclic
    collector (docs/PERF.md, "One engine"): seen from inside a rank at the
    real threshold, restored afterwards, inside the tier's budget."""

    async def prog(ctx):
        await ctx.comm.barrier()
        return gc.isenabled()

    assert gc.isenabled()
    t0 = time.perf_counter()
    result = run_spmd(prog, 16384)
    wall = time.perf_counter() - t0
    assert wall < 60.0, f"P=16384 barrier took {wall:.1f}s"
    assert result.results == [False] * 16384
    assert gc.isenabled()


def test_p65536_tier_completes():
    """The top rung: allreduce+barrier at P=65536."""
    t0 = time.perf_counter()
    result = run_spmd(_allreduce_barrier, 65536)
    wall = time.perf_counter() - t0
    assert wall < 120.0, f"P=65536 allreduce+barrier took {wall:.1f}s"
    assert result.results == [65536 * 65535 // 2] * 65536
    assert result.collectives_fast == 3 * 65536


def test_bench_document_schema_and_gate(results_dir):
    """Regenerate BENCH_scaling.json, validate it, gate vs the baseline."""
    doc = run_scaling_bench()
    out = results_dir / "BENCH_scaling.json"
    save_bench(doc, str(out))

    schema = json.loads(SCHEMA_PATH.read_text(encoding="utf-8"))
    errors = validate(doc, schema)
    assert errors == [], errors

    cells = {(r["kernel"], r["nprocs"]) for r in doc["results"]}
    for p in (256, 1024, 4096, 16384):
        assert ("allreduce_barrier", p) in cells
        assert ("halo_exchange", p) in cells
    for point in EXTRA_POINTS:
        assert point in cells

    # Loose local gate (2x): catches order-of-magnitude regressions on any
    # hardware; the strict ±20% comparison runs in CI's bench job where the
    # baseline matches the machine class.
    problems = compare(doc, load_bench(str(BASELINE_PATH)), tolerance=1.0)
    assert problems == [], problems
