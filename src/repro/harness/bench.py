"""Scaling benchmark: wall-clock cost of the simulated runtime at large P.

The paper's claim is a finalize cost that stays flat as P grows; this
module measures whether the *simulator itself* keeps up — it drives two
microkernels through ``run_spmd`` at P ∈ {256, 1024, 4096, 16384} (plus
the collective kernel at P=65536) and records, per point, the wall time,
peak RSS, scheduler steps, the point-to-point match throughput and how
many collective instances took the macro fast path.  ``repro bench`` emits
the result as ``BENCH_scaling.json`` and CI gates every change against the
committed baseline with a ±20% wall-time tolerance (see :func:`compare`),
so a quadratic regression in the mailbox or scheduler shows up as a red
build rather than a slow paper run.

Engine options come in as a :class:`~repro.simmpi.SimConfig` (CLI:
``repro bench --config KEY=VAL``, e.g. ``--config gates=simulated``).

Kernels:

* ``allreduce_barrier`` — collective-dominated: one allreduce plus one
  barrier over the world communicator; stresses the tree collectives and
  exact-tag matching.
* ``halo_exchange`` — point-to-point dominated: a periodic 1-D halo swap
  (both neighbours, several rounds, per-round tags) declared as a
  :class:`~repro.simmpi.NeighborPattern` so the macro p2p gate can
  resolve it, plus a message-level wildcard drain round that stresses
  mailbox lane churn and wildcard matching (and keeps the kernel
  exercising the real matching engine at every tier).
"""

from __future__ import annotations

import functools
import json
import resource
import sys
import time
from typing import Any, Callable, Iterable, Sequence

from ..simmpi import ANY_SOURCE, ANY_TAG, NeighborPattern, run_spmd
from ..simmpi.simconfig import DEFAULT_CONFIG, SimConfig

SCHEMA_ID = "repro/bench-scaling/v6"

#: Default process counts — the scaling ladder.  The 16384 tier is only
#: tractable because eligible collectives take the macro fast path.
DEFAULT_PS = (256, 1024, 4096, 16384)

#: Extra ``(kernel, nprocs)`` points appended when the *default* ladder
#: runs: the collective kernel one tier up, where the collector pause of
#: ``run_spmd`` decides the wall time.
EXTRA_POINTS = (
    ("allreduce_barrier", 65536),
)

#: Wall times below this (seconds) are noise-dominated; the regression gate
#: measures against at least this much baseline budget.
WALL_FLOOR_S = 0.05


async def _allreduce_barrier(ctx) -> int:
    total = await ctx.comm.allreduce(ctx.rank)
    await ctx.comm.barrier()
    return total


@functools.lru_cache(maxsize=None)
def _halo_pattern(size: int, rounds: int) -> NeighborPattern:
    """The halo kernel's declared rounds: the exact op sequence of the
    pre-declaration kernel (8-byte scalar payloads), slot-aligned so the
    gate replay vectorizes over ranks."""
    ops = []
    for rank in range(size):
        left, right = (rank - 1) % size, (rank + 1) % size
        row = []
        for r in range(rounds):
            row += [
                ("isend", left, r, 8),
                ("isend", right, r, 8),
                ("recv", right, r),
                ("recv", left, r),
                ("wait", 2 * r),
                ("wait", 2 * r + 1),
            ]
        ops.append(row)
    return NeighborPattern("bench-halo", size, ops)


async def _halo_exchange(ctx, rounds: int = 4) -> int:
    comm, rank, size = ctx.comm, ctx.rank, ctx.size
    left, right = (rank - 1) % size, (rank + 1) % size
    await comm.exchange(_halo_pattern(size, rounds))
    # Wildcard drain round: one message each way, matched by ANY/ANY.
    await comm.send(right, rank, tag=rounds)
    acc = await comm.recv(source=ANY_SOURCE, tag=ANY_TAG)
    await comm.barrier()
    return acc


KERNELS: dict[str, Callable[..., Any]] = {
    "allreduce_barrier": _allreduce_barrier,
    "halo_exchange": _halo_exchange,
}


def matched_per_s(messages_matched: int, wall: float) -> int:
    """Match throughput with the wall time clamped to :data:`WALL_FLOOR_S`.

    A run finishing under the timer floor — including a measured wall of
    exactly ``0.0`` on a coarse clock — used to report a throughput of
    ``0``, which reads as a catastrophic regression instead of a
    sub-resolution run.  Clamping yields a conservative lower bound
    instead; walls above the floor are unaffected.
    """
    return round(messages_matched / max(wall, WALL_FLOOR_S))


def _peak_rss_kb() -> int:
    """Peak resident set size of this process in KiB.

    ``ru_maxrss`` is KiB on Linux but bytes on macOS; normalize to KiB.
    """
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # pragma: no cover - linux CI
        peak //= 1024
    return int(peak)


def bench_point(
    kernel: str,
    nprocs: int,
    sim: SimConfig | None = None,
) -> dict[str, Any]:
    """Run one (kernel, P) cell under ``sim`` and return its record."""
    sim = sim or DEFAULT_CONFIG
    fn = KERNELS[kernel]
    t0 = time.perf_counter()
    result = run_spmd(fn, nprocs, config=sim)
    wall = time.perf_counter() - t0
    return {
        "kernel": kernel,
        "nprocs": nprocs,
        "wall_s": round(wall, 4),
        "peak_rss_kb": _peak_rss_kb(),
        "engine_steps": result.engine_steps,
        "messages_matched": result.messages_matched,
        "matched_per_s": matched_per_s(result.messages_matched, wall),
        "collectives_fast": result.collectives_fast,
        "p2p_fast": result.p2p_fast,
        "virtual_makespan_s": result.max_time,
    }


def run_scaling_bench(
    ps: Sequence[int] | None = None,
    kernels: Sequence[str] = tuple(KERNELS),
    progress: Callable[[dict[str, Any]], None] | None = None,
    sim: SimConfig | None = None,
) -> dict[str, Any]:
    """Run the benchmark matrix and return the ``BENCH_scaling`` document.

    ``ps=None`` selects the default ladder — :data:`DEFAULT_PS` for every
    kernel, plus :data:`EXTRA_POINTS`.  An explicit ``ps`` runs exactly
    that matrix.

    Note that ``peak_rss_kb`` is a high-water mark for the whole process:
    it only ever grows across cells, so per-cell values are upper bounds
    and the large-P cells carry the meaningful numbers.
    """
    sim = sim or DEFAULT_CONFIG
    for k in kernels:
        if k not in KERNELS:
            raise ValueError(
                f"unknown bench kernel {k!r}; choose from {sorted(KERNELS)}"
            )
    base_ps = DEFAULT_PS if ps is None else tuple(ps)
    points = [(kernel, p) for kernel in kernels for p in base_ps]
    if ps is None:
        points.extend(pt for pt in EXTRA_POINTS if pt[0] in kernels)
    results = []
    for kernel, p in points:
        record = bench_point(kernel, p, sim)
        results.append(record)
        if progress is not None:
            progress(record)
    return {
        "schema": SCHEMA_ID,
        "ps": sorted({p for _, p in points}),
        "kernels": list(kernels),
        "config": {
            "gates": sim.gates,
            "max_steps": sim.max_steps,
        },
        "results": results,
    }


def save_bench(doc: dict[str, Any], path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_bench(path: str) -> dict[str, Any]:
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    if doc.get("schema") != SCHEMA_ID:
        raise ValueError(
            f"{path}: expected schema {SCHEMA_ID!r}, got {doc.get('schema')!r}"
        )
    return doc


def compare(
    current: dict[str, Any],
    baseline: dict[str, Any],
    tolerance: float = 0.2,
) -> list[str]:
    """Wall-time regression gate: current vs baseline, ±``tolerance``.

    Returns one message per violation (empty list = pass).  Every
    ``(kernel, nprocs)`` cell of the *baseline* must exist in
    ``current`` and run within ``(1 + tolerance) *`` the baseline wall
    time; walls under :data:`WALL_FLOOR_S` are clamped to the floor on
    *both* sides of the ratio, so micro-cells whose runtime is timer
    noise — in the baseline or the current run — cannot flake the gate.
    Speed-ups and extra cells in ``current`` never fail.
    """
    by_cell = {
        (r["kernel"], r["nprocs"]): r for r in current.get("results", [])
    }
    problems = []
    for base in baseline.get("results", []):
        key = (base["kernel"], base["nprocs"])
        cur = by_cell.get(key)
        label = f"{key[0]} @ P={key[1]}"
        if cur is None:
            problems.append(f"{label}: missing from current results")
            continue
        budget = max(base["wall_s"], WALL_FLOOR_S) * (1.0 + tolerance)
        if max(cur["wall_s"], WALL_FLOOR_S) > budget:
            problems.append(
                f"{label}: wall {cur['wall_s']:.3f}s exceeds "
                f"{budget:.3f}s (baseline {base['wall_s']:.3f}s "
                f"+{tolerance:.0%})"
            )
    return problems


def format_bench(doc: dict[str, Any]) -> str:
    lines = [
        f"{'kernel':<18s} {'P':>6s} {'wall[s]':>8s} "
        f"{'RSS[MB]':>8s} {'steps':>9s} {'matched':>9s} {'match/s':>10s} "
        f"{'coll.fast':>9s} {'p2p.fast':>9s}"
    ]
    for r in doc["results"]:
        lines.append(
            f"{r['kernel']:<18s} {r['nprocs']:>6d} {r['wall_s']:>8.3f} "
            f"{r['peak_rss_kb'] / 1024:>8.1f} {r['engine_steps']:>9d} "
            f"{r['messages_matched']:>9d} {r['matched_per_s']:>10d} "
            f"{r.get('collectives_fast', 0):>9d} {r.get('p2p_fast', 0):>9d}"
        )
    return "\n".join(lines)
