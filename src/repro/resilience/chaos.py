"""`repro chaos` and `repro chaos host`: two deterministic sweeps, one loop.

The fault matrix (:func:`run_fault_chaos`) proves the *simulated system*
survives crashed ranks, dropped messages and noisy ranks, against a
fault-free baseline of one cell.  The host sweep (:func:`run_host_chaos`)
proves the *host machinery* survives real process faults: it arms one
:class:`~repro.resilience.HostFaultPlan` per scenario, kills or hangs
actual pool worker processes, damages actual cache files, and asserts
that every fault terminates in a **recorded** retry, quarantine or
invalidation — never a hang and never a wrong answer.

Every scenario runs :data:`RUNS` times and the outcomes must be equal;
the report contains no wall-clock times or host paths, so two
invocations of a sweep produce byte-identical JSON — which is exactly
what the ``chaos`` and ``chaos-host`` CI jobs diff.
"""

from __future__ import annotations

import dataclasses
import json
import tempfile
from functools import partial
from pathlib import Path
from typing import Any, Callable, Sequence

from ..faults.plan import ComputeFault, CrashFault, FaultPlan, MessageFaults
from ..harness.cache import RunCache
from ..harness.engine import Cell, ExperimentEngine, make_cell
from ..harness.runner import Mode, RunResult
from ..simmpi.errors import SimMPIError
from .hostfaults import HostFaultPlan, apply_cache_faults, installed
from .policy import QuarantineError, RetryPolicy

#: Every virtual-time fault scenario of the matrix, in report order.
FAULT_SCENARIOS = ("crash-a-lead", "drop-messages", "noisy-rank")

#: Every host-fault scenario the sweep knows, in report order.
HOST_SCENARIOS = (
    "kill-pool-worker",
    "poison-cell",
    "hang-cell",
    "corrupt-cache",
    "truncate-cache",
)

#: Harness policy for pool scenarios: tight deadlines and near-zero
#: backoff so a full sweep stays in the seconds range.
_POOL_POLICY = RetryPolicy(
    max_attempts=2,
    cell_deadline=1.5,
    backoff_base=0.01,
    backoff_cap=0.05,
)


def _pool_cells():
    return [
        make_cell("uniform", 4, Mode.APP,
                  workload_params={"iterations": iterations})
        for iterations in (3, 4, 5, 6)
    ]


def _run_kill_pool(seed: int) -> dict[str, Any]:
    cells = _pool_cells()
    target = cells[1].digest()
    engine = ExperimentEngine(jobs=2, cache=None, policy=_POOL_POLICY)
    with tempfile.TemporaryDirectory() as tmp:
        plan = HostFaultPlan(seed=seed, kill_cell=target, attempts=1,
                             state_dir=tmp)
        with installed(plan):
            results = engine.run_cells(cells)
    completed = sum(1 for r in results if r is not None)
    return {
        "completed": completed,
        "quarantined": engine.metrics.quarantined,
        "recovered": completed == len(cells)
        and engine.metrics.quarantined == 0,
    }


def _run_poison(seed: int, *, hang: bool) -> dict[str, Any]:
    cells = _pool_cells()
    target = cells[1].digest()
    engine = ExperimentEngine(jobs=2, cache=None, policy=_POOL_POLICY)
    if hang:
        plan = HostFaultPlan(seed=seed, hang_cell=target, hang_s=30.0)
    else:
        plan = HostFaultPlan(seed=seed, kill_cell=target)
    outcome: dict[str, Any] = {
        "completed": 0, "quarantined": 0, "reasons": [], "target_hit": False,
        "recovered": False,
    }
    with installed(plan):
        try:
            engine.run_cells(cells)
        except QuarantineError as err:
            completed = sum(1 for r in err.results if r is not None)
            outcome.update(
                completed=completed,
                quarantined=len(err.quarantined),
                reasons=sorted({q.reason for q in err.quarantined}),
                target_hit=all(q.digest == target for q in err.quarantined),
                recovered=completed == len(cells) - 1
                and len(err.quarantined) == 1
                and err.quarantined[0].digest == target,
            )
    return outcome


def _run_cache_scenario(seed: int, mode: str) -> dict[str, Any]:
    cells = _pool_cells()[:2]
    with tempfile.TemporaryDirectory() as tmp:
        cache = RunCache(root=Path(tmp) / "cache")
        engine = ExperimentEngine(jobs=1, cache=cache)
        before = engine.run_cells(cells)
        damaged = apply_cache_faults(
            HostFaultPlan(seed=seed, cache_mode=mode), cache
        )
        found = cache.verify()
        fixed = cache.verify(fix=True)
        # With the damaged entries swept away, a fresh engine recomputes
        # every cell and must land on the same virtual-time results.
        engine2 = ExperimentEngine(jobs=1, cache=cache)
        after = engine2.run_cells(cells)
    identical = [a.fingerprint() == b.fingerprint()
                 for a, b in zip(before, after)]
    return {
        "damaged": len(damaged),
        "corrupt_found": len(found.corrupt),
        "removed": fixed.removed,
        "recomputed_identical": all(identical),
        "recovered": len(found.corrupt) == len(damaged) == len(cells)
        and all(identical),
    }


def _scenario_runners(seed: int) -> dict[str, Callable[[], dict[str, Any]]]:
    return {
        "kill-pool-worker": lambda: _run_kill_pool(seed),
        "poison-cell": lambda: _run_poison(seed, hang=False),
        "hang-cell": lambda: _run_poison(seed, hang=True),
        "corrupt-cache": lambda: _run_cache_scenario(seed, "flip"),
        "truncate-cache": lambda: _run_cache_scenario(seed, "truncate"),
    }


class UnknownScenarioError(ValueError):
    """A sweep was asked for a scenario name it does not know."""


#: Every scenario runs this many times; equal outcomes are deterministic.
RUNS = 2


def _names(kind: str, known: Sequence[str],
           scenarios: Sequence[str] | None) -> list[str]:
    """The scenarios to run, all of ``known`` by default; reject unknowns."""
    names = list(scenarios) if scenarios else list(known)
    unknown = [n for n in names if n not in known]
    if unknown:
        raise UnknownScenarioError(
            f"unknown {kind} chaos scenario(s): {', '.join(unknown)} "
            f"(known: {', '.join(known)})")
    return names


def _sweep(kind: str, runners: dict[str, Callable[[], dict[str, Any]]],
           head: dict[str, Any], *, seed: int, runs: int = RUNS,
           report_path: str, log: Callable[[str], None] | None,
           unlogged: tuple[str, ...] = ("recovered",)) -> dict[str, Any]:
    """Run each runner (outcome: a dict with ``recovered``) ``runs`` times
    and build the report on ``head``, the kind-specific top-level fields."""
    if log is not None:
        log(f"chaos {kind}: {len(runners)} scenario(s), seed={seed:#x}")
    report: dict[str, Any] = {**head, "version": 3, "kind": kind,
                              "seed": seed, "runs": runs, "scenarios": {}}
    for name, runner in runners.items():
        outcomes = [runner() for _ in range(max(1, runs))]
        deterministic = all(o == outcomes[0] for o in outcomes[1:])
        entry = {**outcomes[0], "deterministic": deterministic}
        report["scenarios"][name] = entry
        if log is not None:
            status = ("NON-DETERMINISTIC" if not deterministic
                      else "ok" if entry["recovered"] else "NOT-RECOVERED")
            detail = ", ".join(f"{k}={v}" for k, v in outcomes[0].items()
                               if k not in unlogged)
            log(f"  {name:<18s} {status:<17s} {detail}")
    report["ok"] = all(e["recovered"] and e["deterministic"]
                       for e in report["scenarios"].values())
    if report_path:
        with open(report_path, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return report


def run_host_chaos(scenarios: list[str] | None = None, *, seed: int = 0x0457,
                   runs: int = RUNS, report_path: str = "",
                   log: Callable[[str], None] | None = None) -> dict[str, Any]:
    """Run the host-fault sweep; return (and optionally write) the report.

    ``recovered`` asserts the fault ended in the expected recorded
    outcome with unchanged virtual-time results; ``ok`` is the
    conjunction of every scenario's ``recovered`` and ``deterministic``.
    """
    runners = _scenario_runners(seed)
    names = _names("host", HOST_SCENARIOS, scenarios)
    return _sweep("host", {n: runners[n] for n in names}, {}, seed=seed,
                  runs=runs, report_path=report_path, log=log)


# -- the virtual-time fault matrix --------------------------------------------


def _fault_plan(name: str, baseline: RunResult, nprocs: int,
                seed: int) -> FaultPlan:
    if name == "crash-a-lead":
        # Prefer a non-zero lead, and crash past the clustering warm-up,
        # so the run exercises lead re-election rather than the rank-0 /
        # startup degraded fallback.
        leads = sorted(r for r in baseline.lead_ranks if r != 0)
        victim = leads[0] if leads else max(1, nprocs - 1)
        return FaultPlan(
            seed=seed,
            crashes=(CrashFault(rank=victim, time=baseline.max_time * 0.7),),
        )
    if name == "drop-messages":
        return FaultPlan(seed=seed, messages=MessageFaults(drop_prob=0.05))
    assert name == "noisy-rank", name
    return FaultPlan(
        seed=seed,
        compute=(
            ComputeFault(rank=max(1, nprocs // 2), slowdown=1.5,
                         jitter=0.1),
        ),
    )


def _leaves(result: RunResult) -> int:
    return result.trace.leaf_count() if result.trace is not None else 0


def _run_fault(engine: ExperimentEngine, cell: Cell, plan: FaultPlan,
               base_leaves: int) -> dict[str, Any]:
    outcome: dict[str, Any] = {"plan": plan.to_dict()}
    try:
        (result,) = engine.run_cells([dataclasses.replace(cell, faults=plan)])
    except SimMPIError as exc:
        outcome.update(recovered=False, error=str(exc).splitlines()[0])
        return outcome
    leaves = _leaves(result)
    delta = (abs(leaves - base_leaves) / base_leaves * 100.0
             if base_leaves else 0.0)
    outcome.update(
        recovered=True,
        fingerprint=result.fingerprint(),
        failed_ranks=list(result.failed_ranks),
        max_time=result.max_time,
        trace_leaves=leaves,
        fidelity_delta_pct=round(delta, 3),
        fault_summary=dict(sorted(
            result.extra.get("fault_summary", {}).items())),
    )
    return outcome


def run_fault_chaos(cell: Cell, scenarios: list[str] | None = None, *,
                    seed: int, report_path: str = "",
                    log: Callable[[str], None] | None = None
                    ) -> dict[str, Any]:
    """Sweep the virtual-time fault matrix over the fault-free ``cell``.

    The baseline and every faulted run execute on a private uncached
    engine: the determinism check needs each run computed, not served
    from disk.  ``recovered`` means the run completed under its plan."""
    names = _names("matrix", FAULT_SCENARIOS, scenarios)
    engine = ExperimentEngine(jobs=1, cache=None)
    (baseline,) = engine.run_cells([cell])
    leaves = _leaves(baseline)
    if log is not None:
        log(f"baseline: {cell.label}, makespan "
            f"{baseline.max_time:.6f} s, {leaves} trace events")
    head = {"workload": cell.workload, "nprocs": cell.nprocs,
            "mode": cell.mode.value,
            "baseline": {"fingerprint": baseline.fingerprint(),
                         "max_time": baseline.max_time,
                         "trace_leaves": leaves}}
    runners = {n: partial(_run_fault, engine, cell,
                          _fault_plan(n, baseline, cell.nprocs, seed), leaves)
               for n in names}
    return _sweep("matrix", runners, head, seed=seed,
                  report_path=report_path, log=log,
                  unlogged=("recovered", "plan", "fingerprint", "max_time",
                            "trace_leaves", "fault_summary"))
