"""`repro chaos host`: a deterministic host-fault chaos sweep.

The virtual-time chaos matrix (``repro chaos``) proves the *simulated
system* survives crashed ranks and dropped messages.  This sweep proves
the *host machinery* survives real process faults: it arms one
:class:`~repro.resilience.HostFaultPlan` per scenario, kills or hangs
actual pool worker processes, damages actual cache files, and asserts that
every fault terminates in a **recorded** retry, quarantine or invalidation
— never a hang and never a wrong answer.

Every scenario runs ``runs`` times (default twice) and the outcomes must
be equal; the report contains no wall-clock times or host paths, so two
invocations of the whole sweep produce byte-identical JSON — which is
exactly what the ``chaos-host`` CI job diffs.
"""

from __future__ import annotations

import json
import tempfile
from pathlib import Path
from typing import Any, Callable

from ..harness.cache import RunCache
from ..harness.engine import ExperimentEngine, make_cell
from ..harness.runner import Mode
from .hostfaults import HostFaultPlan, apply_cache_faults, installed
from .policy import QuarantineError, RetryPolicy

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


def run_host_chaos(
    scenarios: list[str] | None = None,
    *,
    seed: int = 0x0457,
    runs: int = 2,
    report_path: str = "",
    log: Callable[[str], None] | None = None,
) -> dict[str, Any]:
    """Run the host-fault sweep; return (and optionally write) the report.

    Each scenario executes ``runs`` times and its outcomes must be equal
    (``deterministic``); ``recovered`` asserts the fault ended in the
    expected recorded outcome with unchanged virtual-time results.  The
    report is free of wall times and paths, so identical invocations are
    byte-identical — ``ok`` is the conjunction of every scenario's
    ``recovered`` and ``deterministic``.
    """
    runners = _scenario_runners(seed)
    names = list(scenarios) if scenarios else list(HOST_SCENARIOS)
    unknown = [n for n in names if n not in runners]
    if unknown:
        raise ValueError(
            f"unknown host chaos scenario(s): {', '.join(unknown)} "
            f"(known: {', '.join(HOST_SCENARIOS)})"
        )
    report: dict[str, Any] = {
        "version": 2,
        "kind": "host",
        "seed": seed,
        "runs": runs,
        "scenarios": {},
    }
    ok = True
    for name in names:
        outcomes = [runners[name]() for _ in range(max(1, runs))]
        deterministic = all(o == outcomes[0] for o in outcomes[1:])
        entry = dict(outcomes[0])
        entry["deterministic"] = deterministic
        report["scenarios"][name] = entry
        ok = ok and deterministic and bool(entry.get("recovered"))
        if log is not None:
            status = "ok" if entry["recovered"] else "NOT-RECOVERED"
            if not deterministic:
                status = "NON-DETERMINISTIC"
            detail = ", ".join(
                f"{k}={v}" for k, v in outcomes[0].items() if k != "recovered"
            )
            log(f"  {name:<18s} {status:<17s} {detail}")
    report["ok"] = ok
    if report_path:
        with open(report_path, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return report
