"""Harness host-fault recovery: deadlines, bounded retry, quarantine.

A poisoned cell (one that deterministically kills every worker it is
handed to) must cost the batch exactly itself: siblings complete, the
poison is identified by construction (a lane runs one cell at a time) and
surfaced through :class:`QuarantineError` *with* the completed partial
results.  Transient kills retry and succeed; hangs trip the per-cell
wall-clock deadline.
"""

from __future__ import annotations

import time
from collections import Counter
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.cli import main
from repro.harness import engine as engine_module
from repro.harness.engine import CellEvent, ExperimentEngine, make_cell
from repro.harness.runner import Mode
from repro.obs import Recorder
from repro.resilience import (
    HostFaultPlan,
    QuarantineError,
    RetryPolicy,
    installed,
)
from repro.serve.jobs import ServeConfig
from repro.simmpi.errors import TaskFailedError

from ..serve.test_satellite_fixes import POISON
from ..serve.test_satellite_fixes import _cell as _stream_cell

#: Near-zero backoff + tight deadline so each test runs in seconds.
FAST = RetryPolicy(max_attempts=2, cell_deadline=1.5, backoff_base=0.01,
                   backoff_cap=0.05)


def _cells(n=6):
    return [
        make_cell("uniform", 4, Mode.APP, workload_params={"iterations": it})
        for it in range(3, 3 + n)
    ]


class TestQuarantine:
    def test_poison_cell_quarantined_siblings_finish(self):
        cells = _cells(6)
        poison = cells[2].digest()
        recorder = Recorder()
        engine = ExperimentEngine(jobs=2, cache=None, policy=FAST,
                                  instrument=recorder)
        with installed(HostFaultPlan(kill_cell=poison)):
            with pytest.raises(QuarantineError) as excinfo:
                engine.run_cells(cells)
        err = excinfo.value
        assert [q.digest for q in err.quarantined] == [poison]
        assert err.quarantined[0].reason == "pool-crash"
        assert err.quarantined[0].attempts == FAST.max_attempts
        # Partial results survive: every sibling completed, only the
        # poisoned index is None.
        assert [i for i, r in enumerate(err.results) if r is None] == [2]
        assert engine.metrics.quarantined == 1
        # Each retry and the quarantine are counted once, as engine events.
        reg = recorder.metrics
        assert [reg.value(f"engine/cells_{kind}")
                for kind in ("done", "retry", "quarantine")] \
            == [5, FAST.max_attempts - 1, 1]
        assert all(n.startswith("engine/") for n in reg.names())

    def test_hanging_cell_trips_deadline(self):
        cells = _cells(4)
        target = cells[1].digest()
        engine = ExperimentEngine(jobs=2, cache=None, policy=FAST)
        with installed(HostFaultPlan(hang_cell=target, hang_s=60.0)):
            with pytest.raises(QuarantineError) as excinfo:
                engine.run_cells(cells)
        err = excinfo.value
        assert [q.digest for q in err.quarantined] == [target]
        assert err.quarantined[0].reason == "deadline"
        assert sum(1 for r in err.results if r is not None) == 3

    def test_transient_kill_retries_to_completion(self, tmp_path):
        cells = _cells(4)
        target = cells[1].digest()
        events: list[CellEvent] = []
        engine = ExperimentEngine(jobs=2, cache=None, policy=FAST,
                                  progress=events.append)
        plan = HostFaultPlan(kill_cell=target, attempts=1,
                             state_dir=str(tmp_path))
        with installed(plan):
            results = engine.run_cells(cells)
        assert all(r is not None for r in results)
        assert engine.metrics.quarantined == 0
        retries = [e for e in events if e.kind == "retry"]
        assert retries, "a worker death must surface a retry event"
        # The retry event names the one cell that is queued again.
        assert {(e.label, e.digest) for e in retries} \
            == {(cells[1].label, target)}

    def test_quarantine_event_emitted(self):
        cells = _cells(4)
        poison = cells[0].digest()
        events: list[CellEvent] = []
        engine = ExperimentEngine(jobs=2, cache=None, policy=FAST,
                                  progress=events.append)
        with installed(HostFaultPlan(kill_cell=poison)):
            with pytest.raises(QuarantineError):
                engine.run_cells(cells)
        kinds = {e.kind for e in events}
        assert "quarantine" in kinds
        quarantine = [e for e in events if e.kind == "quarantine"][0]
        assert quarantine.digest == poison

    def test_inline_execution_never_injured(self):
        # jobs=1 executes in-process; the owner-pid guard means a cell
        # fault plan cannot kill the coordinating process.
        cells = _cells(3)
        engine = ExperimentEngine(jobs=1, cache=None, policy=FAST)
        with installed(HostFaultPlan(kill_cell=cells[0].digest())):
            results = engine.run_cells(cells)
        assert all(r is not None for r in results)

    def test_parallel_results_identical_to_serial_under_faults(self, tmp_path):
        cells = _cells(4)
        target = cells[2].digest()
        serial = ExperimentEngine(jobs=1, cache=None).run_cells(cells)
        engine = ExperimentEngine(jobs=2, cache=None, policy=FAST)
        plan = HostFaultPlan(kill_cell=target, attempts=1,
                             state_dir=str(tmp_path))
        with installed(plan):
            recovered = engine.run_cells(cells)
        assert [r.fingerprint() for r in recovered] == \
            [r.fingerprint() for r in serial]


    def test_a_cell_error_does_not_wait_for_a_hung_sibling(self):
        """Fail-fast (no ``contain_errors``): the error leaves the pool at
        once and the work still in flight is abandoned, not waited for."""
        hung, bad = _cells(1)[0], _stream_cell(POISON)
        engine = ExperimentEngine(jobs=2, cache=None, policy=RetryPolicy())
        began = time.monotonic()
        with installed(HostFaultPlan(hang_cell=hung.digest(), hang_s=60.0)):
            with pytest.raises(TaskFailedError):
                engine.run_cells([hung, bad])
        assert time.monotonic() - began < 30


#: fault name -> (plan keywords around the target digest, cells quarantined)
FAULTS = {
    "poison": (lambda t, d: dict(kill_cell=t, attempts=100, state_dir=d), 1),
    "hang": (lambda t, d: dict(hang_cell=t, hang_s=60.0), 1),
    "transient": (lambda t, d: dict(kill_cell=t, attempts=1, state_dir=d), 0),
}


class TestAttribution:
    """A lane runs one cell at a time: every worker death and deadline is
    that cell's, and costs no sibling anything."""

    @pytest.mark.parametrize("fault", FAULTS)
    def test_every_fault_event_is_the_targets(self, fault, tmp_path):
        plan_kwargs, n_quarantined = FAULTS[fault]
        cells = _cells(6)
        target = cells[2].digest()
        events: list[CellEvent] = []
        engine = ExperimentEngine(jobs=2, cache=None, policy=FAST,
                                  progress=events.append)
        quarantined = []
        with installed(HostFaultPlan(**plan_kwargs(target, str(tmp_path)))):
            try:
                engine.run_cells(cells)
            except QuarantineError as err:
                quarantined = err.quarantined
        assert [q.digest for q in quarantined] == [target] * n_quarantined
        recovery = [e for e in events
                    if e.kind in ("retry", "deadline", "quarantine")]
        assert recovery
        assert {e.digest for e in recovery} == {target}
        assert all(e.label.startswith(cells[2].label) for e in recovery)
        done = Counter(e.digest for e in events if e.kind == "done")
        assert done == {cell.digest(): 1 for cell in cells
                        if not n_quarantined or cell.digest() != target}
        assert engine.metrics.executed == len(cells) - n_quarantined
        if fault == "poison":
            # exactly max_attempts workers died for it, not one more
            marker = tmp_path / f"attempts-{target[:16]}"
            assert int(marker.read_text()) == FAST.max_attempts

    def test_a_worker_dying_between_cells_is_one_retry(self, monkeypatch):
        """A reused lane whose idle worker was killed breaks at the next
        submit: that costs the submitted cell an attempt, not the batch."""
        pools = []

        class Recording(ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                pools.append(self)

        monkeypatch.setattr(engine_module, "ProcessPoolExecutor", Recording)
        events: list[CellEvent] = []

        def progress(event):
            if event.kind == "done" and not events:
                for pool in pools:  # the lane that just returned is idle
                    ExperimentEngine._kill_pool_workers(pool)
                time.sleep(0.3)  # let the executors notice the deaths
            if event.kind in ("done", "retry", "quarantine"):
                events.append(event)

        cells = _cells(5)
        engine = ExperimentEngine(jobs=2, cache=None, policy=FAST,
                                  progress=progress)
        results = engine.run_cells(cells)
        assert all(r is not None for r in results)
        retries = [e for e in events if e.kind == "retry"]
        assert retries and all(e.digest for e in retries)
        assert Counter(e.kind for e in events)["done"] == len(cells)


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(cell_deadline=0.0)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_base=-0.1)

    @pytest.mark.parametrize("removed", [
        "isolate_after", "max_pool_crashes", "poll_interval",
        "backoff_jitter", "seed", "job_idle_timeout",
    ])
    def test_removed_fields_are_gone(self, removed):
        with pytest.raises(TypeError):
            RetryPolicy(**{removed: 1})

    def test_backoff_is_capped_exponential(self):
        policy = RetryPolicy(backoff_base=0.1, backoff_cap=0.5)
        assert [policy.backoff(n) for n in (1, 2, 3, 4, 9)] \
            == [0.1, 0.2, 0.4, 0.5, 0.5]

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_deadlines_are_rejected(self, value, capsys):
        with pytest.raises(ValueError):
            RetryPolicy(cell_deadline=float(value))
        with pytest.raises(ValueError):
            ServeConfig(idle_timeout=float(value))
        assert main(["serve", "--idle-timeout", value, "--no-cache"]) == 2
        err = capsys.readouterr().err
        assert "idle_timeout" in err and len(err.splitlines()) == 1

    def test_quarantine_error_message_and_payload(self):
        from repro.resilience.policy import QuarantinedCell

        err = QuarantineError(
            [QuarantinedCell("w/P=4/app", "abc123", 3, "pool-crash")],
            [object(), None, object()],
        )
        assert "1 cell(s) quarantined" in str(err)
        assert "2/3 results completed" in str(err)
        assert err.quarantined[0].attempts == 3
