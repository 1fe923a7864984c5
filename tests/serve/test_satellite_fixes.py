"""Regression tests for the harness/cache correctness fixes that ride
along with the serving PR: unique spill naming + in-flight detection,
the dead-worker kill guard, the bench throughput floor, the streamed-job
idle timeout, worker-exception pickling, and a cell error failing its
``run_cells`` batch.
"""

from __future__ import annotations

import os
import pickle

import pytest

from repro.harness.bench import WALL_FLOOR_S, matched_per_s
from repro.harness.cache import RunCache, _spill_path, _spill_writer_alive
from repro.harness.engine import ExperimentEngine, make_cell
from repro.harness.runner import Mode
from repro.serve.jobs import ServeConfig
from repro.simmpi.errors import TaskFailedError
from repro.workloads.stream import canonical_steps_json, normalize_steps


class TestSpillNaming:
    def test_spill_paths_are_unique(self, tmp_path):
        target = tmp_path / "entry.pkl"
        names = {_spill_path(target).name for _ in range(50)}
        assert len(names) == 50
        assert all(str(os.getpid()) in n for n in names)

    def test_concurrent_put_same_digest(self, tmp_path):
        """Two racing put()s of one digest never collide on a spill."""
        cache = RunCache(root=tmp_path / "cache")
        digest = "ab" * 32
        cache.put(digest, {"v": 1})
        cache.put(digest, {"v": 2})  # same name, fresh spill each time
        assert cache.get(digest) == {"v": 2}
        assert cache.verify().clean

    def test_verify_reports_live_writer_as_in_flight(self, tmp_path):
        cache = RunCache(root=tmp_path / "cache")
        digest = "cd" * 32
        cache.put(digest, {"v": 1})
        path = cache.path_for(digest)
        spill = _spill_path(path)  # carries our own (live) pid
        spill.write_bytes(b"partial")
        report = cache.verify()
        assert report.in_flight == [str(spill)]
        assert report.orphaned == []
        assert spill.exists()  # never removed, even with fix=True
        cache.verify(fix=True)
        assert spill.exists()

    def test_verify_reports_dead_writer_as_orphan(self, tmp_path):
        cache = RunCache(root=tmp_path / "cache")
        digest = "ef" * 32
        cache.put(digest, {"v": 1})
        path = cache.path_for(digest)
        # pid 2**22-ish beyond pid_max on default systems; certainly dead
        dead = path.parent / f"{path.name}.99999999-0.tmp"
        dead.write_bytes(b"partial")
        report = cache.verify()
        assert report.orphaned == [str(dead)]
        assert report.in_flight == []
        cache.verify(fix=True)
        assert not dead.exists()

    def test_legacy_tmp_names_stay_orphans(self, tmp_path):
        cache = RunCache(root=tmp_path / "cache")
        cache.put("aa" * 32, {"v": 1})
        legacy = cache.path_for("aa" * 32).parent / "spill.tmp"
        legacy.write_bytes(b"x")
        report = cache.verify()
        assert report.orphaned == [str(legacy)]

    def test_writer_alive_probe(self):
        assert _spill_writer_alive(
            __import__("pathlib").Path(f"e.pkl.{os.getpid()}-0.tmp")
        )
        assert not _spill_writer_alive(
            __import__("pathlib").Path("e.pkl.99999999-0.tmp")
        )
        assert not _spill_writer_alive(
            __import__("pathlib").Path("e.pkl.tmp")
        )


class TestKillGuard:
    def test_kill_pool_workers_skips_dead_handles(self):
        """None sentinels and reaped handles must not abort the sweep."""
        killed = []

        class DeadProc:
            def kill(self):
                raise ValueError("process object is closed")

        class LiveProc:
            def kill(self):
                killed.append(self)

        class FakePool:
            _processes = {1: None, 2: DeadProc(), 3: LiveProc()}

        ExperimentEngine._kill_pool_workers(FakePool())
        assert len(killed) == 1

    def test_kill_pool_workers_handles_missing_map(self):
        class Bare:
            _processes = None

        ExperimentEngine._kill_pool_workers(Bare())


class TestBenchFloor:
    def test_matched_per_s_clamps_zero_wall(self):
        assert matched_per_s(100, 0.0) == round(100 / WALL_FLOOR_S)

    def test_matched_per_s_above_floor_unchanged(self):
        assert matched_per_s(100, 2.0) == 50


class TestIdleTimeoutPolicy:
    """``ServeConfig.idle_timeout`` is the one statement of a streamed
    job's idle timeout."""

    def test_default(self):
        assert ServeConfig().idle_timeout == 300.0

    def test_non_positive_rejected(self):
        with pytest.raises(ValueError):
            ServeConfig(idle_timeout=0)

    def test_none_allowed(self):
        assert ServeConfig(idle_timeout=None).idle_timeout is None


class TestWorkerExceptionPickling:
    def test_task_failed_error_roundtrips(self):
        exc = TaskFailedError(3, ValueError("bad root"))
        back = pickle.loads(pickle.dumps(exc))
        assert isinstance(back, TaskFailedError)
        assert back.rank == 3
        assert str(back) == str(exc)


def _cell(steps, nprocs=4, mode=Mode.APP):
    return make_cell(
        "stream", nprocs, mode,
        workload_params={
            "steps_json": canonical_steps_json(normalize_steps(steps))
        },
    )


POISON = [{"ops": [{"op": "bcast", "root": 99}]}]


class TestContainErrors:
    def test_default_still_raises(self):
        engine = ExperimentEngine(jobs=0, cache=None)
        with pytest.raises(TaskFailedError):
            engine.run_cells([_cell(POISON)])
