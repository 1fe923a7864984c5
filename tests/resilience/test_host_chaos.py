"""The `repro chaos host` sweep and the HostFaultPlan machinery.

The full five-scenario sweep runs in CI (twice, diffed); here we keep to the
plan schema, a representative sweep subset, rerun determinism of the
report, and the CLI surface.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.cli import main
from repro.harness.engine import make_cell
from repro.harness.runner import Mode
from repro.resilience import HostFaultPlan, installed
from repro.resilience.chaos import (
    HOST_SCENARIOS,
    run_fault_chaos,
    run_host_chaos,
)
from repro.resilience.hostfaults import (
    ENV_HOST_FAULTS,
    HostFaultPlanError,
    active_plan,
)


class TestHostFaultPlan:
    def test_roundtrip(self):
        plan = HostFaultPlan(kill_cell="ab12", attempts=2, cache_mode="flip")
        assert HostFaultPlan.from_dict(plan.to_dict()) == plan

    def test_unknown_keys_rejected(self):
        with pytest.raises(HostFaultPlanError, match="unknown"):
            HostFaultPlan.from_dict({"kill_cells": "ab12"})

    def test_validation(self):
        with pytest.raises(HostFaultPlanError):
            HostFaultPlan(hang_s=-1.0).validate()
        with pytest.raises(HostFaultPlanError):
            HostFaultPlan(attempts=0).validate()
        with pytest.raises(HostFaultPlanError):
            HostFaultPlan(cache_mode="zero").validate()
        with pytest.raises(HostFaultPlanError):
            HostFaultPlan(kill_cell="a", hang_cell="b").validate()

    def test_installed_arms_and_disarms_env(self):
        plan = HostFaultPlan(hang_cell="ab12", hang_s=1.0)
        assert ENV_HOST_FAULTS not in os.environ
        with installed(plan):
            active = active_plan()
            assert active is not None
            found, owner = active
            assert found == plan
            assert owner == os.getpid()
        assert ENV_HOST_FAULTS not in os.environ

    def test_garbage_env_reads_as_no_plan(self, monkeypatch):
        monkeypatch.setenv(ENV_HOST_FAULTS, "{not json")
        assert active_plan() is None

    def test_empty_plan(self):
        assert HostFaultPlan().is_empty()
        assert not HostFaultPlan(kill_cell="ab12").is_empty()


class TestHostChaosSweep:
    def test_unknown_scenario_rejected(self):
        with pytest.raises(ValueError, match="unknown host chaos"):
            run_host_chaos(["melt-the-disk"])

    def test_cache_scenarios_recover_and_are_deterministic(self, tmp_path):
        report_path = tmp_path / "report.json"
        report = run_host_chaos(["corrupt-cache", "truncate-cache"],
                                report_path=str(report_path))
        assert report["ok"]
        for entry in report["scenarios"].values():
            assert entry["recovered"]
            assert entry["deterministic"]
            assert entry["corrupt_found"] == entry["damaged"]
            assert entry["recomputed_identical"]
        on_disk = json.loads(report_path.read_text())
        assert on_disk == report

    @pytest.mark.slow
    def test_pool_scenarios_recover(self):
        report = run_host_chaos(["kill-pool-worker", "poison-cell"])
        assert report["ok"]
        assert report["scenarios"]["kill-pool-worker"]["quarantined"] == 0
        assert report["scenarios"]["poison-cell"]["target_hit"]

    def test_report_has_no_host_specific_fields(self, tmp_path):
        # The CI job diffs two sweeps byte-for-byte: wall times and tmp
        # paths must never leak into the report.
        report = run_host_chaos(["corrupt-cache"],
                                report_path=str(tmp_path / "r.json"))
        text = (tmp_path / "r.json").read_text()
        assert "wall" not in text
        assert "/tmp" not in text and str(tmp_path) not in text


class TestOneSweep:
    def test_both_kinds_share_the_report_schema(self):
        cell = make_cell("uniform", 4, Mode.CHAMELEON,
                         workload_params={"iterations": 4})
        matrix = run_fault_chaos(cell, ["drop-messages"], seed=3)
        host = run_host_chaos(["corrupt-cache"])
        shared = {"version", "kind", "seed", "runs", "scenarios", "ok"}
        assert shared <= set(matrix) and shared <= set(host)
        assert set(matrix) - shared == {"workload", "nprocs", "mode",
                                         "baseline"}
        assert (matrix["kind"], host["kind"]) == ("matrix", "host")
        for report in (matrix, host):
            assert report["version"] == 3 and report["runs"] == 2
            assert report["ok"]
            for entry in report["scenarios"].values():
                assert entry["recovered"] and entry["deterministic"]
        assert list(matrix["scenarios"]) == ["drop-messages"]
        assert list(host["scenarios"]) == ["corrupt-cache"]


class TestChaosHostCLI:
    def test_cli_subset_runs_and_writes_report(self, tmp_path, capsys):
        report_path = tmp_path / "host.json"
        code = main(["chaos", "host", "--scenario", "corrupt-cache",
                     "--report", str(report_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "corrupt-cache" in out
        assert json.loads(report_path.read_text())["ok"]

    def test_cli_rejects_unknown_host_scenario(self):
        with pytest.raises(SystemExit, match="unknown host chaos"):
            main(["chaos", "host", "--scenario", "nope"])

    def test_cli_matrix_default_unchanged(self):
        # `repro chaos` without a kind still means the virtual-time
        # matrix; its scenario names must not be accepted by `host`.
        assert "crash-a-lead" not in HOST_SCENARIOS
