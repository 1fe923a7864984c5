"""CLI fault surface: run --faults, exit-code mapping, repro chaos."""

import json

import pytest

from repro import cli
from repro.cli import main
from repro.faults.plan import CrashFault, FaultPlan, MessageFaults


@pytest.fixture
def drop_plan(tmp_path):
    path = tmp_path / "plan.json"
    path.write_text(
        FaultPlan(seed=3, messages=MessageFaults(drop_prob=0.2)).to_json()
    )
    return str(path)


def test_run_with_faults(drop_plan, capsys):
    rc = main(
        ["run", "--workload", "uniform", "--nprocs", "4",
         "--iterations", "4", "--mode", "chameleon",
         "--faults", drop_plan, "--no-cache"]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "under fault plan" in out
    assert "fault events:" in out
    assert "drop=" in out


def test_fault_seed_requires_faults():
    with pytest.raises(SystemExit, match="--fault-seed requires"):
        main(["run", "--workload", "uniform", "--nprocs", "4",
              "--fault-seed", "1"])


def test_invalid_plan_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"bogus_key": 1}')
    rc = main(["run", "--workload", "uniform", "--nprocs", "4",
               "--faults", str(bad)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "invalid fault plan" in err
    assert "bogus_key" in err


def test_crash_rank_outside_world_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(
        FaultPlan(crashes=(CrashFault(rank=99, time=0.1),)).to_json()
    )
    rc = main(["run", "--workload", "uniform", "--nprocs", "4",
               "--faults", str(bad)])
    assert rc == 2
    assert "outside world" in capsys.readouterr().err


def test_traceback_flag_reraises(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"bogus_key": 1}')
    from repro.faults.plan import FaultPlanError

    with pytest.raises(FaultPlanError):
        main(["--traceback", "run", "--workload", "uniform",
              "--nprocs", "4", "--faults", str(bad)])


def test_chaos_single_scenario_with_report(tmp_path, capsys):
    report_path = tmp_path / "chaos.json"
    rc = main(
        ["chaos", "--workload", "uniform", "--nprocs", "4",
         "--iterations", "4", "--scenario", "drop-messages",
         "--report", str(report_path)]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "drop-messages" in out
    assert "reruns identical" in out
    report = json.loads(report_path.read_text())
    assert report["ok"] is True
    assert report["kind"] == "matrix" and report["version"] == 3
    (name,) = report["scenarios"]
    assert name == "drop-messages"
    scenario = report["scenarios"][name]
    assert scenario["recovered"] and scenario["deterministic"]
    assert scenario["plan"]["messages"]["drop_prob"] == 0.05
    assert "fidelity_delta_pct" in scenario


def test_chaos_unknown_scenario_rejected_before_the_baseline(capsys):
    with pytest.raises(SystemExit, match="unknown matrix chaos scenario"):
        main(["chaos", "--workload", "uniform", "--nprocs", "4",
              "--scenario", "nope"])
    assert "baseline:" not in capsys.readouterr().out


def test_chaos_error_inside_the_sweep_is_not_a_name_error(monkeypatch):
    # Only an unknown scenario name becomes a one-line `error:` exit; any
    # other ValueError from the sweep reaches the caller with its stack.
    def broken_sweep(*args, **kwargs):
        raise ValueError("boom inside a run")

    monkeypatch.setattr(cli, "run_fault_chaos", broken_sweep)
    with pytest.raises(ValueError, match="boom inside a run"):
        main(["chaos", "--workload", "uniform", "--nprocs", "4"])


@pytest.mark.parametrize("flags", [
    ["--workload", "uniform"],
    ["--nprocs", "16"],  # the default value, given explicitly
    ["--mode", "scalatrace", "--iterations", "3"],
    ["--problem-class", "A"],
])
def test_chaos_host_rejects_workload_flags(flags, monkeypatch, capsys):
    # The host suite runs no cell, so a workload flag is a usage error
    # before any scenario starts.
    def no_sweep(*args, **kwargs):
        raise AssertionError("the sweep must not start")

    monkeypatch.setattr(cli, "run_host_chaos", no_sweep)
    with pytest.raises(SystemExit) as exc:
        main(["chaos", "host", *flags])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "chaos host takes no workload flags" in err
    assert flags[0] in err
