"""CLI: run / info / replay / list / experiment plumbing."""

import pytest

from repro.cli import main


def test_list(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "bt" in out and "emf" in out
    assert "table2" in out and "fig9" in out


def test_run_app_mode(capsys):
    rc = main(
        ["run", "--workload", "uniform", "--nprocs", "4", "--mode", "app",
         "--iterations", "3"]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "application time" in out


def test_run_and_inspect_and_replay(tmp_path, capsys):
    trace_file = str(tmp_path / "t.st")
    rc = main(
        [
            "run", "--workload", "bt", "--nprocs", "4",
            "--problem-class", "A", "--iterations", "4",
            "--call-frequency", "2", "--mode", "chameleon",
            "-o", trace_file,
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "chameleon overhead" in out
    assert "written to" in out

    assert main(["info", trace_file]) == 0
    out = capsys.readouterr().out
    assert "PRSD events" in out
    assert "events by operation" in out

    assert main(["info", trace_file, "--matrix"]) == 0
    out = capsys.readouterr().out
    assert "communication matrix" in out

    assert main(["replay", trace_file]) == 0
    out = capsys.readouterr().out
    assert "replay time" in out

    assert main(["replay", trace_file, "--reference", "0.01"]) == 0
    out = capsys.readouterr().out
    assert "accuracy vs reference" in out


def test_run_scalatrace_mode(capsys):
    rc = main(
        ["run", "--workload", "uniform", "--nprocs", "4", "--iterations",
         "4", "--mode", "scalatrace"]
    )
    assert rc == 0
    assert "scalatrace overhead" in capsys.readouterr().out


def test_experiment_unknown(capsys):
    assert main(["experiment", "fig99"]) == 2
    assert "unknown experiment" in capsys.readouterr().err


@pytest.mark.slow
def test_experiment_table3(capsys):
    assert main(["experiment", "table3"]) == 0
    assert "Table III" in capsys.readouterr().out


def test_bad_workload_rejected():
    with pytest.raises(SystemExit):
        main(["run", "--workload", "does-not-exist"])


def test_removed_config_key_rejected():
    with pytest.raises(SystemExit, match="unknown --config key 'shards'"):
        main(["bench", "--p", "4", "--config", "shards=auto"])


def test_timeline_and_diff(tmp_path, capsys):
    a = str(tmp_path / "a.st")
    b = str(tmp_path / "b.st")
    for path, iters in ((a, "4"), (b, "8")):
        assert main(
            ["run", "--workload", "uniform", "--nprocs", "4", "--iterations",
             iters, "--mode", "scalatrace", "-o", path]
        ) == 0
    capsys.readouterr()

    assert main(["timeline", a, "--width", "40"]) == 0
    out = capsys.readouterr().out
    assert "rank    0" in out and "busy" in out

    assert main(["diff", a, a]) == 0
    out = capsys.readouterr().out
    assert "similarity 1.0000" in out

    # different iteration counts: similarity drops below the threshold
    assert main(["diff", a, b, "--threshold", "0.99"]) == 1


def test_run_app_mode_warns_on_ignored_output(tmp_path, capsys):
    out_file = tmp_path / "app.st"
    rc = main(
        ["run", "--workload", "uniform", "--nprocs", "4", "--mode", "app",
         "--iterations", "3", "-o", str(out_file)]
    )
    assert rc == 0
    captured = capsys.readouterr()
    assert "--output ignored" in captured.err
    assert "APP mode" in captured.err
    assert not out_file.exists()


def test_run_traced_mode_does_not_warn(tmp_path, capsys):
    out_file = tmp_path / "t.st"
    rc = main(
        ["run", "--workload", "uniform", "--nprocs", "4",
         "--mode", "chameleon", "--iterations", "3", "-o", str(out_file)]
    )
    assert rc == 0
    assert "--output ignored" not in capsys.readouterr().err
    assert out_file.exists()


def test_engine_flags_and_cache_summary(tmp_path, capsys):
    cache_dir = str(tmp_path / "cache")
    args = ["experiment", "table4", "--cache-dir", cache_dir, "--jobs", "1"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert "engine:" in first and "0 cache hits" in first
    assert main(args) == 0
    second = capsys.readouterr().out
    assert "hit rate 100%" in second

    assert main(args + ["--no-cache"]) == 0
    third = capsys.readouterr().out
    assert "0 cache hits" in third


def test_run_with_progress_flag(tmp_path, capsys):
    rc = main(
        ["run", "--workload", "uniform", "--nprocs", "4", "--mode", "app",
         "--iterations", "3", "--no-cache", "--progress"]
    )
    assert rc == 0
    err = capsys.readouterr().err
    assert "[engine]" in err and "done" in err
