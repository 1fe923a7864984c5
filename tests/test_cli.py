"""CLI: run / info / replay / list / experiment plumbing."""

import argparse

import pytest

from repro.cli import build_parser, main


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


def test_info_matrix_expands_the_trace_once(tmp_path, capsys, monkeypatch):
    """The top senders are ranked from the matrix ``--matrix`` prints: one
    ``build_schedule`` per ``repro info``."""
    from repro.replay import replayer

    trace_file = str(tmp_path / "t.st")
    assert main(["run", "--workload", "lu", "--nprocs", "4",
                 "--mode", "scalatrace", "--iterations", "2",
                 "-o", trace_file]) == 0
    capsys.readouterr()
    calls = []
    build = replayer.build_schedule

    def counting(*args, **kwargs):
        calls.append(args)
        return build(*args, **kwargs)

    monkeypatch.setattr(replayer, "build_schedule", counting)
    assert main(["info", trace_file, "--matrix"]) == 0
    out = capsys.readouterr().out
    assert "top senders" in out and "communication matrix" in out
    assert len(calls) == 1


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


@pytest.mark.parametrize("key", ["collectives", "p2p"])
def test_per_kind_gate_keys_are_gone(key):
    """``gates`` replaced both per-kind switches; the old keys are errors
    that name the valid ones."""
    with pytest.raises(SystemExit, match=f"unknown --config key '{key}'; "
                                         "choose from network, gates, "
                                         "max_steps"):
        main(["run", "--workload", "uniform", "--nprocs", "4",
              "--config", f"{key}=simulated"])


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


#: unreadable trace files: what each one's error names
BAD_TRACES = {
    "missing": (None, "No such file"),
    "garbage": (b"\x89PNG\r\n\x1a\n\x00\xff", "cannot read trace"),
    "no-origin": (b"#scalatrace v2 nprocs=4\n", "no origin= field"),
    "version": (b"#scalatrace v9 nprocs=4 origin=0\n", "format 'v9'"),
}


@pytest.mark.parametrize("case", sorted(BAD_TRACES))
@pytest.mark.parametrize("command", ("info", "replay", "timeline", "diff"))
def test_an_unreadable_trace_is_one_error_line(tmp_path, capsys, command,
                                               case):
    """Exit 2 with one ``error:`` line, no traceback; ``repro diff`` keeps
    exit 1 for "the traces differ"."""
    content, names = BAD_TRACES[case]
    bad = tmp_path / "bad.st"
    if content is not None:
        bad.write_bytes(content)
    good = tmp_path / "good.st"
    good.write_text("#scalatrace v1 nprocs=4 origin=0\n", encoding="utf-8")
    argv = [command, str(bad)] if command != "diff" \
        else [command, str(good), str(bad)]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot read trace {str(bad)!r}: ")
    assert names in err and len(err.splitlines()) == 1


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


def test_app_run_under_faults_warns_once(tmp_path, capsys):
    from repro.faults.plan import FaultPlan, MessageFaults

    plan = tmp_path / "plan.json"
    plan.write_text(
        FaultPlan(seed=3, messages=MessageFaults(drop_prob=0.2)).to_json()
    )
    rc = main(
        ["run", "--workload", "uniform", "--nprocs", "4", "--mode", "app",
         "--iterations", "3", "--faults", str(plan), "--no-cache",
         "-o", str(tmp_path / "x.st")]
    )
    assert rc == 0
    captured = capsys.readouterr()
    assert "under fault plan" in captured.out
    assert captured.err.count("--output ignored") == 1


@pytest.mark.parametrize("argv", [
    ["run", "--workload", "uniform", "--nprocs", "0"],
    ["chaos", "--nprocs", "0"],
    ["replay", "t.st", "--nprocs", "-1"],
    ["timeline", "t.st", "--nprocs", "-2"],
    ["run", "--workload", "uniform", "--iterations", "-3"],
    ["run", "--workload", "uniform", "--call-frequency", "0"],
    ["run", "--workload", "uniform", "--jobs", "-2"],
    ["timeline", "t.st", "--width", "5"],
    ["serve", "--port", "70000"],
])
def test_out_of_range_numeric_flag_is_a_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "usage:" in err and "must be >=" in err


def test_run_traced_mode_does_not_warn(tmp_path, capsys):
    out_file = tmp_path / "t.st"
    rc = main(
        ["run", "--workload", "uniform", "--nprocs", "4",
         "--mode", "chameleon", "--iterations", "3", "-o", str(out_file)]
    )
    assert rc == 0
    assert "--output ignored" not in capsys.readouterr().err
    assert out_file.exists()


def test_engine_flags_and_cache_summary(tmp_path, capsys, monkeypatch):
    # REPRO_NO_CACHE would override --cache-dir and turn every hit off
    monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
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


# -- the CLI surface, pinned -------------------------------------------------

WORKLOADS = (
    "alternating", "amg", "bt", "cg", "emf", "groups", "lu", "lu_modified",
    "lulesh", "luw", "pop", "sp", "stream", "sweep3d", "synthetic", "uniform",
)
HELP = (("-h", "--help"), "help", argparse.SUPPRESS, None, False, 0, "help")

#: Every argument of every subcommand (``None`` = the top-level parser):
#: (option strings, dest, default, choices, required, nargs, action).
#: Help texts and ``type=`` converters are free to change; nothing else.
SURFACE = {
    None: [
        HELP,
        (('--traceback',), 'traceback', False, None, False, 0, 'store_true'),
    ],
    'list': [
        HELP,
    ],
    'run': [
        HELP,
        (('--workload',), 'workload', None, WORKLOADS, True, None, 'store'),
        (('--nprocs',), 'nprocs', 16, None, False, None, 'store'),
        (('--mode',), 'mode', 'chameleon',
         ('app', 'scalatrace', 'chameleon', 'acurdion'), False, None, 'store'),
        (('--problem-class',), 'problem_class', '', None, False, None,
         'store'),
        (('--iterations',), 'iterations', 0, None, False, None, 'store'),
        (('--call-frequency',), 'call_frequency', 1, None, False, None,
         'store'),
        (('-o', '--output'), 'output', '', None, False, None, 'store'),
        (('--obs-out',), 'obs_out', '', None, False, None, 'store'),
        (('--faults',), 'faults', '', None, False, None, 'store'),
        (('--fault-seed',), 'fault_seed', None, None, False, None, 'store'),
        (('--config',), 'config', None, None, False, None, 'append'),
        (('--jobs',), 'jobs', None, None, False, None, 'store'),
        (('--no-cache',), 'no_cache', False, None, False, 0, 'store_true'),
        (('--cache-dir',), 'cache_dir', '', None, False, None, 'store'),
        (('--progress',), 'progress', False, None, False, 0, 'store_true'),
    ],
    'info': [
        HELP,
        ((), 'trace', None, None, True, None, 'store'),
        (('--matrix',), 'matrix', False, None, False, 0, 'store_true'),
    ],
    'replay': [
        HELP,
        ((), 'trace', None, None, True, None, 'store'),
        (('--nprocs',), 'nprocs', 0, None, False, None, 'store'),
        (('--reference',), 'reference', None, None, False, None, 'store'),
    ],
    'timeline': [
        HELP,
        ((), 'trace', None, None, True, None, 'store'),
        (('--nprocs',), 'nprocs', 0, None, False, None, 'store'),
        (('--width',), 'width', 72, None, False, None, 'store'),
    ],
    'diff': [
        HELP,
        ((), 'trace_a', None, None, True, None, 'store'),
        ((), 'trace_b', None, None, True, None, 'store'),
        (('--threshold',), 'threshold', 0.95, None, False, None, 'store'),
    ],
    'trace': [
        HELP,
        ((), 'run', None, None, True, None, 'store'),
        (('-o', '--output'), 'output', '', None, False, None, 'store'),
    ],
    'stats': [
        HELP,
        ((), 'run', None, None, True, None, 'store'),
        (('--jsonl',), 'jsonl', '', None, False, None, 'store'),
    ],
    'chaos': [
        HELP,
        ((), 'kind', 'matrix', ('matrix', 'host'), False, '?', 'store'),
        (('--workload',), 'workload', 'bt', WORKLOADS, False, None, 'store'),
        (('--nprocs',), 'nprocs', 16, None, False, None, 'store'),
        (('--problem-class',), 'problem_class', '', None, False, None,
         'store'),
        (('--iterations',), 'iterations', 0, None, False, None, 'store'),
        (('--mode',), 'mode', 'chameleon',
         ('scalatrace', 'chameleon', 'acurdion'), False, None, 'store'),
        (('--fault-seed',), 'fault_seed', None, None, False, None, 'store'),
        (('--scenario',), 'scenario', None, None, False, None, 'append'),
        (('--config',), 'config', None, None, False, None, 'append'),
        (('--report',), 'report', '', None, False, None, 'store'),
    ],
    'cache': [
        HELP,
        ((), 'action', None, ('verify',), True, None, 'store'),
        (('--fix',), 'fix', False, None, False, 0, 'store_true'),
        (('--cache-dir',), 'cache_dir', '', None, False, None, 'store'),
        (('--report',), 'report', '', None, False, None, 'store'),
    ],
    'bench': [
        HELP,
        (('--p',), 'p', None, None, False, None, 'append'),
        (('--kernel',), 'kernel', None,
         ('allreduce_barrier', 'halo_exchange'), False, None, 'append'),
        (('-o', '--output'), 'output', 'BENCH_scaling.json', None, False,
         None, 'store'),
        (('--baseline',), 'baseline', '', None, False, None, 'store'),
        (('--tolerance',), 'tolerance', 0.2, None, False, None, 'store'),
        (('--config',), 'config', None, None, False, None, 'append'),
    ],
    'config': [
        HELP,
        ((), 'action', None, ('show',), True, None, 'store'),
        (('--config',), 'config', None, None, False, None, 'append'),
    ],
    'experiment': [
        HELP,
        ((), 'name', None, None, True, None, 'store'),
        (('--export',), 'export', '', None, False, None, 'store'),
        (('--jobs',), 'jobs', None, None, False, None, 'store'),
        (('--no-cache',), 'no_cache', False, None, False, 0, 'store_true'),
        (('--cache-dir',), 'cache_dir', '', None, False, None, 'store'),
        (('--progress',), 'progress', False, None, False, 0, 'store_true'),
    ],
    'serve': [
        HELP,
        (('--host',), 'host', '127.0.0.1', None, False, None, 'store'),
        (('--port',), 'port', 8537, None, False, None, 'store'),
        (('--max-stream-jobs',), 'max_stream_jobs', 32, None, False, None,
         'store'),
        (('--idle-timeout',), 'idle_timeout', 300.0, None, False, None,
         'store'),
        (('--no-cache',), 'no_cache', False, None, False, 0, 'store_true'),
        (('--cache-dir',), 'cache_dir', '', None, False, None, 'store'),
    ],
}


def _surface(parser: argparse.ArgumentParser) -> list[tuple]:
    rows = []
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            continue
        kind = type(action).__name__.strip("_").removesuffix("Action")
        rows.append((
            tuple(action.option_strings), action.dest, action.default,
            None if action.choices is None else tuple(action.choices),
            action.required, action.nargs,
            {"StoreTrue": "store_true"}.get(kind, kind.lower()),
        ))
    return rows


def _canonical(rows: list[tuple]) -> tuple[list[tuple], list[tuple]]:
    """Positionals in order; optionals in any order."""
    return ([r for r in rows if not r[0]],
            sorted((r for r in rows if r[0]), key=repr))


def test_cli_surface_is_pinned():
    parser = build_parser()
    (sub,) = (a for a in parser._actions
              if isinstance(a, argparse._SubParsersAction))
    assert list(sub.choices) == [name for name in SURFACE if name]
    actual = {None: parser, **sub.choices}
    for name, rows in SURFACE.items():
        assert _canonical(_surface(actual[name])) == _canonical(rows), name
