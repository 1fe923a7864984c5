"""CLI observability surface: --trace-out/--metrics-out/--obs-out, trace, stats."""

import json

import pytest

from repro.cli import main


@pytest.fixture(scope="module")
def obs_run(tmp_path_factory):
    """One instrumented synthetic run with every output flavour written."""
    tmp = tmp_path_factory.mktemp("obs")
    paths = {
        "trace": str(tmp / "t.json"),
        "metrics": str(tmp / "m.jsonl"),
        "bundle": str(tmp / "run.obs.json"),
    }
    rc = main(
        ["run", "--workload", "synthetic", "--nprocs", "4", "--iterations",
         "3", "--mode", "chameleon", "--no-cache",
         "--trace-out", paths["trace"],
         "--metrics-out", paths["metrics"],
         "--obs-out", paths["bundle"]]
    )
    assert rc == 0
    return paths


def test_trace_out_is_valid_chrome_trace(obs_run):
    with open(obs_run["trace"], encoding="utf-8") as fh:
        doc = json.load(fh)
    events = doc["traceEvents"]
    assert events and doc["otherData"]["generator"] == "repro.obs"
    # one span lane per rank, with state-transition instants on them
    span_lanes = {e["pid"] for e in events if e["ph"] == "X"}
    assert span_lanes == {0, 1, 2, 3}
    assert any(
        e["ph"] == "i" and e["name"] == "state_transition" for e in events
    )
    stamps = [e["ts"] for e in events if e["ph"] != "M"]
    assert stamps == sorted(stamps)


def test_metrics_out_is_jsonl(obs_run):
    with open(obs_run["metrics"], encoding="utf-8") as fh:
        rows = [json.loads(line) for line in fh]
    assert rows
    names = {r["name"] for r in rows}
    assert any(n.startswith("coll/") for n in names)
    assert any(n.startswith("chameleon/") for n in names)


def _metric_total(path, name):
    with open(path, encoding="utf-8") as fh:
        rows = [json.loads(line) for line in fh]
    return sum(r["value"] for r in rows if r["name"] == name)


def test_run_config_asks_for_the_per_message_view(obs_run, tmp_path):
    """The recorder records what ran; ``--config`` picks what runs."""
    assert _metric_total(obs_run["metrics"], "coll/fast_hits") > 0
    driven = str(tmp_path / "driven.jsonl")
    rc = main(
        ["run", "--workload", "synthetic", "--nprocs", "4", "--iterations",
         "3", "--mode", "chameleon", "--no-cache", "--metrics-out", driven,
         "--config", "gates=simulated"]
    )
    assert rc == 0
    assert _metric_total(driven, "coll/fast_hits") == 0
    assert _metric_total(driven, "p2p/messages") \
        > _metric_total(obs_run["metrics"], "p2p/messages")


def test_trace_subcommand(obs_run, tmp_path, capsys):
    out = str(tmp_path / "exported.json")
    assert main(["trace", obs_run["bundle"], "-o", out]) == 0
    assert "ui.perfetto.dev" in capsys.readouterr().out
    with open(out, encoding="utf-8") as fh:
        exported = json.load(fh)
    with open(obs_run["trace"], encoding="utf-8") as fh:
        direct = json.load(fh)
    assert exported == direct  # offline export == live export


def test_stats_subcommand(obs_run, tmp_path, capsys):
    jsonl = str(tmp_path / "stats.jsonl")
    assert main(["stats", obs_run["bundle"], "--jsonl", jsonl]) == 0
    out = capsys.readouterr().out
    assert "observability summary" in out
    assert "state transitions" in out
    with open(jsonl, encoding="utf-8") as fh:
        assert all(json.loads(line) for line in fh)


def test_trace_rejects_chrome_trace_input(obs_run):
    with pytest.raises(SystemExit, match="Chrome trace"):
        main(["trace", obs_run["trace"]])


def test_trace_rejects_missing_file():
    with pytest.raises(SystemExit, match="cannot read"):
        main(["trace", "/nonexistent/run.obs.json"])


def test_plain_run_stays_uninstrumented(capsys):
    rc = main(
        ["run", "--workload", "synthetic", "--nprocs", "4", "--iterations",
         "3", "--mode", "app", "--no-cache"]
    )
    assert rc == 0
    assert "chrome trace" not in capsys.readouterr().out
