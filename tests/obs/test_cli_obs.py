"""CLI observability surface: ``run --obs-out`` and its exporters, trace
and stats."""

import json
import shutil
from pathlib import Path

import pytest

from repro.cli import main
from repro.obs import MetricsRegistry, ObsData
from repro.obs.schema import validate

SCHEMAS = Path(__file__).resolve().parents[2] / "schemas"

#: a bundle as written while the registry still had gauge and histogram
#: kinds: its metrics carry ``gauges`` and ``histograms`` lists beside the
#: counters
OLD_BUNDLE = {
    "version": 1,
    "meta": {"workload": "synthetic", "nprocs": 2, "mode": "chameleon"},
    "spans": [{"rank": 0, "name": "vote", "cat": "chameleon",
               "start": 0.0, "end": 1e-05, "args": {"state": "AT"}}],
    "instants": [{"rank": 1, "name": "state_transition", "cat": "state",
                  "ts": 1e-05, "args": {"from": "start", "to": "AT"}}],
    "metrics": {
        "counters": [
            {"key": ["p2p/messages", 0, None, "send"], "value": 4.0},
            {"key": ["tracer/record_time", 1, None, None], "value": 2e-06},
        ],
        "gauges": [
            {"key": ["marker/is_lead", 0, None, None], "value": 1.0},
            {"key": ["space/bytes", 1, "L", None], "value": 512.0},
        ],
        "histograms": [
            {"key": ["p2p/recv_latency", 0, None, None], "count": 2,
             "sum": 3e-06, "min": 1e-06, "max": 2e-06, "mean": 1.5e-06,
             "buckets": {"-19": 2}},
        ],
    },
}


def _instrumented_run(tmp, *extra) -> dict[str, str]:
    """A synthetic Chameleon run's bundle, exported by ``repro trace`` and
    ``repro stats --jsonl``."""
    paths = {
        "trace": str(tmp / "t.json"),
        "metrics": str(tmp / "m.jsonl"),
        "bundle": str(tmp / "run.obs.json"),
    }
    rc = main(
        ["run", "--workload", "synthetic", "--nprocs", "4", "--iterations",
         "3", "--mode", "chameleon", "--no-cache",
         "--obs-out", paths["bundle"], *extra]
    )
    assert rc == 0
    assert main(["trace", paths["bundle"], "-o", paths["trace"]]) == 0
    assert main(["stats", paths["bundle"], "--jsonl", paths["metrics"]]) == 0
    return paths


@pytest.fixture(scope="module")
def obs_run(tmp_path_factory):
    return _instrumented_run(tmp_path_factory.mktemp("obs"))


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
    """The bundle holds the run's whole registry: the live metrics and the
    per-rank tracer and Chameleon statistics."""
    with open(obs_run["metrics"], encoding="utf-8") as fh:
        rows = [json.loads(line) for line in fh]
    assert rows
    names = {r["name"] for r in rows}
    assert any(n.startswith("coll/") for n in names)
    assert {"tracer/events_recorded", "chameleon/k_used"} <= names


def _metric_total(path, name):
    with open(path, encoding="utf-8") as fh:
        rows = [json.loads(line) for line in fh]
    return sum(r["value"] for r in rows if r["name"] == name)


def test_run_config_asks_for_the_per_message_view(obs_run, tmp_path):
    """The recorder records what ran; ``--config`` picks what runs."""
    assert _metric_total(obs_run["metrics"], "coll/fast_hits") > 0
    driven = _instrumented_run(tmp_path, "--config", "gates=simulated")[
        "metrics"]
    assert _metric_total(driven, "coll/fast_hits") == 0
    assert _metric_total(driven, "p2p/messages") \
        > _metric_total(obs_run["metrics"], "p2p/messages")


def test_trace_subcommand(obs_run, tmp_path, capsys):
    """Without ``-o`` the export lands next to the bundle."""
    bundle = shutil.copyfile(obs_run["bundle"], tmp_path / "copy.obs.json")
    assert main(["trace", str(bundle)]) == 0
    assert "ui.perfetto.dev" in capsys.readouterr().out
    with open(tmp_path / "copy.obs.trace.json", encoding="utf-8") as fh:
        exported = json.load(fh)
    with open(obs_run["trace"], encoding="utf-8") as fh:
        assert exported == json.load(fh)


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


def test_a_bundle_with_gauges_still_loads(tmp_path):
    """The counters load; the gauges and histograms are ignored, and the
    rows ``repro stats --jsonl`` writes from such a bundle fit the schema."""
    names = ["p2p/messages", "tracer/record_time"]
    reg = MetricsRegistry.from_dict(OLD_BUNDLE["metrics"])
    assert reg.names() == names
    assert reg.value("p2p/messages", op="send") == 4.0
    assert list(reg.to_dict()) == ["counters"]
    obs = ObsData.from_dict(OLD_BUNDLE)
    assert obs.metrics.names() == names and len(obs.spans) == 1
    bundle, jsonl = tmp_path / "old.obs.json", tmp_path / "old.jsonl"
    bundle.write_text(json.dumps(OLD_BUNDLE), encoding="utf-8")
    assert main(["stats", str(bundle), "--jsonl", str(jsonl)]) == 0
    rows = [json.loads(line) for line in jsonl.read_text().splitlines()]
    assert sorted(r["name"] for r in rows) == names
    schema = json.loads((SCHEMAS / "metrics_row.schema.json").read_text())
    for row in rows:
        assert validate(row, schema) == []
