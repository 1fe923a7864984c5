"""Exporters: Chrome trace well-formedness, metrics JSONL, summaries."""

import io
import json
from pathlib import Path

import pytest

from repro.harness.runner import Mode, run_mode
from repro.obs import (
    Recorder,
    chrome_trace_events,
    export_chrome_trace,
    export_metrics_jsonl,
    format_summary,
)
from repro.obs.schema import validate
from repro.workloads import make_workload

SCHEMAS = Path(__file__).resolve().parents[2] / "schemas"


@pytest.fixture(scope="module")
def result():
    return run_mode(
        make_workload("synthetic", iterations=4), 8, Mode.CHAMELEON,
        instrument=Recorder(),
    )


@pytest.fixture(scope="module")
def trace_doc(result):
    return export_chrome_trace(result.obs)


class TestChromeTrace:
    def test_json_serializable_roundtrip(self, trace_doc):
        assert json.loads(json.dumps(trace_doc)) == trace_doc

    def test_events_sorted_by_timestamp(self, trace_doc):
        stamps = [
            e["ts"] for e in trace_doc["traceEvents"] if e["ph"] != "M"
        ]
        assert stamps == sorted(stamps)

    def test_pid_tid_are_the_rank(self, result, trace_doc):
        for event in trace_doc["traceEvents"]:
            assert event["pid"] == event["tid"]
            assert 0 <= event["pid"] < result.nprocs

    def test_one_lane_per_rank(self, result, trace_doc):
        span_lanes = {
            e["pid"] for e in trace_doc["traceEvents"] if e["ph"] == "X"
        }
        assert span_lanes == set(range(result.nprocs))
        names = {
            (e["pid"], e["args"]["name"])
            for e in trace_doc["traceEvents"]
            if e["ph"] == "M" and e["name"] == "process_name"
        }
        assert names == {(r, f"rank {r}") for r in range(result.nprocs)}

    def test_state_transition_instants_present(self, trace_doc):
        instants = [
            e
            for e in trace_doc["traceEvents"]
            if e["ph"] == "i" and e["name"] == "state_transition"
        ]
        assert instants
        assert all(e["s"] == "t" for e in instants)

    def test_timestamps_are_virtual_microseconds(self, result, trace_doc):
        horizon = result.max_time * 1e6
        for e in trace_doc["traceEvents"]:
            if e["ph"] != "M":
                assert 0 <= e["ts"] <= horizon * 1.001

    def test_matches_checked_in_schema(self, trace_doc):
        schema = json.loads(
            (SCHEMAS / "chrome_trace.schema.json").read_text()
        )
        assert validate(json.loads(json.dumps(trace_doc)), schema) == []

    def test_write_to_path(self, result, tmp_path):
        out = tmp_path / "t.json"
        export_chrome_trace(result.obs, str(out))
        assert json.loads(out.read_text())["otherData"]["generator"] == (
            "repro.obs"
        )

    def test_nested_spans_sorted_longest_first(self, result):
        events = chrome_trace_events(result.obs)
        timed = [e for e in events if e["ph"] != "M"]
        for a, b in zip(timed, timed[1:]):
            if a["ts"] == b["ts"] and a["pid"] == b["pid"]:
                assert a.get("dur", 0.0) >= b.get("dur", 0.0)


class TestMetricsJsonl:
    def test_rows_validate(self, result):
        buf = io.StringIO()
        n = export_metrics_jsonl(result.registry(), buf)
        lines = buf.getvalue().splitlines()
        assert len(lines) == n > 0
        schema = json.loads(
            (SCHEMAS / "metrics_row.schema.json").read_text()
        )
        for line in lines:
            assert validate(json.loads(line), schema) == []

    def test_accepts_obsdata(self, result, tmp_path):
        out = tmp_path / "m.jsonl"
        n = export_metrics_jsonl(result.obs, str(out))
        assert n == len(out.read_text().splitlines())


class TestSummary:
    def test_mentions_every_layer(self, result):
        text = format_summary(result.obs)
        assert "span time by category" in text
        assert "state transitions" in text
        assert "p2p/messages" in text
        assert f"{result.nprocs} ranks" in text

    def test_counts_fault_instants_by_name(self):
        from repro.obs import InstantEvent, ObsData

        obs = ObsData(instants=[
            InstantEvent(2, "crash", "fault", 0.5),
            InstantEvent(0, "op_timeout", "fault", 0.6),
            InstantEvent(1, "op_timeout", "fault", 0.7),
            InstantEvent(1, "marker", "chameleon", 0.7),
        ])
        lines = format_summary(obs).splitlines()
        at = lines.index("  fault instants:")
        assert [line.split() for line in lines[at + 1:at + 3]] == [
            ["crash", "1"], ["op_timeout", "2"]]
        assert "marker" not in "".join(lines)

    def test_empty_obs_does_not_crash(self):
        from repro.obs import ObsData

        assert "observability summary" in format_summary(ObsData())
