"""Tests of the pipeline benchmark's own machinery (not part of tier-1).

    PYTHONPATH=src python -m pytest benchmarks/pipeline
"""

from __future__ import annotations

import json
import sys
import time

import pytest

import child
import gen_stream
import run
from spans import SpanLog, self_times

from repro.obs.schema import validate as schema_validate
from repro.scalatrace.inter import merge_traces
from repro.scalatrace.signatures import StackWalker
from repro.serve.protocol import event_schema
from repro.workloads.stream import normalize_steps


# -- self-time arithmetic -------------------------------------------------


def test_self_time_nested_adjacent_recursive():
    # 0: [0, 10] parent of 1 and 2 (adjacent); 2 is parent of 3 (nested);
    # 4: [10, 12] a sibling root
    start = [0.0, 1.0, 4.0, 5.0, 10.0]
    end = [10.0, 3.0, 9.0, 6.0, 12.0]
    parent = [-1, 0, 0, 2, -1]
    assert self_times(start, end, parent) == [3.0, 2.0, 4.0, 1.0, 2.0]
    # the self times of a tree add up to its root's duration
    assert sum(self_times(start, end, parent)[:4]) == 10.0


def test_recursive_callable_is_counted_once():
    log = SpanLog()

    def fact(n: int) -> int:
        time.sleep(0.002)
        return 1 if n <= 1 else n * wrapped(n - 1)

    wrapped = log.wrap(fact, "fact")
    log.begin_run("r")
    t0 = time.perf_counter()
    assert wrapped(4) == 24
    wall = time.perf_counter() - t0
    totals = log.totals()[0]["fact"]
    assert totals["calls"] == 4
    assert log.parent == [-1, 0, 1, 2]
    # summed durations double-count the recursion, self time does not
    assert totals["dur_s"] > totals["self_s"]
    assert totals["self_s"] == pytest.approx(log.end[0] - log.start[0])
    assert totals["self_s"] <= wall


def test_runs_split_spans_and_spans_nest():
    log = SpanLog()
    inner = log.wrap(lambda: None, "inner")
    outer = log.wrap(lambda: (inner(), inner()), "outer")
    log.begin_run("a")
    outer()
    log.begin_run("b")
    inner()
    assert log.run_bounds(0) == (0, 3) and log.run_bounds(1) == (3, 4)
    first, second = log.totals()
    assert first["inner"]["calls"] == 2 and first["outer"]["calls"] == 1
    assert list(second) == ["inner"]
    assert log.parent == [-1, 0, 0, -1]


# -- patching ---------------------------------------------------------------


def _bindings(fn) -> list[tuple[str, str]]:
    return [
        (name, attr)
        for name, module in list(sys.modules.items())
        if module is not None and name.split(".")[0] == "repro"
        for attr, value in list(vars(module).items())
        if value is fn
    ]


def test_wrappers_patch_every_binding_and_restore():
    before = _bindings(merge_traces)
    # the defining module, the package re-export and the two importers
    assert {m for m, _ in before} >= {
        "repro.scalatrace.inter", "repro.scalatrace",
        "repro.scalatrace.tracer", "repro.core.online",
    }
    capture = StackWalker.__dict__["capture"]
    skip = StackWalker._SKIP_FRAGMENTS
    log = SpanLog()
    child.install(log)
    try:
        assert _bindings(merge_traces) == []
        assert StackWalker.__dict__["capture"].__wrapped__ is capture
        assert StackWalker._SKIP_FRAGMENTS != skip
    finally:
        log.restore()
    assert _bindings(merge_traces) == before
    assert StackWalker.__dict__["capture"] is capture
    assert StackWalker._SKIP_FRAGMENTS == skip
    assert log._patches == []


# -- the generated stream program ---------------------------------------------


def test_stream_program_is_seeded_valid_and_grouped():
    program = gen_stream.generate(7, 64, 64)
    assert program == gen_stream.generate(7, 64, 64)
    assert program != gen_stream.generate(8, 64, 64)
    schema = event_schema()
    assert schema is not None
    for event in program:
        assert schema_validate(event, schema) == []
    steps = normalize_steps(program)
    assert len(steps) == 64
    ops = [op for step in steps for op in step["ops"]]
    assert {op["op"] for op in ops} == {
        "compute", "shift", "allreduce", "bcast", "barrier"}
    assert all(op["groups"] >= 3 for op in ops if op["op"] == "shift")
    assert all("{group}" in op["frame"] for op in ops if op["op"] == "shift")
    # one phase change: the steps' op lists take exactly three shapes
    shapes = [json.dumps(step, sort_keys=True) for step in steps]
    assert len(set(shapes)) == 3
    assert shapes == sorted(shapes, key=shapes.index)


# -- BENCHMARK.json names the same things as run.py ---------------------------


def test_benchmark_json_matches_run_tables():
    doc = json.loads((run.REPO / "BENCHMARK.json").read_text())
    assert doc["paths"] == ["benchmarks/pipeline"]
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == list(run.E2E)
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == list(run.LAYER)
    assert any(m["name"] == "setup_s" for m in doc["end_to_end"])


# -- children ---------------------------------------------------------------


def test_scalatrace_cell_bypasses_core():
    result = run.measure_traced("sweep_scalatrace", seed=5, quick=True)
    assert result["tally"].problems == []
    metrics = result["metrics"]
    assert metrics["core.observe_calls"]["value"] == 0
    assert metrics["core.cluster_calls"]["value"] == 0
    assert metrics["scalatrace.inter_merge_calls"]["value"] > 0
    assert metrics["obs.attributed_x"]["value"] == pytest.approx(1, abs=0.05)


def test_quick_smoke(capsys):
    t0 = time.monotonic()
    assert run.main(["--quick", "--seed", "3"]) == 0
    assert time.monotonic() - t0 < 20
    lines = [json.loads(line) for line in capsys.readouterr().out.splitlines()
             if line.startswith("{")]
    assert len(lines) == len(run.WORKLOADS)
    for line in lines:
        assert line["correct"] and line["failed"] == 0
        assert line["comparable"] is False
        assert set(line["metrics"]) == {name for name, _ in run.E2E}
        assert all(m["value"] > 0 for m in line["metrics"].values())
