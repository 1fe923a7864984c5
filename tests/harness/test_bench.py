"""Unit tests for the scaling-benchmark harness (fast: tiny P only)."""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.cli import main
from repro.harness.bench import (
    EXTRA_POINTS,
    SCHEMA_ID,
    WALL_FLOOR_S,
    compare,
    load_bench,
    run_scaling_bench,
    save_bench,
)
from repro.obs.schema import validate
from repro.simmpi import SimConfig

REPO = pathlib.Path(__file__).resolve().parents[2]
SCHEMA = json.loads(
    (REPO / "schemas" / "bench_scaling.schema.json").read_text(encoding="utf-8")
)


def _doc(*cells: tuple) -> dict:
    """Build a v6 document from (kernel, nprocs, wall) cells."""
    return {
        "schema": SCHEMA_ID,
        "ps": sorted({c[1] for c in cells}),
        "kernels": sorted({c[0] for c in cells}),
        "config": {"gates": "fast", "max_steps": None},
        "results": [
            {
                "kernel": c[0],
                "nprocs": c[1],
                "wall_s": c[2],
                "peak_rss_kb": 1024,
                "engine_steps": 10,
                "messages_matched": 100,
                "matched_per_s": 1000,
                "collectives_fast": 12,
                "p2p_fast": 3,
                "virtual_makespan_s": 1e-4,
            }
            for c in cells
        ],
    }


class TestCompareGate:
    def test_within_tolerance_passes(self):
        base = _doc(("allreduce_barrier", 256, 1.0))
        cur = _doc(("allreduce_barrier", 256, 1.15))
        assert compare(cur, base, tolerance=0.2) == []

    def test_regression_beyond_tolerance_fails(self):
        base = _doc(("allreduce_barrier", 256, 1.0))
        cur = _doc(("allreduce_barrier", 256, 1.5))
        problems = compare(cur, base, tolerance=0.2)
        assert len(problems) == 1
        assert "allreduce_barrier @ P=256" in problems[0]

    def test_speedup_always_passes(self):
        base = _doc(("halo_exchange", 1024, 2.0))
        cur = _doc(("halo_exchange", 1024, 0.1))
        assert compare(cur, base, tolerance=0.2) == []

    def test_missing_cell_fails(self):
        base = _doc(("halo_exchange", 4096, 1.0))
        cur = _doc(("halo_exchange", 256, 1.0))
        problems = compare(cur, base, tolerance=0.2)
        assert problems and "missing" in problems[0]

    def test_extra_current_cells_ignored(self):
        base = _doc(("halo_exchange", 256, 1.0))
        cur = _doc(("halo_exchange", 256, 1.0), ("halo_exchange", 512, 99.0))
        assert compare(cur, base, tolerance=0.2) == []

    def test_noise_floor_absorbs_micro_baselines(self):
        # A 1 ms baseline must not fail on a 30 ms run: both are timer
        # noise, and the gate measures against the floor instead.
        base = _doc(("allreduce_barrier", 4, 0.001))
        cur = _doc(("allreduce_barrier", 4, WALL_FLOOR_S))
        assert compare(cur, base, tolerance=0.2) == []

    def test_noise_floor_clamps_both_sides(self):
        # A zero-wall cell (clock quantization) passes against any
        # sub-floor baseline, and a sub-floor current run passes against
        # a zero-wall baseline: the ratio is floor/floor, not x/0.
        base = _doc(("allreduce_barrier", 4, 0.0))
        cur = _doc(("allreduce_barrier", 4, 0.04))
        assert compare(cur, base, tolerance=0.2) == []
        assert compare(base, cur, tolerance=0.2) == []


class TestBenchDocument:
    def test_tiny_matrix_validates_against_schema(self):
        doc = run_scaling_bench(ps=(4, 8))
        assert validate(doc, SCHEMA) == []
        assert len(doc["results"]) == 4  # 2 kernels x 2 Ps, no extra points
        for r in doc["results"]:
            assert r["engine_steps"] > 0
            if r["kernel"] == "halo_exchange":
                # P2P traffic still goes through the mailbox under the
                # collective fast path.
                assert r["messages_matched"] > 0
            else:
                # allreduce_barrier is pure collectives: the fast path
                # replays them without mailbox matches.
                assert r["messages_matched"] == 0
                assert r["collectives_fast"] == 3 * r["nprocs"]

    def test_simulated_mode_still_matches_messages(self):
        doc = run_scaling_bench(ps=(4,), kernels=("allreduce_barrier",),
                                sim=SimConfig(gates="simulated"))
        assert doc["config"]["gates"] == "simulated"
        (r,) = doc["results"]
        assert r["messages_matched"] > 0
        assert r["collectives_fast"] == 0

    def test_retired_collectives_kwarg_raises(self):
        with pytest.raises(TypeError, match="collectives"):
            run_scaling_bench(ps=(4,), kernels=("allreduce_barrier",),
                              collectives="simulated")

    def test_p2p_simulated_mode_disables_fast_path(self):
        doc = run_scaling_bench(ps=(4,), kernels=("halo_exchange",),
                                sim=SimConfig(gates="simulated"))
        assert doc["config"]["gates"] == "simulated"
        (r,) = doc["results"]
        assert r["p2p_fast"] == 0
        assert r["messages_matched"] > 0

    def test_p2p_fast_path_resolves_the_declared_halo(self):
        doc = run_scaling_bench(ps=(4,), kernels=("halo_exchange",))
        (r,) = doc["results"]
        # every rank's declared halo resolves through the gate; only the
        # wildcard drain round still goes through the mailbox
        assert r["p2p_fast"] == 4
        assert r["messages_matched"] == 4

    def test_committed_baseline_is_valid_and_covers_the_ladder(self):
        doc = load_bench(str(REPO / "benchmarks" / "BENCH_scaling.json"))
        assert validate(doc, SCHEMA) == []
        cells = [(r["kernel"], r["nprocs"]) for r in doc["results"]]
        assert len(set(cells)) == len(cells)
        for p in (256, 1024, 4096, 16384):
            assert ("allreduce_barrier", p) in cells
            assert ("halo_exchange", p) in cells
        for point in EXTRA_POINTS:
            assert point in cells

    def test_unknown_kernel_rejected(self):
        with pytest.raises(ValueError, match="unknown bench kernel"):
            run_scaling_bench(ps=(4,), kernels=("nope",))

    def test_save_load_roundtrip(self, tmp_path):
        doc = _doc(("halo_exchange", 4, 0.01))
        path = tmp_path / "b.json"
        save_bench(doc, str(path))
        assert load_bench(str(path)) == doc

    def test_load_rejects_wrong_schema(self, tmp_path):
        path = tmp_path / "b.json"
        path.write_text(json.dumps({"schema": "other/v9"}), encoding="utf-8")
        with pytest.raises(ValueError, match="expected schema"):
            load_bench(str(path))


class TestBenchCli:
    def test_bench_writes_document_and_self_compares(self, tmp_path, capsys):
        out = tmp_path / "BENCH_scaling.json"
        assert main(
            ["bench", "--p", "4", "--kernel", "allreduce_barrier",
             "-o", str(out)]
        ) == 0
        doc = load_bench(str(out))
        assert validate(doc, SCHEMA) == []
        # Self-comparison is within tolerance by construction (floor).
        assert main(
            ["bench", "--p", "4", "--kernel", "allreduce_barrier",
             "-o", "", "--baseline", str(out)]
        ) == 0
        assert "within" in capsys.readouterr().out

    def test_bench_config_flag(self, tmp_path):
        out = tmp_path / "b.json"
        assert main(
            ["bench", "--p", "4", "--kernel", "allreduce_barrier",
             "-o", str(out), "--config", "gates=simulated"]
        ) == 0
        doc = load_bench(str(out))
        assert doc["config"] == {"gates": "simulated", "max_steps": None}

    def test_bench_rejects_bad_config(self):
        with pytest.raises(SystemExit, match="unknown --config key"):
            main(["bench", "--p", "4", "--config", "warp=9"])
        with pytest.raises(SystemExit, match="KEY=VAL"):
            main(["bench", "--p", "4", "--config", "gates"])

    def test_bench_fails_on_regression(self, tmp_path, capsys):
        # Baseline with an impossible wall time: any real run regresses.
        base = _doc(("allreduce_barrier", 4, 0.0))
        base["results"][0]["wall_s"] = 0.0
        path = tmp_path / "base.json"
        save_bench(base, str(path))
        # floor * 1.0 tolerance-0 budget is beaten only by sub-floor runs;
        # force failure with a negative-headroom tolerance.
        code = main(
            ["bench", "--p", "4", "--kernel", "allreduce_barrier",
             "-o", "", "--baseline", str(path), "--tolerance", "-1.0"]
        )
        assert code == 1
        assert "regression" in capsys.readouterr().err

    def test_config_show_prints_resolved_config(self, capsys):
        assert main(
            ["config", "show", "--config", "gates=simulated",
             "--config", "network=slow"]
        ) == 0
        out = capsys.readouterr().out
        assert "network       slow" in out
        assert "gates         simulated" in out
        assert "collectives" not in out and "p2p" not in out
        assert "matching" not in out
        assert "cache digest  " in out

    def test_config_show_rejects_bad_config(self):
        with pytest.raises(SystemExit, match="unknown --config key"):
            main(["config", "show", "--config", "warp=9"])
