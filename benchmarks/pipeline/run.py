#!/usr/bin/env python3
"""The end-to-end, per-layer benchmark of a traced cell and a served job.

    python3 benchmarks/pipeline/run.py --seed N [--workload W] [--traced]

prints every metric by name with its unit, checks the outputs against
``expected.json`` and exits non-zero on a failed check.  The driver's
spelling ``--workload W --seed N --seconds S --trace 0|1`` prints, as the
last line, one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  See README.md in this directory for the metric tables.

How a run is taken: every repetition is a fresh child process
(``child.py``; ``jobs=1``, no cache, a scrubbed environment) and
repetition *i* runs under ``PYTHONHASHSEED = seed + i``, because the hash
seed alone moves a cell's wall by several percent.  Repetitions are
started while less than ``--seconds`` of measuring have passed, and never
fewer than ``MIN_REPS``.  Every timed section is divided by the host's
speed around it (``hostspeed.py``: the box this was sized on slows down by
1.3-1.6x for seconds to minutes at a time), and a metric's value is the
median over the repetitions, with min, max and sample count beside it.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))  # when imported rather than run

from hostspeed import spin  # noqa: E402

REPO = HERE.parents[1]
SRC = REPO / "src"
WORK = HERE / ".work"
EXPECTED = HERE / "expected.json"

MIN_REPS = 3
MAX_REPS = 12
CHILD_TIMEOUT_S = 150
#: the per-layer self times must add up to the traced cell's wall this well
ATTRIBUTION_TOLERANCE = 0.05

#: name -> what runs and why.  Parameters are fixed: ``--seed`` drives the
#: hash seeds and the generated stream program, nothing else.
WORKLOADS: dict[str, dict[str, Any]] = {
    "pop_chameleon": {
        "why": "the paper's path: capture and signature tracking on the "
               "P-K non-leads dominate, clustering and the K-lead merge "
               "run once",
        "workload": "pop", "nprocs": 36, "mode": "chameleon", "params": {},
    },
    "sweep_scalatrace": {
        "why": "every rank traces to the end and finalize merges P traces: "
               "intra compression and the inter-node merge do the work, "
               "core is bypassed",
        "workload": "sweep3d", "nprocs": 64, "mode": "scalatrace",
        "params": {},
    },
    "lu_recluster": {
        "why": "a phase change every 8 steps: re-clustering, lead "
               "re-election and the online merge are hot where "
               "pop_chameleon runs them once",
        "workload": "lu_modified", "nprocs": 25, "mode": "chameleon",
        "params": {"problem_class": "A", "iterations": 40, "phase_period": 8},
    },
    "serve_stream": {
        "why": "two tenants stream a seeded program to an in-process "
               "server in a closed loop: HTTP ingest, job threads and the "
               "cache exist only here",
        "nprocs": 36, "mode": "chameleon",
        "serve": {"steps": 64, "chunk": 2, "tenants": 2},
    },
}
#: ``--quick``: a smoke size whose numbers compare with nothing
QUICK = {"nprocs": 16, "serve": {"steps": 24, "chunk": 2, "tenants": 2}}

E2E: tuple[tuple[str, str], ...] = (
    ("setup_s", "s"),
    ("cell_wall_s", "s"),
    ("app_wall_s", "s"),
    ("overhead_x", "ratio"),
    ("events_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
    ("job_latency_s", "s"),
    ("steps_per_s", "1/s"),
    ("trace_out_kb", "KiB"),
)
LAYER: tuple[tuple[str, str], ...] = (
    ("simmpi.app_run_s", "s"), ("simmpi.self_s", "s"),
    ("simmpi.engine_steps", "count"), ("simmpi.messages_matched", "count"),
    ("simmpi.coll_fast", "count"), ("simmpi.coll_simulated", "count"),
    ("simmpi.p2p_fast", "count"), ("simmpi.p2p_simulated", "count"),
    ("scalatrace.capture_s", "s"), ("scalatrace.capture_calls", "count"),
    ("scalatrace.intra_append_s", "s"),
    ("scalatrace.intra_append_calls", "count"),
    ("scalatrace.size_bytes_s", "s"), ("scalatrace.size_bytes_calls", "count"),
    ("scalatrace.inter_merge_s", "s"),
    ("scalatrace.inter_merge_calls", "count"),
    ("scalatrace.events_recorded", "count"),
    ("scalatrace.events_skipped", "count"),
    ("scalatrace.peak_trace_bytes", "B"),
    ("scalatrace.serialize_s", "s"), ("scalatrace.deserialize_s", "s"),
    ("core.observe_s", "s"), ("core.observe_calls", "count"),
    ("core.cluster_s", "s"), ("core.cluster_calls", "count"),
    ("core.reclusterings", "count"), ("core.markers_AT", "count"),
    ("core.markers_C", "count"), ("core.markers_L", "count"),
    ("core.k_used", "count"), ("core.leads", "count"),
    ("workloads.build_s", "s"), ("workloads.normalize_s", "s"),
    ("harness.overhead_s", "s"), ("harness.fingerprint_s", "s"),
    ("harness.cache_put_s", "s"), ("harness.cache_get_s", "s"),
    ("harness.cache_entry_kb", "KiB"), ("harness.cache_hit_ms", "ms"),
    ("serve.ack_ms", "ms"), ("serve.ack_p90_ms", "ms"),
    ("serve.status_ms", "ms"), ("serve.first_cluster_s", "s"),
    ("serve.backlog_max_steps", "count"),
    ("serve.close_to_complete_s", "s"), ("serve.restream_s", "s"),
    ("serve.upload_hit_ms", "ms"), ("serve.http_requests", "count"),
    ("serve.http_errors", "count"), ("serve.stderr_tracebacks", "count"),
    ("replay.wall_s", "s"), ("replay.events", "count"),
    ("obs.recorder_x", "ratio"), ("obs.trace_overhead_x", "ratio"),
    ("obs.attributed_x", "ratio"),
)


def sized(name: str, quick: bool) -> dict[str, Any]:
    cfg = dict(WORKLOADS[name])
    if quick:
        cfg["nprocs"] = QUICK["nprocs"]
        if "serve" in cfg:
            cfg["serve"] = QUICK["serve"]
    return cfg


# -- one child --------------------------------------------------------------


def run_child(name: str, cfg: dict, hash_seed: int, seed: int, *,
              traced: bool = False, recorder: bool = False) -> dict[str, Any]:
    """One repetition in a fresh interpreter.  Returns ``{"out": ...}`` on
    success and ``{"error": ...}`` otherwise, plus the count of tracebacks
    the child printed."""
    WORK.mkdir(exist_ok=True)
    spec = {k: v for k, v in cfg.items() if k != "why"}
    spec.update(name=name, traced=traced, recorder=recorder, work=str(WORK),
                spans_out=str(WORK / f"{name}.spans.json"))
    if "serve" in spec:
        spec["serve"] = {**spec["serve"], "seed": seed}
    env = {
        "PYTHONHASHSEED": str(hash_seed),
        "PYTHONPATH": str(SRC),
        "PATH": os.environ.get("PATH", ""),
    }
    spec["spawn_probe"] = spin()
    spec["spawned"] = time.time()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), json.dumps(spec)],
            env=env, cwd=str(REPO), capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return {"error": f"child exceeded {CHILD_TIMEOUT_S} s", "tracebacks": 0}
    rep: dict[str, Any] = {
        "tracebacks": proc.stderr.count("Traceback (most recent call last)"),
    }
    if proc.returncode != 0:
        rep["error"] = (f"child exited {proc.returncode}: "
                        + proc.stderr.strip()[-2000:])
        return rep
    rep["out"] = json.loads(proc.stdout.strip().splitlines()[-1])
    return rep


# -- checks -------------------------------------------------------------------


def identity(out: dict) -> dict[str, Any]:
    """What must repeat bit-for-bit across repetitions and hash seeds."""
    return {"fingerprint": out["fingerprint"], "clocks_sha": out["clocks_sha"],
            "leads": out["leads"], "trace_bytes": out["trace_bytes"],
            "events": out["events"]}


def portable(ident: dict) -> dict[str, Any]:
    """The part of an identity that expected.json can pin.

    ``RunResult.fingerprint()`` covers the trace's stack signatures, and
    those hash the absolute paths of the workload sources: the same commit
    checked out elsewhere has another fingerprint.  The lead set, the exact
    trace size, the event count and every rank's final virtual clock do not
    move with the checkout; fingerprints are still compared wherever both
    sides ran in one place (repetitions, served job against batch twin).
    """
    return {k: v for k, v in ident.items() if k != "fingerprint"}


def pinned(name: str, cfg: dict, seed: int, quick: bool) -> dict | None:
    if quick or not EXPECTED.exists():
        return None
    entry = json.loads(EXPECTED.read_text()).get(name)
    if entry is not None and "serve" in cfg:
        entry = entry["by_seed"].get(str(seed))
    return entry


class Tally:
    """Operations attempted and failed, with the reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def op(self, ok: bool, problem: str) -> None:
        self.attempted += 1
        if not ok:
            self.fail(problem)

    def fail(self, problem: str) -> None:
        self.failed += 1
        self.problems.append(problem)


def check_rep(tally: Tally, label: str, out: dict, want: dict | None,
              first: dict | None) -> None:
    """Count one repetition's operations: cells, jobs, HTTP requests."""
    got = identity(out)
    # the app twins ran, or the child would have died; the traced cell is
    # judged against the pin
    tally.attempted += out["cells"] - 1
    tally.op(want is None or portable(got) == want,
             f"{label}: cell differs from expected.json: {got} != {want}")
    if first is not None and got != first:
        tally.fail(f"{label}: repetitions disagree: {got} != {first}")
    if "round" in out:
        tally.attempted += out["http_requests"]
        if out["http_errors"]:
            tally.failed += out["http_errors"]
            tally.problems.append(
                f"{label}: {out['http_errors']} non-2xx HTTP replies")
        for i, job in enumerate(out["round"]["jobs"]):
            ok = (job["state"] == "complete"
                  and job["fingerprint"] == got["fingerprint"]
                  and job["leads"] == got["leads"] and job["trace_equal"])
            tally.op(ok, f"{label}: job {i} differs from its batch twin: {job}")


# -- the untraced run: end-to-end metrics -----------------------------------


def e2e_values(out: dict) -> dict[str, list[float]]:
    """One repetition's samples of every end-to-end metric; times are
    divided by the host's speed around their section."""
    cell = out["cell_wall_s"] / out["cell_speed"]
    apps = [wall / out["app_speed"] for wall in out["app_walls"]]
    values = {
        "setup_s": [out["setup_s"] / out["setup_speed"]],
        "cell_wall_s": [cell],
        "app_wall_s": apps,
        "overhead_x": [cell / statistics.median(apps)],
        "events_per_s": [out["events"] / cell],
        "peak_rss_mb": [out["peak_rss_mb"]],
        "trace_out_kb": [out["trace_bytes"] / 1024],
        "host.speed_x": [out["cell_speed"]],
    }
    if "round" in out:
        round_ = out["round"]
        speed = round_["speed"]
        values["job_latency_s"] = [
            j["latency_s"] / speed for j in round_["jobs"] if j["latency_s"]
        ]
        values["steps_per_s"] = [
            round_["steps_consumed"] / (round_["wall_s"] / speed)
        ]
    else:
        # no serving tier in a batch cell's path: the job is the cell
        values["job_latency_s"] = [cell]
        values["steps_per_s"] = [out["steps"] / cell]
    return values


def summarize(samples: dict[str, list[float]],
              table: tuple[tuple[str, str], ...]) -> dict[str, dict]:
    out = {}
    for name, unit in table:
        vals = samples.get(name) or [0.0]
        out[name] = {"value": statistics.median(vals), "unit": unit,
                     "min": min(vals), "max": max(vals), "n": len(vals)}
    return out


def measure(name: str, seed: int, seconds: float, quick: bool) -> dict:
    cfg = sized(name, quick)
    want = pinned(name, cfg, seed, quick)
    tally = Tally()
    samples: dict[str, list[float]] = {}
    first = None
    reps = 0
    t0 = time.monotonic()
    while reps < (1 if quick else MIN_REPS) or (
        not quick and reps < MAX_REPS and time.monotonic() - t0 < seconds
    ):
        rep = run_child(name, cfg, seed + reps, seed)
        label = f"{name}[hash seed {seed + reps}]"
        reps += 1
        if "error" in rep:
            tally.op(False, f"{label}: {rep['error']}")
            continue
        out = rep["out"]
        check_rep(tally, label, out, want, first)
        first = first or identity(out)
        for metric, vals in e2e_values(out).items():
            samples.setdefault(metric, []).extend(vals)
    return {"name": name, "seed": seed, "reps": reps, "tally": tally,
            "metrics": summarize(samples, E2E), "identity": first,
            "host_speed": samples.get("host.speed_x", []),
            "pinned": want is not None}


# -- the traced run: per-layer metrics ----------------------------------------


def measure_traced(name: str, seed: int, quick: bool) -> dict:
    """One plain, one span-wrapped and one Recorder repetition, all at hash
    seed ``seed``: the plain one is the base of the two overhead ratios."""
    cfg = sized(name, quick)
    want = pinned(name, cfg, seed, quick)
    tally = Tally()
    reps = {}
    first = None
    for kind in ("plain", "traced", "recorder"):
        rep = run_child(name, cfg, seed, seed, traced=kind == "traced",
                        recorder=kind == "recorder")
        label = f"{name}[{kind}]"
        if "error" in rep:
            tally.op(False, f"{label}: {rep['error']}")
            continue
        check_rep(tally, label, rep["out"], want, first)
        first = first or identity(rep["out"])
        reps[kind] = rep
    layers: dict[str, float] = {}
    if len(reps) == 3:
        traced = reps["traced"]["out"]
        cell = {kind: rep["out"]["cell_wall_s"] / rep["out"]["cell_speed"]
                for kind, rep in reps.items()}
        layers = dict(traced["layers"])
        layers["obs.trace_overhead_x"] = cell["traced"] / cell["plain"]
        layers["obs.recorder_x"] = cell["recorder"] / cell["plain"]
        layers["serve.stderr_tracebacks"] = reps["traced"]["tracebacks"]
        tally.op(traced["cache_ok"],
                 f"{name}: a warm-cache call missed or returned another result")
        if "extras" in traced:
            tally.op(traced["extras"]["ok"],
                     f"{name}: re-stream/upload did not hit the cache with "
                     f"the same result: {traced['extras']['detail']}")
        if cfg["mode"] == "scalatrace":
            calls = layers["core.observe_calls"] + layers["core.cluster_calls"]
            tally.op(calls == 0, f"{name}: {calls} core calls in a "
                     "scalatrace cell, which must bypass core")
        share = layers["obs.attributed_x"]
        tally.op(abs(share - 1) <= ATTRIBUTION_TOLERANCE,
                 f"{name}: layer self times add up to {share:.3f} of the "
                 "traced cell's wall")
    samples = {metric: [value] for metric, value in layers.items()}
    return {"name": name, "seed": seed, "reps": 3, "tally": tally,
            "metrics": summarize(samples, LAYER), "identity": first,
            "host_speed": [rep["out"]["cell_speed"] for rep in reps.values()],
            "pinned": want is not None}


# -- output -------------------------------------------------------------------


def report(result: dict, quick: bool) -> bool:
    tally: Tally = result["tally"]
    correct = tally.failed == 0
    pin = "pinned" if result["pinned"] else "no pin for this seed or size"
    print(f"== {result['name']}  seed {result['seed']}  "
          f"{result['reps']} repetitions  ({pin})")
    for metric, m in result["metrics"].items():
        spread = (f"  min {m['min']:.6g}  max {m['max']:.6g}  n={m['n']}"
                  if m["n"] > 1 else "")
        print(f"  {metric:32s} {m['value']:14.6g} {m['unit']:6s}{spread}")
    speeds = result["host_speed"] or [0.0]
    print(f"  {'host.speed_x':32s} {statistics.median(speeds):14.6g} ratio   "
          f"max {max(speeds):.6g}  (the host's slowdown the times above "
          "were divided by)")
    print(f"  {'fail_share':32s} {tally.failed}/{tally.attempted}")
    for problem in tally.problems:
        print(f"  FAILED: {problem}")
    line: dict[str, Any] = {
        "correct": correct,
        "attempted": max(tally.attempted, 1),
        "failed": tally.failed,
        "metrics": {metric: {"value": m["value"], "unit": m["unit"]}
                    for metric, m in result["metrics"].items()},
    }
    if quick:
        line["comparable"] = False
    print(json.dumps(line))
    return correct


def repin(names: list[str], seed: int) -> int:
    """Rewrite expected.json from one repetition per workload.  Never used
    by a change that claims a gain."""
    doc = json.loads(EXPECTED.read_text()) if EXPECTED.exists() else {}
    for name in names:
        cfg = sized(name, quick=False)
        rep = run_child(name, cfg, seed, seed)
        if "error" in rep:
            print(f"{name}: {rep['error']}", file=sys.stderr)
            return 1
        entry = portable(identity(rep["out"]))
        if "serve" in cfg:
            doc.setdefault(name, {"by_seed": {}})["by_seed"][str(seed)] = entry
        else:
            doc[name] = entry
        print(f"pinned {name}: clocks {entry['clocks_sha'][:16]} "
              f"{entry['trace_bytes']} bytes")
    text = json.dumps(doc, indent=1, sort_keys=True)
    # lead sets on one line each
    text = re.sub(r"\[\s+([^\[\]]*?)\s+\]",
                  lambda m: "[" + " ".join(m.group(1).split()) + "]", text)
    EXPECTED.write_text(text + "\n")
    return 0


def check_repeat(names: list[str], seed: int, seconds: float) -> int:
    """Run the untraced set twice; fail when a metric's two medians differ
    by more than its bound or an exact count differs."""
    bounds = {m["name"]: m["bound"] for m in
              json.loads((REPO / "BENCHMARK.json").read_text())["end_to_end"]}
    print(f"host.spin_s before: {spin():.4f} s")
    bad = 0
    for name in names:
        # back to back, so that both see the same kind of quarter of an hour
        a = measure(name, seed, seconds, quick=False)
        b = measure(name, seed, seconds, quick=False)
        ok = report(a, quick=False) & report(b, quick=False)
        if a["identity"] != b["identity"]:
            ok = False
            print(f"  REPEAT: exact counts differ: {a['identity']} != "
                  f"{b['identity']}")
        for metric, bound in bounds.items():
            va = a["metrics"][metric]["value"]
            vb = b["metrics"][metric]["value"]
            drift = abs(va - vb) / va if va else 0.0
            flag = "" if drift <= bound else "  <-- beyond bound"
            print(f"  repeat {name:18s} {metric:16s} {va:12.6g} {vb:12.6g} "
                  f"drift {drift:6.3f} bound {bound:5.2f}{flag}")
            ok = ok and drift <= bound
        bad += not ok
    print(f"host.spin_s after:  {spin():.4f} s")
    return 1 if bad else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=24.0,
                        help="measure for this long per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: the traced run, per-layer metrics")
    parser.add_argument("--traced", action="store_const", const=1,
                        dest="trace", help="same as --trace 1")
    parser.add_argument("--quick", action="store_true",
                        help="P=16 smoke, one repetition, not comparable")
    parser.add_argument("--check-repeat", action="store_true")
    parser.add_argument("--repin", action="store_true")
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").exists():
        print(f"{SRC}/repro not found: run from a checkout of the repository",
              file=sys.stderr)
        return 2
    names = [args.workload] if args.workload else list(WORKLOADS)
    if args.repin:
        return repin(names, args.seed)
    if args.check_repeat:
        return check_repeat(names, args.seed, args.seconds)
    ok = True
    for name in names:
        result = (measure_traced(name, args.seed, args.quick) if args.trace
                  else measure(name, args.seed, args.seconds, args.quick))
        ok &= report(result, args.quick)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
