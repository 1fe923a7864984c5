#!/usr/bin/env python3
"""Alternating parent/change pairs of the pipeline benchmark, with a verdict.

    python3 scripts/bench_pairs.py --parent REF --workload W --pairs 10 \\
        [--seconds S] [--seed BASE]

The protocol of the choosing-metrics guide (section 8) that every change
claiming a gain has to follow, in one command: ``REF`` is exported (``git
archive``) into a temporary directory, and for pair *i* the untraced
benchmark (``benchmarks/pipeline/run.py --trace 0``) runs at seed ``BASE +
i`` on that export and on the working tree, the side that goes first
alternating.  Each side runs its *own* copy of the benchmark from its own
directory — as the driver does — and the script refuses to compare when the
two copies (or ``BENCHMARK.json``) differ.

Per end-to-end metric of ``BENCHMARK.json`` it prints both medians, both
interquartile ranges, the pairs won and lost, and a verdict:

``gain``                the change won at least nine tenths of the pairs and
                        the medians are further apart than the parent's own
                        interquartile range
``worse beyond bound``  the change's median is worse than the parent's by
                        more than the metric's bound
``unresolved``          neither, and the parent's spread is wider than the
                        bound (unless every run of the change beats every
                        run of the parent)
``within bound``        neither, and the spread is inside the bound

(a gain does not count when a larger share of operations fails than at the
parent), and, as the last line, one JSON object with every run made.
Progress goes to stderr.  Stdlib only; reads ``BENCHMARK.json``, writes
nothing outside the temporary directory (``TMPDIR``) and the benchmark's own
``.work/``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_PATHS = ("BENCHMARK.json", "benchmarks/pipeline")
#: share of the pairs the change must win (ties count for neither side)
WIN_SHARE = 0.9


def export(ref: str, into: Path) -> None:
    """``git archive REF | tar -x -C into``: no worktree to unregister when
    the run is interrupted."""
    archive = subprocess.Popen(["git", "archive", ref], cwd=ROOT,
                               stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", str(into)], stdin=archive.stdout,
                   check=True)
    if archive.wait() != 0:
        raise SystemExit(f"git archive {ref} failed")


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced benchmark run in ``tree``; its closing JSON line."""
    proc = subprocess.run(
        [sys.executable, "benchmarks/pipeline/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True,
    )
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        raise SystemExit(f"{tree}: no JSON line from the benchmark "
                         f"(exit {proc.returncode}):\n{proc.stderr[-2000:]}")


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def judge(parent: list[float], change: list[float], better: str,
          bound: float) -> dict:
    """Section 8's rule for one metric over the paired runs."""
    sign = -1.0 if better == "higher" else 1.0  # sign * value: lower is better
    won = sum(sign * c < sign * p for p, c in zip(parent, change))
    lost = sum(sign * c > sign * p for p, c in zip(parent, change))
    med_p, med_c = statistics.median(parent), statistics.median(change)
    (p1, p3), (c1, c3) = quartiles(parent), quartiles(change)
    moved = (med_c - med_p) / abs(med_p) if med_p else 0.0
    worse_by = sign * moved  # > 0: the change's median is the worse one
    separated = max(sign * c for c in change) < min(sign * p for p in parent)
    if (won >= WIN_SHARE * len(parent) and worse_by < 0
            and abs(med_c - med_p) > p3 - p1):
        verdict = "gain"
    elif worse_by > bound:
        verdict = "worse beyond bound"
    elif med_p and (p3 - p1) / abs(med_p) > bound and not separated:
        verdict = "unresolved"
    else:
        verdict = "within bound"
    return {"parent": {"median": med_p, "q1": p1, "q3": p3, "runs": parent},
            "change": {"median": med_c, "q1": c1, "q3": c3, "runs": change},
            "change_vs_parent": moved, "won": won, "lost": lost,
            "verdict": verdict}


def compare(parent_tree: Path, workload: str, pairs: int, seconds: float,
            base_seed: int, metrics: list[dict]) -> dict:
    sides = {"parent": parent_tree, "change": ROOT}
    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    for i in range(pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            out = run_once(sides[side], workload, base_seed + i, seconds)
            runs[side].append(out)
            cell = out["metrics"]["cell_wall_s"]["value"]
            print(f"  pair {i} seed {base_seed + i} {side:6s} "
                  f"cell_wall_s {cell:.4g}  failed {out['failed']}"
                  f"/{out['attempted']}", file=sys.stderr, flush=True)
    result = {
        "workload": workload, "pairs": pairs, "seconds": seconds,
        "seeds": [base_seed + i for i in range(pairs)],
        "fail_share": {side: [sum(r["failed"] for r in rs),
                              sum(r["attempted"] for r in rs)]
                       for side, rs in runs.items()},
        "metrics": {},
    }
    print(f"== {workload}: {pairs} pairs, seeds {base_seed}.."
          f"{base_seed + pairs - 1}, {seconds:g} s per run")
    print(f"  {'metric':14s} {'unit':5s} {'parent median [q1, q3]':>34s} "
          f"{'change median [q1, q3]':>34s} {'change':>8s}  won/lost  verdict")
    share = {side: failed / max(attempted, 1)
             for side, (failed, attempted) in result["fail_share"].items()}
    for m in metrics:
        name = m["name"]
        values = {side: [r["metrics"][name]["value"] for r in rs]
                  for side, rs in runs.items()}
        j = judge(values["parent"], values["change"], m["better"], m["bound"])
        if j["verdict"] == "gain" and share["change"] > share["parent"]:
            j["verdict"] = "no gain: a larger share of operations fails"
        result["metrics"][name] = j
        cols = [f"{j[s]['median']:.5g} [{j[s]['q1']:.5g}, {j[s]['q3']:.5g}]"
                for s in ("parent", "change")]
        print(f"  {name:14s} {m['unit']:5s} {cols[0]:>34s} {cols[1]:>34s} "
              f"{100 * j['change_vs_parent']:+7.1f}%  {j['won']:>3d}/{j['lost']:<3d}"
              f"  {j['verdict']}")
    for side, (failed, attempted) in result["fail_share"].items():
        print(f"  fail_share {side:6s} {failed}/{attempted}")
    return result


def main(argv: list[str] | None = None) -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in declared["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="git ref to compare "
                        "the working tree against")
    parser.add_argument("--workload", action="append", choices=names,
                        help="repeatable; default: every declared workload")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float,
                        default=float(declared["run_seconds"]),
                        help="measuring time per run (default: the "
                        "benchmark's own run_seconds)")
    parser.add_argument("--seed", type=int, default=0,
                        help="pair i runs at seed SEED + i on both sides")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    if subprocess.run(["git", "diff", "--quiet", args.parent, "--",
                       *BENCH_PATHS], cwd=ROOT).returncode != 0:
        print(f"the benchmark ({', '.join(BENCH_PATHS)}) differs between "
              f"{args.parent} and the working tree: nothing to compare",
              file=sys.stderr)
        return 2
    results = []
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        export(args.parent, Path(tmp))
        for workload in args.workload or names:
            results.append(compare(Path(tmp), workload, args.pairs,
                                   args.seconds, args.seed,
                                   declared["end_to_end"]))
    print(json.dumps({"parent": args.parent, "results": results}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
