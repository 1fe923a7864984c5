"""Seeded generator of the ``serve_stream`` workload's event program.

The program is written in the ``repro.workloads.stream`` vocabulary only
(compute with ``ranks`` selectors, ``shift`` with ``{group}`` frames,
``allreduce``/``bcast``/``barrier``) and is the *only* thing that reaches
``repro``: the seed stays in the benchmark.

Shape (fixed, so that every seed costs the same and the spread between
seeds measures the host, not the program):

* two collective-only warm-up steps;
* phase A: ``GROUPS`` modulo groups each compute, then run a group-framed
  ``shift`` chain, a ``bcast`` and the residual ``allreduce``;
* one mid-stream phase change (new frames, a second ``shift``, a
  ``barrier`` in place of the ``bcast``);
* every step inside a phase has the same call path, so the marker
  clusters exactly three times — on the warm-up, on phase A and on phase
  B — with a lead phase after each and a flush at each change
  (AT -> C -> L -> C -> L ... L -> C -> L ...).

The seed draws what does not change the structure: compute seconds,
message sizes and the broadcast root.
"""

from __future__ import annotations

import random

#: modulo behaviour groups (Chameleon should find one cluster per group
#: and chain position)
GROUPS = 3
WARMUP_STEPS = 2


def generate(seed: int, steps: int, nprocs: int) -> list[dict]:
    """The raw (un-normalized) step events of one program."""
    if steps < WARMUP_STEPS + 8:
        raise ValueError(f"a program needs at least {WARMUP_STEPS + 8} steps")
    rng = random.Random(seed)
    change_at = steps // 2
    root = rng.randrange(nprocs)
    secs_a = [round(rng.uniform(4e-4, 9e-4), 7) for _ in range(GROUPS)]
    secs_b = [round(rng.uniform(2e-4, 6e-4), 7) for _ in range(GROUPS)]
    size_a = 8 * rng.randrange(32, 96)
    size_b = 8 * rng.randrange(96, 160)
    size_halo = 8 * rng.randrange(8, 24)

    warmup = {"ops": [
        {"op": "compute", "seconds": round(rng.uniform(2e-4, 4e-4), 7)},
        {"op": "allreduce", "size": 8, "frame": "init_norm"},
    ]}
    phase_a = {"ops": [
        *({"op": "compute", "seconds": secs_a[g],
           "ranks": {"mod": GROUPS, "eq": g}} for g in range(GROUPS)),
        {"op": "shift", "groups": GROUPS, "offset": 1, "size": size_a,
         "frame": "sweep_{group}"},
        {"op": "bcast", "root": root, "size": 64, "frame": "params"},
        {"op": "allreduce", "size": 8, "frame": "residual"},
    ]}
    phase_b = {"ops": [
        *({"op": "compute", "seconds": secs_b[g],
           "ranks": {"mod": GROUPS, "eq": g}} for g in range(GROUPS)),
        {"op": "shift", "groups": GROUPS, "offset": 2, "tag": 1,
         "size": size_b, "frame": "relax_{group}"},
        {"op": "shift", "groups": GROUPS, "offset": 1, "tag": 2,
         "size": size_halo, "frame": "halo_{group}"},
        {"op": "barrier", "frame": "sync"},
        {"op": "allreduce", "size": 8, "frame": "norm"},
    ]}
    return [
        warmup if step < WARMUP_STEPS
        else phase_a if step < change_at
        else phase_b
        for step in range(steps)
    ]
