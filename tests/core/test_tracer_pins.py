"""Literal pins of the tracer protocols ``test_phase_pins.py`` does not hold.

The event path (capture, signature tracking, build-or-skip, charge), the
transition graph, the radix-tree reductions and both finalizes are each
stated once in ``repro.scalatrace.tracer`` / ``repro.core``.  What holds
those single statements to the behaviour of the several copies they
replaced is this file: ``tracer_pins.PINS`` was recorded with the copies
still in place (commit 1db7ed2, ``PYTHONPATH=src python -m
tests.core.test_tracer_pins > tests/core/tracer_pins.py`` from the
repository root) and must not be re-recorded unless a change means to
alter what a traced run produces.

Cases: the ACURDION baseline and the auto-marker tracer, ``lu_modified``
with a ``phase_period`` (L+flush, AT, C again), and the fault plans — a
crashed lead (re-election), a crashed single-member lead (cluster
collapse: degraded finalize folded into rank 0's online trace), a crashed
rank 0 (degraded finalize on the lowest survivor) and message drops
(``LOST`` holes in the vote and the cluster reduction).  Per case: the
full ``repr`` of every rank's ``TracerStats`` and ``ChameleonStats`` in
the format they had when recorded (so ``record_time``,
``merge_comm_time``, ``peak_bytes``, ``space_samples`` and
``state_counts`` are held bit for bit, not only the clocks; the fields
that now derive from the marker log are rendered from it), a digest
of the final virtual clocks, the lead ranks, the failed ranks, and the
serialized trace with stack signatures renumbered by first appearance
(stored deflated + base85 — the ``lu_modified`` traces are ~120 kB of text
each — and compared line by line, so a failure still shows a readable
diff).
"""

from __future__ import annotations

import base64
import hashlib
import zlib
from itertools import zip_longest

import pytest

from repro.core import AutoMarkerTracer
from repro.faults.plan import CrashFault, FaultPlan, MessageFaults
from repro.harness.runner import Mode, chameleon_config_for, run_mode
from repro.simmpi import run_spmd
from repro.workloads import make_workload

from ..workloads.test_phase_pins import renumber_signatures

_BT = {"problem_class": "A", "iterations": 24}
_LU = {"problem_class": "A", "iterations": 12, "phase_period": 5}


def _crash(rank: int) -> FaultPlan:
    """``rank`` dies at 70% of the fault-free makespan, well inside the
    lead phase."""
    return FaultPlan(seed=11, crashes=(CrashFault(rank=rank, time=0.019),))


#: name -> (workload, params, nprocs, tracer, fault plan or None)
CASES = {
    "acurdion-pop-P9": ("pop", {"iterations": 6}, 9, "acurdion", None),
    "acurdion-lu-P8": ("lu_modified", dict(_LU, phase_period=4),
                       8, "acurdion", None),
    "automarker-bt-P16": ("bt", _BT, 16, "automarker", None),
    "automarker-lu-P25": ("lu_modified", _LU, 25, "automarker", None),
    # every fifth step injects a barrier: L+flush, AT, C again (four times)
    "chameleon-lu-period-P9": ("lu_modified", _LU, 9, "chameleon", None),
    "chameleon-lu-period-P25": ("lu_modified", _LU, 25, "chameleon", None),
    # a lead with surviving cluster members dies in the lead phase:
    # re-election, the run stays online
    "crash-lead-bt-P16": ("bt", _BT, 16, "chameleon", _crash(1)),
    # a lead that was its cluster's only member dies: the cluster
    # collapses, rank 0 degrades and its degraded finalize folds into the
    # online trace
    "crash-collapse-bt-P16": ("bt", _BT, 16, "chameleon", _crash(12)),
    # rank 0 (the online-trace holder) dies: degraded finalize on rank 1
    "crash-rank0-bt-P16": ("bt", _BT, 16, "chameleon", _crash(0)),
    # eager messages lost past the retry budget: LOST holes in the vote,
    # the cluster reduction and the lead merge
    "drops-lu-P9": ("lu_modified", _LU, 9, "chameleon", FaultPlan(
        seed=5, messages=MessageFaults(drop_prob=0.2, max_retries=2))),
    "drops-rare-lu-P9": ("lu_modified", _LU, 9, "chameleon", FaultPlan(
        seed=5, messages=MessageFaults(drop_prob=0.05, max_retries=1))),
}


def _run_automarker(workload, nprocs: int):
    """``run_mode``'s rank program around an :class:`AutoMarkerTracer`
    (no ``Mode`` selects it)."""
    cfg = chameleon_config_for(workload)

    async def main(ctx):
        tracer = AutoMarkerTracer(ctx, cfg)
        await workload.run(ctx, tracer)
        trace = await tracer.finalize()
        return {"trace": trace, "stats": tracer.stats,
                "cstats": tracer.cstats, "is_lead": tracer.tracing,
                "auto_markers": tracer.auto_markers,
                "anchored": tracer.anchor_sig is not None}

    return run_spmd(main, nprocs)


#: the fields of ``ChameleonStats``'s repr when the pins were recorded;
#: all but the first now derive from its marker log
_CSTATS_FIELDS = (
    "marker_invocations", "effective_calls", "state_counts",
    "reclusterings", "signature_time", "vote_time", "clustering_time",
    "intercompression_time", "space_samples", "k_used", "num_callpaths",
)


def _chameleon_stats_repr(cs) -> str:
    """``cs`` in the recorded ``ChameleonStats`` repr."""
    fields = ", ".join(f"{f}={getattr(cs, f)!r}" for f in _CSTATS_FIELDS)
    return f"ChameleonStats({fields})"


def _tracer_stats_repr(st, cs) -> str:
    """``st`` in the recorded ``TracerStats`` repr, whose last field,
    ``bytes_by_state``, now derives from the rank's marker log ``cs``."""
    by_state = cs.bytes_by_state if cs is not None else {}
    return f"{repr(st)[:-1]}, bytes_by_state={by_state!r})"


def observe(name: str) -> dict:
    workload_name, params, nprocs, tracer, faults = CASES[name]
    workload = make_workload(workload_name, **params)
    extra: dict = {}
    if tracer == "automarker":
        res = _run_automarker(workload, nprocs)
        per_rank = res.results
        trace = per_rank[0]["trace"]
        tracer_stats = [r["stats"] for r in per_rank]
        chameleon_stats = [r["cstats"] for r in per_rank]
        leads = sorted(r for r, out in enumerate(per_rank) if out["is_lead"])
        clocks, failed = res.clocks, res.failed_ranks
        extra["auto_markers"] = [
            (out["auto_markers"], out["anchored"]) for out in per_rank]
    else:
        result = run_mode(workload, nprocs, Mode(tracer), faults=faults)
        trace = result.trace
        tracer_stats = result.tracer_stats
        chameleon_stats = result.chameleon_stats
        leads = sorted(result.lead_ranks)
        clocks, failed = result.clocks, result.failed_ranks
        if "acurdion" in result.extra:
            extra["acurdion"] = repr(result.extra["acurdion"])
        if "fault_summary" in result.extra:
            extra["fault_summary"] = sorted(
                result.extra["fault_summary"].items())
    return {
        "tracer_stats": [
            _tracer_stats_repr(st, cs)
            for st, cs in zip_longest(tracer_stats, chameleon_stats)],
        "chameleon_stats": [_chameleon_stats_repr(cs)
                            for cs in chameleon_stats],
        "clocks_sha": hashlib.sha256(repr(clocks).encode()).hexdigest()[:32],
        "leads": leads,
        "failed_ranks": list(failed),
        **extra,
        "trace": renumber_signatures(trace.serialize()).splitlines(),
    }


def _pack(lines: list[str]) -> str:
    return base64.b85encode(zlib.compress("\n".join(lines).encode(), 9)).decode()


def _unpack(packed: str) -> list[str]:
    return zlib.decompress(base64.b85decode(packed)).decode().split("\n")


@pytest.mark.parametrize("name", list(CASES))
def test_traced_run_matches_recorded_pin(name):
    from .tracer_pins import PINS  # not at import: __main__ writes it

    pin = dict(PINS[name])
    pin["trace"] = _unpack(pin["trace"])
    assert observe(name) == pin


if __name__ == "__main__":
    print('"""Recorded by test_tracer_pins.py (see its docstring); '
          'do not edit."""')
    print()
    print("PINS = {")
    for case in CASES:
        print(f"    {case!r}: {{")
        for key, value in observe(case).items():
            if key == "trace":
                packed = _pack(value)
                print(f"        {key!r}: (")
                for i in range(0, len(packed), 76):
                    print(f"            {packed[i:i + 76]!r}")
                print("        ),")
            elif isinstance(value, list) and value and isinstance(value[0], str):
                print(f"        {key!r}: [")
                for line in value:
                    print(f"            {line!r},")
                print("        ],")
            else:
                print(f"        {key!r}: {value!r},")
        print("    },")
    print("}")
