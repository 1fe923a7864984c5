"""Literal pins of the five workloads with a declared p2p phase.

A declared phase (``pop`` halo, ``sweep3d`` octant, ``amg`` smoothing,
``lulesh`` ghost exchange, ``cg`` transpose) is stated once, as an op
script with a call-site table, and every tracer runs that script.  What
holds that single statement to the behaviour of the hand-written
per-message bodies it replaced is this file: ``phase_pins.PINS`` was
recorded with those bodies still in place (commit 5437471, ``python
tests/workloads/test_phase_pins.py > tests/workloads/phase_pins.py``) and
must not be re-recorded unless a change means to alter what a traced run
produces.

Per case (workload, P, traced mode): per-rank ``events_recorded`` /
``events_skipped``, the byte length of the serialized trace, the lead
ranks, a digest of the final virtual clocks, rank 0's clustering
bookkeeping, and the serialized trace itself with every stack signature
renumbered by first appearance.  A stack signature hashes absolute source
paths and line numbers, so its *value* moves with the checkout directory
and with any edit above a call site; which events *share* a signature —
the call-site classes the compressor, the Call-Path vote and the clustering
see — does not, and the renumbering pins exactly that.
"""

from __future__ import annotations

import hashlib
import re

import pytest

from repro.harness.runner import Mode, run_mode
from repro.workloads import make_workload

#: (workload, nprocs): squares for the 2-D grids (plus one non-square P,
#: where ``cg``'s transpose degenerates to nothing), cubes for ``lulesh``,
#: a non-power-of-two for ``amg``'s strided levels
CASES = (
    ("pop", 4), ("pop", 9),
    ("sweep3d", 4), ("sweep3d", 9),
    ("amg", 6), ("amg", 8),
    ("lulesh", 8), ("lulesh", 27),
    ("cg", 4), ("cg", 6), ("cg", 9),
)
MODES = ("scalatrace", "chameleon")
ITERATIONS = 6

_EVENT_SIG = re.compile(r"^(\s*ev \S+ )([0-9a-f]{16}) ", re.MULTILINE)


def renumber_signatures(text: str) -> str:
    """``text`` with each distinct stack signature replaced by ``s<n>``,
    ``n`` counting signatures in order of first appearance."""
    names: dict[str, str] = {}

    def name(match: re.Match) -> str:
        sig = names.setdefault(match.group(2), f"s{len(names)}")
        return f"{match.group(1)}{sig} "

    return _EVENT_SIG.sub(name, text)


def observe(workload: str, nprocs: int, mode: str) -> dict:
    result = run_mode(
        make_workload(workload, iterations=ITERATIONS), nprocs, Mode(mode)
    )
    text = result.trace.serialize()
    seen = {
        "events": [(st.events_recorded, st.events_skipped)
                   for st in result.tracer_stats],
        "trace_len": len(text),
        "leads": sorted(result.lead_ranks),
        "clocks_sha": hashlib.sha256(
            repr(result.clocks).encode()).hexdigest()[:32],
        "trace": renumber_signatures(text).splitlines(),
    }
    if result.chameleon_stats:
        cs = result.cstats0
        seen["clustering"] = (cs.reclusterings, cs.k_used, cs.num_callpaths,
                              sorted(cs.state_counts.items()))
    return seen


def _cases():
    for workload, nprocs in CASES:
        for mode in MODES:
            yield (workload, nprocs, mode)


def _case_id(case) -> str:
    return "{}-P{}-{}".format(*case)


@pytest.mark.parametrize("case", list(_cases()), ids=_case_id)
def test_traced_phase_matches_recorded_pin(case):
    from .phase_pins import PINS  # not at import: __main__ writes it

    assert observe(*case) == PINS[case]


@pytest.mark.parametrize("nprocs", (4, 9))
def test_cg_transpose_is_one_sendrecv_record(nprocs):
    """The transpose is one ``MPI_Sendrecv`` call site: off-diagonal ranks
    record one SENDRECV per timestep and never an ISEND/RECV pair."""
    result = run_mode(make_workload("cg", iterations=ITERATIONS), nprocs,
                      Mode.SCALATRACE)
    ops = {rec.op.value for rec in result.trace.events()}
    assert "sendrecv" in ops
    assert not ops & {"isend", "send", "recv"}
    # 1 sendrecv + 2 allreduce + the progress allreduce per step on the
    # off-diagonal ranks; the diagonal ranks skip the transpose
    side = int(nprocs ** 0.5)
    for rank, st in enumerate(result.tracer_stats):
        diagonal = rank // side == rank % side
        assert st.events_recorded == ITERATIONS * (3 if diagonal else 4)


if __name__ == "__main__":
    print('"""Recorded by test_phase_pins.py (see its docstring); '
          'do not edit."""')
    print()
    print("PINS = {")
    for case in _cases():
        print(f"    {case!r}: {{")
        for key, value in observe(*case).items():
            if key == "trace":
                print(f"        {key!r}: [")
                for line in value:
                    print(f"            {line!r},")
                print("        ],")
            else:
                print(f"        {key!r}: {value!r},")
        print("    },")
    print("}")
