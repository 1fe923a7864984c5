"""Figure 5's per-rank replay exactness at P=16, pinned.

For each strong-scaling workload the ScalaTrace and Chameleon cells of one
suite (the figure's parameters and marker frequency) are replayed through
:func:`build_schedule`; a rank replays exactly when its point-to-point
``(kind, peer)`` sequence is the same from both traces.  The counts of
ranks that differ are pinned as measured: POP and SP lose ranks whose
cluster lead sits in another relative-endpoint class (ROADMAP item 13), so
a fix there re-pins them on purpose.
"""

import pytest

from repro.harness.engine import ExperimentEngine, make_suite_cells
from repro.harness.figures import STRONG_BENCHMARKS, STRONG_FREQ
from repro.harness.runner import Mode
from repro.replay.replayer import build_schedule

P = 16

#: workload -> ranks whose Chameleon p2p sequence differs from ScalaTrace's
DIFFERING_RANKS = {"bt": 0, "lu": 0, "sp": 3, "pop": 12, "emf": 0}


def p2p_sequences(trace, nprocs):
    return [[(op.kind, op.peer) for op in ops if op.kind != "coll"]
            for ops in build_schedule(trace, nprocs)]


@pytest.fixture(scope="module")
def suites():
    engine = ExperimentEngine(jobs=1, cache=None)
    return {
        name: engine.run_cells(make_suite_cells(
            name, P, (Mode.SCALATRACE, Mode.CHAMELEON),
            workload_params=params, call_frequency=STRONG_FREQ[name]))
        for name, params in STRONG_BENCHMARKS.items()
    }


def test_every_strong_benchmark_is_pinned():
    assert set(DIFFERING_RANKS) == set(STRONG_BENCHMARKS)


@pytest.mark.parametrize("name", sorted(DIFFERING_RANKS))
def test_ranks_whose_chameleon_replay_differs(suites, name):
    scalatrace, chameleon = suites[name]
    st = p2p_sequences(scalatrace.trace, P)
    ch = p2p_sequences(chameleon.trace, P)
    assert any(st)  # every workload exchanges point-to-point messages
    assert sum(a != b for a, b in zip(st, ch)) == DIFFERING_RANKS[name]
