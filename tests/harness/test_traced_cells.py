"""Traced cells through the exchange gate: counters and observability.

A traced declared phase is a schedule the exchange gate replays
(``ScalaTraceTracer.exchange``), so a traced ``run_mode`` cell consults the
gates its ``app`` twin consults.  Named beforehand and exact: how often a
cell consults and what that saves the engine, how many mailbox probes a
gate instance may cost, and that attaching a recorder picks no other
strategy on any kind of benchmark cell.  (The bit-identity of the two
interpreters is ``tests/core/test_exchange_oracle.py``.)
"""

from __future__ import annotations

import random
from collections import defaultdict

import pytest

from repro.harness import runner
from repro.harness.runner import Mode, run_mode
from repro.obs.instrument import Recorder
from repro.simmpi.collectives import Communicator
from repro.simmpi.comm import Mailbox
from repro.workloads import make_workload
from repro.workloads.stream import canonical_steps_json, normalize_steps

from ..gates import FAST, SIMULATED


#: the two gated cells of benchmarks/pipeline, at test size
CELLS = {
    "pop": ("pop", 9, Mode.CHAMELEON, {"iterations": 6}),
    "sweep3d": ("sweep3d", 16, Mode.SCALATRACE, {"iterations": 2}),
}


def _stream_program(seed=7, steps=8):
    """A seeded ``stream`` program: the seed draws sizes, the root and the
    compute seconds around a fixed collective + ``shift`` step."""
    rng = random.Random(seed)
    step = {"ops": [
        {"op": "compute", "seconds": round(rng.uniform(1e-5, 9e-5), 7)},
        {"op": "shift", "groups": 2, "offset": 1,
         "size": 8 * rng.randrange(8, 64), "frame": "sweep_{group}"},
        {"op": "bcast", "root": rng.randrange(8), "size": 64},
        {"op": "allreduce", "size": 8, "frame": "residual"},
        {"op": "barrier"},
    ]}
    return canonical_steps_json(normalize_steps([step] * steps))


#: ... plus the benchmark's two kinds of cell with no declared phase
ALL_CELLS = {
    **CELLS,
    "lu_modified": ("lu_modified", 9, Mode.CHAMELEON,
                    {"problem_class": "A", "iterations": 6,
                     "phase_period": 2}),
    "stream": ("stream", 8, Mode.CHAMELEON,
               {"steps_json": _stream_program()}),
}


def cell(monkeypatch, spec, mode=None, **kwargs):
    """One ``run_mode`` cell: ``(RunResult, SpmdResult)`` — the engine's
    counters are on the latter, which ``run_mode`` does not return."""
    name, nprocs, traced_mode, params = spec
    kept = []
    real = runner.run_spmd

    def keeping(*args, **kw):
        kept.append(real(*args, **kw))
        return kept[-1]

    with monkeypatch.context() as patch:
        patch.setattr(runner, "run_spmd", keeping)
        result = run_mode(make_workload(name, **params), nprocs,
                          mode or traced_mode, **kwargs)
    return result, kept[-1]


@pytest.mark.parametrize("spec", CELLS.values(), ids=CELLS)
def test_a_traced_cell_consults_every_gate_its_app_twin_does(monkeypatch,
                                                             spec):
    traced, spmd = cell(monkeypatch, spec, sim=FAST)
    driven, spmd_driven = cell(monkeypatch, spec, sim=SIMULATED)
    _, spmd_app = cell(monkeypatch, spec, Mode.APP, sim=FAST)
    # every declared instance is consulted exactly once per rank
    assert spmd_app.p2p_fast > 0 == spmd_app.p2p_simulated
    assert spmd.p2p_fast + spmd.p2p_simulated == spmd_app.p2p_fast \
        == spmd_driven.p2p_simulated
    assert spmd.p2p_fast > spmd.p2p_simulated and spmd_driven.p2p_fast == 0
    # which is what takes the phases' messages off the engine
    assert spmd.engine_steps < spmd_driven.engine_steps
    assert spmd.messages_matched < spmd_driven.messages_matched
    # the knob that already exists is the differential switch
    assert traced.fingerprint() == driven.fingerprint()


@pytest.mark.parametrize("spec", ALL_CELLS.values(), ids=ALL_CELLS)
def test_a_span_recorder_does_not_pick_the_strategy(monkeypatch, spec):
    plain, spmd_plain = cell(monkeypatch, spec)
    rec = Recorder()
    recorded, spmd = cell(monkeypatch, spec, instrument=rec)
    verdicts = ("p2p_fast", "p2p_simulated", "collectives_fast",
                "collectives_simulated")
    assert [getattr(spmd, v) for v in verdicts] \
        == [getattr(spmd_plain, v) for v in verdicts]
    assert spmd.collectives_fast > 0
    assert recorded.clocks == plain.clocks
    assert rec.metrics.value("p2p/fast_hits") == spmd.p2p_fast
    assert rec.metrics.value("coll/fast_hits") == spmd.collectives_fast
    if not spmd.p2p_fast:
        return  # no declared phase: nothing for the gate to report
    # the schedule accounts each record at the resumed clock, the gate
    # emits the per-message events its replay collected: they are those of
    # the run that drives every gate message by message.  That run also
    # drives the collectives, whose messages carry reserved tags
    # (``p2p.tool`` spans), so the exchanges' messages are compared as the
    # user-tag ones.
    driven = Recorder()
    driven_result, _ = cell(monkeypatch, spec, instrument=driven,
                            sim=SIMULATED)
    for metric in ("tracer/events_recorded", "tracer/record_time"):
        assert recorded.registry().value(metric) \
            == driven_result.registry().value(metric) > 0

    def user_messages(r):
        return sorted((s.rank, s.name, s.start, s.end, sorted(s.args.items()))
                      for s in r.spans if s.cat == "p2p")

    assert user_messages(rec) == user_messages(driven) != []
    for r in (rec, driven):  # and the counters count every message sent
        recvs = [s for s in r.spans if s.cat in ("p2p", "p2p.tool")]
        assert r.metrics.value("p2p/messages") == len(recvs)
        assert r.metrics.value("p2p/bytes_sent") \
            == sum(s.args["nbytes"] for s in recvs)


def test_a_gate_instance_scans_the_mailboxes_once(monkeypatch):
    """Once any p2p has touched the communicator (the marker's vote and
    lead merge do) a gate re-scanned every materialised mailbox at *every*
    arrival, O(P^2) per instance.  Posts are counted on the context now:
    an instance that sees none between its arrivals probes each mailbox at
    most once."""
    calls = defaultdict(int)  # Mailbox method -> calls so far
    # instance -> (posts so far, probes, mailboxes) of each consult
    arrivals = defaultdict(list)
    consult = Communicator._consult

    def counted(name):
        method = getattr(Mailbox, name)

        def counting(mbox, *args):
            calls[name] += 1
            return method(mbox, *args)

        monkeypatch.setattr(Mailbox, name, counting)

    for name in ("has_wild_pending", "push_msg", "push_pending"):
        counted(name)

    def consulting(comm, kind, root):
        ctx, before = comm.context, calls["has_wild_pending"]
        seq = ctx.p2p_seq[comm.rank]
        gate = consult(comm, kind, root)
        if kind == "exchange":
            arrivals[ctx.id, seq].append(
                (calls["push_msg"] + calls["push_pending"],
                 calls["has_wild_pending"] - before, len(ctx._mailboxes)))
        return gate

    monkeypatch.setattr(Communicator, "_consult", consulting)
    _, spmd = cell(monkeypatch,  # 6 markers: AT, C and four of L
                   ("pop", 16, Mode.CHAMELEON, {"iterations": 6}))
    quiet = [a for a in arrivals.values()
             if len({posts for posts, _, _ in a}) == 1]
    assert len(quiet) > 0.9 * len(arrivals) > 50
    assert all(len(a) == 16 for a in arrivals.values())
    for a in quiet:
        assert sum(n for _, n, _ in a) <= a[0][2]
    # the communicator was touched: there is something to scan
    assert max(a[0][2] for a in quiet) == 16 and spmd.p2p_fast > 0
