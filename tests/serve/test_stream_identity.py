"""The streamed-vs-batch bit-identity oracle, without HTTP.

A job fed chunk-by-chunk through the :class:`EventBuffer` must produce
the *exact* result of the batch ``stream`` workload over the same steps:
identical fingerprint (covering clocks, leads, stats, trace bytes) no
matter how the stream is split.  This is the correctness claim the
serving layer is built on.
"""

from __future__ import annotations

import random
import threading

import pytest

from repro.harness.runner import Mode, chameleon_config_for, run_mode
from repro.serve.ingest import (
    EOF,
    EventBuffer,
    LiveStreamWorkload,
    StreamAborted,
    progress_snapshot,
)
from repro.workloads.stream import (
    StreamWorkload,
    canonical_steps_json,
    default_steps,
)

NPROCS = 8


def _batch(steps, mode=Mode.CHAMELEON):
    cfg = chameleon_config_for(StreamWorkload)
    return run_mode(
        StreamWorkload(canonical_steps_json(steps)), NPROCS, mode, config=cfg
    )


def _streamed(steps, chunks, mode=Mode.CHAMELEON, publish=None):
    """Run the live workload, feeding ``chunks`` from a producer thread."""
    cfg = chameleon_config_for(StreamWorkload)
    buf = EventBuffer()

    def produce():
        for chunk in chunks:
            buf.extend(list(chunk))
        buf.close()

    producer = threading.Thread(target=produce)
    producer.start()
    try:
        return run_mode(
            LiveStreamWorkload(buf, publish=publish), NPROCS, mode, config=cfg
        )
    finally:
        producer.join()


def _random_chunks(steps, rng):
    steps = list(steps)
    chunks = []
    while steps:
        n = rng.randint(1, len(steps))
        chunks.append(steps[:n])
        steps = steps[n:]
    return chunks


class TestBitIdentity:
    def test_single_chunk_matches_batch(self):
        steps = default_steps()
        assert _streamed(steps, [steps]).fingerprint() == \
            _batch(steps).fingerprint()

    def test_one_step_per_chunk_matches_batch(self):
        steps = default_steps()
        chunks = [[s] for s in steps]
        assert _streamed(steps, chunks).fingerprint() == \
            _batch(steps).fingerprint()

    @pytest.mark.parametrize("mode", [Mode.APP, Mode.SCALATRACE,
                                      Mode.CHAMELEON, Mode.ACURDION])
    def test_all_modes_identical(self, mode):
        steps = default_steps()
        chunks = [steps[:2], steps[2:5], steps[5:]]
        live = _streamed(steps, chunks, mode=mode)
        batch = _batch(steps, mode=mode)
        assert live.fingerprint() == batch.fingerprint()
        if batch.trace is not None:
            assert live.trace.serialize() == batch.trace.serialize()

    def test_seeded_fuzz_random_chunk_splits(self):
        steps = default_steps()
        expected = _batch(steps)
        expected_fp = expected.fingerprint()
        expected_trace = expected.trace.serialize()
        rng = random.Random(0xC11A)
        for _ in range(6):
            live = _streamed(steps, _random_chunks(steps, rng))
            assert live.fingerprint() == expected_fp
            assert live.trace.serialize() == expected_trace
            assert live.lead_ranks == expected.lead_ranks

    def test_rank0_log_equals_batch_and_feeds_progress(self):
        steps = default_steps()
        batch = _batch(steps)
        docs: list[dict] = []

        def publish(step, decision, tracer):
            docs.append(progress_snapshot(step, tracer.cstats))

        live = _streamed(steps, _random_chunks(steps, random.Random(7)),
                         publish=publish)
        log = batch.chameleon_stats[0].log
        assert live.chameleon_stats[0].log == log
        # progress is published after each marker, before finalize appends
        # the last record
        last = docs[-1]
        assert last["steps_done"] == len(steps)
        assert last["marker_state"] == log[-2].state
        assert last["phase_changed"] == log[-2].phase_changed
        picks = [r.cluster for r in log[:-1] if r.cluster is not None]
        assert last["reclusterings"] == len(picks)
        assert last["clusters"] == picks[-1].view
        assert last["clusters"]["leads"] == list(picks[-1].leads)

    def test_progress_published_incrementally(self):
        steps = default_steps()
        seen: list[int] = []

        def publish(step, decision, tracer):
            seen.append(step)

        _streamed(steps, [[s] for s in steps], publish=publish)
        assert seen == list(range(len(steps)))


class TestEventBuffer:
    def test_get_blocks_until_extend(self):
        buf = EventBuffer()
        got = []

        def consume():
            got.append(buf.get(0))

        t = threading.Thread(target=consume)
        t.start()
        buf.extend([{"ops": []}])
        t.join(5)
        assert got == [{"ops": []}]

    def test_eof_after_close(self):
        buf = EventBuffer()
        buf.extend([{"ops": []}])
        buf.close()
        assert buf.get(0) == {"ops": []}
        assert buf.get(1) is EOF

    def test_extend_after_close_raises(self):
        buf = EventBuffer()
        buf.close()
        with pytest.raises(StreamAborted):
            buf.extend([{"ops": []}])

    def test_abort_wakes_consumer(self):
        buf = EventBuffer()
        err = []

        def consume():
            try:
                buf.get(0)
            except StreamAborted as exc:
                err.append(str(exc))

        t = threading.Thread(target=consume)
        t.start()
        buf.abort("gone")
        t.join(5)
        assert err == ["gone"]

    def test_idle_timeout_raises(self):
        buf = EventBuffer(idle_timeout=0.05)
        with pytest.raises(StreamAborted, match="idle-timeout"):
            buf.get(0)
