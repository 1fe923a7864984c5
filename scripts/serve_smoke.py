#!/usr/bin/env python
"""CI smoke test for ``repro serve``: boot, stream, poll, download, diff.

Boots a real server (in-process, ephemeral port), streams a small trace
to it in several chunks, polls the job to completion, downloads the
resulting trace, and diffs it byte-for-byte against the batch oracle —
the equivalent ``repro.stream_run`` over the same events.  Exits
non-zero on any mismatch.

    PYTHONPATH=src python scripts/serve_smoke.py
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro.api import stream_run  # noqa: E402
from repro.harness.cache import RunCache  # noqa: E402
from repro.harness.engine import ExperimentEngine  # noqa: E402
from repro.serve.app import ServerThread  # noqa: E402
from repro.serve.client import ServeClient  # noqa: E402
from repro.serve.jobs import ServeConfig  # noqa: E402
from repro.workloads.stream import default_steps  # noqa: E402

NPROCS = 8
MODE = "chameleon"


def fail(msg: str) -> None:
    print(f"serve-smoke: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def main() -> None:
    steps = default_steps()
    cache_dir = tempfile.mkdtemp(prefix="serve-smoke-cache-")
    engine = ExperimentEngine(jobs=2, cache=RunCache(cache_dir))
    server = ServerThread(engine, ServeConfig(port=0))
    server.start()
    print(f"serve-smoke: server up on port {server.port}")
    try:
        client = ServeClient(port=server.port)
        if client.health() != {"ok": True}:
            fail("health probe")

        job = client.create_job(nprocs=NPROCS, mode=MODE,
                                label="ci-smoke")["job"]
        for lo in range(0, len(steps), 2):
            ack = client.send_events(job, steps[lo:lo + 2])
            print(f"serve-smoke: streamed chunk, "
                  f"{ack['steps_received']} steps received")
        client.close_job(job)
        doc = client.wait(job, timeout=300)
        if doc["state"] != "complete":
            fail(f"job ended {doc['state']}: {doc.get('error')}")
        print(f"serve-smoke: job complete, cache={doc.get('cache')}, "
              f"digest={doc.get('digest', '')[:12]}")

        served_trace = client.trace(job)
        served_leads = sorted(client.clusters(job)["leads"])

        oracle = stream_run(steps, nprocs=NPROCS, mode=MODE,
                            engine=ExperimentEngine(jobs=0, cache=None))
        if doc["result"]["fingerprint"] != oracle.fingerprint():
            fail("streamed fingerprint != batch fingerprint")
        if served_trace != oracle.trace.serialize():
            fail("streamed trace bytes != batch trace bytes")
        if served_leads != sorted(oracle.lead_ranks):
            fail(f"lead ranks {served_leads} != "
                 f"{sorted(oracle.lead_ranks)}")
        print("serve-smoke: streamed result is bit-identical to batch")

        # The dedup layer: the same events through the shared engine must
        # be served from the cache the streamed job populated.
        again = stream_run(steps, nprocs=NPROCS, mode=MODE, engine=engine)
        if engine.cache.stats.hits < 1:
            fail("batch rerun did not hit the streamed job's cache entry")
        if again.fingerprint() != oracle.fingerprint():
            fail("cached rerun fingerprint mismatch")
        print("serve-smoke: batch rerun served from the streamed cache "
              "entry")

        # Quarantine isolation: a poisoned sibling fails alone.
        poisoned = client.create_job(
            nprocs=4, steps=[{"ops": [{"op": "bcast", "root": 99}]}],
            label="ci-poison",
        )["job"]
        bad = client.wait(poisoned, timeout=300)
        if bad["state"] != "failed" or "quarantine" not in bad:
            fail(f"poisoned job not quarantined: {bad}")
        print(f"serve-smoke: poisoned job quarantined "
              f"({bad['quarantine']['reason']})")
    finally:
        server.stop()
    print("serve-smoke: OK")


if __name__ == "__main__":
    main()
