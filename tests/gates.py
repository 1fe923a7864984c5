"""The two gate configurations every bit-identity suite compares, and the
one comparison.

``FAST`` lets an eligible collective or declared exchange resolve in closed
form at its gate; ``SIMULATED`` runs every instance of every gate kind
message by message through the Mailbox — the reference the closed forms
must reproduce exactly.
"""

from __future__ import annotations

from repro.simmpi import SimConfig, run_spmd

FAST = SimConfig(gates="fast")
SIMULATED = SimConfig(gates="simulated")


def run_pair(prog, nprocs, **kwargs):
    """Run ``prog`` under both configurations: ``(fast, simulated)``."""
    fast = run_spmd(prog, nprocs, config=FAST, **kwargs)
    sim = run_spmd(prog, nprocs, config=SIMULATED, **kwargs)
    return fast, sim


def assert_identical(fast, sim, *, results: bool = True):
    """Two ``SpmdResult`` agree on everything either path can change."""
    if results:
        assert fast.results == sim.results
    assert fast.clocks == sim.clocks
    assert fast.busy_times == sim.busy_times
    assert fast.total_messages == sim.total_messages
    assert fast.total_bytes == sim.total_bytes
    assert fast.failed_ranks == sim.failed_ranks
