"""Virtual-time network and host cost models (LogGP-flavoured).

The simulator charges virtual time for every communication operation using a
simple but standard LogGP-style decomposition:

* ``o_send`` / ``o_recv`` — CPU overhead on the sender/receiver for each
  message (the *o* of LogP),
* ``latency`` — wire latency between any two ranks (the *L*),
* ``1 / bandwidth`` — per-byte cost for the payload (the *G* of LogGP),
* ``eager_threshold`` — messages larger than this use a rendezvous protocol:
  the sender blocks until the matching receive is posted, which is how real
  MPI implementations avoid unbounded buffering and is essential for
  modelling the cost of shipping large trace payloads up the radix tree.

Defaults approximate a QDR InfiniBand cluster like the paper's testbed
(~1.5 us latency, ~3 GB/s effective point-to-point bandwidth).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class NetworkModel:
    """Cost model for point-to-point messages in virtual seconds/bytes."""

    latency: float = 1.5e-6
    bandwidth: float = 3.0e9  # bytes / second
    o_send: float = 4.0e-7
    o_recv: float = 4.0e-7
    eager_threshold: int = 64 * 1024  # bytes
    min_message_bytes: int = 8  # envelope floor: even empty messages cost this

    def __post_init__(self) -> None:
        if self.latency < 0 or self.o_send < 0 or self.o_recv < 0:
            raise ValueError("negative time constants are not allowed")
        if self.bandwidth <= 0:
            raise ValueError("bandwidth must be positive")
        if self.eager_threshold < 0:
            raise ValueError("eager_threshold must be >= 0")

    def transfer_time(self, nbytes: int) -> float:
        """Wire time for a payload of ``nbytes`` (latency excluded)."""
        return max(nbytes, self.min_message_bytes) / self.bandwidth

    def eager(self, nbytes: int) -> bool:
        """Whether a message of this size uses the eager protocol."""
        return nbytes <= self.eager_threshold

    # -- the LogGP arithmetic ----------------------------------------------
    #
    # The one statement of the eager/rendezvous cost expressions.  The
    # message-level protocol (comm.py), the scalar replay core
    # (replay.py) and the vector replays all evaluate these, in this
    # operation order — float addition is not associative, so bit-identical
    # virtual timestamps across the tiers depend on it.

    def eager_send_cost(self, nbytes: int) -> float:
        """Sender-side charge of one eager send (overhead + wire copy);
        the payload arrives ``latency`` after the charged clock."""
        return self.o_send + self.transfer_time(nbytes)

    def eager_recv_complete(self, post_time: float, arrival: float) -> float:
        """Completion time of a receive matched with an eager message
        posted at ``post_time`` whose payload lands at ``arrival``."""
        return max(post_time + self.o_recv, arrival)

    def rendezvous_times(
        self, send_ready: float, post_time: float, transfer: float,
        latency: float,
    ) -> tuple[float, float]:
        """``(done_send, done_recv)`` of one rendezvous transfer: the wire
        starts at the later of the sender being ready and the receiver
        having posted (plus its overhead).  ``transfer`` and ``latency``
        are passed in because a degraded link scales them per message."""
        start = max(send_ready, post_time + self.o_recv)
        return start + transfer, start + latency + transfer

    # Array forms: elementwise float64 operations are IEEE-identical to the
    # scalar chain above (asserted by tests/simmpi/test_replay_core.py).

    def transfer_time_array(self, nbytes: np.ndarray) -> np.ndarray:
        """:meth:`transfer_time` over an int64 array of payload sizes."""
        return np.maximum(nbytes, self.min_message_bytes) / self.bandwidth

    def match_start_array(self, post_time: np.ndarray,
                          msg_time: np.ndarray) -> np.ndarray:
        """``max(post_time + o_recv, msg_time)`` elementwise: an eager
        receive's completion when ``msg_time`` is the arrival, a rendezvous
        transfer's wire start when it is the sender's ready time."""
        return np.maximum(post_time + self.o_recv, msg_time)

    def eager_round_array(self, sent_clock: np.ndarray,
                          post_time: np.ndarray) -> np.ndarray:
        """Completion times of one round of eager messages: sender ``i``
        finished charging at ``sent_clock[i]``, its receiver posted at
        ``post_time[i]``."""
        return self.match_start_array(post_time, sent_clock + self.latency)


#: A zero-cost network, useful in unit tests that only check semantics.
ZERO_COST = NetworkModel(
    latency=0.0,
    bandwidth=float("inf"),
    o_send=0.0,
    o_recv=0.0,
    eager_threshold=1 << 60,
    min_message_bytes=0,
)

#: The default cluster-like model used by the experiment harness.
QDR_CLUSTER = NetworkModel()

#: A slow-network variant used by ablation benches (10x latency, 1/4 bw).
SLOW_CLUSTER = NetworkModel(latency=1.5e-5, bandwidth=7.5e8)
