"""A calibration loop that says how fast the host is right now.

The box this benchmark was sized on (a 2-vCPU Firecracker guest) runs at
one speed or — for seconds at a time, sometimes for minutes — 1.3 to 1.6
times slower, with nothing running in the guest to blame.  A 3 s cell is
touched by such a phase about every other time, and ten invocations of
the same code differed by 19-36 % of their median in raw seconds.

So every timed section is bracketed by two runs of a fixed pure-Python
loop, and its wall is divided by how much slower than ``SPIN_REF_S`` the
loop ran around it.  Reported times are therefore *seconds at reference
host speed*: on a host that runs the loop in ``SPIN_REF_S`` they are the
measured seconds.  The loop is interpreter-bound like the code it
calibrates; it cannot see a slow phase that starts and ends inside a
section, which is why a value is still a median over repetitions.
"""

from __future__ import annotations

import time

SPIN_ITERATIONS = 2_000_000
#: the loop's wall on the quiet dev box (Python 3.11.7), in seconds
SPIN_REF_S = 0.145


def spin() -> float:
    """Wall seconds of the calibration loop (``host.spin_s``)."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(SPIN_ITERATIONS):
        acc += i * i % 7
    return time.perf_counter() - t0


class HostSpeed:
    """Probes bracketing consecutive timed sections."""

    def __init__(self, before: float) -> None:
        self.last = before  # the probe taken before the first section

    def factor(self) -> float:
        """How much slower than the reference the host ran over the
        section that started at the previous probe (probes once more)."""
        before, self.last = self.last, spin()
        return (before + self.last) / 2 / SPIN_REF_S
