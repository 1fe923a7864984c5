"""Delta-time histograms for computation intervals between MPI events.

ScalaTrace does not store one timestamp per event occurrence — that would
defeat compression.  Instead each compressed event keeps a *histogram* of
the delta times (compute gaps) observed across loop iterations and ranks
(Wu et al. [27]: "probabilistic communication and I/O tracing").  The replay
engine draws from the histogram to regenerate computation as sleeps.

Bins are logarithmic from 1 ns to ~1000 s, which covers every interval a
simulated workload produces while keeping the structure constant-size.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

_MIN_DT = 1e-9
_DECADES = 12  # 1e-9 .. 1e3 seconds
_BINS_PER_DECADE = 4
_NBINS = _DECADES * _BINS_PER_DECADE + 1


def _bin_index(dt: float) -> int:
    if dt <= _MIN_DT:
        return 0
    idx = int((math.log10(dt) + 9.0) * _BINS_PER_DECADE) + 1
    return min(max(idx, 0), _NBINS - 1)


def _bin_bounds(idx: int) -> tuple[float, float]:
    """(low, high) duration bounds of one logarithmic bin."""
    if idx == 0:
        return (0.0, _MIN_DT)
    lo = 10.0 ** ((idx - 1) / _BINS_PER_DECADE - 9.0)
    hi = 10.0 ** (idx / _BINS_PER_DECADE - 9.0)
    return (lo, hi)


@dataclass(slots=True)
class DeltaHistogram:
    """Mergeable log-binned histogram of non-negative durations."""

    counts: list[int] = field(default_factory=lambda: [0] * _NBINS)
    total: int = 0
    sum: float = 0.0
    min: float = math.inf
    max: float = 0.0

    def record(self, dt: float) -> int:
        """Add one duration; returns the change of :meth:`size_bytes` (16
        when it opens a bin), bit-equal to :meth:`merge` of a one-sample
        histogram."""
        if dt < 0:
            raise ValueError("delta times are non-negative")
        i = _bin_index(dt)
        opened = not self.counts[i]
        self.counts[i] += 1
        self.total += 1
        self.sum += dt
        self.min = dt if dt < self.min else self.min
        self.max = dt if dt > self.max else self.max
        return 16 * opened

    def merge(self, other: "DeltaHistogram") -> int:
        """Returns the change of :meth:`size_bytes`: 16 per bin it opens."""
        counts, theirs, opened = self.counts, other.counts, 0
        # one sample (every intra-node fold) fills one bin
        for i in (theirs.index(1),) if other.total == 1 else range(_NBINS):
            if theirs[i]:
                opened += not counts[i]
                counts[i] += theirs[i]
        self.total += other.total
        self.sum += other.sum
        self.min = min(self.min, other.min)
        self.max = max(self.max, other.max)
        return 16 * opened

    @property
    def mean(self) -> float:
        return self.sum / self.total if self.total else 0.0

    def sample(self) -> float:
        """Deterministic replay value: the mean preserves total replay time
        exactly, which is what the paper's accuracy metric measures."""
        return self.mean

    def draw(self, rng: "random.Random") -> float:
        """Probabilistic replay value (Wu et al. [27]): draw a bin weighted
        by its population and return a uniform value inside it."""
        if self.total == 0:
            return 0.0
        target = rng.randrange(self.total)
        acc = 0
        idx = 0
        for i, c in enumerate(self.counts):
            acc += c
            if target < acc:
                idx = i
                break
        lo, hi = _bin_bounds(idx)
        lo = max(lo, self.min if self.min != math.inf else lo)
        hi = min(hi, self.max if self.max > 0 else hi)
        if hi <= lo:
            return lo
        return lo + rng.random() * (hi - lo)

    def size_bytes(self) -> int:
        """Modelled allocation: only non-empty bins are stored (sparse)."""
        nonzero = len(self.counts) - self.counts.count(0)
        return 8 * (4 + 2 * nonzero)  # total/sum/min/max + (bin, count) pairs

    def copy(self) -> "DeltaHistogram":
        h = DeltaHistogram()
        h.counts = list(self.counts)
        h.total = self.total
        h.sum = self.sum
        h.min = self.min
        h.max = self.max
        return h

    # -- serialization ----------------------------------------------------

    def to_text(self) -> str:
        bins = ";".join(f"{i}:{c}" for i, c in enumerate(self.counts) if c)
        lo = "inf" if math.isinf(self.min) else repr(self.min)
        return f"{self.total}|{self.sum!r}|{lo}|{self.max!r}|{bins}"

    @classmethod
    def from_text(cls, text: str) -> "DeltaHistogram":
        total_s, sum_s, min_s, max_s, bins = text.split("|")
        h = cls()
        h.total = int(total_s)
        h.sum = float(sum_s)
        h.min = math.inf if min_s == "inf" else float(min_s)
        h.max = float(max_s)
        if bins:
            for part in bins.split(";"):
                i, c = part.split(":")
                h.counts[int(i)] = int(c)
        return h
