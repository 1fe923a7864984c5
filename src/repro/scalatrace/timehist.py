"""Delta-time histograms for computation intervals between MPI events.

ScalaTrace does not store one timestamp per event occurrence — that would
defeat compression.  Instead each compressed event keeps a *histogram* of
the delta times (compute gaps) observed across loop iterations and ranks
(Wu et al. [27]: "probabilistic communication and I/O tracing").  The replay
engine draws from the histogram to regenerate computation as sleeps.

Bins are logarithmic from 1 ns to ~1000 s, which covers every interval a
simulated workload produces; a histogram stores only its populated bins,
so recording and merging touch those and nothing else.
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
    idx = int((math.log10(dt) + 9.0) * _BINS_PER_DECADE) + 1  # >= 1
    return idx if idx < _NBINS else _NBINS - 1


def _bin_bounds(idx: int) -> tuple[float, float]:
    """(low, high) duration bounds of one logarithmic bin."""
    if idx == 0:
        return (0.0, _MIN_DT)
    lo = 10.0 ** ((idx - 1) / _BINS_PER_DECADE - 9.0)
    hi = 10.0 ** (idx / _BINS_PER_DECADE - 9.0)
    return (lo, hi)


@dataclass(slots=True)
class DeltaHistogram:
    """Mergeable log-binned histogram of non-negative durations.

    ``counts`` maps each populated bin to its count (no zero entries); its
    order is insertion order, so readers that need bin order sort it."""

    counts: dict[int, int] = field(default_factory=dict)
    total: int = 0
    sum: float = 0.0
    min: float = math.inf
    max: float = 0.0

    @classmethod
    def of(cls, dt: float) -> "DeltaHistogram":
        """Born with its one sample: bit-equal to ``DeltaHistogram()`` +
        ``record(dt)`` (``0.0 + dt`` is the sum it computes, and ``-0.0``
        leaves ``max`` at ``0.0``)."""
        if dt < 0:
            raise ValueError("delta times are non-negative")
        return cls({_bin_index(dt): 1}, 1, 0.0 + dt, dt, dt if dt > 0.0 else 0.0)

    def record(self, dt: float) -> int:
        """Add one duration; returns the change of :meth:`size_bytes` (16
        when it opens a bin), bit-equal to :meth:`merge` of a one-sample
        histogram."""
        if dt < 0:
            raise ValueError("delta times are non-negative")
        i = _bin_index(dt)
        counts = self.counts
        c = counts.get(i, 0)
        counts[i] = c + 1
        self.total += 1
        self.sum += dt
        self.min = dt if dt < self.min else self.min
        self.max = dt if dt > self.max else self.max
        return 0 if c else 16

    def merge(self, other: "DeltaHistogram") -> int:
        """Returns the change of :meth:`size_bytes`: 16 per bin it opens."""
        counts, opened = self.counts, 0
        for i, c in other.counts.items():
            mine = counts.get(i, 0)
            counts[i] = mine + c
            opened += not mine
        self.total += other.total
        self.sum += other.sum
        self.min = other.min if other.min < self.min else self.min
        self.max = other.max if other.max > self.max else self.max
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
        by its population and return a uniform value inside it, clamped to
        the samples' range."""
        if self.total == 0:
            return 0.0
        target = rng.randrange(self.total)
        acc = 0
        idx = 0
        for i, c in sorted(self.counts.items()):
            acc += c
            if target < acc:
                idx = i
                break
        lo, hi = _bin_bounds(idx)
        lo = max(lo, self.min)
        hi = min(hi, self.max)
        if hi <= lo:
            return lo
        return lo + rng.random() * (hi - lo)

    def size_bytes(self) -> int:
        """Modelled allocation: only non-empty bins are stored (sparse)."""
        return 8 * (4 + 2 * len(self.counts))  # total/sum/min/max + (bin, count) pairs

    def copy(self) -> "DeltaHistogram":
        return DeltaHistogram(dict(self.counts), self.total, self.sum,
                              self.min, self.max)

    # -- serialization ----------------------------------------------------

    def to_text(self) -> str:
        bins = ";".join(f"{i}:{c}" for i, c in sorted(self.counts.items()))
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
                i, c = map(int, part.split(":"))
                if not 0 <= i < _NBINS:
                    raise ValueError(f"histogram bin {i} out of range")
                if c:
                    h.counts[i] = c
        return h
