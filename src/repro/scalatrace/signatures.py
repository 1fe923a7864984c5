"""64-bit signatures: stack signatures, Call-Path, SRC/DEST parameter sigs.

ScalaTrace distinguishes MPI events issued from different source locations by
a *stack signature* — a 64-bit fold of the return addresses on the call
stack.  Chameleon builds three derived signatures per marker interval
(paper §III):

* **Call-Path**: ``XOR over events of ((seq mod 10) + 1) * stack_sig``
  (mod 2^64).  The sequence-number multiplier stops permuted call sequences
  or recursion from cancelling out under XOR.
* **SRC** / **DEST**: the *average* of the parameter signatures of the
  source/destination endpoint parameters, computed with an overflow-safe
  running-mean estimator (aggregating raw 64-bit values and dividing would
  overflow the paper's C implementation; we reproduce their estimator).

In this reproduction a "return address" is a hashed Python stack frame
(file, function, line) plus any *logical frames* the workload pushed via
``RankContext.frame`` — the Python equivalent of the Fortran call paths the
original tool would see.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from typing import Iterable, Sequence

_MASK64 = (1 << 64) - 1
_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3


def fnv1a64(data: bytes) -> int:
    """FNV-1a 64-bit hash — the fold used for all signature material."""
    h = _FNV_OFFSET
    for byte in data:
        h ^= byte
        h = (h * _FNV_PRIME) & _MASK64
    return h


def hash_u64(value: int) -> int:
    """Hash an integer (e.g. an endpoint offset) to a 64-bit signature.

    A splitmix64 finalizer: cheap, well-distributed, and stable across runs —
    the 'parameter signature' of the paper's clustering input.
    """
    x = value & _MASK64
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9 & _MASK64
    x = (x ^ (x >> 27)) * 0x94D049BB133111EB & _MASK64
    return x ^ (x >> 31)


def _rotl(x: int, r: int) -> int:
    r %= 64
    return ((x << r) | (x >> (64 - r))) & _MASK64


def combine_frames(frame_sigs: Sequence[int]) -> int:
    """Fold per-frame signatures into one order-sensitive stack signature.

    XOR with a depth-dependent rotation so that ``A->B`` and ``B->A`` hash
    differently (plain XOR of frames would be order-blind).
    """
    sig = 0
    for depth, fs in enumerate(frame_sigs):
        sig ^= _rotl(fs & _MASK64, depth * 7 + 1)
    return sig


#: Bound on the signature memo tables.  Real programs have a small, fixed
#: set of call sites, so the caches stay tiny; the cap only guards against
#: pathological generated code, and clearing (rather than evicting) keeps
#: the overflow path trivial.
_SIG_CACHE_MAX = 1 << 16

_frame_sig_cache: dict[tuple[str, str, int], int] = {}
_logical_sig_cache: dict[str, int] = {}
#: endpoint offset -> ``hash_u64(offset)``: a rank talks to a few fixed
#: neighbours, and every event of every accumulator hashes their offsets
_offset_sig_cache: dict[int, int] = {}


def frame_signature(filename: str, function: str, lineno: int) -> int:
    """Signature of one stack frame ('return address' equivalent).

    Memoized: tracing hashes the same few call sites millions of times, and
    the FNV fold over the formatted string dominated capture cost.
    """
    key = (filename, function, lineno)
    sig = _frame_sig_cache.get(key)
    if sig is None:
        if len(_frame_sig_cache) >= _SIG_CACHE_MAX:
            _frame_sig_cache.clear()
        sig = fnv1a64(f"{filename}:{function}:{lineno}".encode())
        _frame_sig_cache[key] = sig
    return sig


def _logical_signature(name: str) -> int:
    sig = _logical_sig_cache.get(name)
    if sig is None:
        if len(_logical_sig_cache) >= _SIG_CACHE_MAX:
            _logical_sig_cache.clear()
        sig = fnv1a64(("logical:" + name).encode())
        _logical_sig_cache[name] = sig
    return sig


def _offset_signature(offset: int) -> int:
    """``hash_u64(offset)`` entered into the offset table: the miss path of
    :meth:`EndpointSignatures.observe`, which probes the table inline."""
    if len(_offset_sig_cache) >= _SIG_CACHE_MAX:
        _offset_sig_cache.clear()
    sig = _offset_sig_cache[offset] = hash_u64(offset)
    return sig


class StackWalker:
    """Captures the application call path at an MPI call site.

    Walks the real Python stack from the caller outward, keeping only
    *application* frames: frames inside the tracing layers
    (``repro.scalatrace``, ``repro.core``) are skipped, and the walk stops at
    the simulator's engine frame — everything below it is harness, not
    application.  Logical frames pushed by the workload are appended so
    skeleton codes can expose the calling contexts of the original programs.
    """

    #: path fragments whose frames are internal plumbing, not application code
    _SKIP_FRAGMENTS = ("/repro/scalatrace/", "/repro/core/", "/repro/replay/")
    _STOP_FRAGMENT = "/repro/simmpi/"

    def __init__(self, extra_skip: tuple[str, ...] = ()) -> None:
        self._skip = self._SKIP_FRAGMENTS + extra_skip
        #: ``co_filename`` -> keep its frames (1), skip them (0), stop the
        #: walk there (-1): the fragment tests run once per source file
        self._frame_kind: dict[str, int] = {}
        # Memo over complete captures: an SPMD loop hits the same (stack,
        # logical frames) shape on every iteration, so the combine/label
        # work collapses to one dict probe after the first event.
        self._capture_cache: dict[
            tuple[tuple[tuple[str, str, int], ...], tuple[str, ...]],
            tuple[int, tuple[str, ...]],
        ] = {}

    def capture(self, logical_stack: Sequence[str] = ()) -> tuple[int, tuple[str, ...]]:
        """Return ``(stack_signature, human-readable frame list)``."""
        frames: list[tuple[str, str, int]] = []
        kinds = self._frame_kind
        f = sys._getframe(1)
        while f is not None:
            code = f.f_code
            filename = code.co_filename
            kind = kinds.get(filename)
            if kind is None:
                kind = kinds[filename] = (
                    -1 if self._STOP_FRAGMENT in filename
                    else 0 if any(frag in filename for frag in self._skip) else 1
                )
            if kind < 0:
                break
            if kind:
                frames.append((filename, code.co_name, f.f_lineno))
            f = f.f_back
        key = (tuple(frames), tuple(logical_stack))
        hit = self._capture_cache.get(key)
        if hit is not None:
            return hit
        sigs = [frame_signature(*fr) for fr in frames]
        sigs.extend(_logical_signature(name) for name in key[1])
        labels = tuple(
            [f"{fn.rsplit('/', 1)[-1]}:{func}:{line}" for fn, func, line in frames]
            + [f"<{name}>" for name in key[1]]
        )
        out = (combine_frames(sigs), labels)
        if len(self._capture_cache) >= _SIG_CACHE_MAX:
            self._capture_cache.clear()
        self._capture_cache[key] = out
        return out


def push_logical(
    captured: tuple[int, tuple[str, ...]], name: str
) -> tuple[int, tuple[str, ...]]:
    """``captured`` (a :meth:`StackWalker.capture` result) as it reads with
    ``name`` pushed as one more, innermost, logical frame: one more XOR
    term of :func:`combine_frames`, one more label."""
    sig, labels = captured
    term = _rotl(_logical_signature(name), len(labels) * 7 + 1)
    return sig ^ term, labels + (f"<{name}>",)


def callpath_signature(stack_sigs: Iterable[int]) -> int:
    """The Chameleon Call-Path signature of an event sequence.

    ``XOR over events of ((seq mod 10) + 1) * stack_sig`` (mod 2^64), where
    ``seq`` is the event's position in the interval.  An empty interval has
    signature 0, which the transition graph treats as 'nothing new'.
    """
    sig = 0
    for seq, ss in enumerate(stack_sigs):
        sig ^= ((seq % 10) + 1) * (ss & _MASK64) & _MASK64
    return sig


@dataclass
class RunningAverage:
    """Overflow-safe running mean of 64-bit parameter signatures.

    The paper notes that summing 64-bit signatures before dividing would
    overflow, so Chameleon uses an estimation function; the incremental
    Welford-style update below is that estimator: ``mean += (x - mean)/n``
    never materializes the sum.
    """

    mean: float = 0.0
    count: int = 0

    def add(self, value: int) -> None:
        self.count += 1
        self.mean += ((value & _MASK64) - self.mean) / self.count

    def merge(self, other: "RunningAverage") -> None:
        if other.count == 0:
            return
        total = self.count + other.count
        self.mean += (other.mean - self.mean) * other.count / total
        self.count = total

    def signature(self) -> int:
        """Quantize the mean back to a 64-bit signature value."""
        if self.count == 0:
            return 0
        return int(self.mean) & _MASK64


@dataclass
class EndpointSignatures:
    """Accumulates the SRC and DEST signatures over a marker interval."""

    src: RunningAverage = field(default_factory=RunningAverage)
    dest: RunningAverage = field(default_factory=RunningAverage)

    def observe(self, src_offset: int | None, dest_offset: int | None) -> None:
        if src_offset is not None:
            sig = _offset_sig_cache.get(src_offset)
            self.src.add(_offset_signature(src_offset) if sig is None else sig)
        if dest_offset is not None:
            sig = _offset_sig_cache.get(dest_offset)
            self.dest.add(_offset_signature(dest_offset) if sig is None else sig)

    def values(self) -> tuple[int, int]:
        return self.src.signature(), self.dest.signature()

    def reset(self) -> None:
        self.src = RunningAverage()
        self.dest = RunningAverage()
