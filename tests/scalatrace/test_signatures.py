"""Signature primitives: hashing, stack capture, Call-Path, SRC/DEST."""

from collections import Counter
from unittest import mock

from hypothesis import given, settings, strategies as st

from repro.scalatrace import (
    EndpointSignatures,
    RunningAverage,
    StackWalker,
    callpath_signature,
    combine_frames,
    fnv1a64,
    frame_signature,
    hash_u64,
)
from repro.scalatrace import signatures
from repro.scalatrace.signatures import push_logical

U64 = st.integers(0, (1 << 64) - 1)


class TestHashes:
    def test_fnv_known_values(self):
        # standard FNV-1a 64 test vectors
        assert fnv1a64(b"") == 0xCBF29CE484222325
        assert fnv1a64(b"a") == 0xAF63DC4C8601EC8C

    @given(st.binary(max_size=64))
    def test_fnv_in_range_and_stable(self, data):
        h = fnv1a64(data)
        assert 0 <= h < (1 << 64)
        assert h == fnv1a64(data)

    @given(U64)
    def test_hash_u64_in_range(self, x):
        assert 0 <= hash_u64(x) < (1 << 64)

    def test_hash_u64_spreads_small_ints(self):
        sigs = {hash_u64(i) for i in range(100)}
        assert len(sigs) == 100

    def test_combine_frames_order_sensitive(self):
        a, b = hash_u64(1), hash_u64(2)
        assert combine_frames([a, b]) != combine_frames([b, a])

    def test_combine_frames_empty_is_zero(self):
        assert combine_frames([]) == 0

    def test_frame_signature_distinguishes_lines(self):
        assert frame_signature("f.py", "g", 10) != frame_signature("f.py", "g", 11)


class TestCallPath:
    def test_empty_sequence_is_zero(self):
        assert callpath_signature([]) == 0

    def test_repeatable(self):
        sigs = [hash_u64(i) for i in (5, 6, 7)]
        assert callpath_signature(sigs) == callpath_signature(sigs)

    def test_order_sensitive(self):
        a, b = hash_u64(10), hash_u64(20)
        assert callpath_signature([a, b]) != callpath_signature([b, a])

    def test_permutations_do_not_cancel(self):
        # Plain XOR of [a, b, a, b] and [a, a, b, b] would collide; the
        # sequence-number multiplier must separate them.
        a, b = hash_u64(3), hash_u64(4)
        assert callpath_signature([a, b, a, b]) != callpath_signature([a, a, b, b])

    def test_recursion_does_not_cancel(self):
        # XOR alone would give sig([a, a]) == 0 == sig([]).
        a = hash_u64(9)
        assert callpath_signature([a, a]) != 0

    @given(st.lists(U64, min_size=1, max_size=30))
    def test_in_range(self, sigs):
        assert 0 <= callpath_signature(sigs) < (1 << 64)

    def test_a_run_of_one_call_site_keeps_few_bits(self):
        """A documented limitation of the paper's formula, not a bug of
        this code: for a run of one site ``1·s ^ 2·s ^ 3·s ^ 4·s`` keeps
        only a few high bits of ``s``, so two different sites can give one
        Call-Path.  These two are the stack signatures of
        ``test_pipeline_fuzz``'s ``["shift_right"] * 4`` step from one
        checkout path, where the collision, with ``ClusterSet.prune``'s
        per-group rule, costs the Chameleon trace its rank coverage
        (docs/INTERNALS.md, "Known gaps")."""
        s, r = 0xD840DCF9E6983E3C, 0xD840D8F9E69830F0
        assert s != r
        assert callpath_signature([s] * 4) == callpath_signature([r] * 4) \
            == 0x8100800002000000


class TestRunningAverage:
    def test_single_value(self):
        ra = RunningAverage()
        ra.add(1000)
        assert ra.signature() == 1000

    def test_empty_signature_zero(self):
        assert RunningAverage().signature() == 0

    @given(st.lists(U64, min_size=1, max_size=100))
    def test_tracks_true_mean_without_overflow(self, xs):
        ra = RunningAverage()
        for x in xs:
            ra.add(x)
        true_mean = sum(xs) / len(xs)
        # relative error of the float estimator stays tiny
        assert abs(ra.mean - true_mean) <= max(1.0, true_mean * 1e-9)

    @given(st.lists(U64, min_size=1, max_size=40), st.lists(U64, min_size=1, max_size=40))
    def test_merge_equals_combined_stream(self, xs, ys):
        a, b, c = RunningAverage(), RunningAverage(), RunningAverage()
        for x in xs:
            a.add(x)
            c.add(x)
        for y in ys:
            b.add(y)
            c.add(y)
        a.merge(b)
        assert a.count == c.count
        assert abs(a.mean - c.mean) < max(1.0, c.mean * 1e-9)

    def test_merge_empty_noop(self):
        a = RunningAverage()
        a.add(5)
        a.merge(RunningAverage())
        assert a.count == 1 and a.signature() == 5


class TestEndpointSignatures:
    def test_observe_none_ignored(self):
        es = EndpointSignatures()
        es.observe(None, None)
        assert es.values() == (0, 0)

    def test_src_dest_independent(self):
        es = EndpointSignatures()
        es.observe(1, None)
        es.observe(None, -1)
        src, dest = es.values()
        assert src != 0 and dest != 0 and src != dest

    def test_same_offsets_same_signature(self):
        a, b = EndpointSignatures(), EndpointSignatures()
        for _ in range(3):
            a.observe(1, -1)
            b.observe(1, -1)
        assert a.values() == b.values()

    def test_reset(self):
        es = EndpointSignatures()
        es.observe(2, 3)
        es.reset()
        assert es.values() == (0, 0)


_OFFSETS = st.none() | st.integers(-(1 << 70), 1 << 70) | st.integers(-9, 9)


class TestOffsetTable:
    """``EndpointSignatures.observe`` reads ``hash_u64(offset)`` from a
    bounded module table; what it folds in is what the uncached hash is."""

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(_OFFSETS, _OFFSETS), max_size=60),
           st.integers(1, 5))
    def test_overflowing_table_folds_the_uncached_hash(self, pairs, cap):
        table: dict[int, int] = {}
        with mock.patch.object(signatures, "_offset_sig_cache", table), \
                mock.patch.object(signatures, "_SIG_CACHE_MAX", cap):
            es = EndpointSignatures()
            src, dest = RunningAverage(), RunningAverage()
            for s, d in pairs:
                es.observe(s, d)
                if s is not None:
                    src.add(hash_u64(s))
                if d is not None:
                    dest.add(hash_u64(d))
                assert len(table) <= cap
                assert all(table[k] == hash_u64(k) for k in table)
        assert (es.src, es.dest) == (src, dest)
        assert es.values() == (src.signature(), dest.signature())

    def test_a_chameleon_cell_hashes_each_offset_once(self, monkeypatch):
        """Work counter, no timing: a P=16 ``pop`` chameleon cell calls
        ``hash_u64`` at most once per distinct endpoint offset, though
        every event feeds two accumulators."""
        from repro.harness.runner import Mode, run_mode
        from repro.workloads import make_workload

        calls: Counter = Counter()
        real = signatures.hash_u64

        def counting(value):
            calls[value] += 1
            return real(value)

        monkeypatch.setattr(signatures, "_offset_sig_cache", {})
        monkeypatch.setattr(signatures, "hash_u64", counting)
        result = run_mode(make_workload("pop", iterations=6), 16,
                          Mode.CHAMELEON)
        assert result.trace is not None and calls
        assert max(calls.values()) == 1


class _Level2:
    @staticmethod
    def call(walker, logical):
        return walker.capture(logical)


def _level1(walker, logical):
    return _Level2.call(walker, logical)


class TestStackWalker:
    def test_different_call_sites_differ(self):
        w = StackWalker()
        sig_a, _ = w.capture()
        sig_b, _ = w.capture()
        # same function, different line numbers
        assert sig_a != sig_b

    def test_same_call_site_stable(self):
        w = StackWalker()
        sigs = [w.capture()[0] for _ in range(3)]
        assert sigs[0] == sigs[1] == sigs[2]

    def test_deeper_stack_changes_signature(self):
        w = StackWalker()
        direct, _ = w.capture()
        nested, frames = _level1(w, ())
        assert direct != nested
        assert any("_level1" in f for f in frames)

    def test_logical_frames_contribute(self):
        w = StackWalker()

        def site():
            return w.capture(()), w.capture(("phase-x",))

        (plain, _), (tagged, frames) = site()
        # NOTE: the two captures are on different lines, so compare the
        # logical-frame effect at one site instead:
        sig1, _ = _level1(w, ())
        sig2, frames2 = _level1(w, ("phase-x",))
        assert sig1 != sig2
        assert "<phase-x>" in frames2

    @given(st.lists(st.text(max_size=8), max_size=5), st.text(max_size=8))
    def test_pushed_frame_is_derivable_from_the_capture_without_it(
            self, logical, label):
        """What ``exchange`` relies on: capture once, derive every call
        site — signature and labels equal a real capture under the pushed
        frame, for any logical stack, at any real depth."""
        w = StackWalker()
        for call in (_Level2.call, _level1):
            # one line: the test's own frame must read the same both times
            bare, pushed = [call(w, s) for s in (logical, logical + [label])]
            assert push_logical(bare, label) == pushed

    def test_frame_kinds_are_classified_once_per_file(self):
        w, skipping = StackWalker(), StackWalker(extra_skip=(__file__,))
        seen = []
        for _ in range(2):
            seen.append((_level1(w, ()), dict(w._frame_kind)))
        assert seen[0] == seen[1] and seen[0][1][__file__] == 1
        # the memo is the walker's own: another walker's skip list holds
        kept, skipped = [walker.capture()[1] for walker in (w, skipping)]
        here = __file__.rsplit("/", 1)[-1]
        assert any(here in label for label in kept)
        assert not any(here in label for label in skipped)
        assert skipping._frame_kind[__file__] == 0

    def test_walk_stops_at_the_simulator(self):
        from repro.simmpi import run_spmd

        async def main(ctx):
            w = StackWalker()
            sig, frames = w.capture()
            return frames, sorted(w._frame_kind.values())

        frames, kinds = run_spmd(main, 1).results[0]
        assert [f.split(":")[1] for f in frames] == ["main"]
        assert kinds == [-1, 1]  # this file kept, the walk ends in simmpi
