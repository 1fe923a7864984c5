"""Ranklist factorization and RankSet algebra (heavily property-based)."""

import pytest
from hypothesis import given, strategies as st

from repro.scalatrace import Ranklist, RankSet


class TestRanklist:
    def test_singleton(self):
        rl = Ranklist(5)
        assert rl.count == 1
        assert list(rl.members()) == [5]
        assert rl.dimension == 0

    def test_one_dimension(self):
        rl = Ranklist(2, ((4, 3),))
        assert list(rl.members()) == [2, 5, 8, 11]
        assert rl.count == 4

    def test_two_dimensions_block(self):
        # 2x3 block of a 10-wide grid starting at rank 20
        rl = Ranklist(20, ((2, 10), (3, 1)))
        assert list(rl.members()) == [20, 21, 22, 30, 31, 32]
        assert rl.count == 6
        assert rl.dimension == 2

    def test_contains(self):
        rl = Ranklist(0, ((4, 2),))
        assert 6 in rl and 3 not in rl

    def test_validation(self):
        with pytest.raises(ValueError):
            Ranklist(-1)
        with pytest.raises(ValueError):
            Ranklist(0, ((1, 5),))

    def test_str_format(self):
        assert str(Ranklist(0, ((8, 1),))) == "<1 0 8:1>"

    def test_size_bytes_constant_in_member_count(self):
        small = Ranklist(0, ((4, 1),))
        large = Ranklist(0, ((1024, 1),))
        assert small.size_bytes() == large.size_bytes()


class TestRankSetFactorization:
    def test_contiguous_all_ranks_single_list(self):
        rs = RankSet.contiguous(0, 1024)
        assert len(rs.ranklists) == 1
        assert rs.ranklists[0] == Ranklist(0, ((1024, 1),))

    def test_strided_set(self):
        rs = RankSet(range(0, 64, 4))
        assert len(rs.ranklists) == 1
        assert rs.ranklists[0].dims == ((16, 4),)

    def test_grid_block_two_dims(self):
        ranks = [r * 16 + c for r in range(4) for c in range(4)]
        rs = RankSet(ranks)
        assert len(rs.ranklists) == 1
        rl = rs.ranklists[0]
        assert rl.count == 16
        assert rl.dimension == 2

    def test_three_dims(self):
        ranks = sorted(
            z * 100 + y * 10 + x for z in range(2) for y in range(3) for x in range(4)
        )
        rs = RankSet(ranks)
        assert len(rs.ranklists) == 1
        assert rs.ranklists[0].dimension == 3

    def test_irregular_falls_back_to_runs(self):
        rs = RankSet([0, 1, 2, 10, 11, 12, 99])
        assert rs.ranks() == (0, 1, 2, 10, 11, 12, 99)
        assert len(rs.ranklists) >= 2

    def test_duplicates_removed(self):
        rs = RankSet([3, 3, 1, 1])
        assert rs.ranks() == (1, 3)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            RankSet([-1, 0])

    @given(st.sets(st.integers(0, 2000), min_size=1, max_size=120))
    def test_members_roundtrip(self, ranks):
        rs = RankSet(ranks)
        covered = [m for rl in rs.ranklists for m in rl.members()]
        assert sorted(covered) == sorted(ranks)
        assert rs.count == len(ranks)

    @given(st.integers(0, 50), st.integers(2, 64), st.integers(1, 9))
    def test_arithmetic_always_single_list(self, start, n, stride):
        rs = RankSet(range(start, start + n * stride, stride))
        assert len(rs.ranklists) == 1


class TestRankSetAlgebra:
    def test_union_disjoint(self):
        a = RankSet([0, 1, 2, 3])
        b = RankSet([4, 5, 6, 7])
        u = a.union(b)
        assert u.ranks() == tuple(range(8))
        assert len(u.ranklists) == 1

    def test_union_overlap_dedupes(self):
        u = RankSet([0, 2]).union(RankSet([2, 4]))
        assert u.ranks() == (0, 2, 4)
        assert u.count == 3

    @given(
        st.sets(st.integers(0, 300), min_size=1, max_size=40),
        st.sets(st.integers(0, 300), min_size=1, max_size=40),
    )
    def test_union_equals_set_union(self, xs, ys):
        assert RankSet(xs).union(RankSet(ys)).ranks() == tuple(sorted(xs | ys))

    def test_equality_is_member_equality(self):
        assert RankSet([0, 1, 2, 3]) == RankSet(reversed([0, 1, 2, 3]))
        assert RankSet([0]) != RankSet([1])

    def test_hashable(self):
        assert len({RankSet([1, 2]), RankSet([2, 1]), RankSet([3])}) == 2

    def test_text_roundtrip(self):
        rs = RankSet([7, 3, 11])
        assert RankSet.from_text(rs.to_text()) == rs

    def test_from_text_rejects_empty(self):
        with pytest.raises(ValueError):
            RankSet.from_text("")

    def test_compactness_of_spmd_groups(self):
        # The key space property: "all P ranks" stays O(1) in size.
        small = RankSet.contiguous(0, 8).size_bytes()
        large = RankSet.contiguous(0, 1024).size_bytes()
        assert small == large


def _summed(rs: RankSet) -> int:
    """The definition ``size_bytes`` fixes at construction."""
    return sum(rl.size_bytes() for rl in rs.ranklists)


class TestFixedSize:
    @given(
        st.sets(st.integers(0, 300), min_size=1, max_size=40),
        st.sets(st.integers(0, 300), min_size=1, max_size=40),
    )
    def test_size_is_the_sum_over_ranklists_through_unions(self, xs, ys):
        rs = RankSet(xs)
        subset = RankSet(sorted(xs)[: len(xs) // 2 + 1])
        superset = RankSet(xs | ys)
        assert rs.size_bytes() == _summed(rs)
        assert rs.union(rs) is rs
        assert rs.union(subset) is rs
        for u in (rs.union(superset), superset.union(rs), rs.union(RankSet(ys))):
            assert u.size_bytes() == _summed(u)
            assert u == superset

    def test_record_sizing_never_sizes_a_ranklist(self, monkeypatch):
        """Work counter: ``EventRecord.size_bytes`` reads the participant
        set's fixed size; no ``Ranklist.size_bytes`` call behind it."""
        from repro.scalatrace import EndpointStat, EventRecord, Op, Ranklist

        rec = EventRecord(op=Op.SEND, stack_sig=1,
                          dest=EndpointStat.of(3, 0),
                          participants=RankSet([0, 1, 5, 6, 7, 40]))
        rec.count.add(8)
        rec.dhist.record(1e-6)
        expected = rec.size_bytes()
        calls = [0]
        real = Ranklist.size_bytes

        def counting(rl):
            calls[0] += 1
            return real(rl)

        monkeypatch.setattr(Ranklist, "size_bytes", counting)
        assert rec.size_bytes() == expected
        assert calls[0] == 0
