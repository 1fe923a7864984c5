"""Algorithm 2: cluster sets, Top-K selection, coverage invariants."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (
    ClusterInfo,
    ClusterSet,
    distance,
    find_top_k,
    hierarchical,
    k_farthest,
    k_medoids,
    k_random,
)
from repro.scalatrace import RankSet, WorkMeter


def cluster(cp, src, dest, ranks):
    ranks = list(ranks)
    return ClusterInfo((cp, src, dest), RankSet(ranks), min(ranks))


class TestDistance:
    def test_zero_for_identical(self):
        a = cluster(1, 100, 200, [0])
        b = cluster(1, 100, 200, [1])
        assert distance(a, b) == 0.0

    def test_symmetric(self):
        a = cluster(1, 100, 200, [0])
        b = cluster(1, 500, 80, [1])
        assert distance(a, b) == distance(b, a) == 400.0 + 120.0

    def test_meter_counts(self):
        m = WorkMeter()
        distance(cluster(1, 0, 0, [0]), cluster(1, 1, 1, [1]), m)
        assert m.comparisons == 1


class TestSelectors:
    def make_line(self, n):
        # clusters spaced on a line in SRC coordinate
        return [cluster(1, i * 100, 0, [i]) for i in range(n)]

    def test_k_ge_n_returns_all(self):
        cl = self.make_line(3)
        for fn in (k_farthest, k_medoids):
            assert len(fn(cl, 5)) == 3
        assert len(k_random(cl, 5, seed=1)) == 3

    def test_k_farthest_spreads(self):
        cl = self.make_line(10)
        sel = k_farthest(cl, 3)
        srcs = sorted(c.signature[1] for c in sel)
        # maximin on a line picks both extremes
        assert srcs[0] == 0 or srcs[0] == 100  # seed is the largest/first
        assert 900 in [c.signature[1] for c in sel]

    def test_k_medoids_picks_k(self):
        sel = k_medoids(self.make_line(9), 3)
        assert len(sel) == 3
        assert len({c.lead for c in sel}) == 3

    def test_hierarchical_merges_closest(self):
        # two tight groups far apart: hierarchical with k=2 must split them
        tight_a = [cluster(1, i, 0, [i]) for i in range(3)]          # src 0..2
        tight_b = [cluster(1, 10_000 + i, 0, [i + 3]) for i in range(3)]
        sel = hierarchical(tight_a + tight_b, 2)
        assert len(sel) == 2
        srcs = sorted(c.signature[1] for c in sel)
        assert srcs[0] < 100 and srcs[1] >= 10_000
        covered = set()
        for c in sel:
            covered.update(c.members.ranks())
        assert covered == set(range(6))

    def test_hierarchical_k_ge_n(self):
        cl = self.make_line(3)
        assert len(hierarchical(cl, 5)) == 3

    def test_k_random_deterministic_per_seed(self):
        cl = self.make_line(8)
        a = [c.lead for c in k_random(cl, 3, seed=42)]
        b = [c.lead for c in k_random(cl, 3, seed=42)]
        c2 = [c.lead for c in k_random(cl, 3, seed=43)]
        assert a == b
        assert a != c2 or True  # different seed may coincide, no assert

    def test_find_top_k_absorbs_losers(self):
        cl = self.make_line(6)
        sel = find_top_k(cl, 2, "kfarthest")
        covered = set()
        for c in sel:
            covered.update(c.members.ranks())
        assert covered == set(range(6))

    def test_find_top_k_invalid(self):
        with pytest.raises(ValueError):
            find_top_k(self.make_line(3), 0)
        with pytest.raises(ValueError):
            find_top_k(self.make_line(3), 2, algorithm="bogus")

    @given(
        st.integers(1, 6),
        st.lists(
            st.tuples(st.integers(0, 3), st.integers(0, 10**6), st.integers(0, 10**6)),
            min_size=1,
            max_size=20,
        ),
        st.sampled_from(["kfarthest", "kmedoids", "krandom", "hierarchical"]),
    )
    @settings(max_examples=60, deadline=None)
    def test_coverage_invariant_all_algorithms(self, k, triples, algo):
        """No rank is ever lost by Top-K selection."""
        clusters = [
            cluster(cp, src, dest, [i]) for i, (cp, src, dest) in enumerate(triples)
        ]
        sel = find_top_k(clusters, k, algo)
        covered = set()
        for c in sel:
            covered.update(c.members.ranks())
        assert covered == set(range(len(triples)))
        assert len(sel) <= max(k, len(triples)) and len(sel) >= 1


class TestClusterSet:
    def test_local(self):
        cs = ClusterSet.local((1, 2, 3), rank=5)
        assert len(cs) == 1
        assert cs.leads() == [5]
        assert cs.covered_ranks() == (5,)

    def test_merge_coalesces_identical_triples(self):
        a = ClusterSet.local((1, 2, 3), 0)
        b = ClusterSet.local((1, 2, 3), 1)
        a.merge(b)
        assert len(a) == 1
        assert a.covered_ranks() == (0, 1)
        assert a.leads() == [0]

    def test_merge_keeps_distinct_triples(self):
        a = ClusterSet.local((1, 2, 3), 0)
        b = ClusterSet.local((9, 2, 3), 1)
        a.merge(b)
        assert len(a) == 2
        assert a.num_callpaths == 2

    def test_prune_keeps_every_callpath(self):
        cs = ClusterSet()
        for i in range(12):
            cs.merge(ClusterSet.local((i % 4, i * 1000, 0), i))
        cs.prune(k=2, algorithm="kfarthest")
        # 4 callpaths > k=2: dynamic K keeps one per callpath
        assert cs.num_callpaths == 4
        assert len(cs) == 4
        assert cs.covered_ranks() == tuple(range(12))

    def test_prune_respects_k_within_callpath(self):
        cs = ClusterSet()
        for i in range(10):
            cs.merge(ClusterSet.local((1, i * 1000, 0), i))
        cs.prune(k=3, algorithm="kfarthest")
        assert len(cs) == 3
        assert cs.covered_ranks() == tuple(range(10))

    @pytest.mark.xfail(strict=True, reason=(
        "prune keeps k // num_callpaths clusters per Call-Path group, so 3 "
        "clusters over 2 groups become 2 under k=3; fixing it re-pins "
        "test_phase_pins[cg-P4-chameleon] (docs/INTERNALS.md)"))
    def test_prune_keeps_every_cluster_when_they_fit(self):
        cs = ClusterSet()
        for rank, sig in enumerate([(1, 0, 0), (1, 5000, 0), (2, 0, 0)]):
            cs.merge(ClusterSet.local(sig, rank))
        cs.prune(k=3, algorithm="kfarthest")
        assert len(cs) == 3
        assert cs.leads() == [0, 1, 2]

    def test_find_cluster_of(self):
        cs = ClusterSet.local((1, 2, 3), 0)
        cs.merge(ClusterSet.local((1, 2, 3), 4))
        cs.merge(ClusterSet.local((2, 0, 0), 9))
        assert cs.find_cluster_of(4).signature == (1, 2, 3)
        assert cs.find_cluster_of(9).signature == (2, 0, 0)
        assert cs.find_cluster_of(77) is None

    def test_deterministic_order(self):
        cs = ClusterSet()
        for sig in [(3, 0, 0), (1, 5, 0), (1, 2, 0)]:
            cs.merge(ClusterSet.local(sig, sig[0] * 10 + sig[1]))
        sigs = [c.signature for c in cs.all_clusters()]
        assert sigs == sorted(sigs)

    def test_size_bytes_and_hint(self):
        cs = ClusterSet.local((1, 2, 3), 0)
        assert cs.size_bytes() > 0
        assert cs.nbytes_hint() == cs.size_bytes()

    @given(st.lists(st.integers(0, 5), min_size=1, max_size=64), st.integers(1, 9))
    @settings(max_examples=50, deadline=None)
    def test_tree_reduction_coverage(self, callpaths, k):
        """Simulate the tree reduction: merging + pruning in any grouping
        never loses a rank (paper: Chameleon misses no MPI event)."""
        sets = [
            ClusterSet.local((cp, cp * 17, cp * 31), rank)
            for rank, cp in enumerate(callpaths)
        ]
        # pairwise tree reduction
        while len(sets) > 1:
            merged = []
            for i in range(0, len(sets) - 1, 2):
                a, b = sets[i], sets[i + 1]
                a.merge(b)
                if len(a) > 2 * k + 1:
                    a.prune(k)
                merged.append(a)
            if len(sets) % 2:
                merged.append(sets[-1])
            sets = merged
        root = sets[0]
        root.prune(k)
        assert root.covered_ranks() == tuple(range(len(callpaths)))
        # at least one lead per callpath group
        assert root.num_callpaths == len(set(callpaths))
