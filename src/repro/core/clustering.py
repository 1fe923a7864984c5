"""Signature-space clustering: grouping processes and electing leads.

Processes with identical ``(Call-Path, SRC, DEST)`` signature triples form a
*cluster* (the hashmap ``<signature, ranklist>`` of the paper's Algorithm 3).
Cluster sets are merged up the radix tree; when a node holds more clusters
than the budget allows it prunes them with *Find Top K* (Algorithm 2):

1. clusters are grouped by Call-Path signature — every Call-Path group keeps
   at least one representative (Chameleon never drops an MPI event);
2. within each group, ``K / num_callpaths`` clusters are selected by
   K-Farthest / K-Medoids / K-Random over the (SRC, DEST) distance;
3. every non-selected cluster is merged into the closest selected one, so
   the union of ranklists always covers all P ranks;
4. K grows dynamically if there are more Call-Path groups than K.

All distance evaluations are counted in a
:class:`~repro.scalatrace.rsd.WorkMeter` for virtual-time charging; per the
paper each tree node handles at most ``2K + 1`` items so the clustering work
per marker is ``O(K^3 log P)`` — constant in P for fixed K up to the tree
depth.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any

from ..scalatrace.ranklist import RankSet
from ..scalatrace.rsd import WorkMeter

#: RNG seed of the ``krandom`` selector.
KRANDOM_SEED = 0x5EED

SigTriple = tuple[int, int, int]  # (callpath, src, dest)


@dataclass
class ClusterInfo:
    """One cluster: a signature triple, its member ranks, and its lead.

    ``src_homogeneous`` / ``dest_homogeneous`` record whether every absorbed
    cluster shared the same SRC/DEST signature.  A heterogeneous cluster's
    members used *different relative endpoint offsets* (e.g. every worker
    sending to the absolute master rank), so when the lead's trace stands in
    for the whole cluster the replay must not transpose the lead's relative
    encoding — the absolute encoding is the one that generalizes.
    """

    signature: SigTriple
    members: RankSet
    lead: int
    src_homogeneous: bool = True
    dest_homogeneous: bool = True

    @property
    def callpath(self) -> int:
        return self.signature[0]

    def absorb(self, other: "ClusterInfo") -> None:
        """Merge another cluster's members (keeps this cluster's signature;
        losers inherit the winner's representative, paper Alg. 2 line 8)."""
        if other.signature[1] != self.signature[1] or not other.src_homogeneous:
            self.src_homogeneous = False
        if other.signature[2] != self.signature[2] or not other.dest_homogeneous:
            self.dest_homogeneous = False
        self.members = self.members.union(other.members)
        self.lead = min(self.lead, other.lead)

    def size_bytes(self) -> int:
        return 8 * 4 + self.members.size_bytes()  # 3 sigs + lead + ranklist

    def copy(self) -> "ClusterInfo":
        return ClusterInfo(self.signature, RankSet(self.members.ranks()), self.lead)


def distance(a: ClusterInfo, b: ClusterInfo, meter: WorkMeter | None = None) -> float:
    """Signature-space distance on the (SRC, DEST) coordinates."""
    if meter is not None:
        meter.comparisons += 1
    return float(abs(a.signature[1] - b.signature[1])) + float(
        abs(a.signature[2] - b.signature[2])
    )


def _sort_key(c: ClusterInfo):
    # Deterministic ordering: biggest clusters first, ties by lead rank.
    return (-c.members.count, c.lead)


def k_farthest(
    clusters: list[ClusterInfo], k: int, meter: WorkMeter | None = None
) -> list[ClusterInfo]:
    """Maximin selection: greedily add the cluster farthest from the set."""
    if k >= len(clusters):
        return list(clusters)
    pool = sorted(clusters, key=_sort_key)
    selected = [pool.pop(0)]
    while len(selected) < k and pool:
        best_i, best_d = 0, -1.0
        for i, cand in enumerate(pool):
            d = min(distance(cand, s, meter) for s in selected)
            if d > best_d:
                best_i, best_d = i, d
        selected.append(pool.pop(best_i))
    return selected


def k_medoids(
    clusters: list[ClusterInfo],
    k: int,
    meter: WorkMeter | None = None,
    max_rounds: int = 10,
) -> list[ClusterInfo]:
    """PAM-style medoid selection (the paper's small-input K-Medoids:
    each tree node sees at most 2K+1 items, so O(K^3) per call)."""
    if k >= len(clusters):
        return list(clusters)
    pool = sorted(clusters, key=_sort_key)
    medoids = pool[:k]
    for _round in range(max_rounds):
        # assign
        groups: dict[int, list[ClusterInfo]] = {i: [] for i in range(k)}
        for c in pool:
            best = min(range(k), key=lambda i: distance(c, medoids[i], meter))
            groups[best].append(c)
        # update: the member minimizing total intra-group distance
        new_medoids = []
        for i in range(k):
            group = groups[i] or [medoids[i]]
            best = min(
                group,
                key=lambda cand: (
                    sum(distance(cand, o, meter) for o in group),
                    cand.lead,
                ),
            )
            new_medoids.append(best)
        if [m.lead for m in new_medoids] == [m.lead for m in medoids]:
            break
        medoids = new_medoids
    return medoids


def k_random(
    clusters: list[ClusterInfo], k: int, seed: int, meter: WorkMeter | None = None
) -> list[ClusterInfo]:
    """Seeded random selection (baseline from the predecessor papers)."""
    if k >= len(clusters):
        return list(clusters)
    pool = sorted(clusters, key=_sort_key)
    rng = random.Random(seed)
    if meter is not None:
        meter.comparisons += len(pool)
    return rng.sample(pool, k)


def hierarchical(
    clusters: list[ClusterInfo], k: int, meter: WorkMeter | None = None
) -> list[ClusterInfo]:
    """Agglomerative (multi-level hierarchical) selection.

    The predecessor papers [1-3] also used multi-level hierarchical
    clustering: greedily merge the two closest groups until ``k`` remain;
    the representative of each surviving group is its largest member.

    A signature-bucketing pre-pass collapses zero-distance coordinate
    classes up front (provably the prefix of the greedy trajectory when at
    least ``k`` classes exist), and each group carries one representative
    per absorbed class, so the per-round distance work is quadratic in the
    number of *distinct* (SRC, DEST) classes rather than in the item count.
    """
    if k >= len(clusters):
        return list(clusters)
    ordered = sorted(clusters, key=_sort_key)

    # Signature-bucketing pre-pass: items sharing (SRC, DEST) coordinates
    # are at distance zero, and greedy single linkage always exhausts the
    # zero-distance merges before any positive-distance one, collapsing
    # each coordinate class into its first occurrence.  When at least k
    # classes exist that collapse is exactly the prefix of the quadratic
    # trajectory, so we skip straight past it and merge whole buckets —
    # the surviving partition (and hence the output) is identical while
    # distance work drops from O(n^2) per merge round to O(buckets^2).
    buckets: dict[tuple[int, int], list[ClusterInfo]] = {}
    for c in ordered:
        buckets.setdefault((c.signature[1], c.signature[2]), []).append(c)
    if len(buckets) >= k:
        groups: list[list[ClusterInfo]] = list(buckets.values())
    else:
        # Fewer classes than k: the old trajectory stops before finishing
        # the zero-distance merges, so collapsing buckets would over-merge.
        groups = [[c] for c in ordered]
    # One representative per absorbed coordinate class: single linkage only
    # depends on the distinct coordinates present in each group, so the
    # distance work per pair is O(classes), not O(members).
    reps: list[list[ClusterInfo]] = [[g[0]] for g in groups]

    def group_distance(a: list[ClusterInfo], b: list[ClusterInfo]) -> float:
        # single linkage over the signature-space distance
        return min(distance(x, y, meter) for x in a for y in b)

    while len(groups) > k:
        best = (0, 1)
        best_d = float("inf")
        for i in range(len(groups)):
            for j in range(i + 1, len(groups)):
                d = group_distance(reps[i], reps[j])
                if d < best_d:
                    best_d = d
                    best = (i, j)
        i, j = best
        groups[i].extend(groups.pop(j))
        reps[i].extend(reps.pop(j))
    out = []
    for group in groups:
        head = min(group, key=_sort_key)
        for other in group:
            if other is not head:
                head.absorb(other)
                if meter is not None:
                    meter.merges += 1
        out.append(head)
    return out


def _k_random_group(
    clusters: list[ClusterInfo], k: int, meter: WorkMeter | None = None
) -> list[ClusterInfo]:
    """``krandom`` over one Call-Path group (``prune`` selects per group):
    the group draws from its own stream, ``KRANDOM_SEED ^ callpath``."""
    seed = KRANDOM_SEED ^ clusters[0].callpath if clusters else KRANDOM_SEED
    return k_random(clusters, k, seed, meter)


_SELECTORS = {
    "kfarthest": k_farthest,
    "kmedoids": k_medoids,
    "krandom": _k_random_group,
    "hierarchical": hierarchical,
}


def find_top_k(
    clusters: list[ClusterInfo],
    k: int,
    algorithm: str = "kfarthest",
    meter: WorkMeter | None = None,
) -> list[ClusterInfo]:
    """Algorithm 2: select ``k`` representatives and absorb the rest.

    Returns the selected clusters (copies are not made: the inputs' member
    sets are folded into the winners).
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    try:
        selector = _SELECTORS[algorithm]
    except KeyError:
        raise ValueError(f"unknown clustering algorithm {algorithm!r}") from None
    selected = selector(clusters, k, meter)
    chosen = {id(c) for c in selected}
    for c in clusters:
        if id(c) in chosen:
            continue
        closest = min(selected, key=lambda s: (distance(c, s, meter), s.lead))
        closest.absorb(c)
        if meter is not None:
            meter.merges += 1
    return selected


class ClusterSet:
    """The hashmap ``<signature triple, ranklist>`` reduced up the tree."""

    def __init__(self) -> None:
        self.clusters: dict[SigTriple, ClusterInfo] = {}

    @classmethod
    def local(cls, signature: SigTriple, rank: int) -> "ClusterSet":
        cs = cls()
        cs.clusters[signature] = ClusterInfo(signature, RankSet.single(rank), rank)
        return cs

    def __len__(self) -> int:
        return len(self.clusters)

    @property
    def num_callpaths(self) -> int:
        return len({sig[0] for sig in self.clusters})

    def merge(self, other: "ClusterSet", meter: WorkMeter | None = None) -> None:
        """Union two cluster maps: identical triples coalesce."""
        for sig, info in other.clusters.items():
            mine = self.clusters.get(sig)
            if mine is None:
                self.clusters[sig] = info
            else:
                mine.absorb(info)
            if meter is not None:
                meter.merges += 1

    def prune(
        self,
        k: int,
        algorithm: str = "kfarthest",
        meter: WorkMeter | None = None,
    ) -> None:
        """Reduce to at most ``max(k, num_callpaths)`` clusters, keeping at
        least one per Call-Path group (dynamic-K rule)."""
        groups: dict[int, list[ClusterInfo]] = {}
        for info in self.clusters.values():
            groups.setdefault(info.callpath, []).append(info)
        num_cp = len(groups)
        per_group = max(1, k // num_cp)
        kept: list[ClusterInfo] = []
        for cp in sorted(groups):
            kept.extend(
                find_top_k(
                    sorted(groups[cp], key=_sort_key),
                    per_group,
                    algorithm,
                    meter,
                )
            )
        self.clusters = {c.signature: c for c in kept}

    def all_clusters(self) -> list[ClusterInfo]:
        """Deterministic order: by (callpath, src, dest) signature."""
        return [self.clusters[sig] for sig in sorted(self.clusters)]

    def leads(self) -> list[int]:
        return sorted(c.lead for c in self.all_clusters())

    def view(self, member_cap: int = 64) -> dict[str, Any]:
        """Plain-data (JSON) view: each cluster's lead, size, signature
        and, up to ``member_cap`` members, its member ranks."""
        clusters = [
            {"lead": c.lead, "size": c.members.count,
             "signature": list(c.signature),
             **({"members": list(c.members.ranks())}
                if c.members.count <= member_cap else {})}
            for c in self.all_clusters()
        ]
        return {"num_clusters": len(self), "num_callpaths": self.num_callpaths,
                "leads": self.leads(), "clusters": clusters}

    def covered_ranks(self) -> tuple[int, ...]:
        out: set[int] = set()
        for c in self.clusters.values():
            out.update(c.members.ranks())
        return tuple(sorted(out))

    def size_bytes(self) -> int:
        return sum(c.size_bytes() for c in self.clusters.values())

    def nbytes_hint(self) -> int:
        """Lets the simulator size messages carrying cluster maps."""
        return self.size_bytes()

    def find_cluster_of(self, rank: int) -> ClusterInfo | None:
        for c in self.all_clusters():
            if rank in c.members:
                return c
        return None

    def reelect(self, failed: "set[int] | frozenset[int]") -> tuple[
        dict[int, int], list[SigTriple]
    ]:
        """Repair the cluster map after rank failures.

        Failed ranks are dropped from every member list; a cluster whose
        lead died elects the lowest surviving member — justified because
        cluster members are signature-equivalent, so any member's trace
        stands in for the group.  Returns ``(replacements, collapsed)``:
        the ``old_lead -> new_lead`` map and the signatures of clusters
        with no survivors (removed; their behaviour is unrecoverable and
        the tracer should fall back to full tracing).

        Deterministic: iteration is in signature order and elections take
        the minimum rank, so every rank computing this from the same
        failed set repairs its copy identically.
        """
        replacements: dict[int, int] = {}
        collapsed: list[SigTriple] = []
        for sig in sorted(self.clusters):
            info = self.clusters[sig]
            survivors = [r for r in info.members.ranks() if r not in failed]
            if not survivors:
                collapsed.append(sig)
                continue
            if len(survivors) != info.members.count:
                info.members = RankSet(survivors)
            if info.lead in failed:
                new_lead = min(survivors)
                replacements[info.lead] = new_lead
                info.lead = new_lead
        for sig in collapsed:
            del self.clusters[sig]
        return replacements, collapsed
