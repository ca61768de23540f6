"""Cluster sizes and inverse-cluster-size weights from a distance threshold.

Two semantics are shipped, because non-transitive closeness admits two
readings of "cluster":

* ``neighborhood`` (default): item i's cluster size k_i is 1 (itself) plus
  the number of other items strictly closer than the threshold. Membership
  is per-item and non-transitive, so the total weight sum can be a
  non-integer.
* ``partition``: items are grouped into single-linkage clusters, the
  connected components of the strict-threshold graph, read off as cuts of
  one minimum spanning tree of the distances. Per-cluster weights are
  1/|cluster|, each cluster's weights sum to 1, and the weight total equals
  the cluster count exactly.

A threshold becomes one integer mismatch cutoff c, with d < a_crit iff
count < c; c is rounded from ``a_crit * m`` with a small guard, so grid
values k/m never wobble on their floating-point representation.

Both semantics read their cluster sizes from one kernel that walks
ascending cutoffs in a single pass: a sweep visits every cutoff once, and
the single-threshold functions below are the same walk over one cutoff.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distance import DistanceMatrix

# Absolute slack when rounding a_crit * m to an integer cutoff. Keeps
# "count < a_crit * m" stable when a_crit is (an FP image of) a grid
# point k/m: the product then sits within an ulp of an integer, far closer
# than the guard.
THRESHOLD_GUARD = 1e-9

NEIGHBORHOOD = "neighborhood"
PARTITION = "partition"
MODES = (NEIGHBORHOOD, PARTITION)


@dataclass(frozen=True, eq=False)
class WeightAssignment:
    """Per-item cluster sizes k and weights w = 1/k at one threshold."""

    a_crit: float
    mode: str
    k: np.ndarray
    w: np.ndarray
    sum_w: float
    singleton_count: int

    def __post_init__(self) -> None:
        k = np.asarray(self.k, dtype=np.int64)
        w = np.asarray(self.w, dtype=np.float64)
        n = k.size
        if w.size != n or n == 0:
            raise ValueError("k and w must be equal-length and non-empty")
        if (k < 1).any():
            raise ValueError("cluster sizes must be >= 1")
        if np.max(np.abs(w * k - 1.0)) > 1e-12:
            raise ValueError("weights must satisfy w = 1/k")
        if not 1.0 - 1e-9 <= self.sum_w <= n + 1e-9:
            raise ValueError(f"sum_w {self.sum_w} outside [1, n]")
        if self.singleton_count != int(np.count_nonzero(k == 1)):
            raise ValueError("singleton_count inconsistent with k")
        k.setflags(write=False)
        w.setflags(write=False)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "w", w)

    @property
    def n(self) -> int:
        return int(self.k.size)


@dataclass(frozen=True, eq=False)
class Partition:
    """Disjoint clusters covering all items; ids ordered by smallest member."""

    cluster_of: np.ndarray
    clusters: tuple[tuple[int, ...], ...]
    a_crit: float

    def __post_init__(self) -> None:
        cluster_of = np.asarray(self.cluster_of, dtype=np.int64)
        clusters = tuple(tuple(int(i) for i in c) for c in self.clusters)
        seen: list[int] = []
        for cid, members in enumerate(clusters):
            if not members:
                raise ValueError("empty cluster")
            for i in members:
                seen.append(i)
                if cluster_of[i] != cid:
                    raise ValueError("cluster_of disagrees with clusters")
        if sorted(seen) != list(range(cluster_of.size)):
            raise ValueError("clusters must partition all items")
        firsts = [min(c) for c in clusters]
        if firsts != sorted(firsts):
            raise ValueError("cluster ids must be ordered by smallest member")
        cluster_of.setflags(write=False)
        object.__setattr__(self, "cluster_of", cluster_of)
        object.__setattr__(self, "clusters", clusters)

    @property
    def n(self) -> int:
        return int(self.cluster_of.size)


def _cutoff(a_crit: float, m: int) -> int:
    """Integer mismatch cutoff c with ``count < c`` iff ``count / m < a_crit``.

    The one place a float threshold becomes an integer. a_crit * m is
    lowered by the guard before rounding up, so a grid value k/m yields
    exactly k; cutoffs past m admit every pair and are clamped to m + 1.
    """
    if not 0 <= a_crit < math.inf:
        raise ValueError(f"a_crit must be finite and >= 0, got {a_crit}")
    return math.ceil(min(a_crit * m - THRESHOLD_GUARD, m + 1))


def _sizes_by_cutoff(dm: DistanceMatrix, cutoffs: list[int], mode: str):
    """Cluster sizes at each of the ascending integer cutoffs, in one pass.

    Yields ``(k, labels)`` per cutoff. Neighborhood: k_i counts the
    entries of row i below the cutoff, found by one searchsorted on
    ``dm.sorted_counts``; labels is None. Partition: the spanning-tree
    edges below each next cutoff are merged into a running label array
    holding each item's smallest cluster member, so every tree edge is
    merged once per pass; k_i is the size of i's cluster. The label array
    is updated in place by the next step: read it before advancing.
    """
    n = dm.n
    if mode == NEIGHBORHOOD:
        # The zero diagonal counts the item itself whenever the cutoff is positive.
        starts = np.arange(n) * (dm.m + 2)
        before = np.arange(n) * n
        for c in cutoffs:
            below = np.searchsorted(dm.sorted_counts, starts + c) - before
            yield np.maximum(1, below), None
    elif mode == PARTITION:
        tree = dm.spanning_tree
        labels = np.arange(n)
        merged = 0
        for c in cutoffs:
            below = int(np.searchsorted(tree[:, 0], c))
            for _, i, j in tree[merged:below].tolist():
                low, high = sorted((labels[i], labels[j]))
                # each label stays its cluster's smallest member
                labels[labels == high] = low
            merged = below
            yield np.bincount(labels)[labels], labels
    else:
        raise ValueError(f"unknown mode: {mode!r}")


def neighborhood_weights(dm: DistanceMatrix, a_crit: float) -> WeightAssignment:
    """Per-item neighborhood sizes and weights at a threshold.

    k_i counts the item itself plus every other item strictly within
    a_crit of it; w_i = 1/k_i. Neighborhoods of different items may
    overlap without coinciding (membership is not transitive).
    """
    k, _ = next(_sizes_by_cutoff(dm, [_cutoff(a_crit, dm.m)], NEIGHBORHOOD))
    w = 1.0 / k
    return WeightAssignment(
        a_crit=a_crit,
        mode=NEIGHBORHOOD,
        k=k,
        w=w,
        sum_w=math.fsum(w.tolist()),
        singleton_count=int(np.count_nonzero(k == 1)),
    )


def partition_clusters(dm: DistanceMatrix, a_crit: float) -> Partition:
    """Single-linkage clusters: the cut of the spanning tree below the cutoff.

    Items share a cluster iff they are joined by a chain of strictly
    sub-threshold distances. Cluster ids are assigned in order of each
    cluster's smallest member index.
    """
    _, labels = next(_sizes_by_cutoff(dm, [_cutoff(a_crit, dm.m)], PARTITION))
    _, cluster_of = np.unique(labels, return_inverse=True)
    members = np.argsort(cluster_of, kind="stable")
    bounds = np.cumsum(np.bincount(cluster_of))[:-1]
    clusters = tuple(tuple(group.tolist()) for group in np.split(members, bounds))
    return Partition(cluster_of=cluster_of, clusters=clusters, a_crit=a_crit)


def partition_weights(partition: Partition) -> WeightAssignment:
    """Inverse-component-size weights; each cluster's weights sum to 1.

    sum_w equals the number of clusters exactly, by construction.
    """
    sizes = np.bincount(partition.cluster_of)[partition.cluster_of]
    w = 1.0 / sizes
    return WeightAssignment(
        a_crit=partition.a_crit,
        mode=PARTITION,
        k=sizes,
        w=w,
        sum_w=float(len(partition.clusters)),
        singleton_count=int(np.count_nonzero(sizes == 1)),
    )
