"""Cluster sizes and inverse-cluster-size weights from a distance threshold.

Two semantics are shipped, because non-transitive closeness admits two
readings of "cluster":

* ``neighborhood`` (default): item i's cluster size k_i is 1 (itself) plus
  the number of other items strictly closer than the threshold. Membership
  is per-item and non-transitive, so the total weight sum can be a
  non-integer.
* ``partition``: items are grouped into single-linkage clusters, the
  connected components of the strict-threshold graph, read off as runs of
  Prim's visiting order of the distances. Per-cluster weights are
  1/|cluster|, each cluster's weights sum to 1, and the weight total equals
  the cluster count exactly.

A threshold becomes one integer mismatch cutoff c, with d < a_crit iff
count < c; c is rounded from ``a_crit * m`` with a small guard, so grid
values k/m never wobble on their floating-point representation.

Both semantics read their cluster sizes at one cutoff from one stateless
kernel, and one step turns those sizes into w, sum_w and the singleton
count. A sweep runs the kernel and the step at each distinct cutoff, in any
order; ``weights_at`` runs them at one.
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


def _cutoff(a_crit: float, m: int) -> int:
    """Integer mismatch cutoff c with ``count < c`` iff ``count / m < a_crit``.

    The one place a float threshold becomes an integer. a_crit * m is
    lowered by the guard before rounding up, so a grid value k/m yields
    exactly k; cutoffs past m admit every pair and are clamped to m + 1.
    """
    if not 0 <= a_crit < math.inf:
        raise ValueError(f"a_crit must be finite and >= 0, got {a_crit}")
    return math.ceil(min(a_crit * m - THRESHOLD_GUARD, m + 1))


def _sizes(dm: DistanceMatrix, c: int, mode: str):
    """Cluster sizes k at the integer cutoff c, and the partition's cluster count.

    Neighborhood: k_i counts the entries of row i below c, found by one
    searchsorted on ``dm.sorted_counts``; the count is None. Partition: the
    clusters are the runs of Prim's order that start where the entering
    count is >= c, and k_i is the length of i's run.
    """
    n = dm.n
    if mode == NEIGHBORHOOD:
        rows = np.arange(n)
        below = np.searchsorted(dm.sorted_counts, rows * (dm.m + 2) + c) - rows * n
        # the zero diagonal counts the item itself whenever c is positive
        return np.maximum(1, below), None
    if mode == PARTITION:
        order, entry = dm.prim_order
        starts = entry >= c
        run = np.cumsum(starts) - 1
        k = np.empty(n, dtype=np.int64)
        k[order] = np.bincount(run)[run]
        return k, int(np.count_nonzero(starts))
    raise ValueError(f"unknown mode: {mode!r}")


def _weights(k: np.ndarray, clusters: int | None):
    """w = 1/k, sum_w and the singleton count from one cutoff's ``(k, clusters)``.

    Neighborhood sum_w is the exactly rounded sum of w. Partition sum_w is
    the cluster count, so it is an integer by construction.
    """
    w = 1.0 / k
    sum_w = math.fsum(w.tolist()) if clusters is None else float(clusters)
    return w, sum_w, int(np.count_nonzero(k == 1))


def weights_at(dm: DistanceMatrix, a_crit: float, mode: str) -> WeightAssignment:
    """Per-item cluster sizes k and weights w = 1/k at one threshold.

    Neighborhood: k_i counts item i plus every other item strictly within
    a_crit of it; neighborhoods may overlap without coinciding.
    Partition: k_i is the size of i's single-linkage cluster.
    """
    k, clusters = _sizes(dm, _cutoff(a_crit, dm.m), mode)
    w, sum_w, singleton_count = _weights(k, clusters)
    return WeightAssignment(
        a_crit=a_crit,
        mode=mode,
        k=k,
        w=w,
        sum_w=sum_w,
        singleton_count=singleton_count,
    )


def partition_clusters(
    dm: DistanceMatrix, a_crit: float
) -> tuple[tuple[int, ...], ...]:
    """Single-linkage clusters: the runs of Prim's order below the cutoff.

    Items share a cluster iff they are joined by a chain of strictly
    sub-threshold distances. Clusters are ordered by their smallest member
    and list their members ascending. A matrix with no items raises
    ValueError, as ``weights_at`` does.
    """
    if dm.n == 0:
        raise ValueError("no items to cluster")
    order, entry = dm.prim_order
    runs = np.split(order, np.flatnonzero(entry >= _cutoff(a_crit, dm.m))[1:])
    return tuple(sorted(tuple(sorted(run.tolist())) for run in runs))
