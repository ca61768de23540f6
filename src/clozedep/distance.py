"""Normalized mismatch distance between item outcome columns.

The distance between two items is the number of examinees on which their
0/1 outcome columns disagree, divided by the examinee count m. Every value
is therefore a grid point k/m. Threshold comparisons use the integer
mismatch counts, so they stay exact; the float matrix is derived from the
counts only when it is read.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .response import ResponseMatrix


@dataclass(frozen=True, eq=False)
class DistanceMatrix:
    """Symmetric item x item normalized-mismatch distances.

    ``counts[i, j]`` is the integer mismatch count between items i and j;
    ``d = counts / m`` are the unit-interval distances. ``counts`` is a
    read-only int64 array; counts passed in are copied, so a caller's
    writeable array is neither frozen nor shared, and only read-only int64
    counts are kept as they are (``distance_matrix`` hands its own over).
    """

    counts: np.ndarray
    m: int
    item_ids: tuple[str, ...]

    def __post_init__(self) -> None:
        counts = np.asarray(self.counts)
        if counts.ndim != 2 or counts.shape[0] != counts.shape[1]:
            raise ValueError("counts must be a square matrix")
        if self.m < 1:
            raise ValueError("m must be positive")
        if not ((counts >= 0) & (counts <= self.m)).all():  # NaN fails too
            raise ValueError("mismatch counts must lie in [0, m]")
        if not np.array_equal(counts, np.trunc(counts)):  # before the cast truncates
            raise ValueError("mismatch counts must be integers")
        if counts.flags.writeable or counts.dtype != np.int64:
            counts = counts.astype(np.int64)  # a copy: the caller's array stays theirs
        if (np.diagonal(counts) != 0).any():
            raise ValueError("diagonal mismatch counts must be 0")
        if not np.array_equal(counts, counts.T):
            raise ValueError("mismatch counts must be symmetric")
        counts.setflags(write=False)
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "item_ids", tuple(self.item_ids))

    @functools.cached_property
    def d(self) -> np.ndarray:
        """Unit-interval distance grid counts / m (read-only), built on first use."""
        d = self.counts / self.m
        d.setflags(write=False)
        return d

    @property
    def n(self) -> int:
        return self.counts.shape[0]

    @functools.cached_property
    def prim_order(self) -> tuple[np.ndarray, np.ndarray]:
        """Prim's visiting order from item 0, and the count that reached each item.

        ``order`` lists the items in the order Prim's algorithm on the dense
        counts adds them, O(n^2), computed once per distance matrix.
        ``entry[p]`` is the count of the tree edge that reached ``order[p]``,
        and ``entry[0] = m + 1``. Prim's algorithm visits a whole
        single-linkage cluster before it leaves it (Gower & Ross 1969), so
        the clusters below a cutoff c are the runs of ``order`` that start
        where ``entry >= c``. Each step takes the minimum of ``best`` and the
        new item's counts, then the maximum with ``visited`` (m + 2 on the
        tree), so argmin of ``best`` is the nearest item outside the tree.
        """
        n = self.n
        order = np.zeros(n, dtype=np.int64)
        entry = np.zeros(n, dtype=np.int64)
        visited = np.zeros(n, dtype=np.int64)
        best = np.full(n, self.m + 1)  # sentinel above every count
        j = 0
        for p in range(n):
            order[p], entry[p] = j, best[j]
            visited[j] = self.m + 2
            np.minimum(best, self.counts[j], out=best)
            np.maximum(best, visited, out=best)
            j = int(np.argmin(best))
        order.setflags(write=False)
        entry.setflags(write=False)
        return order, entry

    @functools.cached_property
    def sorted_counts(self) -> np.ndarray:
        """Each row of counts sorted, row i raised by i * (m + 2), flattened.

        The raise puts every row above the one before, so the whole array
        ascends, and one searchsorted of ``i * (m + 2) + c`` over all rows i
        at once finds, less i * n, how many counts of row i lie below the
        cutoff c (0 <= c <= m + 1). Computed once per distance matrix.
        """
        ranked = np.sort(self.counts, axis=1)
        ranked += (np.arange(self.n) * (self.m + 2))[:, None]
        ranked = ranked.ravel()
        ranked.setflags(write=False)
        return ranked


def distance_matrix(matrix: ResponseMatrix) -> DistanceMatrix:
    """All pairwise item distances for a response matrix.

    For 0/1 columns x, y the mismatch count is s_x + s_y - 2 x'y, with s the
    column sums. The cells are cast to float64 once and the Gram X'X is one
    BLAS product. Every partial sum in it is an integer of at most m, so the
    counts are exact while m < 2**53, whatever the BLAS build, its summation
    order or its thread count. The cells are stored as uint8, and a uint8
    product would wrap at 256, so the cast must come before the product.
    """
    x = matrix.cells.astype(np.float64)
    s = x.sum(axis=0)
    gram = x.T @ x
    gram *= -2.0  # in place: no n x n temporaries besides the Gram itself
    gram += s
    gram += s[:, None]
    counts = gram.astype(np.int64)
    counts.setflags(write=False)  # handed over, not copied
    return DistanceMatrix(counts=counts, m=matrix.m, item_ids=matrix.item_ids)


def distances_to_csv(dm: DistanceMatrix) -> str:
    """Distance matrix as CSV with item ids as header and row labels."""
    lines = [",".join(["id"] + list(dm.item_ids))]
    for i in range(dm.n):
        row = [dm.item_ids[i]] + [repr(float(v)) for v in dm.d[i]]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"
