"""Normalized mismatch distance between item outcome columns.

The distance between two items is the number of examinees on which their
0/1 outcome columns disagree, divided by the examinee count m. Every value
is therefore a grid point k/m; the integer mismatch counts are kept
alongside the float matrix so threshold comparisons can stay exact.
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
    ``d = counts / m`` are the unit-interval distances.
    """

    counts: np.ndarray
    m: int
    item_ids: tuple[str, ...]

    def __post_init__(self) -> None:
        counts = np.asarray(self.counts, dtype=np.int64)
        if counts.ndim != 2 or counts.shape[0] != counts.shape[1]:
            raise ValueError("counts must be a square matrix")
        if self.m < 1:
            raise ValueError("m must be positive")
        if (counts < 0).any() or (counts > self.m).any():
            raise ValueError("mismatch counts must lie in [0, m]")
        if (np.diagonal(counts) != 0).any():
            raise ValueError("diagonal mismatch counts must be 0")
        if not np.array_equal(counts, counts.T):
            raise ValueError("mismatch counts must be symmetric")
        counts.setflags(write=False)
        d = counts / self.m
        d.setflags(write=False)
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "item_ids", tuple(self.item_ids))
        object.__setattr__(self, "_d", d)

    @property
    def d(self) -> np.ndarray:
        """Unit-interval distance grid (read-only view)."""
        return self._d  # type: ignore[attr-defined]

    @property
    def n(self) -> int:
        return self.counts.shape[0]

    @functools.cached_property
    def spanning_tree(self) -> np.ndarray:
        """Minimum spanning tree of the counts: n - 1 rows (count, i, j), i < j.

        Rows are sorted ascending. Prim's algorithm on the dense matrix,
        O(n^2), computed once per distance matrix. Items are joined by a
        chain of counts below c iff the tree edges below c join them, so
        the tree's cuts are the single-linkage clusters (Gower & Ross 1969).
        """
        n = self.n
        edges = np.zeros((max(n - 1, 0), 3), dtype=np.int64)
        outside = np.ones(n, dtype=bool)
        best = np.full(n, self.m + 1)  # sentinel above every count
        nearest = np.zeros(n, dtype=np.int64)
        j = 0
        for edge in edges:
            outside[j] = False
            best[j] = self.m + 1
            closer = outside & (self.counts[j] < best)
            best[closer] = self.counts[j, closer]
            nearest[closer] = j
            j = int(np.argmin(best))
            edge[:] = best[j], min(nearest[j], j), max(nearest[j], j)
        edges = edges[np.lexsort(edges.T[::-1])]
        edges.setflags(write=False)
        return edges


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
    return DistanceMatrix(counts=counts, m=matrix.m, item_ids=matrix.item_ids)


def distances_to_csv(dm: DistanceMatrix, *, delimiter: str = ",") -> str:
    """Distance matrix as delimited text with item ids as header and row labels."""
    lines = [delimiter.join(["id"] + list(dm.item_ids))]
    for i in range(dm.n):
        row = [dm.item_ids[i]] + [repr(float(v)) for v in dm.d[i]]
        lines.append(delimiter.join(row))
    return "\n".join(lines) + "\n"
