"""Threshold enumeration, evaluation at each distinct cutoff, and selection.

The selection criterion is score variability: the threshold whose weighted
scores have the largest coefficient of variation wins. Because the distance
values live on the finite grid k/m, the "exact" strategy enumerates every
distinct neighborhood structure once (each unique distance, plus one value
past the largest), so exhaustive evaluation is complete and cheap. Every
threshold is an integer mismatch cutoff, so rows that share a cutoff share
one evaluation of the weights, scores and statistics.

The distinct cutoffs are evaluated in blocks. One call of the sizing kernel
behind ``weighting.weights_at`` sizes and weighs a whole block; the cells
are cast to float64 once per sweep, and each cutoff's scores are one GEMV
into a row of the block; the block's means and standard deviations are
row-wise reductions with the bits of np.mean and np.std. A block has
max(1, 2**20 // (m + n)) rows, so the extra memory stays O(2**20) numbers
per array however many cutoffs a sweep has.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# distance_matrix stays bound here: perfbench/spans.py patches every module
# binding of a traced function, and its self-test probes this one.
from .distance import DistanceMatrix, distance_matrix  # noqa: F401
from .response import ResponseMatrix
from .scoring import POPULATION, _row_stats
from .weighting import NEIGHBORHOOD, _cutoff, _weigh

EXACT = "exact"
GRID = "grid"
STRATEGIES = (EXACT, GRID)

SELECT_TOLERANCE = 1e-12

# The grid strategy yields about 1 / grid_step rows; a smaller step is
# refused, so a sweep has at most about 10**4 rows.
MIN_GRID_STEP = 1e-4

# Elements of a block's cutoff-by-item and cutoff-by-examinee arrays: a
# block of cutoffs has max(1, _BLOCK_ELEMENTS // (m + n)) rows, so its
# sizes, weights, scores and squared deviations stay near 8 MB each
# whatever the number of cutoffs.
_BLOCK_ELEMENTS = 2**20


class SelectionUndefinedError(RuntimeError):
    """No sweep row has a defined coefficient of variation."""


@dataclass(frozen=True)
class SweepRow:
    """One pipeline evaluation at a single threshold."""

    a_crit: float
    mode: str
    mean: float
    sd: float
    cv: float | None
    sum_w: float
    singleton_count: int
    avg_items_per_cluster: float


@dataclass(frozen=True, eq=False)
class SweepTable:
    """Rows sorted ascending by a_crit; best_index marks the selected row."""

    rows: tuple[SweepRow, ...]
    best_index: int | None

    def __post_init__(self) -> None:
        a = [row.a_crit for row in self.rows]
        if any(x >= y for x, y in zip(a, a[1:])):
            raise ValueError("rows must be strictly increasing in a_crit")
        if self.best_index is not None:
            if not 0 <= self.best_index < len(self.rows):
                raise ValueError("best_index out of range")
            if self.rows[self.best_index].cv is None:
                raise ValueError("best_index must point to a row with defined cv")


def candidate_thresholds(
    dm: DistanceMatrix, strategy: str = EXACT, grid_step: float = 0.01
) -> list[float]:
    """Ascending threshold candidates for the sweep.

    exact: the sorted unique off-diagonal distances u_1 < ... < u_L plus
    u_L + 1/(2m). Under strict comparison, threshold u_k admits exactly the
    distances <= u_{k-1}, so this list realizes every distinct neighborhood
    structure once.

    grid: multiples of grid_step up to 1, plus 1 + 1/(2m). grid_step must
    lie in [MIN_GRID_STEP, 1].
    """
    if dm.n < 2:
        raise ValueError("need at least 2 items to enumerate thresholds")
    if strategy == EXACT:
        # a histogram of every count; the n zeros of the diagonal come off
        histogram = np.bincount(dm.counts.ravel(), minlength=dm.m + 1)
        histogram[0] -= dm.n
        thresholds = [c / dm.m for c in np.flatnonzero(histogram).tolist()]
        thresholds.append(thresholds[-1] + 1.0 / (2 * dm.m))
        return thresholds
    if strategy == GRID:
        if not MIN_GRID_STEP <= grid_step <= 1.0:
            raise ValueError(
                f"grid_step must be in [{MIN_GRID_STEP}, 1], got {grid_step}"
            )
        thresholds = []
        k = 1
        while True:
            t = k * grid_step
            if t >= 1.0 - 1e-12:
                break
            thresholds.append(t)
            k += 1
        thresholds.append(1.0)
        thresholds.append(1.0 + 1.0 / (2 * dm.m))
        return thresholds
    raise ValueError(f"unknown strategy: {strategy!r}")


def _best_index(rows: tuple[SweepRow, ...], tolerance: float) -> int | None:
    """Row with maximal cv; ties within tolerance go to the smallest a_crit."""
    defined = [(i, row.cv) for i, row in enumerate(rows) if row.cv is not None]
    if not defined:
        return None
    max_cv = max(cv for _, cv in defined)
    for i, cv in defined:  # rows ascend in a_crit: first hit = smallest a_crit
        if cv >= max_cv - tolerance:
            return i
    return None


def run_sweep(
    matrix: ResponseMatrix,
    dm: DistanceMatrix,
    thresholds: list[float],
    mode: str = NEIGHBORHOOD,
    sd_mode: str = POPULATION,
) -> SweepTable:
    """Evaluate weighting, scoring, and statistics at each threshold.

    ``dm`` is the distance matrix of ``matrix``, computed once by the caller
    and shared by every threshold. The thresholds map onto integer cutoffs;
    each distinct cutoff is sized and scored once and its rows share that
    evaluation. Rows with undefined cv (zero mean score) are retained in
    the table but are never selected as best.
    """
    if not thresholds:
        raise ValueError("thresholds must be non-empty")
    if any(x >= y for x, y in zip(thresholds, thresholds[1:])):
        raise ValueError("thresholds must be strictly ascending")
    if (dm.m, dm.item_ids) != (matrix.m, matrix.item_ids):
        raise ValueError("distance matrix does not match the response matrix")
    cutoffs = [_cutoff(a_crit, dm.m) for a_crit in thresholds]
    distinct = list(dict.fromkeys(cutoffs))
    # the float64 cells are cast once, in C order as matmul casts the uint8
    # cells itself, so every product has the bits of ``cells @ w``
    x = np.ascontiguousarray(matrix.cells, dtype=np.float64)
    block = max(1, _BLOCK_ELEMENTS // (dm.m + dm.n))
    evaluated = {}
    for start in range(0, len(distinct), block):
        cutoff_block = distinct[start : start + block]
        _, w, sum_w, singleton_count = _weigh(dm, cutoff_block, mode)
        scores = np.empty((len(cutoff_block), dm.m))
        for row_w, row_scores in zip(w, scores):
            # one GEMV per cutoff: a GEMM over the block sums in another order
            np.matmul(x, row_w, out=row_scores)
        stats = _row_stats(scores, sd_mode)
        evaluated.update(zip(cutoff_block, zip(stats, sum_w, singleton_count)))
    rows = []
    for a_crit, c in zip(thresholds, cutoffs):
        (mean, sd, cv), sum_w, singleton_count = evaluated[c]
        rows.append(
            SweepRow(
                a_crit=float(a_crit),
                mode=mode,
                mean=mean,
                sd=sd,
                cv=cv,
                sum_w=sum_w,
                singleton_count=singleton_count,
                avg_items_per_cluster=matrix.n / sum_w,
            )
        )
    rows = tuple(rows)
    return SweepTable(rows=rows, best_index=_best_index(rows, SELECT_TOLERANCE))
