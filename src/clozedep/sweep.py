"""Threshold enumeration, evaluation at each distinct cutoff, and selection.

The selection criterion is score variability: the threshold whose weighted
scores have the largest coefficient of variation wins. Because the distance
values live on the finite grid k/m, the "exact" strategy enumerates every
distinct neighborhood structure once (each unique distance, plus one value
past the largest), so exhaustive evaluation is complete and cheap. Every
threshold is an integer mismatch cutoff, so rows that share a cutoff share
one evaluation of the weights, scores and statistics. The weights come from
the same stateless per-cutoff kernel and step as ``weighting.weights_at``;
no weight object is built per cutoff.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# distance_matrix stays bound here: perfbench/spans.py patches every module
# binding of a traced function, and its self-test probes this one.
from .distance import DistanceMatrix, distance_matrix  # noqa: F401
from .response import ResponseMatrix
from .scoring import POPULATION, score_stats, weighted_scores
from .weighting import NEIGHBORHOOD, _cutoff, _sizes, _weights

EXACT = "exact"
GRID = "grid"
STRATEGIES = (EXACT, GRID)

SELECT_TOLERANCE = 1e-12

# The grid strategy yields about 1 / grid_step rows; a smaller step is
# refused, so a sweep has at most about 10**4 rows.
MIN_GRID_STEP = 1e-4


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
        iu = np.triu_indices(dm.n, k=1)
        unique_counts = np.unique(dm.counts[iu])
        thresholds = [int(c) / dm.m for c in unique_counts]
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
    evaluated = {}
    for c in dict.fromkeys(cutoffs):
        w, sum_w, singleton_count = _weights(*_sizes(dm, c, mode))
        stats = score_stats(weighted_scores(matrix, w), sd_mode)
        evaluated[c] = (stats, sum_w, singleton_count)
    rows = []
    for a_crit, c in zip(thresholds, cutoffs):
        stats, sum_w, singleton_count = evaluated[c]
        rows.append(
            SweepRow(
                a_crit=float(a_crit),
                mode=mode,
                mean=stats.mean,
                sd=stats.sd,
                cv=stats.cv,
                sum_w=sum_w,
                singleton_count=singleton_count,
                avg_items_per_cluster=matrix.n / sum_w,
            )
        )
    rows = tuple(rows)
    return SweepTable(rows=rows, best_index=_best_index(rows, SELECT_TOLERANCE))
