"""Examinee scoring (classical and weighted) and descriptive statistics.

The statistics are computed for a block of score vectors at once, one row
per vector, by row-wise reductions that give each row the bits np.mean and
np.std give it alone; a single score vector is the one-row case.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .response import ResponseMatrix

CLASSICAL = "classical"
WEIGHTED = "weighted"

POPULATION = "population"
SAMPLE = "sample"
SD_MODES = (POPULATION, SAMPLE)

DEFAULT_BAND = (0.30, 0.85)


@dataclass(frozen=True, eq=False)
class ScoreVector:
    """Per-examinee scores; classical row sums or weighted sums."""

    scores: np.ndarray
    kind: str

    def __post_init__(self) -> None:
        if self.kind not in (CLASSICAL, WEIGHTED):
            raise ValueError(f"unknown score kind: {self.kind!r}")
        scores = np.asarray(self.scores, dtype=np.float64)
        scores.setflags(write=False)
        object.__setattr__(self, "scores", scores)

    @property
    def m(self) -> int:
        return int(self.scores.size)


@dataclass(frozen=True)
class ScoreStats:
    """Mean, standard deviation, and coefficient of variation sd/mean.

    cv is None (undefined) when the mean is not positive.
    """

    mean: float
    sd: float
    cv: float | None
    sd_mode: str


@dataclass(frozen=True, eq=False)
class ItemDifficultyReport:
    """Per-item proportion correct with acceptance-band flags."""

    p: np.ndarray
    band: tuple[float, float]
    flags: tuple[str, ...]


def classical_scores(matrix: ResponseMatrix) -> ScoreVector:
    """One point per correctly restored gap: per-examinee row sums."""
    return ScoreVector(scores=matrix.cells.sum(axis=1), kind=CLASSICAL)


def weighted_scores(matrix: ResponseMatrix, w: np.ndarray) -> ScoreVector:
    """Sum of the item weights w over the items each examinee answered correctly."""
    if len(w) != matrix.n:
        raise ValueError(f"weight count {len(w)} does not match item count {matrix.n}")
    return ScoreVector(scores=matrix.cells @ w, kind=WEIGHTED)


def _row_stats(scores: np.ndarray, sd_mode: str) -> list[tuple]:
    """(mean, sd, cv) of each row of a 2-D block of score vectors.

    Population mode divides squared deviations by m, sample mode by m - 1.
    Each row goes through the same steps as np.mean and np.std on it alone:
    a pairwise add.reduce along the row, division by the count, the squared
    deviations from that mean summed the same way, then the square root. So
    every figure has the bits np.mean and np.std give the row.
    """
    if sd_mode not in SD_MODES:
        raise ValueError(f"unknown sd_mode: {sd_mode!r}")
    m = scores.shape[1]
    if m < 2:
        raise ValueError("need at least 2 scores for statistics")
    mean = np.add.reduce(scores, axis=1) / m
    squares = scores - mean[:, None]
    squares *= squares
    ddof = 0 if sd_mode == POPULATION else 1
    sd = np.sqrt(np.add.reduce(squares, axis=1) / (m - ddof))
    return [
        (mu, s, s / mu if mu > 0 else None)
        for mu, s in zip(mean.tolist(), sd.tolist())
    ]


def score_stats(scores: ScoreVector, sd_mode: str = POPULATION) -> ScoreStats:
    """Descriptive statistics of a score vector: the one-row ``_row_stats``.

    Population mode divides squared deviations by m, sample mode by m - 1.
    """
    mean, sd, cv = _row_stats(scores.scores[None, :], sd_mode)[0]
    return ScoreStats(mean=mean, sd=sd, cv=cv, sd_mode=sd_mode)


def item_difficulties(
    matrix: ResponseMatrix, band: tuple[float, float] = DEFAULT_BAND
) -> ItemDifficultyReport:
    """Proportion correct per item, flagged against the acceptance band.

    Items above the band are too_easy, below it too_hard, inside it ok.
    """
    low, high = band
    if not 0.0 <= low <= high <= 1.0:
        raise ValueError(f"band must satisfy 0 <= low <= high <= 1, got {band}")
    p = matrix.cells.mean(axis=0)
    flags = tuple(
        "too_easy" if pi > high else "too_hard" if pi < low else "ok" for pi in p
    )
    return ItemDifficultyReport(p=p, band=(low, high), flags=flags)
