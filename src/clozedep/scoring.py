"""Examinee scoring (classical and weighted) and descriptive statistics."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .response import ResponseMatrix
from .weighting import WeightAssignment

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


def weighted_scores(matrix: ResponseMatrix, wa: WeightAssignment) -> ScoreVector:
    """Sum of weights over the items each examinee answered correctly."""
    if wa.n != matrix.n:
        raise ValueError(f"weight count {wa.n} does not match item count {matrix.n}")
    return ScoreVector(scores=matrix.cells @ wa.w, kind=WEIGHTED)


def score_stats(scores: ScoreVector, sd_mode: str = POPULATION) -> ScoreStats:
    """Descriptive statistics of a score vector.

    Population mode divides squared deviations by m, sample mode by m - 1.
    """
    if sd_mode not in SD_MODES:
        raise ValueError(f"unknown sd_mode: {sd_mode!r}")
    values = scores.scores
    m = values.size
    if m < 2:
        raise ValueError("need at least 2 scores for statistics")
    mean = float(np.mean(values))
    ddof = 0 if sd_mode == POPULATION else 1
    sd = float(np.std(values, ddof=ddof))
    cv = sd / mean if mean > 0 else None
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
