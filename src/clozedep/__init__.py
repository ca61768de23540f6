"""Dependence-aware scoring for C-test and cloze response matrices.

Items whose 0/1 outcome columns nearly coincide carry overlapping
information. This package measures that overlap as a normalized mismatch
distance, clusters items under a threshold, down-weights clustered items
by inverse cluster size, and selects the threshold that maximizes the
coefficient of variation of the resulting scores.
"""

from .distance import (
    DistanceMatrix,
    distance_matrix,
    distances_to_csv,
)
from .report import (
    Analysis,
    analyze,
    ascii_plot,
    csv_tables,
    emit_plot,
    render_json,
    report_dict,
    svg_plot,
)
from .response import (
    ResponseDataError,
    ResponseMatrix,
    parse_response_csv,
    to_csv,
)
from .scoring import (
    DEFAULT_BAND,
    POPULATION,
    SAMPLE,
    ItemDifficultyReport,
    ScoreStats,
    ScoreVector,
    classical_scores,
    item_difficulties,
    score_stats,
    weighted_scores,
)
from .simulate import (
    DUPLICATE_BLOCKS,
    LOGISTIC_LATENT,
    PlantedTruth,
    SimConfig,
    SplitMix64,
    simulate_matrix,
)
from .sweep import (
    EXACT,
    GRID,
    SelectionUndefinedError,
    SweepRow,
    SweepTable,
    candidate_thresholds,
    run_sweep,
)
from .weighting import (
    NEIGHBORHOOD,
    PARTITION,
    WeightAssignment,
    partition_clusters,
    weights_at,
)

__version__ = "0.1.0"

__all__ = [
    "Analysis",
    "DEFAULT_BAND",
    "DUPLICATE_BLOCKS",
    "DistanceMatrix",
    "EXACT",
    "GRID",
    "ItemDifficultyReport",
    "LOGISTIC_LATENT",
    "NEIGHBORHOOD",
    "PARTITION",
    "POPULATION",
    "PlantedTruth",
    "ResponseDataError",
    "ResponseMatrix",
    "SAMPLE",
    "ScoreStats",
    "ScoreVector",
    "SelectionUndefinedError",
    "SimConfig",
    "SplitMix64",
    "SweepRow",
    "SweepTable",
    "WeightAssignment",
    "analyze",
    "ascii_plot",
    "candidate_thresholds",
    "classical_scores",
    "csv_tables",
    "distance_matrix",
    "distances_to_csv",
    "emit_plot",
    "item_difficulties",
    "parse_response_csv",
    "partition_clusters",
    "render_json",
    "report_dict",
    "run_sweep",
    "score_stats",
    "simulate_matrix",
    "svg_plot",
    "to_csv",
    "weighted_scores",
    "weights_at",
    "__version__",
]
