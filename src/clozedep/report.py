"""Pipeline orchestration and report rendering (JSON, CSV, plots).

Reports are pure functions of the input matrix and flags: no timestamps,
no paths, decimal-point number formatting, full float precision. The JSON
document round-trips every numeric field exactly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .distance import DistanceMatrix, distance_matrix
from .response import ResponseMatrix
from .scoring import (
    DEFAULT_BAND,
    POPULATION,
    ItemDifficultyReport,
    ScoreStats,
    ScoreVector,
    classical_scores,
    item_difficulties,
    score_stats,
    weighted_scores,
)
from .sweep import (
    EXACT,
    SelectionUndefinedError,
    SweepRow,
    SweepTable,
    candidate_thresholds,
    run_sweep,
)
from .weighting import NEIGHBORHOOD, WeightAssignment, weights_at

SCHEMA_VERSION = 1

FIXED = "fixed"


@dataclass(frozen=True, eq=False)
class Analysis:
    """Everything one pipeline run produced, ready for rendering."""

    matrix: ResponseMatrix
    distances: DistanceMatrix
    mode: str
    sd_mode: str
    band: tuple[float, float]
    strategy: str
    grid_step: float | None
    fixed_a_crit: float | None
    table: SweepTable
    weights: WeightAssignment
    difficulty: ItemDifficultyReport
    classical: ScoreVector
    weighted: ScoreVector
    stats_classical: ScoreStats
    stats_weighted: ScoreStats


def analyze(
    matrix: ResponseMatrix,
    *,
    a_crit: float | None = None,
    mode: str = NEIGHBORHOOD,
    sd_mode: str = POPULATION,
    band: tuple[float, float] = DEFAULT_BAND,
    strategy: str = EXACT,
    grid_step: float = 0.01,
) -> Analysis:
    """Run the full pipeline at a fixed threshold or over a sweep.

    With ``a_crit=None`` the thresholds come from the chosen enumeration
    strategy and the best row (maximal cv) decides the reported weights;
    SelectionUndefinedError is raised if no row has a defined cv. With a
    fixed ``a_crit`` the single evaluated row is the report's whole sweep.
    """
    dm = distance_matrix(matrix)
    if a_crit is None:
        thresholds = candidate_thresholds(dm, strategy=strategy, grid_step=grid_step)
        table = run_sweep(matrix, dm, thresholds, mode=mode, sd_mode=sd_mode)
        if table.best_index is None:
            raise SelectionUndefinedError("no sweep row has a defined cv")
        selected_a = table.rows[table.best_index].a_crit
    else:
        table = run_sweep(matrix, dm, [a_crit], mode=mode, sd_mode=sd_mode)
        selected_a = a_crit
    weights = weights_at(dm, selected_a, mode)
    weighted = weighted_scores(matrix, weights.w)
    classical = classical_scores(matrix)
    return Analysis(
        matrix=matrix,
        distances=dm,
        mode=mode,
        sd_mode=sd_mode,
        band=band,
        strategy=FIXED if a_crit is not None else strategy,
        grid_step=grid_step if a_crit is None and strategy == "grid" else None,
        fixed_a_crit=a_crit,
        table=table,
        weights=weights,
        difficulty=item_difficulties(matrix, band),
        classical=classical,
        weighted=weighted,
        stats_classical=score_stats(classical, sd_mode),
        stats_weighted=score_stats(weighted, sd_mode),
    )


def _row_dict(row: SweepRow) -> dict:
    return {
        "a_crit": float(row.a_crit),
        "mode": row.mode,
        "mean": float(row.mean),
        "sd": float(row.sd),
        "cv": None if row.cv is None else float(row.cv),
        "sum_w": float(row.sum_w),
        "singleton_count": int(row.singleton_count),
        "avg_items_per_cluster": float(row.avg_items_per_cluster),
    }


def report_dict(analysis: Analysis) -> dict:
    """Analysis as a JSON-ready dict with a fixed key layout."""
    thresholds: dict = {"strategy": analysis.strategy}
    if analysis.strategy == FIXED:
        thresholds["a_crit"] = float(analysis.fixed_a_crit)
    if analysis.grid_step is not None:
        thresholds["grid_step"] = float(analysis.grid_step)

    items = []
    for i, item_id in enumerate(analysis.matrix.item_ids):
        items.append(
            {
                "id": item_id,
                "p": float(analysis.difficulty.p[i]),
                "flag": analysis.difficulty.flags[i],
                "k": int(analysis.weights.k[i]),
                "w": float(analysis.weights.w[i]),
                "singleton": bool(analysis.weights.k[i] == 1),
            }
        )
    examinees = []
    for e, examinee_id in enumerate(analysis.matrix.examinee_ids):
        examinees.append(
            {
                "id": examinee_id,
                "classical": float(analysis.classical.scores[e]),
                "weighted": float(analysis.weighted.scores[e]),
            }
        )

    sc, sw = analysis.stats_classical, analysis.stats_weighted
    best_index = analysis.table.best_index
    best = None
    if best_index is not None:
        best = {"index": best_index, **_row_dict(analysis.table.rows[best_index])}

    return {
        "schema_version": SCHEMA_VERSION,
        "config": {
            "mode": analysis.mode,
            "sd_mode": analysis.sd_mode,
            "band": [float(analysis.band[0]), float(analysis.band[1])],
            "thresholds": thresholds,
        },
        "items": items,
        "examinees": examinees,
        "summary_classical": {
            "mean": float(sc.mean),
            "sd": float(sc.sd),
            "cv": None if sc.cv is None else float(sc.cv),
        },
        "summary_weighted": {
            "a_crit": float(analysis.weights.a_crit),
            "mean": float(sw.mean),
            "sd": float(sw.sd),
            "cv": None if sw.cv is None else float(sw.cv),
            "sum_w": float(analysis.weights.sum_w),
            "singleton_count": int(analysis.weights.singleton_count),
            "avg_items_per_cluster": float(
                analysis.matrix.n / analysis.weights.sum_w
            ),
        },
        "sweep": [_row_dict(row) for row in analysis.table.rows],
        "best": best,
    }


def render_json(report: dict) -> str:
    return json.dumps(report, indent=2, allow_nan=False) + "\n"


def _fmt(value: object) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _csv_table(header: list[str], rows: list[list[object]]) -> str:
    lines = [",".join(header)]
    lines.extend(",".join(map(_fmt, row)) for row in rows)
    return "\n".join(lines) + "\n"


def csv_tables(report: dict) -> dict[str, str]:
    """Report as one CSV table per section: items, examinees, sweep, summary."""
    items = _csv_table(
        ["id", "p", "flag", "k", "w", "singleton"],
        [
            [it["id"], it["p"], it["flag"], it["k"], it["w"], it["singleton"]]
            for it in report["items"]
        ],
    )
    examinees = _csv_table(
        ["id", "classical", "weighted"],
        [[ex["id"], ex["classical"], ex["weighted"]] for ex in report["examinees"]],
    )
    best = report["best"]
    best_index = best["index"] if best else None
    sweep = _csv_table(
        [
            "a_crit",
            "mode",
            "mean",
            "sd",
            "cv",
            "sum_w",
            "singleton_count",
            "avg_items_per_cluster",
            "selected",
        ],
        [
            [
                row["a_crit"],
                row["mode"],
                row["mean"],
                row["sd"],
                row["cv"],
                row["sum_w"],
                row["singleton_count"],
                row["avg_items_per_cluster"],
                i == best_index,
            ]
            for i, row in enumerate(report["sweep"])
        ],
    )
    sc = report["summary_classical"]
    sw = report["summary_weighted"]
    summary = _csv_table(
        [
            "kind",
            "mean",
            "sd",
            "cv",
            "a_crit",
            "sum_w",
            "singleton_count",
            "avg_items_per_cluster",
        ],
        [
            ["classical", sc["mean"], sc["sd"], sc["cv"], None, None, None, None],
            [
                "weighted",
                sw["mean"],
                sw["sd"],
                sw["cv"],
                sw["a_crit"],
                sw["sum_w"],
                sw["singleton_count"],
                sw["avg_items_per_cluster"],
            ],
        ],
    )
    return {"items": items, "examinees": examinees, "sweep": sweep, "summary": summary}


_ASCII_W = 60
_ASCII_H = 13


def ascii_plot(table: SweepTable) -> str:
    """cv against a_crit as an 80-column text chart; '*' marks the selection."""
    points = [(row.a_crit, row.cv) for row in table.rows if row.cv is not None]
    if not points:
        return "cv vs a_crit: no rows with defined cv\n"
    best_a = (
        table.rows[table.best_index].a_crit if table.best_index is not None else None
    )
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    xmin, xmax = min(xs), max(xs)
    ymin, ymax = min(ys), max(ys)

    def col(x: float) -> int:
        if xmax == xmin:
            return 0
        return round((x - xmin) / (xmax - xmin) * (_ASCII_W - 1))

    def level(y: float) -> int:
        if ymax == ymin:
            return 0
        return round((y - ymin) / (ymax - ymin) * (_ASCII_H - 1))

    grid = [[" "] * _ASCII_W for _ in range(_ASCII_H)]
    for x, y in points:
        r = _ASCII_H - 1 - level(y)
        c = col(x)
        grid[r][c] = "*" if best_a is not None and x == best_a else "o"

    lines = ["cv vs a_crit  (* = selected)"]
    for r in range(_ASCII_H):
        if r == 0:
            label = f"{ymax:8.4f}"
        elif r == _ASCII_H - 1:
            label = f"{ymin:8.4f}"
        else:
            label = " " * 8
        lines.append(f"{label} |" + "".join(grid[r]).rstrip())
    lines.append(" " * 9 + "+" + "-" * _ASCII_W)
    left = f"{xmin:.4f}"
    right = f"{xmax:.4f}"
    pad = _ASCII_W - len(left) - len(right)
    lines.append(" " * 10 + left + " " * max(pad, 1) + right)
    return "\n".join(lines) + "\n"


_SVG_W, _SVG_H = 640, 400
_SVG_PAD = 50


def svg_plot(table: SweepTable) -> str:
    """Self-contained static SVG line chart of cv against a_crit."""
    points = [(row.a_crit, row.cv) for row in table.rows if row.cv is not None]
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_W}" height="{_SVG_H}" '
        f'viewBox="0 0 {_SVG_W} {_SVG_H}">',
        f'<rect width="{_SVG_W}" height="{_SVG_H}" fill="white"/>',
    ]
    if not points:
        parts.append(
            f'<text x="{_SVG_W / 2:.2f}" y="{_SVG_H / 2:.2f}" text-anchor="middle" '
            'font-family="monospace">no rows with defined cv</text>'
        )
        parts.append("</svg>")
        return "\n".join(parts) + "\n"

    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    xmin, xmax = min(xs), max(xs)
    ymin, ymax = min(ys), max(ys)

    def px(x: float) -> float:
        if xmax == xmin:
            return _SVG_W / 2
        return _SVG_PAD + (x - xmin) / (xmax - xmin) * (_SVG_W - 2 * _SVG_PAD)

    def py(y: float) -> float:
        if ymax == ymin:
            return _SVG_H / 2
        return _SVG_H - _SVG_PAD - (y - ymin) / (ymax - ymin) * (_SVG_H - 2 * _SVG_PAD)

    axis_y = _SVG_H - _SVG_PAD
    parts.append(
        f'<line x1="{_SVG_PAD}" y1="{axis_y}" x2="{_SVG_W - _SVG_PAD}" y2="{axis_y}" '
        'stroke="black"/>'
    )
    parts.append(
        f'<line x1="{_SVG_PAD}" y1="{_SVG_PAD}" x2="{_SVG_PAD}" y2="{axis_y}" '
        'stroke="black"/>'
    )
    coords = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in points)
    parts.append(f'<polyline points="{coords}" fill="none" stroke="steelblue"/>')
    for x, y in points:
        parts.append(f'<circle cx="{px(x):.2f}" cy="{py(y):.2f}" r="3" fill="steelblue"/>')
    if table.best_index is not None:
        row = table.rows[table.best_index]
        parts.append(
            f'<circle cx="{px(row.a_crit):.2f}" cy="{py(row.cv):.2f}" r="6" '
            'fill="none" stroke="crimson" stroke-width="2"/>'
        )
    parts.append(
        f'<text x="{_SVG_PAD}" y="{axis_y + 20}" font-family="monospace" '
        f'font-size="12">a_crit {xmin!r} .. {xmax!r}</text>'
    )
    parts.append(
        f'<text x="{_SVG_PAD}" y="{_SVG_PAD - 10}" font-family="monospace" '
        f'font-size="12">cv {ymin!r} .. {ymax!r}</text>'
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def emit_plot(table: SweepTable, style: str) -> str:
    """Render the sweep as a chart in the requested style."""
    if style == "ascii":
        return ascii_plot(table)
    if style == "svg":
        return svg_plot(table)
    raise ValueError(f"unknown plot style: {style!r}")
