"""Pipeline orchestration and report rendering (JSON, CSV, plots).

Reports are pure functions of the input matrix and flags: no timestamps,
no paths, decimal-point number formatting, full float precision. The JSON
document round-trips every numeric field exactly. Each sweep row is its
SweepRow's fields, and summary_weighted is the selected row without its
mode. Each CSV table's columns follow the JSON keys of its section, with
``selected`` added to the sweep table; the summary table's are ``kind``,
the summary_classical keys, then the keys only summary_weighted has, and
the classical row leaves those blank.

The JSON text is exactly ``json.dumps(report, indent=2)``'s, written by
json's C encoder: each container of scalars, and each list of dicts of
scalars, is one encoder call whose separators carry the line breaks and
indentation; only the brackets are placed by hand.
"""

from __future__ import annotations

import functools
import itertools
import json
from dataclasses import dataclass
from typing import NamedTuple

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
    GRID,
    SelectionUndefinedError,
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
    A bad ``band`` raises ValueError before any distance or sweep work.
    """
    difficulty = item_difficulties(matrix, band)
    dm = distance_matrix(matrix)
    if a_crit is None:
        thresholds = candidate_thresholds(dm, strategy=strategy, grid_step=grid_step)
    else:
        thresholds = [a_crit]
    table = run_sweep(matrix, dm, thresholds, mode=mode, sd_mode=sd_mode)
    if a_crit is None and table.best_index is None:
        raise SelectionUndefinedError("no sweep row has a defined cv")
    index = table.best_index or 0
    selected = table.rows[index]
    weights = weights_at(dm, thresholds[index], mode)
    weighted = weighted_scores(matrix, weights.w)
    classical = classical_scores(matrix)
    return Analysis(
        matrix=matrix,
        distances=dm,
        mode=mode,
        sd_mode=sd_mode,
        band=band,
        strategy=FIXED if a_crit is not None else strategy,
        grid_step=grid_step if a_crit is None and strategy == GRID else None,
        fixed_a_crit=a_crit,
        table=table,
        weights=weights,
        difficulty=difficulty,
        classical=classical,
        weighted=weighted,
        stats_classical=score_stats(classical, sd_mode),
        stats_weighted=ScoreStats(selected.mean, selected.sd, selected.cv, sd_mode),
    )


def report_dict(analysis: Analysis) -> dict:
    """Analysis as a JSON-ready dict with a fixed key layout."""
    thresholds: dict = {"strategy": analysis.strategy}
    if analysis.strategy == FIXED:
        thresholds["a_crit"] = float(analysis.fixed_a_crit)
    if analysis.grid_step is not None:
        thresholds["grid_step"] = float(analysis.grid_step)

    # .tolist() gives the same Python floats and ints as float(a[i]) and
    # int(a[i]), one column at a time
    difficulty, weights = analysis.difficulty, analysis.weights
    items = [
        {"id": item_id, "p": p, "flag": flag, "k": k, "w": w, "singleton": k == 1}
        for item_id, p, flag, k, w in zip(
            analysis.matrix.item_ids,
            difficulty.p.tolist(),
            difficulty.flags,
            weights.k.tolist(),
            weights.w.tolist(),
        )
    ]
    examinees = [
        {"id": examinee_id, "classical": classical, "weighted": weighted}
        for examinee_id, classical, weighted in zip(
            analysis.matrix.examinee_ids,
            analysis.classical.scores.tolist(),
            analysis.weighted.scores.tolist(),
        )
    ]

    sc = analysis.stats_classical
    sweep = [dict(vars(row)) for row in analysis.table.rows]
    best_index = analysis.table.best_index
    # A sweep always has a best row. At a fixed threshold the one row is
    # the selection, also when its cv is undefined and best is null.
    selected = sweep[best_index or 0]

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
        "summary_weighted": {k: v for k, v in selected.items() if k != "mode"},
        "sweep": sweep,
        "best": None if best_index is None else {"index": best_index, **selected},
    }


_INDENT = "  "
_CONTAINERS = (dict, list, tuple)


@functools.lru_cache(maxsize=None)
def _encode_at(depth: int):
    """json's C encoder, whose item separator ends a line and indents to depth.

    On CPython 3.11 ``json.dumps`` runs its pure-Python encoder whenever
    ``indent`` is set. Without an indent the C encoder runs, and a separator of
    ``",\n"`` plus the indentation lays out the members of a container of
    scalars exactly as ``indent=2`` would; only the brackets are left to
    place on their own lines.
    """
    separators = (",\n" + _INDENT * depth, ": ")
    return json.JSONEncoder(separators=separators, allow_nan=False).encode


def _holds_container(members) -> bool:
    """Whether any member is a dict, list or tuple, judged once per member type."""
    return any(issubclass(t, _CONTAINERS) for t in set(map(type, members)))


def _render(value, depth: int) -> str:
    """value as ``json.dumps(value, indent=2)`` lays it out at the given depth."""
    outer = "\n" + _INDENT * depth
    inner = outer + _INDENT
    if not isinstance(value, _CONTAINERS) or not value:
        return _encode_at(depth)(value)
    is_dict = isinstance(value, dict)
    if not _holds_container(value.values() if is_dict else value):
        text = _encode_at(depth + 1)(value)
        return text[0] + inner + text[1:-1] + outer + text[-1]
    if is_dict:
        # a one-member dict of null encodes the key exactly as json does,
        # int, float, bool and None keys too: '{"key": null}' less '{' and 'null}'
        encode = _encode_at(depth + 1)
        members = [
            encode({k: None})[1:-5] + _render(v, depth + 1) for k, v in value.items()
        ]
        return "{" + inner + ("," + inner).join(members) + outer + "}"
    if (
        all(map(isinstance, value, itertools.repeat(dict)))
        and all(value)
        and not _holds_container(itertools.chain.from_iterable(map(dict.values, value)))
    ):
        # A list of non-empty dicts of scalars: one call encodes every row. A
        # raw newline can only come from a separator, since json escapes one
        # inside a string, so "},\n{" at the rows' member indentation is
        # found only between two rows.
        member = inner + _INDENT
        text = _encode_at(depth + 2)(value)
        text = text.replace("}," + member + "{", inner + "}," + inner + "{" + member)
        return "[" + inner + "{" + member + text[2:-2] + inner + "}" + outer + "]"
    members = [_render(v, depth + 1) for v in value]
    return "[" + inner + ("," + inner).join(members) + outer + "]"


def render_json(report: dict) -> str:
    """The text of ``json.dumps(report, indent=2, allow_nan=False)``, plus a newline."""
    try:
        return _render(report, 0) + "\n"
    except (ValueError, RecursionError):
        # a non-finite float or a cycle: raise json's own error and message
        json.dumps(report, indent=2, allow_nan=False)
        raise


def _fmt(value: object) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _csv_table(rows: list[dict]) -> str:
    """Rows that share one key order as CSV, with those keys as the header."""
    lines = [",".join(rows[0])]
    lines.extend(",".join(map(_fmt, row.values())) for row in rows)
    return "\n".join(lines) + "\n"


def csv_tables(report: dict) -> dict[str, str]:
    """Report as one CSV table per section: items, examinees, sweep, summary."""
    best_index = report["best"]["index"] if report["best"] else None
    sweep = [
        {**row, "selected": i == best_index} for i, row in enumerate(report["sweep"])
    ]
    sc, sw = report["summary_classical"], report["summary_weighted"]
    blank = dict.fromkeys(["kind", *sc, *sw])  # None renders as a blank cell
    return {
        "items": _csv_table(report["items"]),
        "examinees": _csv_table(report["examinees"]),
        "sweep": _csv_table(sweep),
        "summary": _csv_table(
            [{**blank, "kind": "classical", **sc}, {**blank, "kind": "weighted", **sw}]
        ),
    }


class _Bounds(NamedTuple):
    """The least and greatest value along one axis of a plot."""

    lo: float
    hi: float

    def share(self, v: float, flat: float) -> float:
        """Where v lies from lo (0) to hi (1); ``flat`` when lo and hi coincide."""
        return flat if self.hi == self.lo else (v - self.lo) / (self.hi - self.lo)


def _frame(table: SweepTable):
    """Both plots' frame: the points with defined cv, the selected row, x and y bounds.

    None when no row has a defined cv.
    """
    points = [(row.a_crit, row.cv) for row in table.rows if row.cv is not None]
    if not points:
        return None
    best = None if table.best_index is None else table.rows[table.best_index]
    return points, best, *(_Bounds(min(v), max(v)) for v in zip(*points))


_ASCII_W = 60
_ASCII_H = 13


def ascii_plot(table: SweepTable) -> str:
    """cv against a_crit as an 80-column text chart; '*' marks the selection."""
    frame = _frame(table)
    if frame is None:
        return "cv vs a_crit: no rows with defined cv\n"
    points, best, xs, ys = frame
    grid = [[" "] * _ASCII_W for _ in range(_ASCII_H)]
    for x, y in points:
        r = _ASCII_H - 1 - round(ys.share(y, 0) * (_ASCII_H - 1))
        c = round(xs.share(x, 0) * (_ASCII_W - 1))
        grid[r][c] = "*" if best is not None and x == best.a_crit else "o"

    lines = ["cv vs a_crit  (* = selected)"]
    for r in range(_ASCII_H):
        if r == 0:
            label = f"{ys.hi:8.4f}"
        elif r == _ASCII_H - 1:
            label = f"{ys.lo:8.4f}"
        else:
            label = " " * 8
        lines.append(f"{label} |" + "".join(grid[r]).rstrip())
    lines.append(" " * 9 + "+" + "-" * _ASCII_W)
    left = f"{xs.lo:.4f}"
    right = f"{xs.hi:.4f}"
    pad = _ASCII_W - len(left) - len(right)
    lines.append(" " * 10 + left + " " * max(pad, 1) + right)
    return "\n".join(lines) + "\n"


_SVG_W, _SVG_H = 640, 400
_SVG_PAD = 50


def svg_plot(table: SweepTable) -> str:
    """Self-contained static SVG line chart of cv against a_crit."""
    frame = _frame(table)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_W}" height="{_SVG_H}" '
        f'viewBox="0 0 {_SVG_W} {_SVG_H}">',
        f'<rect width="{_SVG_W}" height="{_SVG_H}" fill="white"/>',
    ]
    if frame is None:
        parts.append(
            f'<text x="{_SVG_W / 2:.2f}" y="{_SVG_H / 2:.2f}" text-anchor="middle" '
            'font-family="monospace">no rows with defined cv</text>'
        )
        parts.append("</svg>")
        return "\n".join(parts) + "\n"
    points, best, xs, ys = frame

    def px(x: float) -> float:  # a point of coinciding bounds sits mid-plot
        return _SVG_PAD + xs.share(x, 0.5) * (_SVG_W - 2 * _SVG_PAD)

    def py(y: float) -> float:
        return _SVG_H - _SVG_PAD - ys.share(y, 0.5) * (_SVG_H - 2 * _SVG_PAD)

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
    if best is not None:
        parts.append(
            f'<circle cx="{px(best.a_crit):.2f}" cy="{py(best.cv):.2f}" r="6" '
            'fill="none" stroke="crimson" stroke-width="2"/>'
        )
    parts.append(
        f'<text x="{_SVG_PAD}" y="{axis_y + 20}" font-family="monospace" '
        f'font-size="12">a_crit {xs.lo!r} .. {xs.hi!r}</text>'
    )
    parts.append(
        f'<text x="{_SVG_PAD}" y="{_SVG_PAD - 10}" font-family="monospace" '
        f'font-size="12">cv {ys.lo!r} .. {ys.hi!r}</text>'
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
