"""Binary response matrix: ingestion from delimited text, validation, serialization.

The universal input is an examinee-by-row, item-by-column grid of 0/1
outcomes (1 = gap restored correctly). Files may optionally carry a header
row of item ids and/or a leading examinee-id column; when absent, labels
are generated ("e1", ..., "i1", ...). Empty or "NA" cells are rejected by
default and can be scored as incorrect via ``missing_policy="as_incorrect"``.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

_MISSING_TOKENS = {"", "na"}


class ResponseDataError(ValueError):
    """Delimited input or matrix contents violate the response-data contract."""


@dataclass(frozen=True, eq=False)
class ResponseMatrix:
    """Validated examinee x item grid of 0/1 outcomes.

    ``cells`` is an (m, n) read-only integer array; ``missing_filled`` counts
    cells that were empty/NA in the source and scored 0 (metadata only, not
    part of equality).
    """

    examinee_ids: tuple[str, ...]
    item_ids: tuple[str, ...]
    cells: np.ndarray
    missing_filled: int = 0

    def __post_init__(self) -> None:
        cells = np.asarray(self.cells, dtype=np.int64)
        if cells.ndim != 2:
            raise ResponseDataError("cells must be a 2-D grid")
        m, n = cells.shape
        if m < 2:
            raise ResponseDataError(f"need at least 2 examinees, got {m}")
        if n < 2:
            raise ResponseDataError(f"need at least 2 items, got {n}")
        bad = (cells != 0) & (cells != 1)
        if bad.any():
            e, i = np.argwhere(bad)[0]
            raise ResponseDataError(
                f"non-binary cell at row {e + 1}, col {i + 1}: {cells[e, i]}"
            )
        examinee_ids = tuple(str(x) for x in self.examinee_ids)
        item_ids = tuple(str(x) for x in self.item_ids)
        if len(examinee_ids) != m:
            raise ResponseDataError(
                f"{len(examinee_ids)} examinee ids for {m} rows"
            )
        if len(item_ids) != n:
            raise ResponseDataError(f"{len(item_ids)} item ids for {n} columns")
        if len(set(examinee_ids)) != m:
            raise ResponseDataError("duplicate examinee ids")
        if len(set(item_ids)) != n:
            raise ResponseDataError("duplicate item ids")
        cells.setflags(write=False)
        object.__setattr__(self, "cells", cells)
        object.__setattr__(self, "examinee_ids", examinee_ids)
        object.__setattr__(self, "item_ids", item_ids)

    @property
    def m(self) -> int:
        return self.cells.shape[0]

    @property
    def n(self) -> int:
        return self.cells.shape[1]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ResponseMatrix):
            return NotImplemented
        return (
            self.examinee_ids == other.examinee_ids
            and self.item_ids == other.item_ids
            and np.array_equal(self.cells, other.cells)
        )

    __hash__ = None  # type: ignore[assignment]


def _generated_ids(prefix: str, count: int) -> tuple[str, ...]:
    return tuple(f"{prefix}{i + 1}" for i in range(count))


def parse_response_csv(
    text: str,
    *,
    delimiter: str = ",",
    header_row: bool = False,
    id_column: bool = False,
    missing_policy: str = "error",
    transpose: bool = False,
) -> ResponseMatrix:
    """Parse delimited 0/1 response data into a validated ResponseMatrix.

    Rows are examinees and columns are items unless ``transpose`` is set, in
    which case the grid (and its labels) are flipped after reading. With
    ``missing_policy="as_incorrect"`` empty/NA cells become 0 and their count
    is recorded on the returned matrix as ``missing_filled``.
    """
    if missing_policy not in ("error", "as_incorrect"):
        raise ValueError(f"unknown missing_policy: {missing_policy!r}")
    if len(delimiter) != 1:
        raise ResponseDataError(
            f"delimiter must be a single character, got {delimiter!r}"
        )
    lines = text.splitlines()
    rows = [row for row in csv.reader(lines, delimiter=delimiter) if row]
    if not rows:
        raise ResponseDataError("empty input")
    widths = {len(row) for row in rows}
    if len(widths) != 1:
        raise ResponseDataError(
            f"ragged rows: field counts {sorted(widths)} differ across lines"
        )

    col_labels: tuple[str, ...] | None = None
    row_labels: tuple[str, ...] | None = None
    if header_row:
        header = rows[0]
        rows = rows[1:]
        if id_column:
            header = header[1:]  # drop the corner label over the id column
        col_labels = tuple(s.strip() for s in header)
    if id_column:
        row_labels = tuple(row[0].strip() for row in rows)
        rows = [row[1:] for row in rows]
    if not rows or not rows[0]:
        raise ResponseDataError("no data cells after header/id handling")

    missing_filled = 0
    grid = np.zeros((len(rows), len(rows[0])), dtype=np.int64)
    for r, row in enumerate(rows):
        for c, raw in enumerate(row):
            cell = raw.strip()
            if cell == "0":
                continue
            if cell == "1":
                grid[r, c] = 1
            elif cell.lower() in _MISSING_TOKENS:
                if missing_policy == "error":
                    raise ResponseDataError(
                        f"missing cell at row {r + 1}, col {c + 1} "
                        "(missing_policy=error)"
                    )
                missing_filled += 1  # scored as incorrect, already 0
            else:
                raise ResponseDataError(
                    f"non-binary cell at row {r + 1}, col {c + 1}: {cell!r}"
                )

    if transpose:
        grid = grid.T.copy()
        row_labels, col_labels = col_labels, row_labels

    examinee_ids = row_labels or _generated_ids("e", grid.shape[0])
    item_ids = col_labels or _generated_ids("i", grid.shape[1])
    return ResponseMatrix(
        examinee_ids=examinee_ids,
        item_ids=item_ids,
        cells=grid,
        missing_filled=missing_filled,
    )


def to_csv(
    matrix: ResponseMatrix,
    *,
    delimiter: str = ",",
    header_row: bool = True,
    id_column: bool = True,
) -> str:
    """Serialize a matrix back to delimited text (inverse of parse_response_csv)."""
    lines = []
    if header_row:
        head = list(matrix.item_ids)
        if id_column:
            head = ["id"] + head
        lines.append(delimiter.join(head))
    for e in range(matrix.m):
        row = [str(int(v)) for v in matrix.cells[e]]
        if id_column:
            row = [matrix.examinee_ids[e]] + row
        lines.append(delimiter.join(row))
    return "\n".join(lines) + "\n"
